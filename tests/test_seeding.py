"""Stream-seed derivation: pairing contract and determinism."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust.seeding import pcg64_state, pcg64_states, run_seeds, stream_seed


def test_stream_seed_deterministic_and_label_sensitive():
    assert stream_seed(1, "run", "0") == stream_seed(1, "run", "0")
    assert stream_seed(1, "run", "0") != stream_seed(1, "run", "1")
    assert stream_seed(1, "run", "0") != stream_seed(2, "run", "0")


def test_runs_get_disjoint_streams():
    a = run_seeds(1, 0, "proposed")
    b = run_seeds(1, 1, "proposed")
    assert a.mobility != b.mobility
    assert a.fading != b.fading
    assert a.scheme != b.scheme


def test_schemes_share_mobility_and_fading():
    p = run_seeds(1, 0, "proposed")
    r = run_seeds(1, 0, "random")
    assert p.mobility == r.mobility
    assert p.fading == r.fading
    assert p.scheme != r.scheme


def test_rerun_is_identical():
    assert run_seeds(42, 5, "vmasc") == run_seeds(42, 5, "vmasc")


U64 = st.integers(0, 2**64 - 1)
# one-word and two-word prefixes; t_ms across the 32-bit boundary;
# lo == hi; keys of 3, 4 and 5 words in one call
EDGE_KEYS = [(0, 3, 3), (2**32 - 1, 1, 2), (2**32, 0, 5), (2**40, 4, 4),
             (7, 2**32, 2**63)]


@settings(max_examples=60, deadline=None)
@given(prefix=U64, keys=st.lists(st.tuples(U64, U64, U64), max_size=6),
       sigma=st.floats(0.0, 20.0))
@example(prefix=7, keys=EDGE_KEYS, sigma=4.0)
@example(prefix=2**63 + 12345, keys=EDGE_KEYS, sigma=4.0)
def test_pcg64_states_match_default_rng(prefix, keys, sigma):
    columns = [[key[i] for key in keys] for i in range(3)]
    limbs = pcg64_states(prefix, *columns)
    states = [pcg64_state(limbs, k) for k in range(limbs.shape[1])]
    assert len(states) == len(keys)
    gen = np.random.Generator(np.random.PCG64(0))
    for key, (state, inc) in zip(keys, states):
        fresh = np.random.default_rng((prefix, *key))
        assert fresh.bit_generator.state["state"] == {"state": state,
                                                      "inc": inc}
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        assert gen.normal(0.0, sigma) == fresh.normal(0.0, sigma)
        assert gen.exponential(1.0) == fresh.exponential(1.0)


def test_pcg64_states_take_a_seed_per_key():
    # one-word and two-word seeds in one column, as a block's fading
    # seeds are, crossed with keys of every word layout
    keys = [(seed, *key) for seed in (7, 2**63 + 12345, 2**32)
            for key in EDGE_KEYS]
    limbs = pcg64_states(*([key[i] for key in keys] for i in range(4)))
    for k, key in enumerate(keys):
        state, inc = pcg64_state(limbs, k)
        assert np.random.default_rng(key).bit_generator.state["state"] == {
            "state": state, "inc": inc}
