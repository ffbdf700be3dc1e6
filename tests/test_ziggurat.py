"""Batch draws of the link streams against numpy: the ziggurat tables,
probed bit for bit from the installed numpy, against the copy seeding
reads (src/uavclust/ziggurat.bin), and the fast-path draws against
``np.random.default_rng((prefix, t_ms, lo, hi))``.

Run as a script to rewrite the table file from the installed numpy.
"""
import pathlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavclust import seeding
from uavclust.seeding import (pcg64_states, pcg64_words, ziggurat_exponential,
                              ziggurat_normal)

from test_seeding import EDGE_KEYS

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_MASK128 = (1 << 128) - 1
_MULT_INV = pow(_MULT, -1, 1 << 128)


class Probe:
    """A generator set up so that its next 64-bit output is a chosen
    word.  With inc = 1, the state before it is the one whose LCG step
    lands on 0 << 64 | word: XSL-RR xors the two halves (0 ^ word) and
    rotates by the top six bits (0)."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.PCG64(0))

    def draw(self, method: str, word: int):
        """(the draw, whether it used only this word)."""
        bitgen = self.gen.bit_generator
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": (word - 1) * _MULT_INV & _MASK128,
                                  "inc": 1},
                        "has_uint32": 0, "uinteger": 0}
        x = getattr(self.gen, method)()
        return x, bitgen.state["state"]["state"] == word

    def bound(self, method: str, word_of, bits: int) -> int:
        """The least magnitude whose draw reads a second word: the fast
        path is taken exactly below it, so bisect."""
        lo, hi = 0, 1 << bits
        while lo < hi:
            mid = (lo + hi) // 2
            if self.draw(method, word_of(mid))[1]:
                lo = mid + 1
            else:
                hi = mid
        return lo


def probe_tables():
    """(wi, ki, we, ke) of the installed numpy.  A strip's w is the draw
    of magnitude 1 (1.0 * w); for the two strips whose k is 0 the slow
    path accepts that same value."""
    probe = Probe()
    normal = [(probe.draw("standard_normal", i | 1 << 9)[0],
               probe.bound("standard_normal", lambda r, i=i: i | r << 9, 52))
              for i in range(256)]
    expo = [(probe.draw("standard_exponential", i << 3 | 1 << 11)[0],
             probe.bound("standard_exponential",
                         lambda r, i=i: i << 3 | r << 11, 53))
            for i in range(256)]
    wi, ki = zip(*normal)
    we, ke = zip(*expo)
    return (np.array(wi, "<f8"), np.array(ki, "<u8"),
            np.array(we, "<f8"), np.array(ke, "<u8"))


def test_committed_tables_match_installed_numpy():
    for committed, probed in zip(seeding.ziggurat_tables(), probe_tables()):
        assert committed.dtype == probed.dtype
        assert committed.tobytes() == probed.tobytes()


U64 = st.integers(0, 2**64 - 1)
# keys whose draws take a slow path under prefix 7 and under
# 2**63 + 12345 (found by search): the normal only, the exponential
# only, both; one- and two-word t_ms
SLOW_KEYS = {7: [(650, 3, 41), (250, 3, 41), (60, 0, 90),
                 (2**32 + 39, 3, 41), (2**32 + 85, 3, 41)],
             2**63 + 12345: [(70, 3, 41), (230, 3, 41), (420, 0, 43),
                             (2**32 + 9, 3, 41), (2**32 + 14, 3, 41)]}


def words_read(gen, key) -> int:
    """How many 64-bit words gen, started as default_rng(key), has read."""
    state = gen.bit_generator.state["state"]["state"]
    fresh = np.random.default_rng(key)
    for count in range(16):
        if fresh.bit_generator.state["state"]["state"] == state:
            return count
        fresh.bit_generator.random_raw()
    raise AssertionError(f"{key}: more than 15 words read")


@settings(max_examples=60, deadline=None)
@given(prefix=U64, keys=st.lists(st.tuples(U64, U64, U64), max_size=6),
       sigma=st.floats(0.0, 20.0))
@example(prefix=7, keys=EDGE_KEYS + SLOW_KEYS[7], sigma=4.0)
@example(prefix=2**63 + 12345, keys=EDGE_KEYS + SLOW_KEYS[2**63 + 12345],
         sigma=4.0)
@example(prefix=7, keys=EDGE_KEYS + SLOW_KEYS[7], sigma=0.0)
def test_fast_path_draws_match_default_rng(prefix, keys, sigma):
    """A link stream's first word is its shadowing draw, its second the
    fast-fading draw; where the batch reports a fast path, the draw
    reads exactly that word and has the batch's value."""
    columns = [[key[i] for key in keys] for i in range(3)]
    words = pcg64_words(pcg64_states(prefix, *columns), 2)
    normal, normal_fast = ziggurat_normal(words[0])
    expo, expo_fast = ziggurat_exponential(words[1])
    for k, key in enumerate((prefix, *key) for key in keys):
        gen = np.random.default_rng(key)
        assert gen.bit_generator.random_raw(2).tolist() == words[:, k].tolist()
        gen = np.random.default_rng(key)
        shadow = gen.normal(0.0, sigma)  # read even when sigma is 0
        assert (words_read(gen, key) == 1) == normal_fast[k]
        if not normal_fast[k]:
            continue
        assert shadow == 0.0 + sigma * normal[k]
        fading = gen.exponential(1.0)
        assert (words_read(gen, key) == 2) == expo_fast[k]
        if expo_fast[k]:
            assert fading == expo[k]


def test_slow_keys_take_the_slow_paths():
    for prefix, keys in SLOW_KEYS.items():
        columns = [[key[i] for key in keys] for i in range(3)]
        words = pcg64_words(pcg64_states(prefix, *columns), 2)
        normal_fast = ziggurat_normal(words[0])[1].tolist()
        expo_fast = ziggurat_exponential(words[1])[1].tolist()
        assert list(zip(normal_fast, expo_fast)) == [
            (False, True), (True, False), (False, False), (False, True),
            (True, False)]


if __name__ == "__main__":
    path = pathlib.Path(seeding.__file__).with_name("ziggurat.bin")
    path.write_bytes(b"".join(t.tobytes() for t in probe_tables()))
    print(f"wrote {path}")
