"""Deterministic derivation of independent RNG stream seeds.

Each run owns three seeds: mobility, fading and scheme-random.  The
mobility and scheme seeds start one stream each; the fading seed heads
the key (fading seed, t_ms, lo, hi) of each V2V link sample's own
stream, ``np.random.default_rng`` of that key.  Mobility and fading
seeds depend only on (base seed, run index) so the same trajectories
and link draws are replayed for every scheme at a given run index; the
scheme seed additionally hashes the scheme name.

The link streams are never built one by one: pcg64_states seeds a batch
of them in numpy, pcg64_words steps them, and ziggurat_normal /
ziggurat_exponential turn their words into Generator draws wherever
numpy's ziggurat fast path would, bit for bit.
"""
from __future__ import annotations

import functools
import hashlib
import pathlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


def stream_seed(base: int, *labels: str) -> int:
    """Stable 64-bit seed derived from the base seed and string labels."""
    text = ":".join([str(base), *labels])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunSeeds:
    mobility: int
    fading: int
    scheme: int


def run_seeds(base: int, run_index: int, scheme: str) -> RunSeeds:
    return RunSeeds(
        mobility=stream_seed(base, "run", str(run_index), "mobility"),
        fading=stream_seed(base, "run", str(run_index), "fading"),
        scheme=stream_seed(base, "run", str(run_index), "scheme", scheme),
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier, for seeding many generators in one vectorised pass.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64


def _seed_sequence_state(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """SeedSequence(entropy words).generate_state(4, uint64) as its eight
    uint32 words, for a batch of equal-length entropies.

    ``entropy`` holds one uint32 array per entropy word, each with one
    element per key.  The hash constants do not depend on the data, so
    every key advances through the same sequence of them.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> 16))
    return state


def pcg64_states(*columns) -> np.ndarray:
    """PCG64 state and inc of ``np.random.default_rng(key)`` for every
    key, where key k takes the k-th element of each column: a (4, n)
    uint64 array whose rows are the high and low 64 bits of the state,
    then of the inc (see pcg64_state for one key as ints).

    A column is a sequence or a scalar, which stands for the same value
    in every key.  The values are non-negative integers below 2**64.
    A key's entropy is the concatenation of each value's 32-bit words,
    so keys are hashed in groups that share the same word layout.
    """
    cols = [c.ravel() for c in np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in columns))]
    n = len(cols[0])
    layout = np.zeros(n, dtype=np.int64)  # bit i: column i takes 2 words
    for i, c in enumerate(cols):
        layout |= (c > _MASK32).astype(np.int64) << i
    out = np.empty((n, 8), dtype="<u4")
    for code in np.flatnonzero(np.bincount(layout)).tolist():
        rows = np.flatnonzero(layout == code)
        entropy = []
        for i, c in enumerate(cols):
            entropy.append((c[rows] & _MASK32).astype(np.uint32))
            if code >> i & 1:
                entropy.append((c[rows] >> 32).astype(np.uint32))
        for i, word in enumerate(_seed_sequence_state(entropy)):
            out[rows, i] = word
    # generate_state(4, uint64) pairs the words little-endian into
    # u0..u3.  PCG64 takes s = u0 << 64 | u1 and i = u2 << 64 | u3, then
    # sets inc = i << 1 | 1 and state = (inc + s) * MULT + inc.
    u = out.view("<u8").T
    inc_hi = u[2] << 1 | u[3] >> 63
    inc_lo = u[3] << 1 | 1
    state = _lcg_step(*_add128(inc_hi, inc_lo, u[0], u[1]), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo])


def pcg64_state(states: np.ndarray, k: int) -> Tuple[int, int]:
    """(state, inc) of key k of pcg64_states, as the ints that
    ``bit_generator.state`` holds."""
    sh, sl, ih, il = states[:, k].tolist()
    return sh << 64 | sl, ih << 64 | il


def pcg64_words(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs (next_uint64) of every state of
    pcg64_states, as a (count, n) uint64 array.

    Each output is one LCG step followed by the XSL-RR output function
    (O'Neill 2014): the high and low halves of the new state xored, then
    rotated right by the state's top six bits.
    """
    sh, sl, ih, il = states
    out = np.empty((count, states.shape[1]), dtype=np.uint64)
    for i in range(count):
        sh, sl = _lcg_step(sh, sl, ih, il)
        rot = sh >> 58
        x = sh ^ sl
        out[i] = x >> rot | x << (-rot & 63)
    return out


def _add128(ah, al, bh, bl):
    """(a + b) mod 2**128 on (high, low) uint64 limbs."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _mul_hi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 a and the constant
    b, from 32-bit partial products."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _lcg_step(sh, sl, ih, il):
    """PCG64's LCG step state * MULT + inc (mod 2**128) on limbs."""
    hi = _mul_hi64(sl, _MULT_LO) + sh * _MULT_LO + sl * _MULT_HI
    return _add128(hi, sl * _MULT_LO, ih, il)


# strict bounds of numpy's ziggurat normal |z| and exponential (test_config)
NORMAL_DRAW_BOUND = 12.23
EXPONENTIAL_DRAW_BOUND = 44.5


@functools.lru_cache(maxsize=None)
def ziggurat_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ziggurat tables (wi, ki, we, ke) for Generator's normal
    and exponential draws, read from ``ziggurat.bin`` beside this module
    on first use: 4 x 256 little-endian 8-byte entries, float64 wi,
    uint64 ki, float64 we and uint64 ke.  numpy does not expose them;
    tests/test_ziggurat.py probes them from the installed numpy and
    rewrites the file when run as a script.
    """
    path = pathlib.Path(__file__).with_name("ziggurat.bin")
    table = np.frombuffer(path.read_bytes(), dtype="<u8").reshape(4, 256)
    return (table[0].view("<f8"), table[1], table[2].view("<f8"), table[3])


def ziggurat_normal(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_normal`` of each uint64 word where it takes
    the ziggurat fast path (Marsaglia & Tsang 2000), and whether it does.

    The low 8 bits pick the strip, bit 8 is the sign and the next 52
    bits the magnitude; the draw uses only this word when the magnitude
    is below the strip's ki.  Elsewhere the value is meaningless.
    """
    wi, ki, _, _ = ziggurat_tables()
    idx = (words & 0xFF).astype(np.intp)
    rabs = words >> 9 & (1 << 52) - 1
    x = rabs * wi[idx]
    return np.where((words & 0x100) > 0, -x, x), rabs < ki[idx]


def ziggurat_exponential(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_exponential`` of each uint64 word where it
    takes the ziggurat fast path, and whether it does: bits 3-10 pick
    the strip and bits 11-63 are the magnitude, below the strip's ke on
    the fast path."""
    _, _, we, ke = ziggurat_tables()
    idx = (words >> 3 & 0xFF).astype(np.intp)
    ri = words >> 11
    return ri * we[idx], ri < ke[idx]
