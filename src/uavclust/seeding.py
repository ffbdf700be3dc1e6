"""Deterministic derivation of independent RNG stream seeds.

Each run owns three seeds: mobility, fading and scheme-random.  The
mobility and scheme seeds start one stream each; the fading seed heads
the key (fading seed, t_ms, lo, hi) of each V2V link sample's own
stream (see pcg64_states).  Mobility and fading seeds depend only on
(base seed, run index) so the same trajectories and link draws are
replayed for every scheme at a given run index; the scheme seed
additionally hashes the scheme name.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Tuple

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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _int_words(n: int) -> List[int]:
    """Little-endian 32-bit words of n, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


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


def pcg64_states(prefix: int, *columns) -> Iterator[Tuple[int, int]]:
    """PCG64 (state, inc) of ``np.random.default_rng((prefix, *key))``
    for every key in order, where key k takes the k-th element of each
    column.  The keys are hashed together on the first ``next``; the
    128-bit states are made one at a time.

    The prefix and the column values are non-negative integers, the
    column values below 2**64.  A key's entropy is the concatenation of each value's 32-bit words, so keys
    are hashed in groups that share the same word layout.
    """
    cols = [np.asarray(c, dtype=np.uint64) for c in columns]
    n = len(cols[0]) if cols else 1
    words = [np.full(n, w, dtype=np.uint32) for w in _int_words(prefix)]
    layout = np.zeros(n, dtype=np.int64)  # bit i: column i takes 2 words
    for i, c in enumerate(cols):
        layout |= (c > _MASK32).astype(np.int64) << i
    out = np.empty((8, n), dtype=np.uint32)
    for code in np.flatnonzero(np.bincount(layout)).tolist():
        rows = np.flatnonzero(layout == code)
        entropy = [w[rows] for w in words]
        for i, c in enumerate(cols):
            entropy.append((c[rows] & _MASK32).astype(np.uint32))
            if code >> i & 1:
                entropy.append((c[rows] >> 32).astype(np.uint32))
        out[:, rows] = _seed_sequence_state(entropy)
    # generate_state(4, uint64) pairs the words little-endian into
    # u0..u3.  PCG64 takes s = u0 << 64 | u1 and i = u2 << 64 | u3, then
    # sets inc = i << 1 | 1 and state = (inc + s) * MULT + inc.
    s_bytes = out[[2, 3, 0, 1]].T.astype("<u4").tobytes()
    i_bytes = out[[6, 7, 4, 5]].T.astype("<u4").tobytes()
    for k in range(0, 16 * n, 16):
        inc = (int.from_bytes(i_bytes[k:k + 16], "little") << 1 | 1) & _MASK128
        seed = int.from_bytes(s_bytes[k:k + 16], "little")
        yield (seed + inc) * _PCG64_MULT + inc & _MASK128, inc
