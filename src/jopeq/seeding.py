"""
numpy's `default_rng` generators for many entropy rows at once.

`np.random.default_rng(e)` hashes e with a fresh `SeedSequence` and then
builds a PCG64 from the hash, about 10 us a call. `default_rngs` gives
the generators of N rows from one hash of all the rows, run lane-wise,
and one PCG64 whose state is set per row. Its constants and steps are
numpy's: the `SeedSequence` pool hash of numpy/random/bit_generator.pyx
and `pcg64_set_seed` of numpy/random/src/pcg64. The tests compare every
state and draw with default_rng's.
"""

import numpy as np

from .dither import _PLACEHOLDER_SEED

__all__ = ["default_rngs"]

# SeedSequence's pool size and hash constants, and the PCG64 multiplier.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1


def _seed_states(words: np.ndarray) -> np.ndarray:
    """
    SeedSequence(row).generate_state(4, np.uint64) for each row of N
    rows of n 32-bit words, given as the (n, N) int64 array `words` (word
    i of every row in words[i]), as an (N, 4) uint64 array: numpy's pool
    hash (mix the row into a pool of 4 words, then draw 8 words from the
    pool, paired little-endian), run lane-wise over all rows at once. A
    pool word without a row word hashes 0, so a row of n < 4 words hashes
    as its zero-padded 4-word form; each word beyond 4 adds a mixing pass.

    The uint32 arithmetic runs on int64 lanes, each product or difference
    masked to its low 32 bits, which int64 wrap-around keeps exact.
    """
    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value *= const
            value &= _MASK32
            value ^= value >> 16
            return value
        return hashmix

    def mix(x, y):  # overwrites x
        x *= _MIX_MULT_L
        x -= _MIX_MULT_R * y
        x &= _MASK32
        x ^= x >> 16
        return x

    hash_a = hasher(_INIT_A, _MULT_A)
    pool = [hash_a(words[i] if i < len(words) else
                   np.zeros(words.shape[1], np.int64)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hash_a(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hash_a(word))
    hash_b = hasher(_INIT_B, _MULT_B)
    states = np.empty((words.shape[1], 4), dtype=np.int64)
    for j, word in enumerate(states.T):
        low = hash_b(pool[2 * j % _POOL])
        word[:] = hash_b(pool[(2 * j + 1) % _POOL])
        word <<= 32
        word |= low
    return states.view(np.uint64)


class _Pcg64Rows:
    """
    The generators np.random.default_rng gives for hashed entropy rows,
    taken in order; `states` is their (N, 4) `_seed_states`. Iterating
    yields one Generator over one PCG64 whose state is reset before each
    row to what PCG64 seeding sets (pcg64_srandom, with initstate the
    row's words 0-1 and initseq its words 2-3, high word first: inc =
    (initseq << 1) | 1, then two LCG steps with initstate added between
    them). So each row's generator must be used fully before the next one
    is taken. The PCG64 is made per iteration. A slice gives its rows.
    """

    def __init__(self, states: np.ndarray):
        self._states = states

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, rows: slice) -> "_Pcg64Rows":
        return _Pcg64Rows(self._states[rows])

    def __iter__(self):
        bit = np.random.PCG64(_PLACEHOLDER_SEED)
        gen = np.random.Generator(bit)
        for s_hi, s_lo, q_hi, q_lo in self._states.tolist():
            inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
            state = (((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc
            bit.state = {"bit_generator": "PCG64",
                         "state": {"state": state & _MASK128, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
            yield gen


def default_rngs(entropy) -> _Pcg64Rows:
    """
    The generators np.random.default_rng(row) gives for N entropy rows, as
    a sized iterable that builds none of them: all rows are hashed at
    once, and each row's PCG64 state is set when the row is reached (see
    `_Pcg64Rows`). `entropy` lists the ints of a row in order, each a
    non-negative int, the same in every row, or a 1-D array of N of them,
    one per row (of Python ints for ints of 2^64 or more): so
    default_rngs([seed, tag, ks, rs]) gives default_rng([seed, tag,
    ks[i], rs[i]]) for each i. A negative int raises ValueError, as
    default_rng does.

    SeedSequence hashes each int as its 32-bit words, least significant
    first (0 as one word), so rows whose ints split into other word
    counts are hashed in separate groups.
    """
    items = [np.asarray(e) for e in entropy]
    n = max((len(e) for e in items if e.ndim), default=1)
    parts, counts = [], []  # each int's words, and its word count
    for e in items:
        if np.any(e < 0):
            raise ValueError("expected non-negative integer")
        words, rest, count = [e & _MASK32], e >> 32, np.ones(e.shape, int)
        while np.any(rest):
            words.append(rest & _MASK32)
            count += rest > 0
            rest = rest >> 32
        parts.append([np.broadcast_to(w, (n,)) for w in words])
        counts.append(np.broadcast_to(count, (n,)))
    counts = np.stack(counts, axis=1)
    # np.unique only for mixed patterns: the simulator's rows have one, and
    # the first np.unique call alone adds 128 KB of resident numpy code.
    patterns = (counts[:1] if (counts == counts[:1]).all() else
                np.unique(counts, axis=0))
    states = np.empty((n, 4), dtype=np.uint64)
    for pattern in patterns:
        sel = (counts == pattern).all(axis=1)
        states[sel] = _seed_states(np.array(
            [words[s][sel] for words, m in zip(parts, pattern)
             for s in range(m)], dtype=np.int64))
    return _Pcg64Rows(states)
