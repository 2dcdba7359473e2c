"""
Shared-seed dither streams and subtractive dithered quantization.

Encoder and decoder regenerate identical dither vectors from a shared
seed and the stream coordinates (user, round, sub-vector index) without
communication, using a counter-based generator (Philox). Subtractive
dithered quantization (SDQ) quantizes x + d and subtracts d again, which
makes the quantization error cell-uniform and independent of the input.

Stream layout: the stream of (seed, user, round) under a domain tag is
Philox-4x64 with key (seed mod 2^64, user) and initial counter
(0, 0, round, tag), read from an empty output buffer. Regeneration rests
on this layout being the contract: any two parties that agree on it draw
the same numbers, however each one sets up its generator. Draw o of a
stream (a 64-bit word; a uniform double takes one) is part of the
contract too, and it can be read without the draws before it: Philox
is counter-based (Salmon et al., SC 2011), so the layout state advanced
by o // 4 counter steps (`Philox.advance`) and o % 4 words discarded is
the stream after o draws. That lets a long row be coded in blocks, each
reading its stream at its own offset, and so `codec.encode_rows` and
`decode_rows` code the blocks of one update concurrently: the output does
not depend on the number of cores or on the order in which blocks run.

A counter step increments word 0, which carries into word 1 after 2^64
steps (2^66 draws); both start at 0, so a carry reaches the round only
after 2^128 steps. The rounds of one (seed, user) and the tags of one
round thus read disjoint streams.

Two generators compute the layout. A short read (at most `_SHORT` draws
a row) of many rows (at least `_MANY`), such as the noise of an FL run's
small updates, is computed for all rows at once by the package's
vectorized Philox4x64-10 (`_philox_random`): any word of any stream is a
function of its key and counter alone. A longer read, or one of few
rows, is drawn row by row by numpy's Philox, reset to the row's stream.
The layout stays the contract; the oracle tests in `tests/test_dither.py`
pin both generators to a Philox built directly from it, bit for bit.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .lattice import (Lattice, _cell_residual, _scratch_size,
                      quantize_clipped)

__all__ = ["SharedRandomness", "dither_block", "sdq"]

# Domain-separation tag for the dither stream within the Philox counter
# space (other streams derived from the same seed must use other tags).
_DITHER_TAG = 0xD17E

_MASK64 = 2 ** 64 - 1

# Most draws per row of a read that `_KeyedStreams.read` computes with
# `_philox_random`; a longer read resets numpy's Philox once per row and
# lets it draw the row. A measured choice: reads of 2,500 rows took,
# kernel against numpy per row, 2.2 against 17.7 ms at 8 draws a row, 9.3
# against 18.6 ms at 32, 18.9 against 20.7 ms at 64 and 28.1 against
# 20.8 ms at 96; reads of 250 rows, 0.61 against 1.82, 1.87 against 2.00
# and 2.75 against 1.92 ms (2-vCPU x86 host, numpy 2.4, medians of 7 runs
# of 5).
_SHORT = 64

# Fewest rows of a short read that `_KeyedStreams.read` computes with
# `_philox_random`: a kernel call costs about 0.3 ms besides its blocks,
# however few its rows, so a read of fewer rows resets numpy's Philox per
# row too. A measured choice: reads of 10 draws a row took, kernel against
# numpy per row, 0.41 against 0.007 ms for 1 row, 0.38 against 0.13 ms
# for 32, 0.38 against 0.37 ms for 64 and 0.43 against 0.74 ms for 128;
# of 40 draws, 0.34 against 0.27 ms for 64 rows and 0.41 against 0.53 ms
# for 128 (same host, medians of 7 runs of 20).
_MANY = 64

# Most counter blocks (of 4 draws) one `_philox_random` call of
# `_KeyedStreams.read` computes: its uint64 temporaries, about 9 words a
# block, then take about 150 KiB. The 2-D codecs' blocks of 10-coordinate
# rows peaked at 2.83 times their own bytes with it, 2.98 with 3,072 and
# 3.14 with 4,096 (`tests/test_codec.py::TestBlockMemory` bounds it by
# 3); the noise of an `fl-train` op (2,500 rows, 3 reads of 3 blocks a
# row) took 9.5 ms with 1,024, 6.3 with 2,048 and 4.9 with 4,096.
_KERNEL_BLOCKS = 1 << 11

# Philox4x64-10 (Salmon et al., SC 2011): the Random123 multipliers of
# counter words 0 and 2 with their 32-bit halves, and the Weyl increments
# of the two key words, as numpy scalars (a Python int operand costs each
# array operation a conversion).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32, _SHIFT32, _SHIFT11 = (np.uint64(0xFFFFFFFF), np.uint64(32),
                              np.uint64(11))
_HALVES = {m: (m & _LOW32, m >> _SHIFT32) for m in (_PHILOX_M0, _PHILOX_M1)}
_PHILOX_ROUNDS = 10

# The seed of the Philox a thread builds when it has none free, whose
# state is set before any draw: a seed sequence made once spares each
# build the OS-entropy read of an unseeded one (5.5 against 8.4 us a
# build).
_PLACEHOLDER_SEED = np.random.SeedSequence(0)

# Each thread's free (Philox, Generator) pair, taken by one iteration or
# long read of `_KeyedStreams` at a time; building one costs about 4.9
# us, more than the draws of a short row. A benchmark op takes the pair
# 64 times on `uplink-scalar`, 16 on `uplink-2d`, 53 on `sweep` and once
# on `fl-train`; building a fresh pair for each use instead raised
# `uplink-scalar` op_s from 0.0666 to 0.0695 s (median of 4 alternating
# pairs of 4 s runs at seeds 41-44, 2-vCPU host; slower in all 4).
_FREE = threading.local()


@dataclass(frozen=True)
class SharedRandomness:
    """
    Addressing of one shared dither stream.

    Attributes
    ----------
    seed : int
        Shared 64-bit seed s_k agreed between user and server.
    user : int
        User index k.
    round_index : int
        FL round t.
    """

    seed: int
    user: int = 0
    round_index: int = 0


class _KeyedStreams:
    """
    The keyed Philox streams of K rows under one tag: row k, of address
    (seed, user, round), reads the stream of key (seed mod 2^64, user) and
    counter (0, 0, round, tag). The rows are a sequence of
    SharedRandomness, or a (3, K) uint64 array of seeds mod 2^64, users
    and rounds (`grid`); seed, if not None, keys every row in place of its
    own seed. `addresses` gives the addresses of a range of rows as uint64
    arrays, the form `_philox_random` takes, so that rows given as objects
    are converted a group at a time: converting them all up front to one
    (3, K) array, as `grid` builds, with the copy keyed on `seed`, took
    `TestBlockMemory`'s scalar short-row case to 1,854,997 B against its
    1,572,864 B bound. `starts` are the draw offsets of the rows' reads:
    read i starts at draw starts[i] of each row; with one start, the reads
    follow each other from it.

    `read` draws each read for all rows at once. Iterating yields one
    Generator per row instead, positioned at starts[0], for draws other
    than uniform doubles (`integers`): it is one Generator over one Philox
    whose state is reset before each row, so each row's generator must be
    used fully before the next one is taken, and none after the iteration
    ends. The Philox is the thread's free one (`_free_philox`).
    """

    def __init__(self, rows, tag: int, starts=(0,), seed: int | None = None,
                 span: range | None = None):
        self._rows, self.tag, self.starts = rows, tag, tuple(starts)
        self._seed = seed
        # The rows' indices in `rows`: a slice of the streams is a slice of
        # this range, and copies no row.
        self._span = range(rows.shape[1] if isinstance(rows, np.ndarray)
                           else len(rows)) if span is None else span

    @classmethod
    def of(cls, srs, tag: int = _DITHER_TAG, starts=(0,),
           seed: int | None = None):
        """
        The streams under tag of srs: one SharedRandomness, a sequence of
        them, or the rows of a `_KeyedStreams`, whose tag and starts are
        not read (its seed is, unless seed is given). By default, the
        rows' shared dither streams.
        """
        if isinstance(srs, SharedRandomness):
            return cls([srs], tag, starts, seed)
        if isinstance(srs, _KeyedStreams):
            return cls(srs._rows, tag, starts,
                       srs._seed if seed is None else seed, srs._span)
        return cls(srs, tag, starts, seed)

    @classmethod
    def grid(cls, seed: int, users: int, rounds, tag: int = _DITHER_TAG):
        """
        The streams under tag of (seed, k, r) for each round r of rounds
        and, within a round, each user k = 0, ..., users-1: by default the
        shared dither streams of those rounds.
        """
        rounds = np.asarray(rounds, dtype=np.uint64)
        rows = np.empty((3, users * len(rounds)), dtype=np.uint64)
        rows[0] = seed & _MASK64
        rows[1] = np.tile(np.arange(users, dtype=np.uint64), len(rounds))
        rows[2] = np.repeat(rounds, users)
        return cls(rows, tag)

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, rows: slice) -> "_KeyedStreams":
        return _KeyedStreams(self._rows, self.tag, self.starts, self._seed,
                             self._span[rows])

    def addresses(self, r0: int, r1: int) -> tuple:
        """
        The seeds mod 2^64, users and rounds of rows r0, ..., r1-1, as
        uint64 arrays. A user or round outside [0, 2^64) raises
        OverflowError.
        """
        part = self._span[r0:r1]
        if isinstance(self._rows, np.ndarray):
            seeds, users, rounds = self._rows[:, part.start:part.stop]
        else:
            srs, k = self._rows[part.start:part.stop], len(part)
            users = np.fromiter((sr.user for sr in srs), np.uint64, k)
            rounds = np.fromiter((sr.round_index for sr in srs), np.uint64, k)
            if self._seed is None:
                seeds = np.fromiter((sr.seed & _MASK64 for sr in srs),
                                    np.uint64, k)
        if self._seed is not None:
            seeds = np.broadcast_to(np.uint64(self._seed & _MASK64), len(part))
        return seeds, users, rounds

    def read(self, *outs) -> None:
        """
        Fill each (K, n) float array of outs with uniform doubles: row k
        of outs[i] with draws s, ..., s+n-1 of row k's stream, s the start
        of read i. A read of at most `_SHORT` draws a row, of at least
        `_MANY` rows, is computed by `_philox_random`, for as many rows at
        a time as take at most `_KERNEL_BLOCKS` counter blocks (one row, if
        a row takes more); any other is drawn row by row by numpy's
        Philox, reset to each row's stream at s. Both give each row
        `Generator.random` of its stream from draw s on.
        """
        start = self.starts[0]
        for i, out in enumerate(outs):
            if i < len(self.starts):
                start = self.starts[i]
            k, n = out.shape
            if n and n <= _SHORT and k >= _MANY:
                blocks = (start + n - 1) // 4 - start // 4 + 1
                per = max(1, _KERNEL_BLOCKS // blocks)
                for r0 in range(0, k, per):
                    r1 = min(r0 + per, k)
                    _philox_random(*self.addresses(r0, r1), self.tag, start,
                                   out[r0:r1])
            elif n:
                with _free_philox() as (bit, gen):
                    for r, row in enumerate(out):
                        _position(bit, self._key(r), self.tag, start)
                        gen.random(out=row)
            start += n

    def __iter__(self):
        with _free_philox() as (bit, gen):
            for r in range(len(self)):
                _position(bit, self._key(r), self.tag, self.starts[0])
                yield gen

    def _key(self, r: int) -> tuple:
        """Row r's address (seed mod 2^64, user, round), as Python ints."""
        i = self._span[r]
        if isinstance(self._rows, np.ndarray):
            seed, user, round_index = (int(a) for a in self._rows[:, i])
        else:
            sr = self._rows[i]
            seed, user, round_index = sr.seed, sr.user, sr.round_index
        if self._seed is not None:
            seed = self._seed
        return seed & _MASK64, user, round_index


@contextmanager
def _free_philox():
    """
    Take the thread's free (Philox, Generator) pair, and give it back on
    exit; a thread whose pair is taken, by a use nested in or interleaved
    with another, builds its own. Every use sets the Philox's state before
    its first draw, so no draw depends on earlier uses.
    """
    pair = getattr(_FREE, "pair", None)
    if pair is None:
        bit = np.random.Philox(_PLACEHOLDER_SEED)
        pair = bit, np.random.Generator(bit)
    else:
        _FREE.pair = None
    try:
        yield pair
    finally:
        _FREE.pair = pair


def _position(bit, key: tuple, tag: int, offset: int) -> None:
    """
    Set the Philox `bit` to the stream of key = (seed mod 2^64, user,
    round) under tag after `offset` draws: the layout state, advanced by
    offset // 4 counter steps, with offset % 4 words of the output buffer
    discarded.
    """
    seed, user, round_index = key
    bit.state = {
        "bit_generator": "Philox",
        "state": {"key": [seed, user],
                  "counter": [0, 0, round_index, tag]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    if offset:
        bit.advance(offset // 4)
        bit.random_raw(offset % 4)


def _philox_random(seeds, users, rounds, tag: int, start: int,
                   out: np.ndarray) -> None:
    """
    Fill the (K, n) float array out with draws start, ..., start+n-1 of
    the streams of K rows, given by uint64 arrays of their seeds mod 2^64,
    users and rounds (see `_KeyedStreams`), bit for bit as numpy's Philox
    and `Generator.random` draw them: Philox4x64-10 with the Random123
    constants, whose counter is incremented before each block of 4 words
    is generated, so draw o is word o % 4 of the block at counter
    (o // 4 + 1, 0, round, tag); a word w gives the double (w >> 11)
    2^-53. Each word of the read's counter blocks is one contiguous
    (blocks, K) uint64 array, as are three temporaries, and each step is
    one in-place numpy operation on them: about 9 words a block with the
    buffer numpy makes to xor a row's key into its blocks.
    """
    k, n = out.shape
    first = start // 4
    shape = ((start + n - 1) // 4 - first + 1, k)
    x0 = np.empty(shape, dtype=np.uint64)
    x0[...] = np.arange(first + 1, first + shape[0] + 1,
                        dtype=np.uint64)[:, None]
    x1 = np.zeros(shape, dtype=np.uint64)
    x2 = np.empty(shape, dtype=np.uint64)
    x2[...] = rounds
    x3 = np.full(shape, tag, dtype=np.uint64)
    key0 = np.array(seeds, dtype=np.uint64)
    key1 = np.array(users, dtype=np.uint64)
    temp = [np.empty(shape, dtype=np.uint64) for _ in range(3)]
    for i in range(_PHILOX_ROUNDS):
        if i:
            key0 += _PHILOX_W0
            key1 += _PHILOX_W1
        # (x0, x1, x2, x3) becomes (hi(M1 x2) ^ x1 ^ key0, lo(M1 x2),
        # hi(M0 x0) ^ x3 ^ key1, lo(M0 x0)), in place.
        _mulhilo(x0, _PHILOX_M0, *temp)
        x3 ^= temp[0]
        x3 ^= key1
        _mulhilo(x2, _PHILOX_M1, *temp)
        x1 ^= temp[0]
        x1 ^= key0
        x0, x1, x2, x3 = x1, x2, x3, x0
    del temp
    # Column c of out is word (start + c) % 4 of block (start + c) // 4
    # - first: word j fills every fourth column from c0.
    skip = start % 4
    for j, word in enumerate((x0, x1, x2, x3)):
        c0 = (j - skip) % 4
        cols = out[:, c0::4]
        np.right_shift(word, _SHIFT11, out=word)
        b0 = (c0 + skip) // 4
        np.copyto(cols, word[b0:b0 + cols.shape[1]].T, casting="unsafe")
    out *= 2.0 ** -53


def _mulhilo(a: np.ndarray, m: np.uint64, hi: np.ndarray, t: np.ndarray,
             v: np.ndarray) -> None:
    """
    The 128-bit products of the uint64 array a with the multiplier m: the
    high words into hi, the low words into a, from 32-bit halves (t and v
    are spent).
    """
    m_lo, m_hi = _HALVES[m]
    np.bitwise_and(a, _LOW32, out=t)
    np.multiply(t, m_lo, out=v)
    np.right_shift(v, _SHIFT32, out=v)
    np.multiply(t, m_hi, out=t)
    np.right_shift(a, _SHIFT32, out=hi)
    np.multiply(hi, m_lo, out=hi)
    np.add(v, hi, out=v)
    np.bitwise_and(v, _LOW32, out=hi)
    np.add(t, hi, out=t)
    np.right_shift(a, _SHIFT32, out=hi)
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(v, _SHIFT32, out=v)
    np.add(hi, v, out=hi)
    np.right_shift(t, _SHIFT32, out=t)
    np.add(hi, t, out=hi)
    np.multiply(a, m, out=a)


def dither_block(sr, lat: Lattice, count: int, start: int = 0, *,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """
    Dither vectors for sub-vector indices start, ..., start+count-1.

    Returns a (count, L) array; row i is the dither for sub-vector
    start+i, a deterministic function of (seed, user, round, start+i)
    and marginally uniform over the basic cell: it reads draws (start+i) L,
    ..., (start+i+1) L - 1 of the stream. `sr` may also be a sequence of K
    streams, one per row of a batch, or a `_KeyedStreams` of K rows (read
    under the dither tag): then count must be a multiple of K, and rows k
    count/K, ..., (k+1) count/K - 1 equal dither_block(sr[k], lat,
    count // K, start). The rows' draws are one `_KeyedStreams.read`. Row
    i does not depend on count or on the other streams: the products with
    the lattice generator are elementwise (`lattice._generate`).

    out, a (count, L) array, takes the result in place of a new array;
    the draws go to scratch, `lattice._scratch_size` floats that are
    spent, in place of a new buffer.
    """
    streams = _KeyedStreams.of(sr, _DITHER_TAG, (start * lat.dimension,))
    count, dim = int(count), lat.dimension
    per, rest = divmod(count, len(streams))
    if rest:
        raise ValueError(f"{count} sub-vectors do not split over "
                         f"{len(streams)} streams")
    if out is None:
        out = np.empty((count, dim))
    if scratch is None:
        scratch = np.empty(_scratch_size(count, dim))
    streams.read(scratch[:count * dim].reshape(len(streams), per * dim))
    _cell_residual(lat, scratch, out)
    return out


def sdq(lat: Lattice, x: np.ndarray, d: np.ndarray):
    """
    Subtractive dithered quantization: Q_L(x + d) - d, for sub-vectors x
    and dithers d of shape (..., L).

    Returns (value, index, overloaded) as `quantize_clipped` does; value is
    the quantized point minus the dither, index identifies the quantized
    point in the codebook. For non-overloaded inputs the distortion
    value - x is uniform over the basic cell and independent of x.
    """
    x = np.asarray(x, dtype=float)
    point, idx, overloaded = quantize_clipped(lat, x + d)
    return point - d, idx, overloaded
