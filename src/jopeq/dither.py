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
"""

import threading
from dataclasses import dataclass

import numpy as np

from .lattice import (Lattice, _cell_residual, _scratch_size,
                      quantize_clipped)

__all__ = ["SharedRandomness", "dither_block", "sdq"]

# Domain-separation tag for the dither stream within the Philox counter
# space (other streams derived from the same seed must use other tags).
_DITHER_TAG = 0xD17E

# The seed of the Philox a `_KeyedStreams` iteration builds when its
# thread has none free, whose state is set before any draw: a seed
# sequence made once spares each build the OS-entropy read of an unseeded
# one (5.5 against 8.4 us a build).
_PLACEHOLDER_SEED = np.random.SeedSequence(0)

# Each thread's free (Philox, Generator) pair, taken by one iteration of
# `_KeyedStreams` at a time; building one costs about 4.9 us, more than
# the draws of a short row.
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
    The keyed Philox streams of the rows of one call, taken in order.

    Iterating yields, for row k = 0, ..., K-1, the stream of srs[k] under
    `tag`: key (srs[k].seed mod 2^64, srs[k].user), counter
    (0, 0, srs[k].round_index, tag). It is one Generator over one Philox
    whose state is reset before each row, which costs a fraction of
    building a Philox per row. So each row's generator must be used fully
    before the next one is taken, and none after the iteration ends.

    An iteration takes its thread's free pair of Philox and Generator and
    gives it back when it ends (run out, left by a break, or dropped), so
    calls on one thread reuse one pair, and each thread has its own. An
    iteration that finds its thread's pair taken, by an iteration nested
    in it or interleaved with it, builds its own. As every row's state is
    set before its first draw, no draw depends on earlier calls.

    `starts` gives the draw offset of each read of a row: with one start,
    each row's generator is yielded positioned there. With several, read i
    (the i-th `random(out=...)` call) of each row starts at draw starts[i]
    of its stream, and the row is yielded as a reader object that
    repositions the Generator before each read.
    """

    def __init__(self, srs, tag: int, starts=(0,)):
        self._srs = srs
        self._tag = tag
        self._starts = starts

    def __len__(self) -> int:
        return len(self._srs)

    def __iter__(self):
        pair = getattr(_FREE, "pair", None)
        if pair is None:
            bit = np.random.Philox(_PLACEHOLDER_SEED)
            pair = bit, np.random.Generator(bit)
        else:
            _FREE.pair = None
        bit, gen = pair
        try:
            for sr in self._srs:
                if len(self._starts) == 1:
                    _position(bit, sr, self._tag, self._starts[0])
                    yield gen
                else:
                    yield _Reads(gen, sr, self._tag, self._starts)
        finally:
            _FREE.pair = pair


class _Reads:
    """One row of `_KeyedStreams` whose i-th read starts at draw starts[i]."""

    def __init__(self, gen, sr, tag, starts):
        self._gen = gen
        self._sr = sr
        self._tag = tag
        self._starts = iter(starts)

    def random(self, out):
        _position(self._gen.bit_generator, self._sr, self._tag,
                  next(self._starts))
        return self._gen.random(out=out)


def _position(bit, sr: SharedRandomness, tag: int, offset: int) -> None:
    """
    Set the Philox `bit` to the stream of sr under tag after `offset`
    draws: the layout state, advanced by offset // 4 counter steps, with
    offset % 4 words of the output buffer discarded.
    """
    bit.state = {
        "bit_generator": "Philox",
        "state": {"key": [sr.seed & (2 ** 64 - 1), sr.user],
                  "counter": [0, 0, sr.round_index, tag]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    if offset:
        bit.advance(offset // 4)
        bit.random_raw(offset % 4)


def dither_block(sr, lat: Lattice, count: int, start: int = 0, *,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """
    Dither vectors for sub-vector indices start, ..., start+count-1.

    Returns a (count, L) array; row i is the dither for sub-vector
    start+i, a deterministic function of (seed, user, round, start+i)
    and marginally uniform over the basic cell: it reads draws (start+i) L,
    ..., (start+i+1) L - 1 of the stream. `sr` may also be a sequence of K
    streams, one per row of a batch: then count must be a multiple of K,
    and rows k count/K, ..., (k+1) count/K - 1 equal dither_block(sr[k],
    lat, count // K, start). The rows are drawn in order, each one fully
    before the next, as `_KeyedStreams` requires. Row i does not depend on
    count or on the other streams: the products with the lattice generator
    are elementwise (`lattice._generate`).

    out, a (count, L) array, takes the result in place of a new array;
    the draws go to scratch, `lattice._scratch_size` floats that are
    spent, in place of a new buffer.
    """
    srs = [sr] if isinstance(sr, SharedRandomness) else sr
    count, dim = int(count), lat.dimension
    per, rest = divmod(count, len(srs))
    if rest:
        raise ValueError(f"{count} sub-vectors do not split over "
                         f"{len(srs)} streams")
    if out is None:
        out = np.empty((count, dim))
    if scratch is None:
        scratch = np.empty(_scratch_size(count, dim))
    u = scratch[:count * dim].reshape(len(srs), per * dim)
    for row, gen in zip(u, _KeyedStreams(srs, _DITHER_TAG, (start * dim,))):
        gen.random(out=row)
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
