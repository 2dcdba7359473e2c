"""
Shared-seed dither streams and subtractive dithered quantization.

Encoder and decoder regenerate identical dither vectors from a shared
seed and the stream coordinates (user, round, sub-vector index) without
communication, using a counter-based generator (Philox). Subtractive
dithered quantization (SDQ) quantizes x + d and subtracts d again, which
makes the quantization error cell-uniform and independent of the input.

Stream layout: the stream of (seed, user, round) under a domain tag is
Philox-4x64 with key (seed mod 2^64, user) and initial counter
(round, tag, 0, 0), read from an empty output buffer. Regeneration rests
on this layout being the contract: any two parties that agree on it draw
the same numbers, however each one sets up its generator.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, _cell_residual, quantize_clipped

__all__ = ["SharedRandomness", "dither_block", "sdq"]

# Domain-separation tag for the dither stream within the Philox counter
# space (other streams derived from the same seed must use other tags).
_DITHER_TAG = 0xD17E


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
    (srs[k].round_index, tag, 0, 0). It is one Generator over one Philox
    whose state is reset before each row, which costs a fraction of
    building a Philox per row. So each row's generator must be used fully
    before the next one is taken. The Philox is made per iteration and is
    never shared between calls.
    """

    def __init__(self, srs, tag: int):
        self._srs = srs
        self._tag = tag

    def __len__(self) -> int:
        return len(self._srs)

    def __iter__(self):
        bit = np.random.Philox(key=0)
        gen = np.random.Generator(bit)
        for sr in self._srs:
            bit.state = {
                "bit_generator": "Philox",
                "state": {"key": [sr.seed & (2 ** 64 - 1), sr.user],
                          "counter": [sr.round_index, self._tag, 0, 0]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0,
            }
            yield gen


def dither_block(sr, lat: Lattice, count: int) -> np.ndarray:
    """
    Dither vectors for sub-vector indices 0, ..., count-1.

    Returns a (count, L) array; row i is the dither for sub-vector i, a
    deterministic function of (seed, user, round, i) and marginally
    uniform over the basic cell. `sr` may also be a sequence of K streams,
    one per row of a batch: then count must be a multiple of K, and rows
    k count/K, ..., (k+1) count/K - 1 equal dither_block(sr[k], lat,
    count // K). The rows are drawn in order, each one fully before the
    next, as `_KeyedStreams` requires.
    """
    srs = [sr] if isinstance(sr, SharedRandomness) else sr
    per, rest = divmod(int(count), len(srs))
    if rest:
        raise ValueError(f"{count} sub-vectors do not split over "
                         f"{len(srs)} streams")
    u = np.empty((len(srs), per, lat.dimension))
    for row, gen in zip(u, _KeyedStreams(srs, _DITHER_TAG)):
        gen.random(out=row)
    return _cell_residual(lat, u).reshape(-1, lat.dimension)


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
