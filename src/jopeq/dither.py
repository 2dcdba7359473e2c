"""
Shared-seed dither streams and subtractive dithered quantization.

Encoder and decoder regenerate identical dither vectors from a shared
seed and the stream coordinates (user, round, sub-vector index) without
communication, using a counter-based generator (Philox). Subtractive
dithered quantization (SDQ) quantizes x + d and subtracts d again, which
makes the quantization error cell-uniform and independent of the input.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, nearest_point, quantize_clipped

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


def _stream(sr: SharedRandomness) -> np.random.Generator:
    bit = np.random.Philox(
        key=[np.uint64(sr.seed & (2 ** 64 - 1)), np.uint64(sr.user)],
        counter=[np.uint64(sr.round_index), np.uint64(_DITHER_TAG), 0, 0],
    )
    return np.random.Generator(bit)


def dither_block(sr: SharedRandomness, lat: Lattice, count: int) -> np.ndarray:
    """
    Dither vectors for sub-vector indices 0, ..., count-1.

    Returns a (count, L) array; row i is the dither for sub-vector i, a
    deterministic function of (seed, user, round, i) and marginally
    uniform over the basic cell.
    """
    u = _stream(sr).random((int(count), lat.dimension)) @ lat.generator.T
    return u - nearest_point(lat, u)


def sdq(lat: Lattice, x: np.ndarray, d: np.ndarray):
    """
    Subtractive dithered quantization: Q_L(x + d) - d.

    Returns (value, index, overloaded); value = quantized point minus the
    dither, index identifies the quantized point in the codebook. For
    non-overloaded inputs the distortion value - x is uniform over the
    basic cell and independent of x.
    """
    x = np.asarray(x, dtype=float)
    point, idx, overloaded = quantize_clipped(lat, x + d)
    return point - d, idx, overloaded
