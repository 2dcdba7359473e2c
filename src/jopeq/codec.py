"""
The joint privacy/quantization encode-decode pipeline.

Encode: scale the model update by zeta = sqrt(M) / (3 ||h||), split into
M = ceil(d/L) sub-vectors (zero-padded tail), add the shared-seed dither
and the encoder-private PPN, and quantize each sub-vector to a codebook
index. Decode: regenerate the dither from the shared seed, subtract it
from the indexed codebook point and rescale. The end-to-end distortion per
sub-vector is zeta^-1 (n + e) with e cell-uniform and independent of the
input, so with a valid PPN sampler it realizes the target LDP mechanism.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .dither import SharedRandomness, dither_block
from .lattice import Lattice, quantize_clipped
from .privacy import PpnSampler

__all__ = [
    "EncodedUpdate",
    "CorruptPayloadError",
    "scale_coefficient",
    "encode",
    "decode",
    "snr",
]

# Domain-separation tag for the encoder-private PPN stream; distinct from
# the dither tag so the server-side shared seed can never regenerate it.
_NOISE_TAG = 0x9019

_HEADER = struct.Struct(">HBBdI")


class CorruptPayloadError(ValueError):
    """Raised when a payload's indices do not fit the configured codebook."""


@dataclass
class EncodedUpdate:
    """
    One encoded model update.

    `indices` are codebook indices for the M sub-vectors; `zeta` is the
    scaling coefficient, transmitted uncompressed; `overloads` counts the
    sub-vectors whose unclipped quantization fell outside the codebook, and
    `overload_mask` flags them (in-memory only, like `original_dim` which is
    needed to strip the zero-padded tail and is carried out of band).
    """

    indices: np.ndarray
    zeta: float
    lattice_dim: int
    nominal_rate: int
    index_bits: int
    original_dim: int
    overloads: int = 0
    overload_mask: np.ndarray | None = field(repr=False, default=None)

    @property
    def m_subvectors(self) -> int:
        return len(self.indices)

    @property
    def payload_bits(self) -> int:
        """Index payload size in bits (zeta overhead excluded)."""
        return self.m_subvectors * self.index_bits

    def to_bytes(self) -> bytes:
        """
        Serialize: header (u16 M, u8 L, u8 R, f64 zeta, u32 overloads)
        followed by the fixed-width big-endian indices, byte-padded.
        """
        m = self.m_subvectors
        if m > 0xFFFF:
            raise ValueError("M exceeds the u16 header field")
        head = _HEADER.pack(m, self.lattice_dim, self.nominal_rate,
                            self.zeta, self.overloads)
        w = self.index_bits
        shifts = np.arange(w)[::-1].astype(np.uint64)
        bits = ((self.indices.astype(np.uint64)[:, None] >> shifts) & 1)
        return head + np.packbits(bits.astype(np.uint8).ravel()).tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes, lat: Lattice) -> "EncodedUpdate":
        """Parse the documented byte layout against a configured lattice."""
        if len(payload) < _HEADER.size:
            raise CorruptPayloadError("payload shorter than header")
        m, dim, rate, zeta, overloads = _HEADER.unpack_from(payload)
        if dim != lat.dimension:
            raise CorruptPayloadError("lattice dimension mismatch")
        w = lat.index_bits
        body = np.frombuffer(payload, dtype=np.uint8, offset=_HEADER.size)
        bits = np.unpackbits(body)
        if len(bits) < m * w:
            raise CorruptPayloadError("payload truncated")
        vals = bits[:m * w].reshape(m, w).astype(np.uint64)
        idx = (vals << np.arange(w)[::-1].astype(np.uint64)).sum(axis=1)
        idx = idx.astype(np.int64)
        if np.any(idx >= len(lat.codebook)):
            raise CorruptPayloadError("index out of codebook range")
        return cls(idx, zeta, dim, rate, w, m * dim, overloads)


def scale_coefficient(h: np.ndarray, m_subvectors: int) -> float:
    """
    Scaling coefficient zeta = sqrt(M) / (3 ||h||), which keeps the scaled
    sub-vectors inside the unit ball with probability over 88% for zero-mean
    coordinates (Chebyshev). Undefined for a zero-norm update, and refused
    for a non-finite one, whose decoded values would all be non-finite.
    """
    h = np.asarray(h, dtype=float)
    norm = float(np.linalg.norm(h))
    if norm == 0.0 or math.isinf(norm):
        # The sum of squares may have under- or overflowed for a finite,
        # nonzero update; rescaling by the largest coordinate avoids that.
        peak = float(np.max(np.abs(h)))
        if 0.0 < peak < math.inf:
            norm = peak * float(np.linalg.norm(h / peak))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError(f"zeta undefined for an update of norm {norm}")
    return math.sqrt(m_subvectors) / (3.0 * norm)


def _noise_stream(noise_seed: int, sr: SharedRandomness) -> np.random.Generator:
    bit = np.random.Philox(
        key=[np.uint64(noise_seed & (2 ** 64 - 1)), np.uint64(sr.user)],
        counter=[np.uint64(sr.round_index), np.uint64(_NOISE_TAG), 0, 0],
    )
    return np.random.Generator(bit)


def encode(h, lat: Lattice, sampler: PpnSampler | None,
           sr: SharedRandomness,
           noise_seed: int | None = None) -> EncodedUpdate:
    """
    Encode a model update to codebook indices plus the scaling coefficient.

    `sampler` may be None to disable the PPN (quantization-only encode).
    The PPN stream is private to the encoder: it is drawn from a Philox
    stream keyed by `noise_seed` (never from the shared seed), or from
    fresh OS entropy when `noise_seed` is None.
    """
    h = np.asarray(h, dtype=float).ravel()
    if sampler is not None and sampler.lattice.dimension != lat.dimension:
        raise ValueError("sampler lattice dimension mismatch")
    d = len(h)
    dim = lat.dimension
    m = -(-d // dim)

    if not np.any(h):
        # Zero-norm update: zeta is undefined, emit the zero-point sentinel
        # at unit scale.
        zero_idx = int(lat._lookup[(lat._lmax,) * dim])
        return EncodedUpdate(np.full(m, zero_idx, dtype=np.int64), 1.0, dim,
                             lat.nominal_rate, lat.index_bits, d, 0,
                             np.zeros(m, dtype=bool))

    zeta = scale_coefficient(h, m)
    subs = np.zeros((m, dim))
    subs.reshape(-1)[:d] = zeta * h

    dith = dither_block(sr, lat, m)
    if sampler is not None:
        rng = (_noise_stream(noise_seed, sr) if noise_seed is not None
               else np.random.default_rng())
        noise = sampler.sample(m, rng)
    else:
        noise = 0.0

    _, idx, overloaded = quantize_clipped(lat, subs + dith + noise)
    return EncodedUpdate(idx, zeta, dim, lat.nominal_rate, lat.index_bits,
                         d, int(overloaded.sum()), overloaded)


def decode(enc: EncodedUpdate, lat: Lattice,
           sr: SharedRandomness) -> np.ndarray:
    """
    Decode: regenerate the shared dither, subtract it from the indexed
    codebook points, rescale by 1/zeta and strip the zero-padded tail.
    """
    idx = np.asarray(enc.indices)
    if np.any(idx < 0) or np.any(idx >= len(lat.codebook)):
        raise CorruptPayloadError("index out of codebook range")
    dith = dither_block(sr, lat, enc.m_subvectors)
    sub = (lat.codebook[idx] - dith) / enc.zeta
    return sub.reshape(-1)[:enc.original_dim]


def snr(h_list, ht_list) -> float:
    """
    Mean over users of var(h) / var(h - h_tilde), in dB. Returns inf when
    any user's distortion variance is zero.
    """
    if len(h_list) != len(ht_list):
        raise ValueError("mismatched lists")
    ratios = []
    for h, ht in zip(h_list, ht_list):
        h = np.asarray(h, dtype=float)
        dist = h - np.asarray(ht, dtype=float)
        dv = float(np.var(dist))
        if dv == 0.0:
            return float("inf")
        ratios.append(float(np.var(h)) / dv)
    return 10.0 * math.log10(float(np.mean(ratios)))
