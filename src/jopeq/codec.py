"""
The joint privacy/quantization encode-decode pipeline.

Encode: scale the model update by zeta = sqrt(M) / (3 ||h||), split into
M = ceil(d/L) sub-vectors (zero-padded tail), add the shared-seed dither
and the encoder-private PPN, and quantize each sub-vector to a codebook
index. Decode: regenerate the dither from the shared seed, subtract it
from the indexed codebook point and rescale. The end-to-end distortion per
sub-vector is zeta^-1 (n + e) with e cell-uniform and independent of the
input, so with a valid PPN sampler it realizes the target LDP mechanism.

zeta is sent in the clear, and it reveals the update's norm ||h|| exactly:
the LDP guarantee covers the scaled sub-vectors only, not ||h||.
"""

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .dither import SharedRandomness, _KeyedStreams, dither_block
from .lattice import Lattice, _scratch_size, quantize_clipped
from .privacy import PpnSampler

__all__ = [
    "EncodedUpdate",
    "CorruptPayloadError",
    "scale_rows",
    "encode_rows",
    "encode",
    "decode_rows",
    "decode",
    "snr",
]

# Domain-separation tag for the encoder-private PPN stream; distinct from
# the dither tag so the server-side shared seed can never regenerate it.
_NOISE_TAG = 0x9019

_HEADER = struct.Struct(">HBBdI")

# Most coordinates `encode_rows` and `decode_rows` code in one block
# (2^16 scalar or 2^15 two-dimensional sub-vectors), a measured choice.
# With the blocks run on both CPUs of a 2-vCPU x86 host, encode plus
# decode of one 2^20-coordinate scalar update took 31 ms in blocks of
# 2^14 coordinates, 25-26 ms in blocks of 2^15, 24 ms in blocks of 2^16,
# 23-24 ms in blocks of 2^17 and 25 ms in blocks of 2^18, against 46 ms as
# one whole row, and 40 ms in blocks of 2^16 on one CPU (medians of 6
# rounds, two processes); a 2^18-coordinate hexagonal update took 12.7 ms
# in blocks of 2^15 coordinates and 10.2 ms in blocks of 2^16. A running
# block holds its sum, `lattice._scratch_size` floats of scratch and a
# few small buffers, and writes its indices and overload flags in place:
# tracemalloc saw 2.0 to 2.75 times the block's bytes at its peak
# (`tests/test_codec.py::TestBlockMemory` bounds it by 3).
_BLOCK = 1 << 16


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
        """
        Parse the documented byte layout against a configured lattice,
        whose dimension and rate must equal the header's. The payload must
        be exactly the header and ceil(M w / 8) index bytes, its pad bits
        zero; zeta must be finite and positive, and the overload count at
        most M.
        """
        if len(payload) < _HEADER.size:
            raise CorruptPayloadError("payload shorter than header")
        m, dim, rate, zeta, overloads = _HEADER.unpack_from(payload)
        if not 0.0 < zeta < math.inf:
            raise CorruptPayloadError(f"zeta {zeta} not finite and positive")
        if overloads > m:
            raise CorruptPayloadError(
                f"{overloads} overloads among {m} sub-vectors")
        if dim != lat.dimension:
            raise CorruptPayloadError("lattice dimension mismatch")
        if rate != lat.nominal_rate:
            raise CorruptPayloadError(
                f"payload rate {rate}, lattice rate {lat.nominal_rate}")
        w = lat.index_bits
        size = _HEADER.size + -(-m * w // 8)
        if len(payload) < size:
            raise CorruptPayloadError("payload truncated")
        if len(payload) > size:
            raise CorruptPayloadError("trailing bytes after the indices")
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8,
                                           offset=_HEADER.size))
        if np.any(bits[m * w:]):
            raise CorruptPayloadError("nonzero pad bits")
        vals = bits[:m * w].reshape(m, w).astype(np.uint64)
        idx = (vals << np.arange(w)[::-1].astype(np.uint64)).sum(axis=1)
        idx = idx.astype(np.int64)
        if np.any(idx >= len(lat.codebook)):
            raise CorruptPayloadError("index out of codebook range")
        return cls(idx, zeta, dim, rate, w, m * dim, overloads)


def _zeta(h: np.ndarray, m_subvectors: int) -> float:
    """
    zeta of one update, a 1-D float array; the caller ignores overflow,
    which the rescale below undoes.
    """
    # np.linalg.norm's own arithmetic on a contiguous 1-D array, without
    # its per-call overhead.
    norm = math.sqrt(float(h @ h))
    if norm == 0.0 or math.isinf(norm):
        # The sum of squares may have under- or overflowed for a finite,
        # nonzero update; rescaling by the largest coordinate avoids that.
        peak = float(np.max(np.abs(h)))
        if 0.0 < peak < math.inf:
            g = h / peak
            norm = peak * math.sqrt(float(g @ g))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError(f"zeta undefined for an update of norm {norm}")
    return math.sqrt(m_subvectors) / (3.0 * norm)


def scale_rows(hs: np.ndarray, m_subvectors: int) -> np.ndarray:
    """
    Scaling coefficient zeta = sqrt(M) / (3 ||h||) of each row h of a
    (K, d) batch, which keeps the scaled sub-vectors inside the unit ball
    with probability over 88% for zero-mean coordinates (Chebyshev). An
    all-zero row gets the unit scale of `encode`'s zero-point sentinel; a
    row that is not finite, whose decoded values would all be non-finite,
    is refused (ValueError).

    Each row's sum of squares is one (1, d) @ (d, 1) product of a stacked
    matmul, which takes the dot product of a 1-D h @ h, so it is bit-equal
    to the per-row norm (a row-wise np.linalg.norm is not). Only a row
    whose sum is 0 or not finite is redone alone: a zero row, a finite
    one whose sum under- or overflowed, or a non-finite one.
    """
    hs = np.ascontiguousarray(hs, dtype=float)
    with np.errstate(all="ignore"):  # only rows redone below can warn
        sq = np.matmul(hs[:, None, :], hs[:, :, None])[:, 0, 0]
        zetas = math.sqrt(m_subvectors) / (3.0 * np.sqrt(sq))
        for k in np.flatnonzero((sq == 0.0) | ~np.isfinite(sq)):
            zetas[k] = _zeta(hs[k], m_subvectors) if hs[k].any() else 1.0
    return zetas


def _blocks(k: int, m: int, dim: int):
    """
    The blocks in which a (K, M) grid of sub-vectors of dimension dim is
    coded, as (r0, r1, lo, hi): sub-vectors lo, ..., hi-1 of rows r0, ...,
    r1-1. A block holds at most S = _BLOCK // dim sub-vectors. When M <= S
    it is a group of whole rows; else a row is cut into ceil(M / S) slices
    whose sizes differ by at most one. The cut does not change the output:
    each sub-vector is coded alone, by elementwise products with the
    lattice generator.
    """
    per = _BLOCK // dim
    if m <= per:
        rows = per // max(m, 1)
        for r0 in range(0, k, rows):
            yield r0, min(r0 + rows, k), 0, m
    else:
        parts = -(-m // per)
        for r in range(k):
            for i in range(parts):
                yield r, r + 1, i * m // parts, (i + 1) * m // parts


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The helper threads of `_run_blocks`, at most one per CPU but one. An
# executor starts no thread until its first submit, so importing starts
# none. It is built here, once: a pool made on first use would rebind a
# module attribute at run time, under any wrapper of the module's names.
_POOL = ThreadPoolExecutor(max_workers=max(1, (os.cpu_count() or 1) - 1),
                           thread_name_prefix="jopeq-block")


def _run_blocks(code, blocks) -> None:
    """
    Call code(r0, r1, lo, hi) once for each block of `blocks`, on up to
    one thread per CPU: the calling thread and n - 1 helpers of `_POOL`
    (n the CPU count, at most the block count) each take the next block
    not yet taken until none is left; a single block runs inline. So code
    must write only its own block's part of the outputs, and read nothing
    another block writes. numpy's ufuncs, takes and Generator draws
    release the GIL on block-sized arrays, so the blocks run in parallel.
    An exception in any block is raised here, after every helper that
    started is done; blocks not yet taken are then skipped.
    """
    blocks = list(blocks)
    n = min(_cpus(), len(blocks)) if len(blocks) > 1 else 1
    if n == 1:
        for block in blocks:
            code(*block)
        return
    todo = iter(blocks)
    lock = threading.Lock()

    def share():
        try:
            while True:
                with lock:
                    block = next(todo, None)
                if block is None:
                    return
                code(*block)
        except BaseException:
            with lock:
                for _ in todo:  # leave nothing for the other threads
                    pass
            raise

    helpers = [_POOL.submit(share) for _ in range(n - 1)]
    try:
        share()
    finally:
        # A helper not started by now would find nothing left: cancelled,
        # it never runs, and is not waited for (no pool thread may be left
        # to take it, as in a child forked after the pool ran).
        started = [helper for helper in helpers if not helper.cancel()]
        wait(started)
    for helper in started:
        helper.result()


def encode_rows(hs, lat: Lattice, sampler: PpnSampler | None, srs,
                noise_seed: int | None = None):
    """
    Encode a (K, d) batch of updates, row k with shared stream srs[k]; each
    row is encoded as `encode` encodes it alone. A sampler must have been
    built for a lattice of `lat`'s family and generator (ValueError).

    The rows are coded in the blocks of `_blocks`, concurrently on up to
    one thread per CPU (`_run_blocks`). Each block reads its rows' streams
    at its own offsets (see `jopeq.dither`): the dither from its first
    sub-vector's offset and the PPN from the offsets of
    `PpnSampler.read_starts`. And each writes only its own part of the
    outputs. So the outputs depend neither on the block size nor on the
    number of CPUs or the order in which the blocks run.

    Returns (indices, zetas, overloaded) of shapes (K, M), (K,) and (K, M).
    """
    hs = np.asarray(hs, dtype=float)
    if sampler is not None and sampler.lattice is not lat:
        # The PPN is deconvolved for one cell: the family and generator
        # must match, not just the dimension.
        other = sampler.lattice
        if (other.family != lat.family
                or other.generator.tobytes() != lat.generator.tobytes()):
            raise ValueError(
                "sampler built for another lattice: "
                f"{other.family} {other.generator.tolist()}, not "
                f"{lat.family} {lat.generator.tolist()}")
    k, d = hs.shape
    if len(srs) != k:
        raise ValueError(f"{len(srs)} shared streams for {k} rows")
    dim = lat.dimension
    m = -(-d // dim)

    zetas = scale_rows(hs, m)
    noise = (None if sampler is None or noise_seed is None else
             [SharedRandomness(noise_seed, sr.user, sr.round_index)
              for sr in srs])
    idx = np.empty((k, m), dtype=np.int64)
    overloaded = np.empty((k, m), dtype=bool)
    ppn = sampler is not None and not sampler.degenerate

    def code(r0, r1, lo, hi):
        rows, n = r1 - r0, hi - lo
        width = min(hi * dim, d) - lo * dim
        # The block's own parts of the outputs (whole rows or a slice of
        # one row, so contiguous), which are its scratch until quantized.
        part = slice(r0 * m + lo, (r1 - 1) * m + hi)
        cells, mask = idx.reshape(-1)[part], overloaded.reshape(-1)[part]
        # x takes the sum (zeta h + dither) + PPN and scratch its terms: the
        # dither draws into scratch and maps into x, zeta h goes into
        # scratch and is added, then the PPN is drawn into scratch and
        # added. An L = 1 block's PPN would not fit in scratch with its
        # cell uniforms, so it goes first, into x; then the dither draws
        # into the bytes of cells and maps into scratch, and x += scratch.
        # The values are the same either way (x + y = y + x).
        x = np.empty((rows * n, dim))
        scratch = np.empty(_scratch_size(rows * n, dim))
        if ppn:
            rngs = ([np.random.default_rng() for _ in range(rows)]
                    if noise is None else
                    _KeyedStreams(noise[r0:r1], _NOISE_TAG,
                                  sampler.read_starts(lo, hi, m)))
        terms, draws = x, scratch
        if ppn and dim == 1:
            sampler.sample(rows * n, rngs, out=x,
                           scratch=(scratch, cells, mask))
            terms, draws = scratch.reshape(-1, 1), cells.view(np.float64)
        dither_block(srs[r0:r1], lat, rows * n, lo, out=terms, scratch=draws)
        zh = draws[:rows * n * dim].reshape(rows, -1)[:, :width]
        np.multiply(zetas[r0:r1, None], hs[r0:r1, lo * dim:lo * dim + width],
                    out=zh)
        terms.reshape(rows, -1)[:, :width] += zh
        if terms is not x:
            x += terms
        elif ppn:
            jit = scratch[:x.size].reshape(x.shape)
            sampler.sample(rows * n, rngs, out=jit,
                           scratch=(scratch[x.size:], cells, mask))
            x += jit
        quantize_clipped(lat, x, out=(cells, mask), scratch=scratch)

    _run_blocks(code, _blocks(k, m, dim))

    # A zero-norm row has no zeta: it is sent as the zero-point sentinel.
    zero = ~np.any(hs, axis=1)
    idx[zero] = lat.zero_index
    overloaded[zero] = False
    return idx, zetas, overloaded


def encode(h, lat: Lattice, sampler: PpnSampler | None,
           sr: SharedRandomness,
           noise_seed: int | None = None) -> EncodedUpdate:
    """
    Encode a model update to codebook indices plus the scaling coefficient.

    `sampler` may be None to disable the PPN (quantization-only encode).
    The PPN stream is private to the encoder: it is drawn from a Philox
    stream keyed by `noise_seed` (never from the shared seed), or from
    fresh OS entropy when `noise_seed` is None. A zero-norm update, whose
    zeta is undefined, is sent as the zero point at unit scale.
    """
    h = np.asarray(h, dtype=float).ravel()
    idx, zetas, overloaded = encode_rows(h[None], lat, sampler, [sr],
                                         noise_seed)
    return EncodedUpdate(idx[0], float(zetas[0]), lat.dimension,
                         lat.nominal_rate, lat.index_bits, len(h),
                         int(overloaded.sum()), overloaded[0])


def decode_rows(indices, zetas, lat: Lattice, srs,
                original_dim: int) -> np.ndarray:
    """
    Decode a (K, M) batch of indices, row k with zetas[k] and shared stream
    srs[k]; returns the (K, original_dim) updates, each row as `decode`
    decodes it alone. All indices are checked against the codebook before
    any block is decoded (CorruptPayloadError). The rows are decoded in
    `encode_rows`'s blocks, concurrently as there, so the output does not
    depend on the number of CPUs or the order in which the blocks run.
    """
    idx = np.asarray(indices)
    zetas = np.asarray(zetas)
    k, m = idx.shape
    if len(srs) != k:
        raise ValueError(f"{len(srs)} shared streams for {k} rows")
    dim = lat.dimension
    width = min(original_dim, m * dim)
    if idx.size and (idx.min() < 0 or idx.max() >= len(lat.codebook)):
        raise CorruptPayloadError("index out of codebook range")
    out = np.empty((k, width))

    def code(r0, r1, lo, hi):
        rows, n = r1 - r0, hi - lo
        dith = np.empty((rows * n, dim))
        scratch = np.empty(_scratch_size(rows * n, dim))
        dither_block(srs[r0:r1], lat, rows * n, lo, out=dith, scratch=scratch)
        # as codebook[idx[r0:r1, lo:hi]]; every index was checked above.
        sub = scratch[:dith.size].reshape(dith.shape)
        lat.codebook.take(idx[r0:r1, lo:hi].reshape(-1), axis=0, out=sub,
                          mode="clip")
        sub -= dith
        c0, c1 = min(lo * dim, width), min(hi * dim, width)
        np.divide(sub.reshape(rows, -1)[:, :c1 - c0], zetas[r0:r1, None],
                  out=out[r0:r1, c0:c1])

    _run_blocks(code, _blocks(k, m, dim))
    return out


def decode(enc: EncodedUpdate, lat: Lattice,
           sr: SharedRandomness) -> np.ndarray:
    """
    Decode: regenerate the shared dither, subtract it from the indexed
    codebook points, rescale by 1/zeta and strip the zero-padded tail.
    """
    return decode_rows(np.asarray(enc.indices)[None], [enc.zeta], lat, [sr],
                       enc.original_dim)[0]


def snr(h_rows, ht_rows) -> float:
    """
    Mean over users of var(h) / var(h - h_tilde), in dB, for a (K, d)
    batch of updates or a sequence of K. Returns inf when any user's
    distortion variance is zero.
    """
    if len(h_rows) != len(ht_rows):
        raise ValueError("mismatched batches")
    h = np.asarray(h_rows, dtype=float)
    dv = np.var(h - np.asarray(ht_rows, dtype=float), axis=-1)
    if np.any(dv == 0.0):
        return float("inf")
    return 10.0 * math.log10(float(np.mean(np.var(h, axis=-1) / dv)))
