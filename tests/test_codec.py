"""Vector codec: scaling, packetization, wire format, and SNR accounting."""

import math
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from jopeq import codec
from jopeq.codec import (CorruptPayloadError, EncodedUpdate, decode,
                         decode_rows, encode, encode_rows, scale_rows, snr)
from jopeq.dither import SharedRandomness
from jopeq.flsim import CodecSpec
from jopeq.lattice import (_nearest_coords, hexagonal_lattice, scalar_uniform,
                           square_lattice)
from jopeq.privacy import build_ppn_sampler, laplace_spec, t_spec
from stream_layout import (BLOCK, DITHER_TAG, MIXED, NOISE_TAG, layout_stream,
                           small_blocks, times_generator)


def _roundtrip(h, lat, seed=0, sampler=None):
    sr = SharedRandomness(seed)
    enc = encode(h, lat, sampler, sr, noise_seed=seed + 1)
    return enc, decode(enc, lat, sr)


class TestScaleCoefficient:
    """zeta of one-row batches of `scale_rows`."""

    def test_examples(self):
        assert scale_rows(np.array([[1.0]]), 9)[0] == pytest.approx(1.0)
        h = np.array([[2.0, 0.0]])
        assert scale_rows(h, 4)[0] == pytest.approx(1.0 / 3.0)

    def test_non_finite_rejected(self):
        # One inf gives zeta = 0, a NaN gives zeta = NaN; either way every
        # decoded value would be non-finite.
        lat = scalar_uniform(9.0, 4)
        for bad in (np.inf, -np.inf, np.nan):
            h = np.random.default_rng(1).normal(0.0, 1.0, 1000)
            h[500] = bad
            with pytest.raises(ValueError):
                scale_rows(h[None], 1000)
            with pytest.raises(ValueError):
                encode(h, lat, None, SharedRandomness(0))

    def test_overflowing_norm_warns_nothing(self):
        # ||h||^2 = 4e320 overflows; the rescale path recovers zeta without
        # letting the overflow surface as a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeta = scale_rows(np.full((1, 4), 1e160), 4)[0]
        assert zeta == pytest.approx(1.0 / 3e160, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", [1e160, 1e-170])
    def test_extreme_finite_round_trip(self, value):
        # ||h||^2 overflows (1e160) or underflows (1e-170) in float64,
        # yet h is finite and nonzero, so it encodes like any update.
        lat = scalar_uniform(9.0, 4)
        h = np.full(4, value)
        enc, ht = _roundtrip(h, lat)
        assert enc.zeta == pytest.approx(1.0 / (3.0 * value), rel=1e-12,
                                         abs=0.0)
        assert enc.overloads == 0 and np.all(np.isfinite(ht))
        assert np.all(np.abs(ht - h) <= lat.delta_q / (2.0 * enc.zeta))

    def test_scaled_subvectors_rarely_exceed_unit_norm(self):
        # zeta = sqrt(M) / (3 ||h||) puts each scaled sub-vector at an
        # expected squared norm of 1/9; Chebyshev keeps overshoot rare.
        rng = np.random.default_rng(0)
        h = rng.normal(0.0, 1.0, 10_000)
        zeta = scale_rows(h[None], 5000)[0]
        norms = np.linalg.norm(zeta * h.reshape(5000, 2), axis=1)
        assert np.mean(norms > 1.0) < 0.12


def _zetas_alone(hs, m):
    """zeta of each row by `codec._zeta` on its own: the reference."""
    with np.errstate(over="ignore"):
        return np.array([codec._zeta(h, m) if h.any() else 1.0 for h in hs])


@pytest.mark.filterwarnings("error")
class TestStackedZetas:
    """scale_rows's stacked sums of squares give each row's zeta alone."""

    @pytest.mark.parametrize("d", [1, 10, 10_001, 1 << 20])
    def test_rows_equal_zeta_alone(self, d):
        k = 2 if d > 10_001 else 6
        rng = np.random.default_rng([4, d])
        hs = rng.normal(0.0, 1.0, (k, d)) * np.logspace(-5, 5, k)[:, None]
        m = -(-d // 2)
        assert scale_rows(hs, m).tobytes() == _zetas_alone(hs, m).tobytes()

    def test_zero_and_extreme_rows_equal_zeta_alone(self):
        # A zero row gets 1.0 with no divide-by-zero warning, and rows whose
        # sums of squares overflow (1e160) or underflow (1e-170) take the
        # rescale path, between ordinary rows.
        rng = np.random.default_rng(5)
        hs = rng.normal(0.0, 1.0, (6, 7))
        hs[1] = 0.0
        hs[2] = 1e160
        hs[4] = 1e-170
        hs[5, :3] = -0.0
        hs[5, 3:] = 0.0
        got = scale_rows(hs, 4)
        assert got[1] == got[5] == 1.0
        assert got.tobytes() == _zetas_alone(hs, 4).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_rejected(self, bad):
        hs = np.random.default_rng(6).normal(0.0, 1.0, (3, 5))
        hs[1, 2] = bad
        with pytest.raises(ValueError):
            scale_rows(hs, 3)


class TestSubvectorLayout:
    def test_partition_counts(self):
        lat = square_lattice(3.0, 3)
        enc, _ = _roundtrip(np.ones(4), lat)
        assert enc.m_subvectors == 2
        enc, _ = _roundtrip(np.ones(5), lat)
        assert enc.m_subvectors == 3

    def test_padding_dropped_on_decode(self):
        lat = square_lattice(3.0, 3)
        h = np.random.default_rng(1).normal(0.0, 1.0, 5)
        _, out = _roundtrip(h, lat)
        assert out.shape == (5,)

    def test_unit_zeta_error_within_cell(self):
        # d=9, single nonzero coordinate of norm 1: zeta = sqrt(9)/3 = 1,
        # so the end-to-end error is exactly the subtractive dither error,
        # bounded by half a cell.
        lat = scalar_uniform(4.0, 3)
        h = np.zeros(9)
        h[0] = 1.0
        enc, out = _roundtrip(h, lat, seed=3)
        assert enc.zeta == pytest.approx(1.0)
        assert np.all(np.abs(out - h) <= lat.delta_q / 2 + 1e-12)

    def test_zero_vector_sentinel(self):
        lat = scalar_uniform(4.0, 3)
        enc, out = _roundtrip(np.zeros(6), lat)
        assert enc.zeta == 1.0
        # sentinel: every index names the zero lattice point
        assert np.all(lat.codebook[enc.indices] == 0.0)
        assert np.all(np.abs(out) <= lat.delta_q / 2 + 1e-12)


class TestDistortion:
    def test_subtractive_distortion_variance(self):
        lat = scalar_uniform(9.0, 4)
        h = np.random.default_rng(2).normal(0.0, 1.0, 100_000)
        enc, out = _roundtrip(h, lat, seed=5)
        keep = ~enc.overload_mask
        err = (out - h)[keep]
        zeta = enc.zeta
        # distortion = e / zeta with e cell-uniform
        expect = lat.delta_q ** 2 / 12.0 / zeta ** 2
        assert np.var(err) == pytest.approx(expect, rel=0.02)

    def test_wrong_shared_seed_inflates_error(self):
        lat = scalar_uniform(9.0, 4)
        h = np.random.default_rng(3).normal(0.0, 1.0, 20_000)
        sr = SharedRandomness(10)
        enc = encode(h, lat, None, sr)
        good = decode(enc, lat, sr)
        bad = decode(enc, lat, SharedRandomness(11))
        assert np.var(bad - h) > 2.0 * np.var(good - h)

    def test_distortion_invariant_to_input_distribution(self):
        lat = scalar_uniform(9.0, 4)
        rng = np.random.default_rng(4)
        n = 50_000
        inputs = {
            "gaussian": rng.normal(0.0, 1.0, n),
            "laplacian": rng.laplace(0.0, 1.0, n),
            "sparse": np.where(rng.random(n) < 0.05,
                               rng.normal(0.0, 3.0, n), 0.0),
        }
        inputs["sparse"][0] = 1.0  # avoid the zero-norm edge case
        curves = {}
        grid = np.linspace(-0.5, 0.5, 501)
        for seed, (name, h) in enumerate(inputs.items()):
            enc, out = _roundtrip(h, lat, seed=600 + seed)
            e = (out - h)[~enc.overload_mask] * enc.zeta
            curves[name] = np.searchsorted(np.sort(e), grid) / len(e)
        for a in curves:
            for b in curves:
                assert np.max(np.abs(curves[a] - curves[b])) < 0.02

    def test_overloads_decrease_with_support(self):
        h = np.random.default_rng(5).normal(0.0, 1.0, 50_000)
        counts = []
        for gamma in (0.5, 1.0, 9.0):
            lat = scalar_uniform(gamma, 4)
            enc, _ = _roundtrip(h, lat, seed=7)
            assert enc.overloads == int(enc.overload_mask.sum())
            wired = EncodedUpdate.from_bytes(enc.to_bytes(), lat)
            assert wired.overloads == enc.overloads
            counts.append(enc.overloads)
        assert counts[0] > counts[1] > counts[2] == 0


class TestWireFormat:
    def test_payload_accounting(self):
        lat = scalar_uniform(9.0, 4)  # 17 codebook points -> 5 index bits
        h = np.random.default_rng(6).normal(0.0, 1.0, 1000)
        enc, _ = _roundtrip(h, lat)
        assert enc.index_bits == 5
        assert enc.payload_bits == 5000
        assert len(enc.to_bytes()) == 16 + 625

    def test_bytes_round_trip(self):
        lat = square_lattice(3.0, 3)
        # d is a multiple of L: original_dim is carried out of band, so the
        # wire format alone reconstructs it only for unpadded updates.
        h = np.random.default_rng(7).normal(0.0, 2.0, 500)
        sr = SharedRandomness(8)
        enc = encode(h, lat, None, sr)
        back = EncodedUpdate.from_bytes(enc.to_bytes(), lat)
        assert np.array_equal(back.indices, enc.indices)
        assert back.zeta == enc.zeta
        assert back.original_dim == enc.original_dim
        assert np.array_equal(decode(back, lat, sr), decode(enc, lat, sr))

    def test_corrupt_payloads_rejected(self):
        lat = scalar_uniform(9.0, 4)
        h = np.random.default_rng(8).normal(0.0, 1.0, 64)
        enc, _ = _roundtrip(h, lat)
        blob = enc.to_bytes()
        with pytest.raises(CorruptPayloadError):
            EncodedUpdate.from_bytes(blob[:8], lat)
        with pytest.raises(CorruptPayloadError):
            EncodedUpdate.from_bytes(blob[:-2], lat)
        with pytest.raises(CorruptPayloadError):
            EncodedUpdate.from_bytes(blob, square_lattice(9.0, 4))
        with pytest.raises(CorruptPayloadError, match="trailing"):
            EncodedUpdate.from_bytes(blob + b"\xff" * 5, lat)
        # 63 indices of 5 bits leave 5 pad bits in the last byte.
        assert lat.index_bits == 5
        padded = _roundtrip(h[:63], lat)[0].to_bytes()
        EncodedUpdate.from_bytes(padded, lat)
        with pytest.raises(CorruptPayloadError, match="pad"):
            EncodedUpdate.from_bytes(padded[:-1] + bytes([padded[-1] | 1]),
                                     lat)

    def test_header_overloads_and_zeta_checked(self):
        # The header: u16 M, u8 L, u8 R, f64 zeta (bytes 4-12), u32
        # overloads (bytes 12-16).
        lat = scalar_uniform(9.0, 4)
        h = np.random.default_rng(8).normal(0.0, 1.0, 64)
        blob = _roundtrip(h, lat)[0].to_bytes()

        def patched(zeta=None, overloads=None):
            head = bytearray(blob)
            if zeta is not None:
                head[4:12] = struct.pack(">d", zeta)
            if overloads is not None:
                head[12:16] = struct.pack(">I", overloads)
            return bytes(head)

        assert EncodedUpdate.from_bytes(patched(overloads=64),
                                        lat).overloads == 64
        for bad in (65, 2 ** 32 - 1):
            with pytest.raises(CorruptPayloadError, match="overloads"):
                EncodedUpdate.from_bytes(patched(overloads=bad), lat)
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(CorruptPayloadError, match="zeta"):
                EncodedUpdate.from_bytes(patched(zeta=bad), lat)

    def test_rate_mismatch_rejected(self):
        # The zero update is sent as the zero point, index 8 of 17: as 4-bit
        # fields its 5-bit codes read 4, 2, 1, 0, 8, all inside the rate-3
        # codebook of 9 points, so only the header's rate tells them apart.
        sr = SharedRandomness(9)
        blob = encode(np.zeros(8), scalar_uniform(9.0, 4), None,
                      sr).to_bytes()
        with pytest.raises(CorruptPayloadError, match="rate"):
            EncodedUpdate.from_bytes(blob, scalar_uniform(9.0, 3))

    def test_out_of_range_index_rejected_on_decode(self):
        lat = scalar_uniform(9.0, 4)
        sr = SharedRandomness(9)
        enc = encode(np.ones(8), lat, None, sr)
        bad = EncodedUpdate(
            indices=np.full_like(enc.indices, len(lat.codebook)),
            zeta=enc.zeta, lattice_dim=enc.lattice_dim,
            nominal_rate=enc.nominal_rate, index_bits=enc.index_bits,
            original_dim=enc.original_dim)
        with pytest.raises(CorruptPayloadError):
            decode(bad, lat, sr)


class TestWithNoise:
    def test_noise_changes_output_but_stays_unbiased(self):
        lat = scalar_uniform(9.0, 4)
        spec = laplace_spec(2.0, 1)
        samp = build_ppn_sampler(spec, lat)
        h = np.random.default_rng(10).normal(0.0, 1.0, 100_000)
        sr = SharedRandomness(12)
        enc = encode(h, lat, samp, sr, noise_seed=13)
        out = decode(enc, lat, sr)
        err = (out - h)[~enc.overload_mask] * enc.zeta
        total = spec.variance_per_coord
        assert np.mean(err) == pytest.approx(0.0, abs=0.05)
        assert np.var(err) == pytest.approx(total, rel=0.05)

    def test_sampler_dimension_mismatch(self):
        lat1 = scalar_uniform(9.0, 4)
        samp = build_ppn_sampler(laplace_spec(2.0, 1), lat1)
        with pytest.raises(ValueError):
            encode(np.ones(8), square_lattice(9.0, 4), samp,
                   SharedRandomness(0))

    def test_sampler_cell_mismatch(self):
        # Same dimension, another cell: the PPN was deconvolved for a cell
        # of width 1.125, and the rate-3 lattice has width 2.25.
        samp = build_ppn_sampler(laplace_spec(2.0, 1), scalar_uniform(9.0, 4))
        with pytest.raises(ValueError, match="another lattice"):
            encode(np.ones(8), scalar_uniform(9.0, 3), samp,
                   SharedRandomness(0))
        # Another support radius on the same cell keeps the PPN valid.
        same_cell = scalar_uniform(4.5, 3)
        assert same_cell.generator.tobytes() == samp.lattice.generator.tobytes()
        encode(np.ones(8), same_cell, samp, SharedRandomness(0))


class TestSnr:
    def test_identical_is_infinite(self):
        h = [np.ones(4)]
        assert snr(h, h) == np.inf

    def test_equal_variance_is_zero_db(self):
        rng = np.random.default_rng(11)
        h = rng.normal(0.0, 1.0, 200_000)
        ht = h + rng.normal(0.0, 1.0, 200_000)
        assert snr([h], [ht]) == pytest.approx(0.0, abs=0.05)

    def test_batch_equals_rows(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            hs = rng.normal(0.0, 1.0, (10, 10))
            hts = hs + rng.normal(0.0, 0.3, (10, 10))
            by_user = 10.0 * math.log10(np.mean(
                [float(np.var(h)) / float(np.var(h - ht))
                 for h, ht in zip(hs, hts)]))
            assert snr(hs, hts) == snr(list(hs), list(hts)) == by_user

    def test_ten_db_example(self):
        rng = np.random.default_rng(12)
        h = rng.normal(0.0, 1.0, 500_000)
        ht = h + rng.normal(0.0, np.sqrt(0.1), 500_000)
        assert snr([h], [ht]) == pytest.approx(10.0, abs=0.2)


def _residual_whole(lat, u):
    """The dither map as whole (K, M, L) products with G."""
    x = times_generator(lat, u)
    return x - times_generator(lat, _nearest_coords(lat, x))


def _ppn_whole(samp, m, g):
    """M cell uniforms, then (M, L) jitter, from one row's stream."""
    dim = samp.lattice.dimension
    if samp.degenerate:
        return np.zeros((m, dim))
    u = g.random(m)
    jit = g.random((m, dim))
    cells = np.searchsorted(samp._cdf, u, side="right")
    for a, i in enumerate(np.unravel_index(cells, samp.density.shape)):
        jit[:, a] = samp.origin[a] + samp.step[a] * (i + jit[:, a])
    return jit


def _quantize_whole(lat, flat):
    coords = _nearest_coords(lat, flat).astype(np.int64)
    clipped = np.clip(coords + lat._lmax, 0, 2 * lat._lmax)
    idx = lat._lookup[tuple(clipped.T)]
    overloaded = ~((idx >= 0)
                   & np.all(clipped == coords + lat._lmax, axis=-1))
    if np.any(overloaded):
        bad = flat[overloaded]
        d2 = np.sum((bad[:, None, :] - lat.codebook) ** 2, axis=-1)
        idx[overloaded] = np.argmin(d2, axis=1)
    return idx, overloaded


def _encode_whole(hs, lat, samp, srs, noise_seed):
    """encode_rows as whole-array passes over (K, M, L): the reference."""
    k, d = hs.shape
    dim = lat.dimension
    m = -(-d // dim)
    zetas = scale_rows(hs, m)
    x = np.zeros((k, m, dim))
    x.reshape(k, -1)[:, :d] = zetas[:, None] * hs
    u = np.stack([layout_stream(sr.seed, sr.user, sr.round_index,
                                 DITHER_TAG).random((m, dim)) for sr in srs])
    x += _residual_whole(lat, u)
    if samp is not None:
        x += np.stack([_ppn_whole(samp, m, layout_stream(
            noise_seed, sr.user, sr.round_index, NOISE_TAG)) for sr in srs])
    idx, overloaded = _quantize_whole(lat, x.reshape(-1, dim))
    idx, overloaded = idx.reshape(k, m), overloaded.reshape(k, m)
    zero = ~np.any(hs, axis=1)
    idx[zero] = lat.zero_index
    overloaded[zero] = False
    return idx, zetas, overloaded


def _decode_whole(idx, zetas, lat, srs, original_dim):
    k, m = idx.shape
    dim = lat.dimension
    u = np.stack([layout_stream(sr.seed, sr.user, sr.round_index,
                                 DITHER_TAG).random((m, dim)) for sr in srs])
    sub = (lat.codebook[idx] - _residual_whole(lat, u)) / zetas[:, None, None]
    return sub.reshape(k, -1)[:, :original_dim]


def _codec(family):
    """A lattice and a small non-degenerate PPN sampler for it."""
    if family == "scalar":
        lat, spec = scalar_uniform(9.0, 4), laplace_spec(1.0, 1)
    else:
        make = square_lattice if family == "square" else hexagonal_lattice
        lat, spec = make(9.0, 3), t_spec(3.0, 2, 3.0)
    return lat, build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)


class TestBlocks:
    """
    encode_rows and decode_rows code in blocks of at most _BLOCK
    coordinates (here BLOCK sub-vectors); their outputs equal, byte for
    byte, whole-array passes.
    """

    def check(self, lat, samp, hs, srs, noise_seed=-11):
        d = hs.shape[1]
        got = encode_rows(hs, lat, samp, srs, noise_seed)
        want = _encode_whole(hs, lat, samp, srs, noise_seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        idx, zetas, _ = want
        dec = decode_rows(idx, zetas, lat, srs, d)
        assert dec.tobytes() == _decode_whole(idx, zetas, lat, srs,
                                              d).tobytes()
        assert dec.shape == hs.shape
        return got

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("m", [BLOCK // 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equal_to_whole_array_passes(self, family, m, k, monkeypatch):
        lat, samp = _codec(family)
        small_blocks(monkeypatch, lat.dimension)
        dim = lat.dimension
        d = m * dim - (dim - 1)  # an odd d pads the last 2-D sub-vector
        hs = np.random.default_rng([m, k]).normal(0.0, 1.0, (k, d))
        hs[:, ::97] *= 40.0  # spikes, so that some sub-vectors overload
        srs = MIXED[-k:]
        if k == 3:
            hs[1] = 0.0
        _, _, overloaded = self.check(lat, samp, hs, srs)
        assert overloaded.any()

    def test_equal_to_whole_array_passes_at_the_real_budget(self):
        # Two rows, each cut into two slices of the real budget's blocks.
        lat, samp = _codec("hexagonal")
        m = codec._BLOCK // lat.dimension + 1
        hs = np.random.default_rng(9).normal(0.0, 1.0, (2, 2 * m - 1))
        assert len(list(codec._blocks(2, m, lat.dimension))) == 4
        self.check(lat, samp, hs, MIXED[1:3])

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_one_subvector_tail(self, family, monkeypatch):
        # Rows one sub-vector longer than a block: the blocks are cut
        # evenly, and a one-sub-vector slice would code as the whole row
        # does too.
        lat, samp = _codec(family)
        small_blocks(monkeypatch, lat.dimension, 64)
        m, k = 65, 40
        hs = np.random.default_rng(10).normal(0.0, 1.0,
                                              (k, m * lat.dimension))
        srs = [SharedRandomness(seed=12, user=i, round_index=i % 7)
               for i in range(k)]
        self.check(lat, samp, hs, srs)

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_one_overloaded_subvector_in_a_block(self, family, monkeypatch):
        # Block 0 of a row holds one overloaded sub-vector and block 1
        # three: each block's brute-force search names the same nearest
        # points as the whole row's.
        make = scalar_uniform if family == "scalar" else hexagonal_lattice
        lat = make(1.0, 3)
        dim = lat.dimension
        small_blocks(monkeypatch, dim, 64)
        m = 128
        hs = np.random.default_rng(11).normal(0.0, 0.01, (1, m * dim))
        for i in (10, 70, 90, 110):
            hs[0, i * dim:(i + 1) * dim] = 1.0
        _, _, overloaded = self.check(lat, None, hs, MIXED[:1])
        assert overloaded[0, :64].sum() == 1
        assert overloaded[0, 64:].sum() == 3

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_without_ppn(self, family, monkeypatch):
        lat, _ = _codec(family)
        small_blocks(monkeypatch, lat.dimension)
        d = (BLOCK + 2) * lat.dimension
        hs = np.random.default_rng(5).normal(0.0, 1.0, (2, d))
        self.check(lat, None, hs, MIXED[:2])

    def test_degenerate_sampler(self, monkeypatch):
        small_blocks(monkeypatch, 1)
        lat = scalar_uniform(9.0, 1)
        samp = build_ppn_sampler(laplace_spec(50.0, 1), lat,
                                 allow_degenerate=True)
        assert samp.degenerate
        hs = np.random.default_rng(6).normal(0.0, 1.0, (2, BLOCK + 9))
        self.check(lat, samp, hs, MIXED[1:3])

    def test_fresh_noise_shapes(self, monkeypatch):
        # Fresh OS entropy: only the shapes and the decoded width can be
        # checked.
        lat, samp = _codec("hexagonal")
        small_blocks(monkeypatch, lat.dimension)
        d = 2 * BLOCK + 5
        hs = np.random.default_rng(7).normal(0.0, 1.0, (3, d))
        idx, zetas, overloaded = encode_rows(hs, lat, samp, MIXED[:3])
        m = -(-d // 2)
        assert idx.shape == overloaded.shape == (3, m)
        assert zetas.shape == (3,)
        assert decode_rows(idx, zetas, lat, MIXED[:3], d).shape == (3, d)

    def test_rows_must_match_streams(self):
        lat, _ = _codec("scalar")
        with pytest.raises(ValueError, match="2 shared streams for 3 rows"):
            encode_rows(np.ones((3, 4)), lat, None, MIXED[:2])
        with pytest.raises(ValueError, match="2 shared streams for 3 rows"):
            decode_rows(np.zeros((3, 4), dtype=np.int64), np.ones(3), lat,
                        MIXED[:2], 4)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 64, 65, 127, 129, 200])
    def test_blocks_cover_rows_in_near_equal_slices(self, m, monkeypatch):
        small_blocks(monkeypatch, 2, 64)
        blocks = list(codec._blocks(3, m, 2))
        cover = np.zeros((3, m), dtype=int)
        for r0, r1, lo, hi in blocks:
            assert (r1 - r0) * (hi - lo) <= 64
            assert r1 - r0 == 1 or (lo, hi) == (0, m)
            assert hi - lo >= min(m, 2)
            cover[r0:r1, lo:hi] += 1
        assert (cover == 1).all()


class TestBlockMemory:
    """
    A running block holds at most three times its own bytes: its sum,
    scratch of `lattice._scratch_size` floats, and the lookup's chunk;
    its index and overload flag are written in place in the outputs.
    """

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    def test_temporaries_at_most_three_blocks(self, family, monkeypatch):
        # The benchmark's codecs (few overloads, whose brute-force search
        # holds a row of distances each), on small PPN tables.
        monkeypatch.setattr(codec, "_cpus", lambda: 1)
        if family == "scalar":
            cspec = CodecSpec(family="scalar", rate=4, epsilon=2.0)
        else:
            cspec = CodecSpec(family=family, rate=4, epsilon=3.0,
                              mechanism="t", nu=3.0)
        lat, spec = cspec.build()
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        dim = lat.dimension
        m = 2 * (codec._BLOCK // dim)  # two full blocks
        block_bytes = codec._BLOCK * 8
        hs = np.random.default_rng(12).normal(0.0, 1.0, (1, m * dim))
        srs = MIXED[:1]
        encode_rows(hs, lat, samp, srs, 5)  # warm: first-call caches
        peak, (idx, zetas, overloaded) = self.peak(
            lambda: encode_rows(hs, lat, samp, srs, 5))
        assert overloaded.mean() < 1e-3
        outputs = idx.nbytes + zetas.nbytes + overloaded.nbytes
        assert peak - outputs <= 3 * block_bytes
        peak, out = self.peak(
            lambda: decode_rows(idx, zetas, lat, srs, m * dim))
        assert peak - out.nbytes <= 3 * block_bytes


# Sub-vectors per row of the long batches below: two blocks and a tail.
LONG = 2 * BLOCK + 3


def _long_batch(family):
    """
    encode_rows and decode_rows of one batch of len(MIXED) rows of LONG
    sub-vectors (an odd d for the 2-D codecs), with the mixed streams, in
    the caller's blocks; returns (indices, zetas, overloaded, decoded).
    """
    lat, samp = _codec(family)
    d = LONG * lat.dimension - (lat.dimension - 1)
    hs = np.random.default_rng([LONG, lat.dimension]).normal(
        0.0, 1.0, (len(MIXED), d))
    hs[:, ::97] *= 40.0
    idx, zetas, overloaded = encode_rows(hs, lat, samp, MIXED, -11)
    return idx, zetas, overloaded, decode_rows(idx, zetas, lat, MIXED, d)


# Run in a child process: saves `_long_batch` of each family, in blocks of
# BLOCK sub-vectors, and the CPU count the codec sees, pinned to one CPU
# (every block then runs inline) when argv[2] is "1".
_BATCH_CHILD = """
import os, sys
if sys.argv[2] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from jopeq import codec
from test_codec import BLOCK, _long_batch
runs = {}
for f in ("scalar", "square", "hexagonal"):
    codec._BLOCK = BLOCK * (1 if f == "scalar" else 2)
    runs.update({f"{f}{i}": a for i, a in enumerate(_long_batch(f))})
np.savez(sys.argv[1], cpus=codec._cpus(), **runs)
"""


def _exit_unless_long_batch_is(family, want):
    """Exit 1 unless `_long_batch` of family equals want, byte for byte."""
    got = _long_batch(family)
    sys.exit(0 if all(g.tobytes() == w.tobytes()
                      for g, w in zip(got, want)) else 1)


class TestConcurrentBlocks:
    """
    The blocks of one call run on several threads; the outputs do not
    depend on how many, or on the order in which the blocks run.
    """

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or codec._cpus() < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_output_does_not_depend_on_core_count(self, tmp_path):
        # Both sides in a child process with single-threaded BLAS, as
        # tools/output_digest.py and the benchmark run: a multi-threaded
        # BLAS dot product sums in another order with the CPU count.
        here = Path(__file__).resolve().parent
        src = Path(codec.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), str(here)]))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), "1"))
        runs = []
        for pinned in ("0", "1"):
            out = tmp_path / f"pinned{pinned}.npz"
            subprocess.run([sys.executable, "-c", _BATCH_CHILD, str(out),
                            pinned], env=env, check=True, timeout=300)
            runs.append(np.load(out))
        every, one = runs
        with every, one:
            assert int(every["cpus"]) == codec._cpus()
            assert int(one["cpus"]) == 1
            assert every.files == one.files
            for name in set(every.files) - {"cpus"}:
                got, want = one[name], every[name]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_child_forked_after_the_pool_ran(self, monkeypatch):
        # The child has none of the pool's threads: its calling thread
        # codes every block, and no call waits for a helper that never
        # starts.
        small_blocks(monkeypatch, 1)
        want = _long_batch("scalar")
        child = multiprocessing.get_context("fork").Process(
            target=_exit_unless_long_batch_is, args=("scalar", want))
        child.start()
        child.join(timeout=120)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive
        assert child.exitcode == 0

    @staticmethod
    def watch_blocks(monkeypatch, fail_in=None):
        """
        Wrap the codec's dither_block, which every block calls once: count
        the blocks begun and the blocks running, and hold each one 5 ms.
        fail_in "caller": the first block the calling thread runs holds
        20 ms, while the helpers work on, then raises; "helper": the first
        block a helper runs raises at once.
        """
        real = codec.dither_block
        state = {"begun": 0, "running": 0}
        lock = threading.Lock()
        failed = []

        def watched(srs, lat, count, start=0, **buffers):
            main = threading.current_thread() is threading.main_thread()
            with lock:
                state["begun"] += 1
                state["running"] += 1
                fail = (fail_in == ("caller" if main else "helper")
                        and not failed)
                if fail:
                    failed.append(start)
            try:
                time.sleep(0.02 if fail and main else 0.005)
                if fail:
                    raise RuntimeError(f"{fail_in} block failed")
                return real(srs, lat, count, start, **buffers)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(codec, "dither_block", watched)
        return state

    @pytest.mark.parametrize("bad", [-1, None])
    def test_corrupt_index_in_last_block(self, monkeypatch, bad):
        small_blocks(monkeypatch, 1)
        lat, _ = _codec("scalar")
        hs = np.random.default_rng(3).normal(0.0, 1.0, (3, LONG))
        idx, zetas, _ = encode_rows(hs, lat, None, MIXED[:3])
        idx[-1, -1] = len(lat.codebook) if bad is None else bad
        state = self.watch_blocks(monkeypatch)
        with pytest.raises(CorruptPayloadError,
                           match="index out of codebook range"):
            decode_rows(idx, zetas, lat, MIXED[:3], LONG)
        # Found before any block ran, so no helper is left writing.
        assert state == {"begun": 0, "running": 0}

    @pytest.mark.parametrize("fail_in", ["caller", "helper"])
    def test_error_in_a_block_waits_for_every_helper(self, monkeypatch,
                                                      fail_in):
        if fail_in == "helper" and codec._cpus() < 2:
            pytest.skip("no helper thread on one CPU")
        small_blocks(monkeypatch, 1)
        lat, _ = _codec("scalar")
        k = len(MIXED)
        hs = np.random.default_rng(4).normal(0.0, 1.0, (k, LONG))
        blocks = len(list(codec._blocks(k, LONG, 1)))
        state = self.watch_blocks(monkeypatch, fail_in)
        with pytest.raises(RuntimeError, match=f"{fail_in} block failed"):
            encode_rows(hs, lat, None, MIXED)
        assert state["running"] == 0
        # The blocks not yet taken when the failure came were skipped.
        assert state["begun"] < blocks

    def test_concurrent_callers(self, monkeypatch):
        # More callers than CPUs, each coding multi-block batches through
        # the one pool, with threads switched as often as possible.
        small_blocks(monkeypatch, 2)
        want = _long_batch("hexagonal")
        errors, done = [], []

        def caller():
            try:
                for _ in range(2):
                    got = _long_batch("hexagonal")
                    assert all(g.tobytes() == w.tobytes()
                               for g, w in zip(got, want))
                done.append(1)
            except BaseException as err:  # reported below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller)
                       for _ in range(codec._cpus() + 2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert not errors, errors
        assert len(done) == len(callers)
