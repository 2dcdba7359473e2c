"""Vector codec: scaling, packetization, wire format, and SNR accounting."""

import numpy as np
import pytest

from jopeq.codec import (CorruptPayloadError, EncodedUpdate, decode, encode,
                         scale_coefficient, snr)
from jopeq.dither import SharedRandomness
from jopeq.lattice import scalar_uniform, square_lattice
from jopeq.privacy import build_ppn_sampler, laplace_spec


def _roundtrip(h, lat, seed=0, sampler=None):
    sr = SharedRandomness(seed)
    enc = encode(h, lat, sampler, sr, noise_seed=seed + 1)
    return enc, decode(enc, lat, sr)


class TestScaleCoefficient:
    def test_examples(self):
        assert scale_coefficient(np.array([1.0]), 9) == pytest.approx(1.0)
        h = np.array([2.0, 0.0])
        assert scale_coefficient(h, 4) == pytest.approx(1.0 / 3.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            scale_coefficient(np.zeros(4), 2)

    def test_non_finite_rejected(self):
        # One inf gives zeta = 0, a NaN gives zeta = NaN; either way every
        # decoded value would be non-finite.
        lat = scalar_uniform(9.0, 4)
        for bad in (np.inf, -np.inf, np.nan):
            h = np.random.default_rng(1).normal(0.0, 1.0, 1000)
            h[500] = bad
            with pytest.raises(ValueError):
                scale_coefficient(h, 1000)
            with pytest.raises(ValueError):
                encode(h, lat, None, SharedRandomness(0))

    def test_scaled_subvectors_rarely_exceed_unit_norm(self):
        # zeta = sqrt(M) / (3 ||h||) puts each scaled sub-vector at an
        # expected squared norm of 1/9; Chebyshev keeps overshoot rare.
        rng = np.random.default_rng(0)
        h = rng.normal(0.0, 1.0, 10_000)
        zeta = scale_coefficient(h, 5000)
        norms = np.linalg.norm(zeta * h.reshape(5000, 2), axis=1)
        assert np.mean(norms > 1.0) < 0.12


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


class TestSnr:
    def test_identical_is_infinite(self):
        h = [np.ones(4)]
        assert snr(h, h) == np.inf

    def test_equal_variance_is_zero_db(self):
        rng = np.random.default_rng(11)
        h = rng.normal(0.0, 1.0, 200_000)
        ht = h + rng.normal(0.0, 1.0, 200_000)
        assert snr([h], [ht]) == pytest.approx(0.0, abs=0.05)

    def test_ten_db_example(self):
        rng = np.random.default_rng(12)
        h = rng.normal(0.0, 1.0, 500_000)
        ht = h + rng.normal(0.0, np.sqrt(0.1), 500_000)
        assert snr([h], [ht]) == pytest.approx(10.0, abs=0.2)
