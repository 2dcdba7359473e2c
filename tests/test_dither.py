"""Shared-seed dither streams and the DQ/SDQ transforms."""

import numpy as np
import pytest

from jopeq.dither import SharedRandomness, dither_block, sdq
from jopeq.lattice import (hexagonal_lattice, nearest_point, quantize_clipped,
                           scalar_uniform)
from jopeq.stattests import correlation_test, ks_test


class TestSharedStream:
    def test_deterministic(self):
        sr = SharedRandomness(seed=123, user=4, round_index=9)
        lat = scalar_uniform(4.0, 3)
        block = dither_block(sr, lat, 5)
        assert np.array_equal(block, dither_block(sr, lat, 5))

    def test_block_rows_match_single_draws(self):
        sr = SharedRandomness(seed=11, user=1, round_index=3)
        lat = hexagonal_lattice(3.0, 3)
        block = dither_block(sr, lat, 4)
        # Row i, the dither of sub-vector i, does not depend on the count.
        for i in range(4):
            assert np.array_equal(block[i], dither_block(sr, lat, i + 1)[i])

    def test_coordinates_change_stream(self):
        lat = scalar_uniform(4.0, 3)
        base = dither_block(SharedRandomness(seed=5), lat, 2)[:, 0]
        assert base[1] != base[0]
        for other in (SharedRandomness(6, 0, 0), SharedRandomness(5, 1, 0),
                      SharedRandomness(5, 0, 1)):
            assert dither_block(other, lat, 1)[0, 0] != base[0]

    def test_adjacent_indices_uncorrelated(self):
        lat = scalar_uniform(4.0, 3)
        block = dither_block(SharedRandomness(seed=21), lat, 100_001)[:, 0]
        rep = correlation_test(block[:-1], block[1:], "adjacent-dither")
        assert rep.passed, str(rep)

    def test_marginal_uniform_over_cell(self):
        lat = scalar_uniform(4.0, 3)  # delta 1
        d = dither_block(SharedRandomness(seed=33), lat, 100_000)[:, 0]
        rep = ks_test(d, lambda v: np.clip(v + 0.5, 0.0, 1.0), "dither-ks")
        assert rep.passed, str(rep)

    def test_dither_lies_in_basic_cell(self):
        lat = hexagonal_lattice(3.0, 3)
        d = dither_block(SharedRandomness(seed=2), lat, 2000)
        assert np.allclose(nearest_point(lat, d), 0.0, atol=1e-9)


class TestSdq:
    def test_exact_on_lattice_points_with_zero_dither(self):
        lat = scalar_uniform(4.0, 3)
        for x in (-2.0, 0.0, 3.0):
            val, _, over = sdq(lat, x, 0.0)
            assert (val, over) == (x, False)

    def test_sdq_equals_dq_minus_dither(self):
        lat = hexagonal_lattice(3.0, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, (300, 2))
        d = dither_block(SharedRandomness(seed=4), lat, 300)
        pv, pi, po = quantize_clipped(lat, x + d)
        sv, si, so = sdq(lat, x, d)
        assert np.array_equal(sv, pv - d)
        assert np.array_equal(si, pi)
        assert np.array_equal(so, po)

    def _distortion(self, lat, x, seed):
        d = dither_block(SharedRandomness(seed=seed), lat, len(x))[:, 0]
        val, _, over = sdq(lat, x, d)
        assert not np.any(over)
        return val - x

    def test_distortion_uniform_and_uncorrelated(self):
        lat = scalar_uniform(4.0, 3)  # delta 1; keep |x| <= gamma - delta
        rng = np.random.default_rng(9)
        x = np.clip(rng.normal(0.0, 1.0, 100_000), -3.0, 3.0)
        e = self._distortion(lat, x, seed=90)
        rep = ks_test(e, lambda v: np.clip(v + 0.5, 0.0, 1.0), "sdq-uniform")
        assert rep.passed, str(rep)
        rep = correlation_test(x, e, "sdq-independence")
        assert rep.passed, str(rep)

    def test_overload_flagged_not_silent(self):
        lat = scalar_uniform(2.0, 2)
        val, _, over = sdq(lat, 5.0, 0.25)
        assert over
        assert val == pytest.approx(2.0 - 0.25)
