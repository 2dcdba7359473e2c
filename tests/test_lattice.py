"""Lattice geometry, quantization, basic-cell sampling and the cell CF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jopeq.flsim import CodecSpec
from jopeq.lattice import (ConfigurationError, cell_cf,
                           cell_variance_per_coord, hexagonal_lattice,
                           nearest_point, quantize_clipped,
                           sample_cell_uniform, scalar_uniform, square_lattice)

# Monte-Carlo oracle for the hexagonal-cell CF at t=(1,1), unit generator
# scale: mean of cos(t.e) over 1e7 cell-uniform samples (default_rng(0)).
HEX_CF_11_MC = 0.9321711421
# Support radius that makes the hexagonal generator scale exactly 1 at R=3.
HEX_UNIT_GAMMA = float(np.sqrt(np.sqrt(3.0) * 4.0 ** 3 / (2.0 * np.pi)))


def all_lattices():
    return [
        scalar_uniform(4.0, 3),
        square_lattice(3.0, 3),
        hexagonal_lattice(3.0, 3),
    ]


def lattice_at(family, scale):
    """A 2-D lattice with spacing 1 ("unit") or as in the benchmark."""
    if scale == "benchmark":
        return CodecSpec(family=family, rate=4, epsilon=3.0,
                         mechanism="t").build()[0]
    if family == "square":
        return square_lattice(4.0, 3)
    return hexagonal_lattice(HEX_UNIT_GAMMA, 3)


def nearest_at_min_distance(lat, x):
    """nearest_point(lat, x), checked against a brute-force distance."""
    got = nearest_point(lat, x)
    grid = np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    best = np.min(np.linalg.norm(grid @ lat.generator.T - x, axis=1))
    assert np.linalg.norm(got - x) == pytest.approx(best, rel=1e-12)
    return got


class TestConstruction:
    def test_scalar_spacing_examples(self):
        assert scalar_uniform(2.0, 2).delta_q == 1.0
        assert scalar_uniform(1.0, 1).delta_q == 1.0
        lat = scalar_uniform(4.0, 3)
        assert lat.delta_q == 1.0

    def test_scalar_codebook_is_symmetric_midtread(self):
        lat = scalar_uniform(2.0, 2)
        assert sorted(lat.codebook[:, 0]) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_codebook_invariants(self):
        for lat in all_lattices():
            pts = lat.codebook
            # every point is G l within the support sphere
            l = pts @ np.linalg.inv(lat.generator).T
            assert np.allclose(l, np.round(l), atol=1e-9)
            assert np.all(np.linalg.norm(pts, axis=1)
                          <= lat.support_radius * (1 + 1e-9))
            # contains zero and is closed under negation
            assert np.any(np.all(np.abs(pts) < 1e-12, axis=1))
            neg = {tuple(np.round(-p, 9)) for p in pts}
            assert neg == {tuple(np.round(p, 9)) for p in pts}

    def test_singular_generator_rejected(self):
        with pytest.raises(ConfigurationError):
            scalar_uniform(-1.0, 2)
        with pytest.raises(ConfigurationError):
            scalar_uniform(2.0, 0)


class TestNearestPoint:
    def test_scalar_examples(self):
        lat = scalar_uniform(4.0, 3)
        assert nearest_point(lat, 0.0) == 0.0
        assert nearest_point(lat, 0.6) == 1.0

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    @pytest.mark.parametrize("family", ["square", "hexagonal"])
    def test_matches_bruteforce(self, family, scale):
        lat = lattice_at(family, scale)
        grid = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4),
                                    indexing="ij"), axis=-1).reshape(-1, 2)
        rng = np.random.default_rng(3)
        xs = np.vstack([rng.uniform(-1.5, 1.5, (2000, 2)), [[0.9, 0.1]]])
        xs = xs * lat.delta_q
        # Offsets of up to 1.5 spacings from random lattice points, some
        # beyond the support: the nearest point is among the 7x7 integer
        # vectors around the lattice point an offset starts from.
        base = rng.integers(-20, 21, (len(xs), 2))
        xs = xs + base @ lat.generator.T
        cand = (base[:, None, :] + grid) @ lat.generator.T
        d2 = np.sum((cand - xs[:, None, :]) ** 2, axis=-1)
        best = cand[np.arange(len(xs)), np.argmin(d2, axis=1)]
        assert np.allclose(nearest_point(lat, xs), best,
                           rtol=0, atol=1e-9 * lat.delta_q)

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    def test_square_ties_round_half_up(self, scale):
        lat = lattice_at("square", scale)
        # Edge midpoints and cell vertices, exact in floating point.
        ties = np.array([[0.5, 0.0], [0.0, -0.5], [0.5, 0.5], [-0.5, -0.5],
                         [2.5, -3.5]])
        expect = np.array([[1, 0], [0, 0], [1, 1], [0, 0], [3, -3]])
        for x, l in zip(ties * lat.delta_q, expect):
            assert np.array_equal(nearest_at_min_distance(lat, x),
                                  lat.generator @ l)

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    def test_hexagonal_ties(self, scale):
        lat = lattice_at("hexagonal", scale)
        g = lat.generator
        height = lat.delta_q * np.sqrt(3.0)  # row spacing of each coset
        # Midpoint of the edge shared with G(1, 0): inside one coset, so
        # the per-axis rule rounds half up.
        got = nearest_at_min_distance(lat, np.array([0.5 * lat.delta_q, 0]))
        assert np.array_equal(got, g @ [1, 0])
        # Midpoint of the edge shared with G(0, 1), the nearest point of the
        # shifted coset, written so both cosets are exactly as near: the
        # unshifted coset's point, the origin, wins.
        x = np.array([0.25 * lat.delta_q, 0.25 * height])
        assert np.array_equal(nearest_at_min_distance(lat, x), [0.0, 0.0])
        # Cell vertices at angles pi/6 and -pi/6, each shared by the origin,
        # G(1, 0) and one shifted-coset point: the unshifted coset rounds
        # u = 1/2 up, so the origin is never the answer.
        for sign, shifted in ((1, [0, 1]), (-1, [1, -1])):
            x = np.array([0.5 * lat.delta_q, sign * height / 6.0])
            got = nearest_at_min_distance(lat, x)
            assert any(np.array_equal(got, g @ l) for l in ([1, 0], shifted))

    def test_idempotent_on_codebook(self):
        for lat in all_lattices():
            assert np.allclose(nearest_point(lat, lat.codebook), lat.codebook)

    def test_error_in_basic_cell(self):
        for lat in all_lattices():
            rng = np.random.default_rng(7)
            x = rng.normal(0.0, 2.0, (500, lat.dimension))
            err = x - nearest_point(lat, x)
            back = nearest_point(lat, err)
            assert np.allclose(back, 0.0, atol=1e-9)

    @settings(deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_scalar_matches_midtread_rule(self, x):
        # floor(x / delta + 1/2) * delta, clamped to sign(x) * gamma
        lat = scalar_uniform(2.0, 2)
        expect = np.floor(x / 1.0 + 0.5) * 1.0
        clamped = np.sign(x) * 2.0 if abs(expect) > 2.0 else expect
        point, _, over = quantize_clipped(lat, x)
        assert point == clamped
        assert over == (abs(expect) > 2.0)


class TestQuantizeClipped:
    def test_midtread_examples(self):
        lat = scalar_uniform(2.0, 2)
        point, idx, over = quantize_clipped(lat, 0.6)
        assert (point, over) == (1.0, False)
        assert lat.codebook[idx, 0] == 1.0
        point, idx, over = quantize_clipped(lat, 2.5)
        assert (point, over) == (2.0, True)
        assert lat.codebook[idx, 0] == 2.0
        point, idx, over = quantize_clipped(lat, -0.49)
        assert (point, over) == (0.0, False)

    def test_dense_grid_bitexact(self):
        lat = scalar_uniform(2.0, 2)
        x = np.linspace(-3.0, 3.0, 4001)
        point, _, over = quantize_clipped(lat, x)
        ref = np.floor(x + 0.5)
        expect = np.where(np.abs(ref) > 2.0, np.sign(x) * 2.0, ref)
        assert np.array_equal(point, expect)
        assert np.array_equal(over, np.abs(ref) > 2.0)

    def test_overload_flag_2d(self):
        lat = square_lattice(2.0, 2)
        _, _, over = quantize_clipped(lat, np.array([0.1, 0.1]))
        assert not over
        point, _, over = quantize_clipped(lat, np.array([5.0, 5.0]))
        assert over
        assert np.linalg.norm(point) <= lat.support_radius + 1e-9

    def test_achieved_rate_reported(self):
        # The achieved rate log2(|codebook|) / L is near the nominal rate,
        # and the index width is the least that holds every index.
        for lat in all_lattices():
            n = len(lat.codebook)
            assert abs(np.log2(n) / lat.dimension - lat.nominal_rate) < 0.25
            assert 2 ** (lat.index_bits - 1) < n <= 2 ** lat.index_bits


class TestCellSampling:
    def test_scalar_cell_bounds_and_variance(self):
        lat = scalar_uniform(8.0, 4)  # delta 1
        rng = np.random.default_rng(0)
        e = sample_cell_uniform(lat, rng, size=1_000_000)
        assert np.all(e >= -0.5) and np.all(e < 0.5)
        assert np.var(e) == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_hexagonal_samples_in_cell(self):
        lat = hexagonal_lattice(3.0, 3)
        rng = np.random.default_rng(1)
        e = sample_cell_uniform(lat, rng, size=20_000)
        assert np.allclose(nearest_point(lat, e), 0.0, atol=1e-9)

    def test_variance_matches_sampling(self):
        rng = np.random.default_rng(4)
        for lat in all_lattices():
            e = sample_cell_uniform(lat, rng, size=400_000)
            emp = float(np.mean(np.var(e.reshape(len(e), -1), axis=0)))
            assert emp == pytest.approx(cell_variance_per_coord(lat),
                                        rel=0.01)

    def test_single_sample_shape(self):
        rng = np.random.default_rng(2)
        assert np.isscalar(sample_cell_uniform(scalar_uniform(2.0, 2), rng))
        assert sample_cell_uniform(square_lattice(2.0, 2), rng).shape == (2,)


class TestCellCf:
    def test_origin_is_one(self):
        for lat in all_lattices():
            t0 = np.zeros(lat.dimension) if lat.dimension > 1 else 0.0
            assert cell_cf(lat, t0) == pytest.approx(1.0)

    def test_scalar_sinc_zero(self):
        lat = scalar_uniform(8.0, 4)  # delta 1
        assert cell_cf(lat, 2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_square_is_product_of_sincs(self):
        lat = square_lattice(2.0, 1)  # delta 2
        t = np.array([0.7, -1.3])
        expect = (np.sinc(0.7 * 2 / (2 * np.pi))
                  * np.sinc(-1.3 * 2 / (2 * np.pi)))
        assert cell_cf(lat, t) == pytest.approx(expect)

    def test_hexagonal_matches_mc_oracle(self):
        lat = hexagonal_lattice(HEX_UNIT_GAMMA, 3)
        assert lat.delta_q == pytest.approx(1.0)
        val = float(cell_cf(lat, np.array([1.0, 1.0])))
        assert val == pytest.approx(HEX_CF_11_MC, abs=1e-4)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(5)
        for lat in all_lattices():
            t = rng.normal(0.0, 3.0, (64, lat.dimension))
            v = cell_cf(lat, t)
            assert np.allclose(v, cell_cf(lat, -t), atol=1e-9)
            assert np.all(np.abs(v) <= 1.0 + 1e-9)

    def test_hexagonal_quadrature_matches_sampling(self):
        lat = hexagonal_lattice(3.0, 2)
        rng = np.random.default_rng(8)
        e = sample_cell_uniform(lat, rng, size=400_000)
        for t in (np.array([0.5, 0.2]), np.array([1.5, -0.8])):
            mc = float(np.mean(np.cos(e @ t)))
            assert float(cell_cf(lat, t)) == pytest.approx(mc, abs=5e-3)

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    def test_hexagonal_continuous_at_series_switch(self, scale):
        # Below (|t| delta)^2 = 1e-6 the CF is its second-order series; just
        # above it the edge sum must agree with that series.
        lat = lattice_at("hexagonal", scale)
        ang = np.linspace(0.0, np.pi, 13)
        var = cell_variance_per_coord(lat)
        for s2 in (0.99e-6, 1.01e-6):
            t = (np.sqrt(s2) / lat.delta_q
                 * np.stack([np.cos(ang), np.sin(ang)], axis=1))
            series = 1.0 - 0.5 * var * s2 / lat.delta_q ** 2
            assert np.allclose(cell_cf(lat, t), series, rtol=0, atol=1e-12)
