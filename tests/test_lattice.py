"""Lattice geometry, quantization, the dither's cell law and the cell CF."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jopeq
from jopeq.dither import SharedRandomness, dither_block
from jopeq.flsim import CodecSpec
from jopeq.lattice import (MAX_GRID_ENTRIES, ConfigurationError, cell_cf,
                           cell_variance_per_coord, hexagonal_lattice,
                           nearest_point, quantize_clipped, scalar_uniform,
                           square_lattice)

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


def cell_samples(lat, count, seed):
    """count cell-uniform vectors, shape (count, L): the dither stream."""
    return dither_block(SharedRandomness(seed=seed), lat, count)


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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "maker", [scalar_uniform, square_lattice, hexagonal_lattice])
    def test_non_finite_gamma_rejected(self, maker, gamma):
        with pytest.raises(ConfigurationError):
            maker(gamma, 3)

    @pytest.mark.parametrize(
        "maker", [scalar_uniform, square_lattice, hexagonal_lattice])
    @pytest.mark.parametrize("rate", [60, 1100])
    def test_huge_rate_rejected(self, maker, rate):
        # Rate 60 would enumerate a grid of ~2^60 (scalar) to ~2^121 (2-D)
        # entries; at rate 1100 the lattice spacing underflows to zero.
        with pytest.raises(ConfigurationError):
            maker(4.0, rate)

    @pytest.mark.parametrize("maker, first_refused", [
        (scalar_uniform, 24), (square_lattice, 12), (hexagonal_lattice, 12)])
    def test_grid_cap_boundary(self, maker, first_refused, monkeypatch):
        with pytest.raises(ConfigurationError, match="codebook grid"):
            maker(4.0, first_refused)

        # The rate below passes the cap. Its build is stopped where the
        # grid is stacked, so no codebook of that size is made.
        class GridReached(Exception):
            pass

        def refuse(*axes, **kwargs):
            assert (len(axes[0]) ** len(axes)) <= MAX_GRID_ENTRIES
            raise GridReached

        monkeypatch.setattr(np, "meshgrid", refuse)
        with pytest.raises(GridReached):
            maker(4.0, first_refused - 1)


class TestNearestPoint:
    def test_scalar_examples(self):
        lat = scalar_uniform(4.0, 3)
        assert nearest_point(lat, [0.0]) == [0.0]
        assert nearest_point(lat, [0.6]) == [1.0]

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
        point, _, over = quantize_clipped(lat, [x])
        assert point == [clamped]
        assert over == (abs(expect) > 2.0)


class TestQuantizeClipped:
    def test_midtread_examples(self):
        lat = scalar_uniform(2.0, 2)
        for x, want, overloaded in ((0.6, 1.0, False), (2.5, 2.0, True),
                                    (-0.49, 0.0, False)):
            point, idx, over = quantize_clipped(lat, [x])
            assert point == [want] and over == overloaded
            assert lat.codebook[idx, 0] == want

    def test_dense_grid_bitexact(self):
        lat = scalar_uniform(2.0, 2)
        x = np.linspace(-3.0, 3.0, 4001)
        point, _, over = quantize_clipped(lat, x[:, None])
        ref = np.floor(x + 0.5)
        expect = np.where(np.abs(ref) > 2.0, np.sign(x) * 2.0, ref)
        assert np.array_equal(point[:, 0], expect)
        assert np.array_equal(over, np.abs(ref) > 2.0)

    def test_overload_flag_2d(self):
        lat = square_lattice(2.0, 2)
        _, _, over = quantize_clipped(lat, np.array([0.1, 0.1]))
        assert not over
        point, _, over = quantize_clipped(lat, np.array([5.0, 5.0]))
        assert over
        assert np.linalg.norm(point) <= lat.support_radius + 1e-9

    def test_overload_search_does_not_depend_on_the_batch(self):
        # A point outside the codebook within an ulp of two codebook points'
        # bisector: a matrix product with the codebook once named another
        # nearest point for it alone than in a batch of two. The search
        # sums per-axis squared differences, so a point's index does not
        # depend on which other points overload with it.
        lat = hexagonal_lattice(1.0, 3)
        tie = [0.11903910085799466, -1.1652023537060643]
        _, alone, over = quantize_clipped(lat, np.array([tie]))
        _, batch, _ = quantize_clipped(lat, np.array([tie, [5.0, 5.0]]))
        assert over[0]
        assert alone[0] == batch[0]

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
        e = cell_samples(lat, 1_000_000, seed=0)
        assert np.all(e >= -0.5) and np.all(e < 0.5)
        assert np.var(e) == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_hexagonal_samples_in_cell(self):
        lat = hexagonal_lattice(3.0, 3)
        e = cell_samples(lat, 20_000, seed=1)
        assert np.allclose(nearest_point(lat, e), 0.0, atol=1e-9)

    def test_variance_matches_sampling(self):
        for lat in all_lattices():
            e = cell_samples(lat, 400_000, seed=4)
            emp = float(np.mean(np.var(e, axis=0)))
            assert emp == pytest.approx(cell_variance_per_coord(lat),
                                        rel=0.01)


class TestCellCf:
    def test_origin_is_one(self):
        for lat in all_lattices():
            assert cell_cf(lat, np.zeros(lat.dimension)) == pytest.approx(1.0)

    def test_scalar_sinc_zero(self):
        lat = scalar_uniform(8.0, 4)  # delta 1
        assert cell_cf(lat, [2.0 * np.pi]) == pytest.approx(0.0, abs=1e-12)

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
        e = cell_samples(lat, 400_000, seed=8)
        for t in (np.array([0.5, 0.2]), np.array([1.5, -0.8])):
            mc = float(np.mean(np.cos(e @ t)))
            assert float(cell_cf(lat, t)) == pytest.approx(mc, abs=5e-3)

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    def test_hexagonal_matches_triangle_quadrature(self, scale):
        # The mean of cos(t.e) over the cell, as six triangles (0, v_j,
        # v_{j+1}), each the image of the unit square under the Duffy map
        # (a, b) -> a (v_j + b (v_{j+1} - v_j)), of Jacobian 2 a |P0| / 6,
        # by a 60-point Gauss-Legendre rule on each axis (its weights on
        # [0, 1] are half those on [-1, 1]).
        lat = lattice_at("hexagonal", scale)
        ang = np.pi / 6.0 + np.arange(7) * np.pi / 3.0
        verts = (lat.delta_q / np.sqrt(3.0)
                 * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        nodes, weights = np.polynomial.legendre.leggauss(60)
        a, b = np.meshgrid((nodes + 1.0) / 2.0, (nodes + 1.0) / 2.0,
                           indexing="ij")
        w = np.outer(weights, weights) * a / 12.0
        points = np.concatenate([
            (a * (v0[:, None, None] + b * (v1 - v0)[:, None, None]))
            .reshape(2, -1).T for v0, v1 in zip(verts[:-1], verts[1:])])
        w = np.tile(w.ravel(), 6)
        rng = np.random.default_rng(3)
        norms = np.concatenate([np.geomspace(1e-3, 50.0, 40), [50.0]])
        phi = rng.uniform(0.0, 2.0 * np.pi, len(norms))
        t = (norms / lat.delta_q)[:, None] * np.stack(
            [np.cos(phi), np.sin(phi)], axis=1)
        quad = np.cos(t[:, 0, None] * points[:, 0]
                      + t[:, 1, None] * points[:, 1]) @ w
        assert np.allclose(cell_cf(lat, t), quad, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scale", ["unit", "benchmark"])
    def test_hexagonal_continuous_at_series_switch(self, scale):
        # At small |t| the CF is its second-order series 1 - |t|^2 var / 2
        # (var the per-coordinate cell variance) to within the next term,
        # of order (|t| delta)^4 / 100: here at (|t| delta)^2 = 1e-6.
        lat = lattice_at("hexagonal", scale)
        ang = np.linspace(0.0, np.pi, 13)
        var = cell_variance_per_coord(lat)
        for s2 in (0.99e-6, 1.01e-6):
            t = (np.sqrt(s2) / lat.delta_q
                 * np.stack([np.cos(ang), np.sin(ang)], axis=1))
            series = 1.0 - 0.5 * var * s2 / lat.delta_q ** 2
            assert np.allclose(cell_cf(lat, t), series, rtol=0, atol=1e-12)


class TestArrayConvention:
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    def test_subvector_shapes(self, family, lead):
        lat = {l.family: l for l in all_lattices()}[family]
        x = np.random.default_rng(6).normal(0.0, 2.0, lead + (lat.dimension,))
        assert nearest_point(lat, x).shape == x.shape
        point, idx, over = quantize_clipped(lat, x)
        assert (point.shape, idx.shape, over.shape) == (x.shape, lead, lead)
        assert cell_cf(lat, x).shape == lead
        with pytest.raises(ValueError):
            quantize_clipped(lat, np.zeros(lead + (lat.dimension + 1,)))

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    def test_stack_quantizes_row_by_row(self, family):
        lat = {l.family: l for l in all_lattices()}[family]
        # At this scale some sub-vectors lie outside the support.
        x = np.random.default_rng(7).normal(0.0, lat.support_radius,
                                            (3, 4, lat.dimension))
        point, idx, over = quantize_clipped(lat, x)
        assert np.any(over)
        for i in range(3):
            row = quantize_clipped(lat, x[i])
            assert np.array_equal(point[i], row[0])
            assert np.array_equal(idx[i], row[1])
            assert np.array_equal(over[i], row[2])


# Run in a child process: prints one `name sha256` line for each hexagonal
# lattice output, and for "control", a BLAS matrix product of the same
# points with the generator.
_HEX_CHILD = """
import hashlib
import numpy as np
from jopeq.dither import SharedRandomness, dither_block
from jopeq.lattice import (cell_cf, hexagonal_lattice, nearest_point,
                           quantize_clipped)
from jopeq.privacy import build_ppn_sampler, t_spec

lat = hexagonal_lattice(9.0, 3)
x = np.random.default_rng(5).normal(0.0, 6.0, (4096, 2))
srs = [SharedRandomness(seed=11, user=k, round_index=3) for k in range(256)]
samp = build_ppn_sampler(t_spec(3.0, 2, 3.0), lat, grid_points=64,
                         refine_iters=5)
for name, a in (("control", x @ lat.generator.T),
                ("dither.stream", dither_block(srs[0], lat, 4096)),
                ("dither.per-stream", dither_block(srs, lat, len(srs))),
                ("codebook", lat.codebook),
                ("nearest_point", nearest_point(lat, x)),
                ("quantize_clipped", quantize_clipped(lat, x)[0]),
                ("cell_cf", cell_cf(lat, x)),
                ("ppn", np.concatenate([samp.density.ravel(), samp._cdf]))):
    print(name, hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_hexagonal_outputs_do_not_depend_on_the_blas_core():
    # Both sides with single-threaded BLAS, one on OpenBLAS's default
    # kernels for this CPU and one on its Prescott kernels, which use no
    # fused multiply-add. A BLAS product may round differently on the two;
    # the lattice's products with G are elementwise, so its outputs may not.
    src = Path(jopeq.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    env.pop("OPENBLAS_CORETYPE", None)
    runs = []
    for core in (None, "Prescott"):
        child = dict(env, OPENBLAS_CORETYPE=core) if core else env
        out = subprocess.run([sys.executable, "-c", _HEX_CHILD], env=child,
                             check=True, timeout=300, capture_output=True,
                             text=True).stdout
        runs.append(dict(line.split() for line in out.splitlines()))
    default, prescott = runs
    assert len(default) == 8 and default.keys() == prescott.keys()
    if default.pop("control") == prescott.pop("control"):
        pytest.skip("the BLAS core type does not change a matrix product "
                    "on this host")
    for name in default:
        assert default[name] == prescott[name], name
