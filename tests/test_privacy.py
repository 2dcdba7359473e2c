"""Mechanism parameter algebra and the PPN deconvolution samplers."""

import math

import numpy as np
import pytest

from jopeq.lattice import (cell_cf, cell_variance_per_coord,
                           hexagonal_lattice, scalar_uniform, square_lattice)
from jopeq.privacy import (TABLE_HALF_WIDTH_SD, InfeasibleParametersError,
                           MechanismInfeasibleError, PpnSampler, _build_alias,
                           _target_pdf, build_ppn_sampler, laplace_spec,
                           mechanism_reference_sample, pq_tradeoff_check,
                           required_ppn_variance, solve_t_params,
                           t_mech_epsilon, t_spec)

# High-precision evaluations (40-digit arithmetic) of the t-mechanism
# budget at nu=3, d=2, whitened sensitivity sqrt(2), for both exponent
# conventions.
T_EPS_VERBATIM = 19.884136530597640763
T_EPS_HALF_SUM = 1.9884136530597640763
# Root-finder output for s^2 at (eps=3, d=2, nu=3, Delta=sqrt(2)), frozen
# after forward verification.
S2_EPS3_D2_NU3 = 46.2407807178952


class TestBudgetAlgebra:
    def test_zero_sensitivity_gives_zero_budget(self):
        assert t_mech_epsilon(3.0, np.eye(2), 0.0) == pytest.approx(0.0)

    def test_verbatim_and_half_sum_match_oracle(self):
        val = t_mech_epsilon(3.0, np.eye(2), np.sqrt(2.0))
        assert val == pytest.approx(T_EPS_VERBATIM, rel=1e-12)
        val = t_mech_epsilon(3.0, np.eye(2), np.sqrt(2.0),
                             exponent="half-sum")
        assert val == pytest.approx(T_EPS_HALF_SUM, rel=1e-12)

    def test_budget_monotone_in_sensitivity(self):
        assert (t_mech_epsilon(3.0, np.eye(2), 1.0)
                < t_mech_epsilon(3.0, np.eye(2), 2.0))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            t_mech_epsilon(3.0, np.diag([1.0, -1.0]), 1.0)

    def test_solve_round_trip(self):
        s2 = solve_t_params(3.0, 2, np.sqrt(2.0), 3.0)
        assert s2 == pytest.approx(S2_EPS3_D2_NU3, rel=1e-10)
        eps = t_mech_epsilon(3.0, s2 * np.eye(2), np.sqrt(2.0) / np.sqrt(s2))
        assert eps == pytest.approx(3.0, rel=1e-9)

    def test_stronger_privacy_needs_larger_scale(self):
        assert (solve_t_params(2.0, 2, np.sqrt(2.0), 3.0)
                > solve_t_params(3.0, 2, np.sqrt(2.0), 3.0))

    def test_spec_variance_bookkeeping(self):
        lap = laplace_spec(2.0, 2)
        assert lap.b == 1.0
        assert lap.variance_per_coord == pytest.approx(2.0)
        assert lap.variance == pytest.approx(4.0)
        ts = t_spec(3.0, 2, 3.0)
        assert ts.variance_per_coord == pytest.approx(3.0 * ts.s2 / 1.0)
        assert ts.variance == pytest.approx(2.0 * ts.variance_per_coord)


class TestThreshold:
    def test_examples(self):
        assert pq_tradeoff_check(5.0, 4.0, 2)
        assert not pq_tradeoff_check(5.0, 4.0, 3)

    def test_boundary_variance_zero(self):
        eps, rate = 4.0, 2
        gamma = np.sqrt(24.0) * 2 ** rate / eps
        assert pq_tradeoff_check(gamma, eps, rate)
        assert required_ppn_variance(gamma, eps, rate) == pytest.approx(
            0.0, abs=1e-10)

    def test_required_variance_formula(self):
        # 2 (2/eps)^2 - Delta^2 / 12 with Delta = 2 gamma / 2^R
        assert required_ppn_variance(9.0, 1.0, 4) == pytest.approx(
            8.0 - (18.0 / 16.0) ** 2 / 12.0)


class TestSamplerConstruction:
    def test_infeasible_raises_without_flag(self):
        lat = scalar_uniform(10.0, 1)  # delta 10, cell var ~8.3
        spec = laplace_spec(4.0, 1)  # target 0.5
        with pytest.raises(MechanismInfeasibleError):
            build_ppn_sampler(spec, lat)
        samp = build_ppn_sampler(spec, lat, allow_degenerate=True)
        assert samp.degenerate
        assert samp.variance_per_coord == 0.0
        assert np.array_equal(samp.sample(4, np.random.default_rng(0)),
                              np.zeros((4, 1)))

    def test_density_table_is_valid(self):
        lat = scalar_uniform(9.0, 4)
        samp = build_ppn_sampler(laplace_spec(1.0, 1), lat)
        dx = samp.step[0]
        assert np.all(samp.density >= 0.0)
        assert float(samp.density.sum() * dx) == pytest.approx(1.0, abs=1e-6)
        assert samp.validity["conv_residual"] < 1e-3
        assert samp.validity["clipped_mass"] <= 1e-3
        # The refinement keeps the table nonnegative, so nothing is clipped,
        # and the mass reads +0.0, not the -0.0 of a negated sum of zeros.
        assert math.copysign(1.0, samp.validity["clipped_mass"]) == 1.0

    def test_variance_additivity(self):
        lat = scalar_uniform(9.0, 4)
        spec = laplace_spec(1.0, 1)
        samp = build_ppn_sampler(spec, lat)
        total = samp.variance_per_coord + lat.delta_q ** 2 / 12.0
        assert total == pytest.approx(spec.variance_per_coord, rel=0.01)

    def test_budget_monotone_variance(self):
        lat = scalar_uniform(9.0, 4)
        variances = [build_ppn_sampler(laplace_spec(e, 1),
                                       lat).variance_per_coord
                     for e in (1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(variances, variances[1:]))

    def test_small_cell_matches_target_ks(self):
        # With a near-vanishing cell the PPN is essentially the mechanism
        # itself: n + e passes KS against the Laplace target.
        from scipy import stats
        lat = scalar_uniform(9.0, 10)
        spec = laplace_spec(1.0, 1)
        samp = build_ppn_sampler(spec, lat)
        rng = np.random.default_rng(1)
        n = samp.sample(1_000_000, rng)[:, 0]
        e = rng.uniform(-lat.delta_q / 2, lat.delta_q / 2, 1_000_000)
        from jopeq.stattests import ks_test
        rep = ks_test(n + e, lambda v: stats.laplace.cdf(v, scale=2.0),
                      "small-cell-law")
        assert rep.passed, str(rep)

    def test_cf_probe_match(self):
        lat = scalar_uniform(9.0, 4)
        spec = laplace_spec(1.0, 1)
        samp = build_ppn_sampler(spec, lat)
        rng = np.random.default_rng(2)
        n = samp.sample(1_000_000, rng)[:, 0]
        e = rng.uniform(-lat.delta_q / 2, lat.delta_q / 2, 1_000_000)
        total = n + e
        probes = np.linspace(0.05, 3.0, 32)
        emp = np.array([np.mean(np.cos(t * total)) for t in probes])
        target = 1.0 / (1.0 + (2.0 * probes / spec.epsilon) ** 2)
        assert np.max(np.abs(emp - target)) < 5e-3

    def test_2d_t_sampler_validity(self):
        spec = t_spec(3.0, 2, 3.0)
        gamma = 1.5 * (1.0 + spec.s2 * spec.nu / (spec.nu - 2.0))
        lat = square_lattice(gamma, 6)
        samp = build_ppn_sampler(spec, lat)
        assert not samp.degenerate
        assert samp.validity["conv_residual"] < 5e-3
        draws = samp.sample(200_000, np.random.default_rng(3))
        assert draws.shape == (200_000, 2)
        got = np.mean(np.sum(draws ** 2, axis=1)) / 2.0
        expect = spec.variance_per_coord - cell_variance_per_coord(lat)
        # The table lives on a finite grid, so the heavy t_3 tails (slowly
        # converging second moment) are partly truncated; the empirical
        # variance sits below the analytic target but within the mass
        # accounted for by the truncation diagnostic.
        assert 0.7 * expect < got <= expect * 1.02
        assert samp.validity["truncated_target_mass"] < 5e-3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_ppn_sampler(laplace_spec(1.0, 1), square_lattice(5.0, 4))


def _complex_fft_density(spec, lat, n, iters):
    """
    The refinement on the full complex spectrum, as build_ppn_sampler ran it
    before it moved to real transforms: the reference for its density.
    """
    half = TABLE_HALF_WIDTH_SD * math.sqrt(spec.variance_per_coord)
    dx = 2.0 * half / n
    ax = -half + dx * (np.arange(n) + 0.5)
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    if lat.dimension == 1:
        x, t = ax[:, None], w[:, None]
        fft, ifft = np.fft.fft, np.fft.ifft
    else:
        x = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        t = np.stack(np.meshgrid(w, w, indexing="ij"), axis=-1)
        fft, ifft = np.fft.fft2, np.fft.ifft2
    target = _target_pdf(spec, x)
    cf = cell_cf(lat, t)
    f = target.copy()
    for _ in range(iters):
        denom = np.maximum(np.real(ifft(fft(f) * cf)), 1e-300)
        f *= np.maximum(np.real(ifft(fft(target / denom) * cf)), 0.0)
    f = np.clip(f, 0.0, None)
    return f / (f.sum() * dx ** lat.dimension)


def _vose_reference(prob):
    """The Vose loop on numpy scalars that _build_alias must reproduce."""
    n = len(prob)
    scaled = prob * n
    alias = np.zeros(n, dtype=np.int64)
    cut = np.ones(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        cut[s] = scaled[s]
        alias[s] = g
        scaled[g] += scaled[s] - 1.0
        (large if scaled[g] >= 1.0 else small).append(g)
    for i in small + large:
        cut[i] = 1.0
    return cut, alias


def _oracle_case(family):
    if family == "scalar":
        return laplace_spec(1.0, 1), scalar_uniform(9.0, 4)
    spec = t_spec(3.0, 2, 3.0)
    gamma = 1.5 * (1.0 + spec.s2 * spec.nu / (spec.nu - 2.0))
    maker = square_lattice if family == "square" else hexagonal_lattice
    return spec, maker(gamma, 4)


class TestRealFftRefinement:
    @pytest.mark.parametrize("family,n", [
        ("scalar", 1024), ("scalar", 1023), ("square", 64), ("square", 63),
        ("hexagonal", 64), ("hexagonal", 63)])
    def test_matches_complex_fft_reference(self, family, n):
        spec, lat = _oracle_case(family)
        samp = build_ppn_sampler(spec, lat, grid_points=n, refine_iters=20)
        ref = _complex_fft_density(spec, lat, n, 20)
        assert samp.density.shape == ref.shape
        assert (np.max(np.abs(samp.density - ref))
                <= 1e-12 * np.max(ref))

        prob = (ref * np.prod(samp.step)).ravel()
        prob /= prob.sum()
        if lat.dimension == 1:
            tables = {"_cdf": np.cumsum(prob)}
            flipped = []
        else:
            cut, alias = _vose_reference(prob)
            tables = {"_alias_prob": cut, "_alias_idx": alias}
            # Both targets and cells are symmetric under x -> -x, so mirror
            # cells have equal mass in exact arithmetic. A rounding change
            # of 1e-15 can reorder the last Vose pairing of such a tie: one
            # alias then names the mirror cell, at the same cell odds.
            flipped = np.nonzero(samp._alias_idx != alias)[0]
            assert len(flipped) <= 1
            assert np.array_equal(samp._alias_idx[flipped],
                                  prob.size - 1 - alias[flipped])
        if len(flipped) == 0:
            oracle = PpnSampler(lat, spec, False, samp.origin, samp.step,
                                ref, {}, **tables)
            assert np.array_equal(
                samp.sample(10_000, np.random.default_rng(8)),
                oracle.sample(10_000, np.random.default_rng(8)))


class TestAliasTable:
    @staticmethod
    def _check(prob, cut, alias):
        n = len(prob)
        implied = (cut + np.bincount(alias, weights=1.0 - cut,
                                     minlength=n)) / n
        assert np.max(np.abs(implied - prob)) <= 1e-12
        ref_cut, ref_alias = _vose_reference(prob)
        assert alias.dtype == np.int64
        assert np.array_equal(cut, ref_cut)
        assert np.array_equal(alias, ref_alias)

    def test_random_vector(self):
        prob = np.random.default_rng(9).random(5000)
        prob[::7] = 0.0
        prob /= prob.sum()
        self._check(prob, *_build_alias(prob))

    def test_exact_unit_ties(self):
        # Dyadic masses make n * prob hit exactly 1.0 inside the loop.
        prob = np.array([0.5, 1.5, 0.5, 1.5, 1.0, 0.0, 2.0, 1.0]) / 8.0
        self._check(prob, *_build_alias(prob))

    def test_built_2d_table(self):
        spec, lat = _oracle_case("hexagonal")
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=20)
        prob = (samp.density * np.prod(samp.step)).ravel()
        prob /= prob.sum()
        self._check(prob, samp._alias_prob, samp._alias_idx)


class TestReferenceSampler:
    def test_laplace_moments(self):
        spec = laplace_spec(2.0, 1)
        x = mechanism_reference_sample(spec, 500_000,
                                       np.random.default_rng(4))
        assert np.var(x) == pytest.approx(spec.variance_per_coord, rel=0.02)

    def test_t_moments(self):
        spec = t_spec(3.0, 2, 3.0)
        x = mechanism_reference_sample(spec, 500_000,
                                       np.random.default_rng(5))
        per_coord = np.mean(np.sum(x * x, axis=1)) / 2.0
        assert per_coord == pytest.approx(spec.variance_per_coord, rel=0.1)
