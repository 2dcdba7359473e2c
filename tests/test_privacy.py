"""Mechanism parameter algebra and the PPN deconvolution samplers."""

import math
import pickle
import sys
import threading

import numpy as np
import pytest

from jopeq import privacy
from jopeq.flsim import CodecSpec
from jopeq.lattice import (cell_cf, cell_variance_per_coord,
                           hexagonal_lattice, scalar_uniform, square_lattice)
from jopeq.privacy import (TABLE_CACHE_ENTRIES, TABLE_HALF_WIDTH_SD,
                           InfeasibleParametersError,
                           MechanismInfeasibleError, PpnSampler, _cdf_tables,
                           _cell_lookup, _target_pdf, build_ppn_sampler,
                           laplace_spec, mechanism_reference_sample,
                           pq_tradeoff_check, required_ppn_variance,
                           solve_t_params, t_mech_epsilon, t_spec)

# High-precision evaluations (40-digit arithmetic) of the t-mechanism
# budget at nu=3, d=2, whitened sensitivity sqrt(2), with the exponent
# (nu+d)^2 of `t_mech_epsilon` and with the t density's own (nu+d)/2.
T_EPS_VERBATIM = 19.884136530597640763
T_EPS_HALF_SUM = 1.9884136530597640763
# s^2 at (eps=3, d=2, nu=3, Delta=sqrt(2)), frozen after forward
# verification.
S2_EPS3_D2_NU3 = 46.2407807178952


def half_sum_epsilon(nu, d, delta):
    """The t budget with the t density's exponent (nu+d)/2 in place of
    (nu+d)^2: 2 ((nu+d)/2) asinh(delta / (2 sqrt(nu)))."""
    return 2.0 * ((nu + d) / 2.0) * math.asinh(delta / (2.0 * math.sqrt(nu)))


class TestBudgetAlgebra:
    def test_zero_sensitivity_gives_zero_budget(self):
        assert t_mech_epsilon(3.0, 2, 0.0) == pytest.approx(0.0)

    def test_verbatim_and_half_sum_match_oracle(self):
        val = t_mech_epsilon(3.0, 2, np.sqrt(2.0))
        assert val == pytest.approx(T_EPS_VERBATIM, rel=1e-12)
        assert half_sum_epsilon(3.0, 2, np.sqrt(2.0)) == pytest.approx(
            T_EPS_HALF_SUM, rel=1e-12)

    def test_half_sum_is_the_t_density_privacy_loss(self):
        # The privacy loss of the t_3(0, I_2) mechanism at sensitivity
        # sqrt(2) is the sup over x of |log f(x) - log f(x - Delta e_1)|,
        # here on a grid of step 0.02. The exponent (nu+d)/2 gives it;
        # t_mech_epsilon's, (nu+d)^2, gives 2(nu+d) = 10 times as much.
        from scipy import stats

        delta = math.sqrt(2.0)
        t3 = stats.multivariate_t(loc=np.zeros(2), shape=np.eye(2), df=3.0)
        g = np.linspace(-8.0, 8.0, 801)
        x = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        sup = np.max(np.abs(t3.logpdf(x) - t3.logpdf(x - [delta, 0.0])))
        half_sum = half_sum_epsilon(3.0, 2, delta)
        assert sup == pytest.approx(half_sum, rel=1e-5)
        assert sup <= half_sum
        assert t_mech_epsilon(3.0, 2, delta) == pytest.approx(
            10.0 * half_sum, rel=1e-12)

    def test_budget_monotone_in_sensitivity(self):
        assert (t_mech_epsilon(3.0, 2, 1.0)
                < t_mech_epsilon(3.0, 2, 2.0))

    def test_solve_round_trip(self):
        s2 = solve_t_params(3.0, 2, np.sqrt(2.0), 3.0)
        assert s2 == pytest.approx(S2_EPS3_D2_NU3, rel=1e-10)
        eps = t_mech_epsilon(3.0, 2, np.sqrt(2.0) / np.sqrt(s2))
        assert eps == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("nu", [2.5, 3.0, 5.0, 30.0])
    def test_solve_inverts_the_budget(self, nu, d):
        for eps in np.geomspace(1e-3, 50.0, 25):
            s2 = solve_t_params(eps, d, np.sqrt(2.0), nu)
            assert t_mech_epsilon(nu, d, np.sqrt(2.0 / s2)) == pytest.approx(
                eps, rel=1e-13)

    def test_solve_refuses_infeasible_budgets(self):
        for eps, delta, nu in ((0.0, 1.0, 3.0), (-1.0, 1.0, 3.0),
                               (1.0, 0.0, 3.0), (1.0, -1.0, 3.0),
                               (1.0, 1.0, 0.0), (1e-320, 1.0, 3.0),
                               (5e-324, 1.0, 3.0), (1e6, 1.0, 3.0)):
            with pytest.raises(InfeasibleParametersError):
                solve_t_params(eps, 2, delta, nu)

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

    @pytest.mark.parametrize("nu", [2.0, 1.5])
    def test_t_noise_without_variance_is_refused(self, nu):
        # nu <= 2 leaves the t noise with no variance: at nu = 2 its
        # formula divides by zero, below 2 it reads negative.
        with pytest.raises(InfeasibleParametersError, match="nu > 2"):
            t_spec(3.0, 2, nu)
        with pytest.raises(InfeasibleParametersError, match="nu > 2"):
            CodecSpec(family="square", mechanism="t", nu=nu).build()


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

    def test_non_finite_target_density_is_refused(self):
        # At nu = 400 the t density's gamma ratio is inf/inf = NaN; the
        # NaN table once built, its validity all NaN.
        lat, spec = square_lattice(1000.0, 6), t_spec(3.0, 2, 400.0)
        cached = set(privacy._TABLES)
        with np.errstate(invalid="ignore"):
            assert np.isnan(_target_pdf(spec, np.zeros(2)))
            with pytest.raises(InfeasibleParametersError, match="not finite"):
                build_ppn_sampler(spec, lat)
        assert set(privacy._TABLES) == cached

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

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_generator_sequence_stacks_single_draws(self, family):
        if family == "scalar":
            lat, spec = scalar_uniform(9.0, 4), laplace_spec(1.0, 1)
        else:
            lat, spec = hexagonal_lattice(9.0, 3), t_spec(3.0, 2, 3.0)
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        want = np.concatenate([samp.sample(5, np.random.default_rng(k))
                               for k in range(3)])
        rngs = [np.random.default_rng(k) for k in range(3)]
        assert np.array_equal(samp.sample(15, rngs), want)
        with pytest.raises(ValueError):
            samp.sample(16, rngs)

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
        oracle = PpnSampler(lat, spec, False, samp.origin, samp.step, ref, {},
                            *_cdf_tables(prob))
        assert np.array_equal(samp.sample(10_000, np.random.default_rng(8)),
                              oracle.sample(10_000, np.random.default_rng(8)))


class _Constant:
    """A generator stand-in whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u


class TestCellLookup:
    @pytest.mark.parametrize("family,n", [
        ("scalar", 63), ("scalar", 64), ("scalar", 1023), ("scalar", None),
        ("hexagonal", 63), ("hexagonal", 64), ("hexagonal", None),
        ("zero-runs", None)])
    def test_equals_searchsorted(self, family, n):
        if family == "zero-runs":
            prob = np.random.default_rng(9).random(1000)
            prob[:40] = prob[300:700] = prob[800:810] = prob[-25:] = 0.0
            cdf, guide = _cdf_tables(prob / prob.sum())
        else:
            spec, lat = _oracle_case(family)
            samp = build_ppn_sampler(spec, lat, grid_points=n,
                                     refine_iters=n and 20)
            cdf, guide = samp._cdf, samp._guide
        g = len(guide)
        assert g & (g - 1) == 0 and cdf.size <= g < 2 * cdf.size
        edges = np.arange(g) / g
        assert np.array_equal(guide, np.searchsorted(cdf, edges, "right"))
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        ties = cdf[cdf < 1.0]
        u = np.concatenate([
            np.random.default_rng(10).random(200_000), [0.0], edges,
            np.nextafter(edges[1:], 0.0), ties, np.nextafter(ties, 0.0),
            [np.nextafter(1.0, 0.0)]])
        assert np.array_equal(_cell_lookup(cdf, guide, u),
                              np.searchsorted(cdf, u, "right"))

    @pytest.mark.parametrize("family,n", [("scalar", None),
                                          ("hexagonal", 63)])
    def test_top_uniform_names_the_last_cell(self, family, n):
        spec, lat = _oracle_case(family)
        samp = build_ppn_sampler(spec, lat, grid_points=n,
                                 refine_iters=n and 20)
        u = np.nextafter(1.0, 0.0)
        # The cell masses sum to just below u, so a CDF left as their
        # cumulative sum would name cell n, one past the table.
        prob = (samp.density * np.prod(samp.step)).ravel()
        assert np.cumsum(prob / prob.sum())[-1] < u
        assert (_cell_lookup(samp._cdf, samp._guide, np.array([u]))[0]
                == samp.density.size - 1)
        got = samp.sample(3, [_Constant(u)])
        top = samp.origin + samp.step * (np.array(samp.density.shape) - 1
                                         + u)
        assert np.array_equal(got, np.broadcast_to(top, got.shape))


def _variance_closed_form(samp):
    """PpnSampler.variance_per_coord as it was written for L = 1 and 2."""
    cell = float(np.prod(samp.step))
    if samp.density.ndim == 1:
        x = samp.origin[0] + samp.step[0] * (np.arange(len(samp.density))
                                             + 0.5)
        return float(np.sum(samp.density * x * x) * cell
                     + samp.step[0] ** 2 / 12.0)
    n0, n1 = samp.density.shape
    x0 = samp.origin[0] + samp.step[0] * (np.arange(n0) + 0.5)
    x1 = samp.origin[1] + samp.step[1] * (np.arange(n1) + 0.5)
    m = (np.sum(samp.density * (x0 ** 2)[:, None]) +
         np.sum(samp.density * (x1 ** 2)[None, :])) * cell
    return float(m / 2.0 + (samp.step[0] ** 2 + samp.step[1] ** 2) / 24.0)


@pytest.mark.parametrize("family,n", [
    ("scalar", 1023), ("scalar", None), ("square", 63), ("hexagonal", 64)])
def test_variance_matches_closed_forms(family, n):
    spec, lat = _oracle_case(family)
    samp = build_ppn_sampler(spec, lat, grid_points=n, refine_iters=n and 20)
    assert samp.variance_per_coord == pytest.approx(
        _variance_closed_form(samp), rel=1e-14, abs=0.0)


def _arrays(samp):
    return [a for a in (samp.origin, samp.step, samp.density, samp._cdf,
                        samp._guide) if a is not None]


def _shares(a, b):
    return all(np.shares_memory(x, y) for x, y in zip(_arrays(a), _arrays(b)))


class TestTableCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        privacy._TABLES.clear()
        yield
        privacy._TABLES.clear()

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_hit_equals_a_cold_build(self, family):
        spec, lat = _oracle_case(family)
        first = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=10)
        privacy._TABLES.clear()
        cold = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=10)
        assert not _shares(cold, first)
        spec2, lat2 = _oracle_case(family)
        hit = build_ppn_sampler(spec2, lat2, grid_points=64, refine_iters=10)
        assert hit.lattice is lat2 and hit.spec is spec2
        assert _shares(hit, cold)
        assert len(_arrays(hit)) == 5
        for a, b in zip(_arrays(hit), _arrays(first)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert hit.validity == first.validity
        assert hit.validity is not cold.validity

    def test_shared_arrays_are_read_only(self):
        spec, lat = _oracle_case("scalar")
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        for a in _arrays(samp):
            with pytest.raises(ValueError):
                a[0] = 1.0
        samp.validity["conv_residual"] = -1.0
        again = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        assert again.validity["conv_residual"] >= 0.0

    def test_strict_build_refused_after_degenerate(self):
        lat, spec = scalar_uniform(10.0, 1), laplace_spec(4.0, 1)
        assert build_ppn_sampler(spec, lat, allow_degenerate=True).degenerate
        with pytest.raises(MechanismInfeasibleError):
            build_ppn_sampler(spec, lat)
        assert not privacy._TABLES

    def test_grid_and_iterations_are_separate_entries(self):
        spec, lat = _oracle_case("scalar")
        built = [build_ppn_sampler(spec, lat, grid_points=n, refine_iters=i)
                 for n, i in ((64, 5), (128, 5), (64, 6))]
        assert len(privacy._TABLES) == 3
        assert built[0].density.shape != built[1].density.shape
        assert not np.array_equal(built[0].density, built[2].density)
        # Defaults are resolved before the key is made.
        a = build_ppn_sampler(spec, lat)
        b = build_ppn_sampler(spec, lat, grid_points=1 << 14,
                              refine_iters=300)
        assert _shares(a, b) and len(privacy._TABLES) == 4

    def test_pickled_laplace_spec_hits(self):
        spec, lat = laplace_spec(1.0, 1), scalar_uniform(9.0, 4)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        first = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        again = build_ppn_sampler(back, pickle.loads(pickle.dumps(lat)),
                                  grid_points=64, refine_iters=5)
        assert _shares(first, again) and len(privacy._TABLES) == 1

    def test_least_recently_used_entry_is_rebuilt(self):
        spec, lat = _oracle_case("scalar")

        def build(i):
            return build_ppn_sampler(spec, lat, grid_points=32,
                                     refine_iters=i + 1)

        first = [build(i) for i in range(TABLE_CACHE_ENTRIES)]
        assert _shares(build(0), first[0])  # entry 0 is now the newest
        build(TABLE_CACHE_ENTRIES)
        assert len(privacy._TABLES) == TABLE_CACHE_ENTRIES
        rebuilt = build(1)
        assert not _shares(rebuilt, first[1])
        assert rebuilt.density.tobytes() == first[1].density.tobytes()
        # Rebuilding entry 1 evicted entry 2, the oldest; 0 is kept.
        assert _shares(build(0), first[0])
        assert not _shares(build(2), first[2])

    def test_concurrent_builds_keep_the_map_whole(self):
        spec, lat = _oracle_case("scalar")
        keys = TABLE_CACHE_ENTRIES + 4

        def build(i):
            return build_ppn_sampler(spec, lat, grid_points=32,
                                     refine_iters=i + 1)

        want = [build(i).density.tobytes() for i in range(keys)]
        errors = []

        def work(w):
            try:
                for j in range(80):
                    i = (5 * w + j) % keys
                    if build(i).density.tobytes() != want[i]:
                        errors.append(i)
            except Exception as exc:  # asserted below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(privacy._TABLES) == TABLE_CACHE_ENTRIES


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
