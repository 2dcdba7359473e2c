"""Statistical verification primitives, and the tests' correlation test."""

import numpy as np
import pytest

from jopeq.stattests import TestReport as Report
from jopeq.stattests import energy_distance_test, ks_test
from correlation import correlation_test


class TestKs:
    def test_uniform_null_passes(self):
        x = np.random.default_rng(0).random(100_000)
        rep = ks_test(x, lambda v: np.clip(v, 0.0, 1.0), "uniform-null")
        assert rep.passed
        assert rep.critical == pytest.approx(1.628 / np.sqrt(100_000))

    def test_gaussian_vs_uniform_fails(self):
        x = np.random.default_rng(1).normal(0.0, 1.0, 100_000)
        rep = ks_test(x, lambda v: np.clip(v, 0.0, 1.0), "gaussian-alt")
        assert not rep.passed

    def test_statistic_matches_hand_computation(self):
        # 250 copies of the 4-point pattern {0.1, 0.2, 0.4, 0.8} against
        # Uniform(0,1): the sup deviation is at the top of the 0.4 block,
        # 750/1000 - 0.4 = 0.35.
        x = np.tile([0.1, 0.2, 0.4, 0.8], 250)
        rep = ks_test(x, lambda v: np.clip(v, 0.0, 1.0), "hand")
        assert rep.statistic == pytest.approx(0.35)
        assert not rep.passed

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_test(np.ones(10), lambda v: v)

    def test_report_format(self):
        rep = Report("demo", 0.1, 0.2, 1000, True)
        assert str(rep).startswith("PASS demo:")


class TestCorrelation:
    def test_independent_passes(self):
        rng = np.random.default_rng(2)
        rep = correlation_test(rng.normal(size=50_000),
                               rng.normal(size=50_000))
        assert rep.passed

    def test_identical_fails(self):
        x = np.random.default_rng(3).normal(size=5_000)
        assert not correlation_test(x, x).passed

    def test_quadratic_dependence_passes(self):
        # Linear-only detector by design: y = x^2 with symmetric x is
        # dependent but uncorrelated.
        x = np.random.default_rng(4).normal(size=50_000)
        assert correlation_test(x, x * x).passed

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation_test(np.ones(5), np.ones(6))


def _dense_energy(a, b, seed, n_permutations=200):
    """
    Reference (statistic, critical value) from the dense float64 distance
    matrix, relabeling in `energy_distance_test`'s order. Small n only.
    """
    n, m = len(a), len(b)
    z = np.vstack([a, b])
    dist = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))

    def stat(in_a):
        s_aa = dist[np.ix_(in_a, in_a)].sum()
        s_bb = dist[np.ix_(~in_a, ~in_a)].sum()
        s_ab = dist[np.ix_(in_a, ~in_a)].sum()
        return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)

    rng = np.random.default_rng(seed)
    null = [stat(np.isin(np.arange(n + m), rng.permutation(n + m)[:n]))
            for _ in range(n_permutations)]
    return stat(np.arange(n + m) < n), float(np.quantile(null, 0.99))


class TestEnergyDistance:
    def _t_samples(self, rng, n, nu=3.0):
        z = rng.normal(0.0, 1.0, (n, 2))
        q = rng.chisquare(nu, size=n)
        return z * np.sqrt(nu / q)[:, None]

    @pytest.mark.parametrize("same_law", [True, False])
    def test_matches_dense_reference(self, same_law):
        rng = np.random.default_rng(10)
        a = self._t_samples(rng, 700)
        b = (self._t_samples(rng, 500) if same_law
             else rng.normal(0.0, np.sqrt(3.0), (500, 2)))
        rep = energy_distance_test(a, b, seed=11)
        stat, crit = _dense_energy(a, b, seed=11)
        assert rep.statistic == pytest.approx(stat, rel=1e-3)
        assert rep.critical == pytest.approx(crit, rel=1e-3)
        assert rep.passed == (stat < crit)

    def test_two_halves_pass(self):
        rng = np.random.default_rng(5)
        x = self._t_samples(rng, 4000)
        rep = energy_distance_test(x[:2000], x[2000:], seed=5)
        assert rep.passed, str(rep)

    def test_t_vs_gaussian_fails(self):
        # Equal covariance (t_3 has covariance 3 I), different tails.
        rng = np.random.default_rng(6)
        a = self._t_samples(rng, 10_000)
        b = rng.normal(0.0, np.sqrt(3.0), (10_000, 2))
        rep = energy_distance_test(a, b, seed=6)
        assert not rep.passed, str(rep)

    def test_one_dimensional_samples_are_scalar_points(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=500), rng.normal(size=400)
        rep = energy_distance_test(a, b, seed=13)
        assert rep == energy_distance_test(a[:, None], b[:, None], seed=13)
        assert rep.sample_size == 900 and rep.passed

    def test_identical_arrays_zero_statistic(self):
        x = np.random.default_rng(7).normal(size=(500, 2))
        rep = energy_distance_test(x, x.copy(), seed=7)
        assert rep.statistic == pytest.approx(0.0, abs=1e-4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(600, 2))
        b = rng.normal(size=(600, 2))
        r1 = energy_distance_test(a, b, seed=9)
        r2 = energy_distance_test(a, b, seed=9)
        assert (r1.statistic, r1.critical) == (r2.statistic, r2.critical)
