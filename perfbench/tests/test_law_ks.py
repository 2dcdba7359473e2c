"""The law_ks metric separates the target law from a 10% scale error."""

import math

import numpy as np
from scipy import stats

from jopeq import privacy
from workloads import ks_distance, target_cdf

N = 1_000_000
# Asymptotic two-sided KS critical value at level 0.01.
CRITICAL = stats.kstwobign.ppf(0.99) / math.sqrt(N)


def test_true_laplace_sample_passes():
    spec = privacy.laplace_spec(2.0)
    x = np.random.default_rng(11).laplace(0.0, spec.b, N)
    assert ks_distance(x, target_cdf(spec)) < CRITICAL


def test_scale_error_is_flagged():
    spec = privacy.laplace_spec(2.0)
    x = np.random.default_rng(12).laplace(0.0, 1.1 * spec.b, N)
    assert ks_distance(x, target_cdf(spec)) > 10 * CRITICAL


def test_matches_scipy_kstest():
    spec = privacy.laplace_spec(1.0)
    x = np.random.default_rng(13).laplace(0.0, 2.0, 5000)
    ref = stats.kstest(x, stats.laplace(scale=2.0).cdf).statistic
    assert ks_distance(x, target_cdf(spec)) == ref
