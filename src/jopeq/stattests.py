"""
Statistical verification primitives: goodness-of-fit and two-sample tests
with fixed critical values at level 0.01.

A report passes iff statistic < critical value. Permutation tests take an
explicit seed so every run is reproducible.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["TestReport", "ks_test", "energy_distance_test"]

# Asymptotic one-sample Kolmogorov-Smirnov critical coefficient at level
# 0.01 (c(alpha) = sqrt(-ln(alpha/2)/2) ~= 1.628).
KS_COEFF_001 = 1.628


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test at level 0.01."""

    name: str
    statistic: float
    critical: float
    sample_size: int
    passed: bool

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: statistic={self.statistic:.6g} "
                f"critical={self.critical:.6g} n={self.sample_size}")


def ks_test(samples: np.ndarray, cdf, name: str = "ks") -> TestReport:
    """
    One-sample Kolmogorov-Smirnov test against a target CDF.

    The statistic is the sup-distance between the empirical CDF and the
    callable `cdf`; the critical value is the asymptotic 1.628/sqrt(n)
    at level 0.01. Requires n >= 1000.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(x)
    if n < 1000:
        raise ValueError("ks_test needs at least 1000 samples")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    stat = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    crit = KS_COEFF_001 / np.sqrt(n)
    return TestReport(name, stat, crit, n, stat < crit)


def energy_distance_test(a: np.ndarray, b: np.ndarray, seed: int = 0,
                         n_permutations: int = 200,
                         name: str = "energy") -> TestReport:
    """
    Two-sample energy-distance test with a permutation critical value.

    Statistic: 2 E|A-B| - E|A-A'| - E|B-B'| over the pooled sample; the
    critical value is the 0.99 quantile of the statistic over
    `n_permutations` random relabelings (level 0.01).

    The pooled distance matrix is never held whole: float32 row blocks of
    it are formed once and multiplied against all labelings at once, so
    memory grows with n times the number of labelings, not with n^2.
    """
    # rows are sample points; a 1-D array is n scalar samples
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    n, m = len(a), len(b)
    tot = n + m

    # Column 0 is the observed labeling (first n pooled rows are A),
    # column i > 0 the i-th random relabeling.
    rng = np.random.default_rng(seed)
    ind = np.zeros((tot, n_permutations + 1), dtype=np.float32)
    ind[:n, 0] = 1.0
    for i in range(1, n_permutations + 1):
        ind[rng.permutation(tot)[:n], i] = 1.0

    z = np.ascontiguousarray(np.vstack([a, b]), dtype=np.float32)
    sq = np.sum(z * z, axis=1)
    row_sums = np.empty(tot)
    dist_ind = np.empty_like(ind)  # (distance matrix) @ ind
    chunk = max(1, (1 << 23) // tot)
    for lo in range(0, tot, chunk):
        g = z[lo:lo + chunk] @ z.T
        block = sq[lo:lo + chunk, None] + sq[None, :] - 2.0 * g
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
        row_sums[lo:lo + chunk] = block.sum(axis=1, dtype=np.float64)
        dist_ind[lo:lo + chunk] = block @ ind

    # Per labeling: s_aa sums distances within A, s_a all distances from A.
    s_aa = (ind * dist_ind).sum(axis=0, dtype=np.float64)
    s_a = row_sums @ ind
    s_ab = s_a - s_aa
    s_bb = row_sums.sum() - 2.0 * s_a + s_aa
    stat = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    observed = float(stat[0])
    crit = float(np.quantile(stat[1:], 0.99))
    return TestReport(name, observed, crit, tot, observed < crit)
