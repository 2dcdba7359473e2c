"""
The correlation test of the stream and SDQ tests: the absolute Pearson
correlation of two samples against 2.58/sqrt(n), 2.58 the two-sided
normal quantile at level 0.01.
"""

import numpy as np

from jopeq.stattests import TestReport

CORR_COEFF_001 = 2.58


def correlation_test(x: np.ndarray, y: np.ndarray,
                     name: str = "correlation") -> TestReport:
    """
    Absolute Pearson correlation with threshold 2.58/sqrt(n).

    Detects linear dependence only; nonlinear but uncorrelated pairs pass
    by construction.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    r = float(np.corrcoef(x, y)[0, 1])
    crit = CORR_COEFF_001 / np.sqrt(n)
    return TestReport(name, abs(r), crit, n, abs(r) < crit)
