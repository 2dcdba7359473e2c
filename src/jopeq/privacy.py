"""
Local-differential-privacy mechanism algebra and privacy-preserving-noise
(PPN) samplers.

The PPN n is designed so that n plus the cell-uniform quantization error e
realizes a target LDP mechanism: its characteristic function is the target
mechanism CF divided by the cell CF. Because the cell CF has isolated
zeros, dividing and inverting directly would give a table with negative
ripple; instead the density is tabulated on a symmetric grid by
multiplicative nonnegative (Richardson-Lucy style) deconvolution
iterations, which drive the convolution residual down while keeping the
table a valid density. The iteration count is fixed: 300 for L=1 and 150
for L=2. The convolutions are real FFTs on the half-spectrum (nonnegative
last-axis frequencies): the table is real and the cell CF is real and
even, so the full complex spectrum holds nothing more. The sampler's
`validity` dict records the final residual and the clipped and truncated
mass.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import optimize, special, stats

from .lattice import Lattice, cell_cf, cell_variance_per_coord

__all__ = [
    "MechanismSpec",
    "PpnSampler",
    "MechanismInfeasibleError",
    "InfeasibleParametersError",
    "T_MECH_EXPONENT_VERBATIM",
    "laplace_spec",
    "t_spec",
    "t_mech_epsilon",
    "solve_t_params",
    "pq_tradeoff_check",
    "build_ppn_sampler",
    "mechanism_reference_sample",
]

# The privacy-budget formula for the multivariate-t mechanism is
# implemented with this exponent exactly as printed in its source,
# exp(eps) = [(1+c^2/nu)/(1+(c-Delta)^2/nu)]^((nu+d)^2); pass
# exponent="half-sum" to t_mech_epsilon / solve_t_params for the
# plausible (nu+d)/2 variant instead.
T_MECH_EXPONENT_VERBATIM = "verbatim"

DEFAULT_SENSITIVITY = math.sqrt(2.0)

# Half-width of the PPN table grid, in standard deviations of the target.
TABLE_HALF_WIDTH_SD = 8.0


class MechanismInfeasibleError(RuntimeError):
    """Quantization noise alone exceeds the target mechanism noise."""


class InfeasibleParametersError(ValueError):
    """No mechanism scale satisfies the requested privacy budget."""


@dataclass(frozen=True)
class MechanismSpec:
    """
    Identity and parameters of one LDP mechanism.

    kind "laplace": iid Laplace(0, b) per coordinate with b = 2/epsilon.
    kind "t": multivariate t_nu(0, s2 * I_d) with nu > 2.
    `sensitivity` is the raw l2 sensitivity of the scaled sub-vectors
    (sqrt(2) for unit-ball inputs); for the t mechanism the budget is
    evaluated at the whitened sensitivity sensitivity / s.
    """

    kind: str
    epsilon: float
    dimension: int
    nu: float = float("nan")
    s2: float = float("nan")
    sensitivity: float = DEFAULT_SENSITIVITY

    @property
    def b(self) -> float:
        """Laplace scale 2/epsilon."""
        return 2.0 / self.epsilon

    @property
    def variance_per_coord(self) -> float:
        if self.kind == "laplace":
            return 2.0 * self.b ** 2
        return self.nu * self.s2 / (self.nu - 2.0)

    @property
    def variance(self) -> float:
        """Total per-sub-vector noise variance sigma^2 (Thm. 6 bookkeeping)."""
        return self.variance_per_coord * self.dimension


def laplace_spec(epsilon: float, dimension: int = 1) -> MechanismSpec:
    """Laplace mechanism at budget epsilon acting per coordinate."""
    if epsilon <= 0:
        raise InfeasibleParametersError("epsilon must be positive")
    return MechanismSpec("laplace", float(epsilon), int(dimension))


def t_spec(epsilon: float, dimension: int, nu: float,
           sensitivity: float = DEFAULT_SENSITIVITY,
           exponent: str = T_MECH_EXPONENT_VERBATIM) -> MechanismSpec:
    """Multivariate-t mechanism with the scale solved from the budget."""
    s2 = solve_t_params(epsilon, dimension, sensitivity, nu, exponent)
    return MechanismSpec("t", float(epsilon), int(dimension), nu=float(nu),
                         s2=s2, sensitivity=float(sensitivity))


def t_mech_epsilon(nu: float, sigma: np.ndarray | float, delta: float,
                   d: int | None = None,
                   exponent: str = T_MECH_EXPONENT_VERBATIM) -> float:
    """
    Privacy budget of the t_nu(0, Sigma) mechanism at whitened
    sensitivity delta.

    exp(eps) = [(1 + c^2/nu) / (1 + (c-delta)^2/nu)]^p with
    c = (delta + sqrt(delta^2 + 4 nu)) / 2 and p = (nu+d)^2 (verbatim
    default) or (nu+d)/2 ("half-sum").
    """
    if nu <= 0 or delta < 0:
        raise InfeasibleParametersError("need nu > 0 and delta >= 0")
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if d is None:
        d = sigma.shape[0]
    eigs = np.linalg.eigvalsh(sigma)
    if np.any(eigs <= 0):
        raise InfeasibleParametersError("Sigma must be positive definite")
    c = 0.5 * (delta + math.sqrt(delta * delta + 4.0 * nu))
    ratio = (1.0 + c * c / nu) / (1.0 + (c - delta) ** 2 / nu)
    if exponent == T_MECH_EXPONENT_VERBATIM:
        power = (nu + d) ** 2
    elif exponent == "half-sum":
        power = (nu + d) / 2.0
    else:
        raise ValueError(f"unknown exponent variant {exponent!r}")
    return power * math.log(ratio)


def solve_t_params(epsilon: float, d: int, delta: float, nu: float,
                   exponent: str = T_MECH_EXPONENT_VERBATIM) -> float:
    """
    Scale s^2 with Sigma = s^2 I_d such that the t mechanism meets the
    budget: t_mech_epsilon(nu, s^2 I, delta/s) = epsilon within relative
    1e-9, by bracketed root finding on s in [1e-6, 1e6].
    """
    if epsilon <= 0:
        raise InfeasibleParametersError("epsilon must be positive")
    eye = np.eye(d)

    def gap(log_s: float) -> float:
        s = math.exp(log_s)
        return t_mech_epsilon(nu, s * s * eye, delta / s, d, exponent) - epsilon

    lo, hi = math.log(1e-6), math.log(1e6)
    if gap(lo) * gap(hi) > 0:
        raise InfeasibleParametersError(
            f"no scale in [1e-6, 1e6] meets epsilon={epsilon}")
    log_s = optimize.brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    s = math.exp(log_s)
    achieved = t_mech_epsilon(nu, s * s * eye, delta / s, d, exponent)
    if abs(achieved - epsilon) > 1e-9 * epsilon:
        raise InfeasibleParametersError("root finding did not converge")
    return s * s


def pq_tradeoff_check(gamma: float, epsilon: float, rate: int) -> bool:
    """
    Privacy-quantization threshold for the scalar-lattice configuration:
    True iff sqrt(24) <= gamma * epsilon / 2**rate, i.e. the quantization
    noise variance alone reaches the Laplace target 2*(2/epsilon)^2.
    """
    return gamma * epsilon / 2 ** rate >= math.sqrt(24.0)


def required_ppn_variance(gamma: float, epsilon: float, rate: int) -> float:
    """Per-coordinate PPN variance 2*(2/eps)^2 - Delta_Q^2/12 (scalar)."""
    delta_q = 2.0 * gamma / 2 ** rate
    return 2.0 * (2.0 / epsilon) ** 2 - delta_q ** 2 / 12.0


def _target_pdf(spec: MechanismSpec, x: np.ndarray) -> np.ndarray:
    """Target mechanism density at rows x (..., d)."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "laplace":
        return np.prod(stats.laplace.pdf(x, scale=spec.b), axis=-1)
    d, nu, s2 = spec.dimension, spec.nu, spec.s2
    norm = (special.gamma((nu + d) / 2.0)
            / (special.gamma(nu / 2.0) * (nu * math.pi) ** (d / 2.0)
               * s2 ** (d / 2.0)))
    q = np.sum(x * x, axis=-1) / s2
    return norm * (1.0 + q / nu) ** (-(nu + d) / 2.0)


def mechanism_reference_sample(spec: MechanismSpec, count: int,
                               rng: np.random.Generator) -> np.ndarray:
    """
    Direct samples of the target mechanism noise, shape (count, d).

    Laplace: iid per coordinate. t: z * sqrt(nu / q) with z Gaussian(0, Sigma)
    and q chi-square(nu). Used by baselines and as a validation oracle; the
    PPN sampler itself never draws from this.
    """
    if spec.kind == "laplace":
        return rng.laplace(0.0, spec.b, size=(count, spec.dimension))
    z = rng.normal(0.0, math.sqrt(spec.s2), size=(count, spec.dimension))
    q = rng.chisquare(spec.nu, size=count)
    return z * np.sqrt(spec.nu / q)[:, None]


@dataclass
class PpnSampler:
    """
    Tabulated privacy-preserving-noise sampler for one (mechanism, lattice).

    The table holds the deconvolved density on a symmetric grid; sampling
    draws a grid cell (inverse CDF for L=1, alias method for L=2) plus a
    uniform jitter within the cell. `validity` records the achieved
    convolution residual and the clipped and truncated mass.
    """

    lattice: Lattice
    spec: MechanismSpec
    degenerate: bool
    origin: np.ndarray
    step: np.ndarray
    density: np.ndarray
    validity: dict
    _cdf: np.ndarray | None = field(default=None, repr=False)
    _alias_prob: np.ndarray | None = field(default=None, repr=False)
    _alias_idx: np.ndarray | None = field(default=None, repr=False)

    @property
    def variance_per_coord(self) -> float:
        """Per-coordinate variance of the tabulated PPN."""
        if self.degenerate:
            return 0.0
        d = self.lattice.dimension
        cell = float(np.prod(self.step))
        if d == 1:
            x = self.origin[0] + self.step[0] * (np.arange(len(self.density))
                                                 + 0.5)
            return float(np.sum(self.density * x * x) * cell
                         + self.step[0] ** 2 / 12.0)
        n0, n1 = self.density.shape
        x0 = self.origin[0] + self.step[0] * (np.arange(n0) + 0.5)
        x1 = self.origin[1] + self.step[1] * (np.arange(n1) + 0.5)
        m = (np.sum(self.density * (x0 ** 2)[:, None]) +
             np.sum(self.density * (x1 ** 2)[None, :])) * cell
        return float(m / 2.0 + (self.step[0] ** 2 + self.step[1] ** 2) / 24.0)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` PPN vectors, shape (count, L)."""
        d = self.lattice.dimension
        if self.degenerate:
            return np.zeros((count, d))
        if d == 1:
            u = rng.random(count)
            cells = np.searchsorted(self._cdf, u, side="right")
            jit = rng.random(count)
            x = self.origin[0] + self.step[0] * (cells + jit)
            return x[:, None]
        u = rng.random(count)
        k = rng.integers(0, len(self._alias_prob), size=count)
        take = u < self._alias_prob[k]
        cells = np.where(take, k, self._alias_idx[k])
        i0, i1 = np.unravel_index(cells, self.density.shape)
        jit = rng.random((count, 2))
        return np.stack([self.origin[0] + self.step[0] * (i0 + jit[:, 0]),
                         self.origin[1] + self.step[1] * (i1 + jit[:, 1])],
                        axis=1)


def _build_alias(prob: np.ndarray):
    """Vose alias tables for a probability vector."""
    n = len(prob)
    # The loop runs on Python lists: scalar indexing of numpy arrays costs
    # several times more per step, and the float arithmetic is the same.
    scaled = (prob * n).tolist()
    alias = [0] * n
    cut = [1.0] * n
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        cut[s] = scaled[s]
        alias[s] = g
        scaled[g] += scaled[s] - 1.0
        (large if scaled[g] >= 1.0 else small).append(g)
    return np.array(cut), np.array(alias, dtype=np.int64)


def _rfft_freqs(n: int, dx: float) -> np.ndarray:
    """Angular frequencies of the nonnegative half of an n-point spectrum."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)


def build_ppn_sampler(spec: MechanismSpec, lat: Lattice,
                      allow_degenerate: bool = False,
                      grid_points: int | None = None,
                      refine_iters: int | None = None) -> PpnSampler:
    """
    Build the PPN sampler whose output n satisfies: n + e ~ target
    mechanism, with e the independent cell-uniform quantization error.

    When the quantization noise alone meets or exceeds the target noise
    (the privacy-for-free regime) the deconvolution has no valid density;
    with allow_degenerate=True a sampler with `degenerate` set, which draws
    zeros, is returned, otherwise MechanismInfeasibleError is
    raised.

    The table is refined for `refine_iters` iterations (default 300 for
    L=1 on 2^14 points, 150 for L=2 on 512^2) of f <- f * K(target / K f),
    where K convolves with the cell-uniform density through `rfftn`, the
    cell CF evaluated on the half-spectrum only. The update multiplies
    f >= 0 by a clipped-to-nonnegative correction, so the table cannot go
    negative: the final clip, the reported `clipped_mass` (0.0) and the
    raise when that mass exceeds 1e-3 only guard this invariant.
    """
    if spec.dimension != lat.dimension:
        raise ValueError("mechanism dimension must equal lattice dimension")
    d = lat.dimension
    cell_var = cell_variance_per_coord(lat)
    target_var = spec.variance_per_coord
    shortfall = target_var - cell_var

    if shortfall <= 1e-10 * max(target_var, 1.0):
        if not allow_degenerate:
            raise MechanismInfeasibleError(
                "quantization noise variance per coordinate "
                f"({cell_var:.6g}) >= target mechanism variance "
                f"({target_var:.6g}); pass allow_degenerate=True to accept "
                "the quantization-only regime")
        validity = {
            "required_variance": float(max(shortfall, 0.0)),
            "clipped_mass": 0.0,
        }
        return PpnSampler(lat, spec, True, np.zeros(d), np.ones(d),
                          np.zeros((0,) * d), validity)

    sigma = math.sqrt(target_var)
    half = TABLE_HALF_WIDTH_SD * sigma
    if d == 1:
        n = grid_points or 1 << 14
        iters = refine_iters or 300
        dx = 2.0 * half / n
        x = (-half + dx * (np.arange(n) + 0.5))[:, None]
        tgrid = _rfft_freqs(n, dx)[:, None]
        cell_measure = dx
    else:
        n = grid_points or 1 << 9
        iters = refine_iters or 150
        dx = 2.0 * half / n
        ax = -half + dx * (np.arange(n) + 0.5)
        x = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        tgrid = np.stack(np.meshgrid(2.0 * np.pi * np.fft.fftfreq(n, d=dx),
                                     _rfft_freqs(n, dx), indexing="ij"),
                         axis=-1)
        cell_measure = dx * dx
    shape = x.shape[:-1]

    target = _target_pdf(spec, x)
    target_mass = float(target.sum() * cell_measure)
    cell_half = cell_cf(lat, tgrid)

    def convolve(v: np.ndarray) -> np.ndarray:
        """K v: circular convolution with the cell-uniform density."""
        spectrum = sp_fft.rfftn(v)
        spectrum *= cell_half
        return sp_fft.irfftn(spectrum, s=shape)

    # Multiplicative nonnegative refinement: f <- f * K^T(target / K f),
    # with K = K^T because the cell CF is real and even.
    f = target.copy()
    for _ in range(iters):
        ratio = convolve(f)
        np.maximum(ratio, 1e-300, out=ratio)
        np.divide(target, ratio, out=ratio)
        corr = convolve(ratio)
        np.maximum(corr, 0.0, out=corr)
        f *= corr

    clipped_mass = float(abs(np.minimum(f, 0.0).sum()) * cell_measure)
    if clipped_mass > 1e-3:
        raise MechanismInfeasibleError(
            f"deconvolved density clipped mass {clipped_mass:.3g} > 1e-3")
    f = np.clip(f, 0.0, None)
    f /= f.sum() * cell_measure

    achieved = convolve(f)
    if d == 1:
        resid = float(np.max(np.abs(np.cumsum(achieved - target))) *
                      cell_measure)
    else:
        resid = float(0.5 * np.abs(achieved - target).sum() * cell_measure)
    validity = {
        "clipped_mass": clipped_mass,
        "conv_residual": resid,
        "truncated_target_mass": float(1.0 - target_mass),
    }

    prob = (f * cell_measure).ravel()
    prob /= prob.sum()
    origin = np.full(d, -half)
    step = np.full(d, dx)
    if d == 1:
        return PpnSampler(lat, spec, False, origin, step, f, validity,
                          _cdf=np.cumsum(prob))
    cut, alias = _build_alias(prob)
    return PpnSampler(lat, spec, False, origin, step, f, validity,
                      _alias_prob=cut, _alias_idx=alias)
