"""
Local-differential-privacy mechanism algebra and privacy-preserving-noise
(PPN) samplers.

The mechanisms are Laplace, of scale 2/epsilon, and the multivariate t,
whose budget and scale are closed forms in each other: the budget at
whitened sensitivity delta is 2 p asinh(delta / (2 sqrt(nu))), with the
one exponent p = (nu+d)^2 (`_t_power`), and the scale is its inverse.

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

Sampling has one rule for every L: a cell of the flattened table by
inverse CDF through a guide table (Chen & Asau, AIIE Trans. 1974), then a
uniform jitter within the cell.

A table is a pure function of the mechanism, the lattice cell and the
grid, so a process builds each one once: `build_ppn_sampler` keeps the
last `TABLE_CACHE_ENTRIES` tables, evicting the least recently used, and
every sampler of one key shares that table's arrays, which are read-only.
"""

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sp_fft
from scipy import special, stats

from .dither import _KeyedStreams
from .lattice import Lattice, cell_cf, cell_variance_per_coord

__all__ = [
    "MechanismSpec",
    "PpnSampler",
    "MechanismInfeasibleError",
    "InfeasibleParametersError",
    "laplace_spec",
    "t_spec",
    "t_mech_epsilon",
    "solve_t_params",
    "pq_tradeoff_check",
    "build_ppn_sampler",
    "mechanism_reference_sample",
]

DEFAULT_SENSITIVITY = math.sqrt(2.0)

# Half-width of the PPN table grid, in standard deviations of the target.
TABLE_HALF_WIDTH_SD = 8.0

# Most PPN tables a process keeps. A default scalar table takes ~0.25 MB,
# a default 2-D one ~6 MB.
TABLE_CACHE_ENTRIES = 8

# Lanes `_cell_lookup_into` checks against the CDF per gather: its only
# scratch is this many floats, not one per lane.
_LOOKUP_CHUNK = 1 << 13

# Built tables, least recently used first: key -> a sampler whose arrays
# every sampler of that key shares. The lock guards the map, not a build:
# two threads missing one key both build it, and the tables are equal.
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


class MechanismInfeasibleError(RuntimeError):
    """Quantization noise alone exceeds the target mechanism noise."""


class InfeasibleParametersError(ValueError):
    """No mechanism scale satisfies the requested privacy budget."""


@dataclass(frozen=True)
class MechanismSpec:
    """
    Identity and parameters of one LDP mechanism.

    kind "laplace": iid Laplace(0, b) per coordinate with b = 2/epsilon.
    kind "t": multivariate t_nu(0, s2 * I_d) with nu > 2; only a t spec
    holds nu and s2, a Laplace spec None.
    """

    kind: str
    epsilon: float
    dimension: int
    nu: float | None = None
    s2: float | None = None

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


def t_spec(epsilon: float, dimension: int, nu: float) -> MechanismSpec:
    """
    Multivariate-t mechanism with the scale solved from the budget at the
    raw l2 sensitivity DEFAULT_SENSITIVITY of the scaled sub-vectors
    (sqrt(2) for unit-ball inputs), whitened to DEFAULT_SENSITIVITY / s.
    nu must exceed 2, so that the noise has a variance.
    """
    if not nu > 2:
        raise InfeasibleParametersError(
            f"need nu > 2 for a finite variance, got nu={nu}")
    s2 = solve_t_params(epsilon, dimension, DEFAULT_SENSITIVITY, nu)
    return MechanismSpec("t", float(epsilon), int(dimension), nu=float(nu),
                         s2=s2)


def _t_power(nu: float, d: int) -> float:
    """The exponent p of the t mechanism's budget, (nu+d)^2 as printed."""
    return (nu + d) ** 2


def t_mech_epsilon(nu: float, d: int, delta: float) -> float:
    """
    Privacy budget of the d-dimensional t_nu(0, Sigma) mechanism at
    whitened sensitivity delta; Sigma enters only through the whitening.

    exp(eps) = [(1 + c^2/nu) / (1 + (c-delta)^2/nu)]^p with
    c = (delta + sqrt(delta^2 + 4 nu)) / 2 and p = `_t_power`. Since
    c (c - delta) = nu, the ratio is c / (c - delta), and
    eps = 2 p asinh(delta / (2 sqrt(nu))).
    """
    if nu <= 0 or delta < 0:
        raise InfeasibleParametersError("need nu > 0 and delta >= 0")
    return 2.0 * _t_power(nu, d) * math.asinh(delta / (2.0 * math.sqrt(nu)))


def solve_t_params(epsilon: float, d: int, delta: float, nu: float) -> float:
    """
    Scale s^2 with Sigma = s^2 I_d such that the t mechanism meets the
    budget, t_mech_epsilon(nu, d, delta/s) = epsilon: the inverse of its
    closed form, s = delta / (2 sqrt(nu) sinh(epsilon / (2 p))).
    """
    if epsilon <= 0:
        raise InfeasibleParametersError("epsilon must be positive")
    if nu <= 0 or delta < 0:
        raise InfeasibleParametersError("need nu > 0 and delta >= 0")
    try:
        s = delta / (2.0 * math.sqrt(nu)
                     * math.sinh(epsilon / (2.0 * _t_power(nu, d))))
    except (OverflowError, ZeroDivisionError):
        s = 0.0
    if not 0 < s * s < math.inf:
        raise InfeasibleParametersError(
            f"no finite positive scale meets epsilon={epsilon}")
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

    The table holds the deconvolved density on a symmetric grid. Sampling
    draws a grid cell by inverse CDF over the flattened table, through a
    guide table (`_cell_lookup`), and adds a uniform jitter within the
    cell: one rule for every L. `validity` records the achieved
    convolution residual and the clipped and truncated mass. Samplers of
    one table share its arrays, which are read-only (`build_ppn_sampler`).
    """

    lattice: Lattice
    spec: MechanismSpec
    degenerate: bool
    origin: np.ndarray
    step: np.ndarray
    density: np.ndarray
    validity: dict
    _cdf: np.ndarray | None = field(default=None, repr=False)
    _guide: np.ndarray | None = field(default=None, repr=False)

    @property
    def variance_per_coord(self) -> float:
        """Per-coordinate variance of the tabulated PPN."""
        if self.degenerate:
            return 0.0
        d = self.lattice.dimension
        axes = np.meshgrid(*[o + s * (np.arange(n) + 0.5) for o, s, n in
                             zip(self.origin, self.step, self.density.shape)],
                           indexing="ij", sparse=True)
        second = sum(np.sum(self.density * x * x) for x in axes)
        return float(second * float(np.prod(self.step)) / d
                     + np.sum(self.step ** 2) / (12.0 * d))

    def sample(self, count: int, rng, *, out: np.ndarray | None = None,
               scratch=None) -> np.ndarray:
        """
        Draw `count` PPN vectors, shape (count, L). `rng` may also be a
        sequence of K generators, or a `dither._KeyedStreams` of K rows,
        one per row of a batch: then count must be a multiple of K, and
        rows k count/K, ..., (k+1) count/K - 1 equal sample(count // K, g)
        for g row k's generator. A row's generator draws its cell
        uniforms, then its (count/K, L) jitter, in two `random(out=...)`
        calls; a `_KeyedStreams` makes the two reads for all rows at once
        (`read`), each from its start (`read_starts`).

        out, a (count, L) array, takes the result in place of a new array;
        scratch = (u, cells, mask), count floats, intp and bools that are
        spent, in place of new buffers.
        """
        rngs = [rng] if isinstance(rng, np.random.Generator) else rng
        count, d = int(count), self.lattice.dimension
        if count % len(rngs):
            raise ValueError(f"{count} vectors do not split over "
                             f"{len(rngs)} generators")
        jit = np.empty((count, d)) if out is None else out
        if self.degenerate:
            jit.fill(0.0)
            return jit
        u, cells, mask = (scratch if scratch is not None else
                          (np.empty(count), np.empty(count, dtype=np.intp),
                           np.empty(count, dtype=bool)))
        k = len(rngs)
        if isinstance(rngs, _KeyedStreams):
            rngs.read(u.reshape(k, -1), jit.reshape(k, -1))
        else:
            for g, ur, jr in zip(rngs, u.reshape(k, -1),
                                 jit.reshape(k, -1)):
                g.random(out=ur)
                g.random(out=jr)
        _cell_lookup_into(self._cdf, self._guide, u, cells, mask)
        # The grid index of each cell of the C-order table: the trailing
        # axis takes the remainder by its size, and the leading axis the
        # quotient (np.unravel_index's result, without its division on the
        # one axis of L = 1), into the spent cell uniforms.
        index = [cells]
        if d == 2:
            index.insert(0, u.view(np.intp))
            np.floor_divide(cells, self.density.shape[1], out=index[0])
            np.remainder(cells, self.density.shape[1], out=cells)
        for a, i in enumerate(index):
            # origin + step (index + jitter), in place.
            col = jit[:, a]
            col += i
            col *= self.step[a]
            col += self.origin[a]
        return jit

    def read_starts(self, lo: int, hi: int, m: int) -> tuple:
        """
        Stream offsets of `sample`'s two reads when it draws sub-vectors
        lo, ..., hi-1 of a row of M from that row's stream, which holds all
        M cell uniforms and then all M L jitter draws: the cell uniforms
        start at draw lo and the jitter at draw M + lo L. A whole row reads
        both in sequence from draw 0, given as (0,).
        """
        if lo == 0 and hi == m:
            return (0,)
        return (lo, m + lo * self.lattice.dimension)


def _cdf_tables(prob: np.ndarray):
    """
    The inverse-CDF tables of a flat probability vector: the CDF, ending
    at exactly 1.0 and never above it, so every u in [0, 1) names a cell of
    the table; and the guide, guide[b] = the cell of u = b/G for each of G
    buckets, G the smallest power of two at least the cell count, so that
    u * G, its floor and b / G are exact.
    """
    cdf = np.cumsum(prob)
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    buckets = 1 << (cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    return cdf, guide


def _cell_lookup(cdf: np.ndarray, guide: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for u in [0, 1), via the guide."""
    cells = np.empty(len(u), dtype=np.intp)
    _cell_lookup_into(cdf, guide, u, cells, np.empty(len(u), dtype=bool))
    return cells


def _cell_lookup_into(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray,
                      cells: np.ndarray, mask: np.ndarray) -> None:
    """
    `_cell_lookup` of the 1-D u into cells (intp, not overlapping u), with
    mask (bools) as scratch.

    guide[floor(u G)] counts the CDF entries at or below floor(u G) / G <=
    u, so it is a lower bound of the answer, and the answer itself wherever
    its CDF entry exceeds u. Other lanes step one cell, again a lower
    bound; only those still short are searched, in the order of their u:
    np.searchsorted narrows each search by the one before when its keys
    ascend, and an answer depends only on its own u. The CDF entries are
    gathered _LOOKUP_CHUNK lanes at a time, so the scratch stays small.
    """
    np.multiply(u, len(guide), out=cells, casting="unsafe")
    guide.take(cells, out=cells, mode="clip")
    entries = np.empty(min(len(u), _LOOKUP_CHUNK))
    for lo in range(0, len(u), _LOOKUP_CHUNK):
        part = slice(lo, lo + _LOOKUP_CHUNK)
        got = entries[:len(cells[part])]
        cdf.take(cells[part], out=got, mode="clip")
        np.less_equal(got, u[part], out=mask[part])
    cells += mask
    miss = np.flatnonzero(mask)
    miss = miss[cdf[cells[miss]] <= u[miss]]
    miss = miss[np.argsort(u[miss])]
    cells[miss] = np.searchsorted(cdf, u[miss], side="right")


def _table_key(spec: MechanismSpec, lat: Lattice, n: int,
               iters: int) -> tuple:
    """The cache key of a table."""
    return (spec.kind, spec.epsilon, spec.dimension, spec.nu, spec.s2,
            lat.family, lat.generator.tobytes(), n, iters)


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
    raised. That decision is made on every call.

    The table is refined for `refine_iters` iterations (default 300 for
    L=1 on 2^14 points, 150 for L=2 on 512^2) of f <- f * K(target / K f),
    where K convolves with the cell-uniform density through `rfftn`, the
    cell CF evaluated on the half-spectrum only. The update multiplies
    f >= 0 by a clipped-to-nonnegative correction, so the table cannot go
    negative: the final clip, the reported `clipped_mass` (0.0) and the
    raise when that mass exceeds 1e-3 only guard this invariant.

    A process builds a table once per key: the mechanism (kind, epsilon,
    dimension, nu and s2), the lattice family and generator, and the grid
    size and iteration count after defaults. Later calls with that key,
    while it is among the last `TABLE_CACHE_ENTRIES` used, return a new
    sampler holding the caller's `lat` and `spec`, a copy of `validity`,
    and the same table arrays, byte-identical to a fresh build. Those
    arrays are read-only.
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

    n = grid_points or (1 << 14 if d == 1 else 1 << 9)
    iters = refine_iters or (300 if d == 1 else 150)
    key = _table_key(spec, lat, n, iters)
    with _TABLES_LOCK:
        table = _TABLES.pop(key, None)
    if table is None:
        table = _refine_table(spec, lat, n, iters)
    with _TABLES_LOCK:
        _TABLES[key] = table
        if len(_TABLES) > TABLE_CACHE_ENTRIES:
            del _TABLES[next(iter(_TABLES))]
    return replace(table, lattice=lat, spec=spec,
                   validity=dict(table.validity))


def _refine_table(spec: MechanismSpec, lat: Lattice, n: int,
                  iters: int) -> PpnSampler:
    """The nondegenerate sampler on an n-point grid, arrays read-only."""
    d = lat.dimension
    sigma = math.sqrt(spec.variance_per_coord)
    half = TABLE_HALF_WIDTH_SD * sigma
    dx = 2.0 * half / n
    ax = -half + dx * (np.arange(n) + 0.5)
    x = np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1)
    # rfftn halves the last axis only; the leading axes keep every frequency.
    freqs = ([2.0 * np.pi * np.fft.fftfreq(n, d=dx)] * (d - 1)
             + [2.0 * np.pi * np.fft.rfftfreq(n, d=dx)])
    tgrid = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1)
    cell_measure = dx if d == 1 else dx * dx
    shape = x.shape[:-1]

    target = _target_pdf(spec, x)
    # The t density's gamma ratio is inf/inf = NaN once nu passes about
    # 340; a NaN table would pass the clipped-mass guard below.
    if not np.all(np.isfinite(target)):
        raise InfeasibleParametersError(
            f"target density of {spec} is not finite on the table grid")
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
    cdf, guide = _cdf_tables(prob)
    for a in (origin, step, f, cdf, guide):
        a.flags.writeable = False
    return PpnSampler(lat, spec, False, origin, step, f, validity, cdf, guide)
