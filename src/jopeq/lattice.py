"""
Lattice geometry, nearest-point quantization and basic-cell operations.

A lattice is the set {G @ l : l integer vector} for a full-rank generator
matrix G. Quantization maps a point to its nearest lattice point; the
codebook restricts the lattice to points inside a support sphere of radius
gamma. The basic cell P0 is the set of points whose nearest lattice point
is the origin; it is the support of the subtractive-dither error.

Supported families: scalar uniform (L=1), square (L=2, scaled identity)
and hexagonal (L=2). Each has a closed-form nearest-point rule (per-axis
rounding; for the hexagon, rounding in its two rectangular cosets) and a
closed-form cell: variance, vertices and characteristic function.

Every function takes sub-vectors as an array of shape (..., L), L the
lattice dimension, also for L=1; per-sub-vector results (an index, an
overload flag, a CF value) have the leading shape (...).
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Lattice",
    "scalar_uniform",
    "square_lattice",
    "hexagonal_lattice",
    "nearest_point",
    "quantize_clipped",
    "cell_cf",
    "cell_variance_per_coord",
]


# Largest grid of integer vectors `_build` enumerates for a codebook,
# (2 lmax + 1)^L entries. 2^24 admits scalar rates up to 23 and square
# and hexagonal rates up to 11, and keeps each grid-sized array of the
# build within 256 MB.
MAX_GRID_ENTRIES = 2 ** 24


class ConfigurationError(ValueError):
    """Raised for invalid lattice parameters (e.g. singular generator)."""


@dataclass(frozen=True)
class Lattice:
    """
    Immutable lattice with an enumerated codebook.

    Attributes
    ----------
    dimension : int
        Lattice dimension L (1 or 2).
    generator : np.ndarray
        Full-rank L x L generator matrix G.
    support_radius : float
        Codebook support radius gamma; codebook points satisfy ||p|| <= gamma.
    codebook : np.ndarray
        (n, L) array of codebook points, ordered lexicographically by their
        integer coordinate vectors.
    nominal_rate : int
        The requested rate R used to size the lattice spacing.
    family : str
        One of "scalar", "square", "hexagonal".
    delta_q : float
        Per-axis spacing for scaled-identity families ("scalar", "square");
        the generator row scale for "hexagonal".
    """

    dimension: int
    generator: np.ndarray
    support_radius: float
    codebook: np.ndarray
    nominal_rate: int
    family: str
    delta_q: float
    _lookup: np.ndarray = field(repr=False)
    _lmax: int = field(repr=False)

    @property
    def index_bits(self) -> int:
        """Fixed index width used for transport, ceil(log2(|codebook|))."""
        return max(1, int(np.ceil(np.log2(len(self.codebook)))))

    @property
    def zero_index(self) -> int:
        """Codebook index of the origin."""
        return int(self._lookup[(self._lmax,) * self.dimension])


def _generate(family: str, generator: np.ndarray, coords) -> np.ndarray:
    """
    G l for each vector l of coords, shape (..., L). The scaled-identity
    families multiply by the spacing: the matrix product's off-diagonal
    terms are exact zeros, so the result is the same, bit for bit, without
    the product or a cast of integer coordinates.
    """
    if family == "hexagonal":
        return coords @ generator.T
    return coords * generator[0, 0]


def _build(base: np.ndarray, delta_q: float, gamma: float, rate: int,
           family: str) -> Lattice:
    """The lattice with generator delta_q * base, gamma and rate checked."""
    if not 0 < gamma < np.inf or rate < 1 or rate != int(rate):
        raise ConfigurationError("need finite gamma > 0 and integer rate >= 1")
    generator = delta_q * np.asarray(base, dtype=float)
    smin = np.linalg.svd(generator, compute_uv=False)[-1]
    if smin <= 0 or not np.isfinite(smin):
        raise ConfigurationError(
            f"generator matrix is singular (lattice spacing {delta_q:g} "
            f"at rate {rate})")
    dim = generator.shape[0]

    # Enumerate integer vectors l with ||G l|| <= gamma; ||l||_inf is bounded
    # by gamma / sigma_min(G).
    lmax = int(np.floor(gamma / smin)) + 1
    entries = (2 * lmax + 1) ** dim
    if entries > MAX_GRID_ENTRIES:
        raise ConfigurationError(
            f"rate {rate} needs a codebook grid of {entries} entries, "
            f"more than {MAX_GRID_ENTRIES}")
    axes = [np.arange(-lmax, lmax + 1)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    points = _generate(family, generator, grid)
    keep = np.linalg.norm(points, axis=1) <= gamma * (1 + 1e-12)
    coords = grid[keep]
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    points = _generate(family, generator, coords)
    if len(points) == 0:
        raise ConfigurationError("empty codebook: gamma too small")

    lookup = np.full((2 * lmax + 1,) * dim, -1, dtype=np.int64)
    lookup[tuple((coords + lmax).T)] = np.arange(len(coords))

    return Lattice(
        dimension=dim,
        generator=generator,
        support_radius=float(gamma),
        codebook=points,
        nominal_rate=int(rate),
        family=family,
        delta_q=float(delta_q),
        _lookup=lookup,
        _lmax=lmax,
    )


def scalar_uniform(gamma: float, rate: int) -> Lattice:
    """
    Scalar (L=1) uniform mid-tread lattice with spacing 2*gamma/2**rate.

    The codebook holds every multiple of the spacing with magnitude at most
    gamma, so it is symmetric and contains both endpoints +-gamma.
    """
    delta = math.ldexp(2.0 * gamma, -int(rate))
    return _build(np.eye(1), delta, gamma, rate, "scalar")


def square_lattice(gamma: float, rate: int) -> Lattice:
    """L=2 scaled-identity lattice with per-axis spacing 2*gamma/2**rate."""
    delta = math.ldexp(2.0 * gamma, -int(rate))
    return _build(np.eye(2), delta, gamma, rate, "square")


def hexagonal_lattice(gamma: float, rate: int) -> Lattice:
    """
    L=2 hexagonal lattice, generator delta * [[1, 0.5], [0, sqrt(3)/2]].

    The scale delta is sized so the codebook holds about 2**(2*rate) points
    (point count ~= disc area / cell volume), so the achieved rate
    log2(|codebook|) / 2 is close to `rate` but fractional.
    """
    base = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
    # pi*gamma^2 / (delta^2 * sqrt(3)/2) = 2^(2R)  =>  delta. ldexp scales
    # by 2^-R exactly down to the subnormals, and cannot overflow as
    # 4.0 ** R did from R = 512.
    delta = gamma * math.ldexp(math.sqrt(2.0 * math.pi / math.sqrt(3.0)),
                               -int(rate))
    return _build(base, delta, gamma, rate, "hexagonal")


def _nearest_coords(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """
    Integer coordinates of the nearest (unrestricted) lattice point, as
    floats (integral values).

    Scalar and square: per-axis mid-tread rounding floor(x/delta + 1/2), so
    ties round half up on each axis. Hexagonal (Conway & Sloane 1982): the
    lattice is the union of the rectangular lattice delta*(Z x sqrt(3)Z)
    and its shift by delta*(1/2, sqrt(3)/2); round half up per axis in each
    and keep the nearer point, the unshifted one on a tie.
    """
    if lat.family != "hexagonal":
        c = x / lat.delta_q
        c += 0.5
        return np.floor(c, out=c)
    # Rectangular frame: u in units of delta, v in units of delta*sqrt(3);
    # the shifted coset's nearest point is (floor(u), floor(v)) + 1/2.
    # As (n, 2), so that every intermediate is an array, never a scalar.
    xs = x.reshape(-1, 2)
    u = xs[:, 0] / lat.delta_q
    v = xs[:, 1] / (lat.delta_q * np.sqrt(3.0))
    a0 = u + 0.5
    np.floor(a0, out=a0)
    k0 = v + 0.5
    np.floor(k0, out=k0)
    a1, k1 = np.floor(u), np.floor(v)
    # Squared distances, in place and in the order of
    # d0 = (u - a0)^2 + 3 (v - k0)^2 and
    # d1 = (u - a1 - 1/2)^2 + 3 (v - k1 - 1/2)^2, each square as t * t
    # (numpy's t ** 2), so the comparison is bit for bit the same.
    d0 = u - a0
    d0 *= d0
    t = v - k0
    t *= t
    t *= 3.0
    d0 += t
    d1 = np.subtract(u, a1, out=u)
    d1 -= 0.5
    d1 *= d1
    t = np.subtract(v, k1, out=v)
    t -= 0.5
    t *= t
    t *= 3.0
    d1 += t
    shifted = d1 < d0
    # The nearer point (a, k), the unshifted one on a tie, into a0, k0.
    np.copyto(a0, a1, where=shifted)
    np.copyto(k0, k1, where=shifted)
    # delta*(a, sqrt(3) k) = G (a - k, 2k); its shift is G (a - k, 2k + 1).
    out = np.empty(xs.shape)
    np.subtract(a0, k0, out=out[:, 0])
    np.multiply(k0, 2.0, out=out[:, 1])
    out[:, 1] += shifted
    return out.reshape(x.shape)


def _subvectors(lat: Lattice, x) -> np.ndarray:
    """x as a float array of shape (..., L); any other shape is refused."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (lat.dimension,):
        raise ValueError(f"expected shape (..., {lat.dimension}), "
                         f"got {x.shape}")
    return x


def nearest_point(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """
    Nearest lattice point to each sub-vector of x, shape (..., L), over the
    unrestricted (infinite) lattice; returns shape (..., L).
    """
    return _generate(lat.family, lat.generator,
                     _nearest_coords(lat, _subvectors(lat, x)))


def quantize_clipped(lat: Lattice, x: np.ndarray):
    """
    Quantize each sub-vector of x, shape (..., L), to the nearest codebook
    point.

    Returns (point, index, overloaded) of shapes (..., L), (...) and (...);
    overloaded is True iff the unrestricted nearest lattice point lies
    outside the codebook, in which case the point is the nearest codebook
    point instead.
    """
    x = _subvectors(lat, x)
    batch_shape = x.shape[:-1]
    flat = x.reshape(-1, lat.dimension)
    shifted = _nearest_coords(lat, flat).astype(np.int64)
    shifted += lat._lmax
    clipped = np.clip(shifted, 0, 2 * lat._lmax)
    idx = lat._lookup[tuple(clipped.T)]
    overloaded = idx < 0
    # Axis by axis: np.any over the short last axis is a slow reduction.
    for a in range(lat.dimension):
        overloaded |= clipped[:, a] != shifted[:, a]

    if np.any(overloaded):
        bad = flat[overloaded]
        d2 = (np.sum(bad ** 2, axis=1)[:, None]
              - 2.0 * bad @ lat.codebook.T
              + np.sum(lat.codebook ** 2, axis=1)[None, :])
        idx[overloaded] = np.argmin(d2, axis=1)

    # np.take copies the rows several times faster than codebook[idx].
    return (np.take(lat.codebook, idx, axis=0).reshape(x.shape),
            idx.reshape(batch_shape), overloaded.reshape(batch_shape))


def _cell_residual(lat: Lattice, u: np.ndarray) -> np.ndarray:
    """
    Map unit-cube coordinates u, shape (..., L), to G u - Q_L(G u) in the
    basic cell; u uniform over [0, 1)^L gives a cell-uniform result. The
    hexagonal products with G run once per (n, L) matrix of the leading
    axes, and their rows do not depend on n: so stacking K such matrices
    into (K, n, L), or cutting one into blocks of rows, leaves each row's
    result bit-identical to mapping its whole matrix alone. The
    scaled-identity families scale by the spacing instead, elementwise.
    """
    x = _generate(lat.family, lat.generator, u)
    x -= _generate(lat.family, lat.generator, _nearest_coords(lat, x))
    return x


def cell_variance_per_coord(lat: Lattice) -> float:
    """
    Per-coordinate variance of the cell-uniform error: delta^2/12 for the
    scaled-identity families; 5 delta^2/72 for the hexagonal cell, its
    normalized second moment 5/(36 sqrt(3)) times its area sqrt(3) delta^2/2.
    """
    if lat.family == "hexagonal":
        return 5.0 * lat.delta_q ** 2 / 72.0
    return lat.delta_q ** 2 / 12.0


def cell_cf(lat: Lattice, t: np.ndarray) -> np.ndarray:
    """
    Characteristic function of the cell-uniform error,
    Phi_e(t) = (1/|P0|) * integral over P0 of cos(t . e) de.

    Closed-form sinc for scaled-identity families; for the hexagonal cell
    the integral is evaluated exactly edge-by-edge via the divergence
    theorem, and by its second-order series 1 - |t|^2 var / 2 (var the
    per-coordinate cell variance) where (|t| delta)^2 < 1e-6, below which
    the edge sum cancels. Takes t of shape (..., L); returns shape (...).
    """
    t = _subvectors(lat, t)
    if lat.family == "hexagonal":
        return _hexagon_cf(lat, t)
    return np.prod(np.sinc(t * lat.delta_q / (2.0 * np.pi)), axis=-1)


def _hexagon_cf(lat: Lattice, t: np.ndarray) -> np.ndarray:
    """
    CF of the uniform distribution over the hexagonal cell.

    Divergence theorem: integral over P of e^{i k.x} dA equals
    sum over edges of (k . n_j) / (i |k|^2) * integral of e^{i k.x} ds,
    and each edge integral is |e_j| * e^{i k.m_j} * sinc(k.u_j |e_j|/2/pi)
    with m_j the edge midpoint. The cell's vertices lie at radius
    delta/sqrt(3), angles pi/6 + j pi/3, counter-clockwise.
    """
    shape = t.shape[:-1]
    tk = t.reshape(-1, 2)
    delta = lat.delta_q
    area = np.sqrt(3.0) / 2.0 * delta ** 2
    ang = np.pi / 6.0 + np.arange(6) * np.pi / 3.0
    verts = delta / np.sqrt(3.0) * np.stack([np.cos(ang), np.sin(ang)],
                                            axis=1)
    knorm2 = np.sum(tk ** 2, axis=1)
    out = 1.0 - 0.5 * cell_variance_per_coord(lat) * knorm2

    big = knorm2 * delta ** 2 >= 1e-6
    if np.any(big):
        k = tk[big]
        acc = np.zeros(len(k), dtype=complex)
        for j in range(6):
            a, b = verts[j], verts[(j + 1) % 6]
            edge = b - a
            elen = np.linalg.norm(edge)
            u = edge / elen
            n = np.array([u[1], -u[0]])  # outward for CCW vertex order
            mid = 0.5 * (a + b)
            seg = elen * np.exp(1j * (k @ mid)) * np.sinc((k @ u) * elen
                                                          / (2.0 * np.pi))
            acc += (k @ n) / (1j * knorm2[big]) * seg
        out[big] = np.real(acc) / area

    return out.reshape(shape)
