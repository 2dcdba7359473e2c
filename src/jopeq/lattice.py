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
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Lattice",
    "scalar_uniform",
    "square_lattice",
    "hexagonal_lattice",
    "nearest_point",
    "quantize_clipped",
    "sample_cell_uniform",
    "cell_cf",
    "cell_variance_per_coord",
]


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


def _build(generator: np.ndarray, gamma: float, rate: int, family: str,
           delta_q: float) -> Lattice:
    generator = np.asarray(generator, dtype=float)
    if generator.ndim != 2 or generator.shape[0] != generator.shape[1]:
        raise ConfigurationError("generator must be a square matrix")
    smin = np.linalg.svd(generator, compute_uv=False)[-1]
    if smin <= 0 or not np.isfinite(smin):
        raise ConfigurationError("generator matrix is singular")
    dim = generator.shape[0]

    # Enumerate integer vectors l with ||G l|| <= gamma; ||l||_inf is bounded
    # by gamma / sigma_min(G).
    lmax = int(np.floor(gamma / smin)) + 1
    axes = [np.arange(-lmax, lmax + 1)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    points = grid @ generator.T
    keep = np.linalg.norm(points, axis=1) <= gamma * (1 + 1e-12)
    coords = grid[keep]
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    points = coords @ generator.T
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
    if gamma <= 0 or rate < 1 or rate != int(rate):
        raise ConfigurationError("need gamma > 0 and integer rate >= 1")
    delta = 2.0 * gamma / 2 ** int(rate)
    return _build(np.array([[delta]]), gamma, rate, "scalar", delta)


def square_lattice(gamma: float, rate: int) -> Lattice:
    """L=2 scaled-identity lattice with per-axis spacing 2*gamma/2**rate."""
    if gamma <= 0 or rate < 1 or rate != int(rate):
        raise ConfigurationError("need gamma > 0 and integer rate >= 1")
    delta = 2.0 * gamma / 2 ** int(rate)
    return _build(delta * np.eye(2), gamma, rate, "square", delta)


def hexagonal_lattice(gamma: float, rate: int) -> Lattice:
    """
    L=2 hexagonal lattice, generator delta * [[1, 0.5], [0, sqrt(3)/2]].

    The scale delta is sized so the codebook holds about 2**(2*rate) points
    (point count ~= disc area / cell volume), so the achieved rate
    log2(|codebook|) / 2 is close to `rate` but fractional.
    """
    if gamma <= 0 or rate < 1 or rate != int(rate):
        raise ConfigurationError("need gamma > 0 and integer rate >= 1")
    base = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
    # pi*gamma^2 / (delta^2 * sqrt(3)/2) = 2^(2R)  =>  delta
    delta = gamma * np.sqrt(2.0 * np.pi / (np.sqrt(3.0) * 4.0 ** int(rate)))
    return _build(delta * base, gamma, rate, "hexagonal", delta)


def _nearest_coords(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """
    Integer coordinates of the nearest (unrestricted) lattice point.

    Scalar and square: per-axis mid-tread rounding floor(x/delta + 1/2), so
    ties round half up on each axis. Hexagonal (Conway & Sloane 1982): the
    lattice is the union of the rectangular lattice delta*(Z x sqrt(3)Z)
    and its shift by delta*(1/2, sqrt(3)/2); round half up per axis in each
    and keep the nearer point, the unshifted one on a tie.
    """
    x = np.asarray(x, dtype=float)
    if lat.family != "hexagonal":
        return np.floor(x / lat.delta_q + 0.5).astype(np.int64)
    # Rectangular frame: u in units of delta, v in units of delta*sqrt(3);
    # the shifted coset's nearest point is (floor(u), floor(v)) + 1/2.
    u = x[..., 0] / lat.delta_q
    v = x[..., 1] / (lat.delta_q * np.sqrt(3.0))
    a0, k0 = np.floor(u + 0.5), np.floor(v + 0.5)
    a1, k1 = np.floor(u), np.floor(v)
    d0 = (u - a0) ** 2 + 3.0 * (v - k0) ** 2
    d1 = (u - a1 - 0.5) ** 2 + 3.0 * (v - k1 - 0.5) ** 2
    shifted = d1 < d0
    a = np.where(shifted, a1, a0)
    k = np.where(shifted, k1, k0)
    # delta*(a, sqrt(3) k) = G (a - k, 2k); its shift is G (a - k, 2k + 1).
    return np.stack([a - k, 2.0 * k + shifted], axis=-1).astype(np.int64)


def nearest_point(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """
    Nearest lattice point to x over the unrestricted (infinite) lattice.

    Accepts a single vector of shape (L,) (or a scalar for L=1) or a batch
    of shape (..., L); returns matching shape.
    """
    x = np.asarray(x, dtype=float)
    scalar_in = lat.dimension == 1 and (x.ndim == 0 or x.shape[-1] != 1)
    if scalar_in:
        x = x[..., None]
    p = _nearest_coords(lat, x) @ lat.generator.T
    return p[..., 0] if scalar_in else p


def quantize_clipped(lat: Lattice, x: np.ndarray):
    """
    Quantize x to the nearest codebook point.

    Returns (point, index, overloaded); overloaded is True iff the
    unrestricted nearest lattice point lies outside the codebook, in which
    case the returned point is the nearest codebook point instead.

    Batched like nearest_point; index/overloaded drop the last axis.
    """
    x = np.asarray(x, dtype=float)
    scalar_in = lat.dimension == 1 and (x.ndim == 0 or x.shape[-1] != 1)
    if scalar_in:
        x = x[..., None]
    batch_shape = x.shape[:-1]
    flat = x.reshape(-1, lat.dimension)
    coords = _nearest_coords(lat, flat)
    clipped = np.clip(coords + lat._lmax, 0, 2 * lat._lmax)
    idx = lat._lookup[tuple(clipped.T)]
    inside = (idx >= 0) & np.all(clipped == coords + lat._lmax, axis=-1)
    overloaded = ~inside

    if np.any(overloaded):
        bad = flat[overloaded]
        d2 = (np.sum(bad ** 2, axis=1)[:, None]
              - 2.0 * bad @ lat.codebook.T
              + np.sum(lat.codebook ** 2, axis=1)[None, :])
        idx = idx.copy()
        idx[overloaded] = np.argmin(d2, axis=1)

    point = lat.codebook[idx].reshape(x.shape)
    idx = idx.reshape(batch_shape)
    overloaded = overloaded.reshape(batch_shape)
    if scalar_in:
        point = point[..., 0]
    if batch_shape == ():
        return (float(point) if scalar_in else point), int(idx), bool(overloaded)
    return point, idx, overloaded


def sample_cell_uniform(lat: Lattice, rng: np.random.Generator,
                        size: int | None = None) -> np.ndarray:
    """
    Sample uniformly over the basic cell P0 = {x : Q_L(x) = 0}.

    Draws u uniform over the fundamental parallelepiped G @ [0,1)^L and
    returns u - Q_L(u), which is exactly cell-uniform. Returns shape (L,)
    (scalar for L=1) or (size, L).
    """
    n = 1 if size is None else int(size)
    u = rng.random((n, lat.dimension)) @ lat.generator.T
    e = u - _nearest_coords(lat, u) @ lat.generator.T
    if size is None:
        return e[0, 0] if lat.dimension == 1 else e[0]
    return e[:, 0] if lat.dimension == 1 else e


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
    the edge sum cancels. Accepts t of shape (L,) or (..., L); for L=1
    scalars/arrays of scalars are also accepted.
    """
    t = np.asarray(t, dtype=float)
    if lat.dimension == 1:
        tv = t[..., 0] if (t.ndim > 0 and t.shape[-1] == 1) else t
        return np.sinc(tv * lat.delta_q / (2.0 * np.pi))
    if lat.family == "square":
        return (np.sinc(t[..., 0] * lat.delta_q / (2.0 * np.pi))
                * np.sinc(t[..., 1] * lat.delta_q / (2.0 * np.pi)))
    return _hexagon_cf(lat, t)


def _hexagon_cf(lat: Lattice, t: np.ndarray) -> np.ndarray:
    """
    CF of the uniform distribution over the hexagonal cell.

    Divergence theorem: integral over P of e^{i k.x} dA equals
    sum over edges of (k . n_j) / (i |k|^2) * integral of e^{i k.x} ds,
    and each edge integral is |e_j| * e^{i k.m_j} * sinc(k.u_j |e_j|/2/pi)
    with m_j the edge midpoint. The cell's vertices lie at radius
    delta/sqrt(3), angles pi/6 + j pi/3, counter-clockwise.
    """
    single = t.ndim == 1
    tk = t[None, :] if single else t
    shape = tk.shape[:-1]
    tk = tk.reshape(-1, 2)
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

    out = out.reshape(shape)
    return out[0] if single else out
