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
closed-form cell: variance, vertices and characteristic function (a
product of sincs, or for the hexagon the mean of its three rhombi's).

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


def _generate(family: str, generator: np.ndarray, coords,
              out: np.ndarray | None = None) -> np.ndarray:
    """
    G l for each vector l of coords, shape (..., L), into out if given
    (which must not overlap coords for a hexagonal lattice). The product is
    taken elementwise in a fixed order, so it is the same bit for bit on any
    host and for any count of vectors: the scaled-identity families multiply
    by the spacing, and the upper-triangular hexagonal G gives
    (g00 l0 + g01 l1, g11 l1).
    """
    if family != "hexagonal":
        return np.multiply(coords, generator[0, 0], out=out)
    if out is None:
        out = np.empty(coords.shape)
    (g00, g01), (_, g11) = generator
    x0, x1 = out[..., 0], out[..., 1]
    np.multiply(coords[..., 0], g00, out=x0)
    np.multiply(coords[..., 1], g01, out=x1)
    x0 += x1
    np.multiply(coords[..., 1], g11, out=x1)
    return out


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
    Integer coordinates of the nearest (unrestricted) lattice point to each
    sub-vector of x, shape (..., L), as floats (integral values).

    Scalar and square: per-axis mid-tread rounding floor(x/delta + 1/2), so
    ties round half up on each axis. Hexagonal (Conway & Sloane 1982): the
    lattice is the union of the rectangular lattice delta*(Z x sqrt(3)Z)
    and its shift by delta*(1/2, sqrt(3)/2); round half up per axis in each
    and keep the nearer point, the unshifted one on a tie.
    """
    xs = x.reshape(-1, lat.dimension)
    coords = np.empty(xs.shape)
    _nearest_coords_into(lat, xs, coords, np.empty(3 * len(xs)))
    return coords.reshape(x.shape)


def _nearest_coords_into(lat: Lattice, x: np.ndarray, coords: np.ndarray,
                         tmp: np.ndarray) -> None:
    """
    `_nearest_coords` of the (n, L) array x into coords, shape (n, L),
    which must not overlap x; a hexagonal lattice also takes 3 n floats of
    tmp as scratch. Each value comes from the same operations, in the same
    order, as it would from whole arrays, so it is the same bit for bit.
    """
    if lat.family != "hexagonal":
        np.divide(x, lat.delta_q, out=coords)
        coords += 0.5
        np.floor(coords, out=coords)
        return
    # Rectangular frame: u in units of delta, v in units of delta*sqrt(3),
    # in the two columns of coords; the shifted coset's nearest point is
    # (floor(u), floor(v)) + 1/2.
    n = len(x)
    u, v = coords[:, 0], coords[:, 1]
    np.divide(x[:, 0], lat.delta_q, out=u)
    np.divide(x[:, 1], lat.delta_q * np.sqrt(3.0), out=v)
    d0, d1, t = tmp[:n], tmp[n:2 * n], tmp[2 * n:3 * n]
    # d0 = (u - a0)^2 + 3 (v - k0)^2 with (a0, k0) = floor((u, v) + 1/2),
    # d1 = (u - a1 - 1/2)^2 + 3 (v - k1 - 1/2)^2 with (a1, k1) =
    # floor((u, v)); each square as t * t (numpy's t ** 2), so the
    # comparison is bit for bit the same.
    np.add(u, 0.5, out=d0)
    np.floor(d0, out=d0)
    np.subtract(u, d0, out=d0)
    d0 *= d0
    np.add(v, 0.5, out=d1)
    np.floor(d1, out=d1)
    np.subtract(v, d1, out=d1)
    d1 *= d1
    d1 *= 3.0
    d0 += d1
    np.floor(u, out=d1)
    np.subtract(u, d1, out=d1)
    d1 -= 0.5
    d1 *= d1
    np.floor(v, out=t)
    np.subtract(v, t, out=t)
    t -= 0.5
    t *= t
    t *= 3.0
    d1 += t
    shifted = t.view(bool)[:n]
    np.less(d1, d0, out=shifted)
    # The nearer point (a, k), the unshifted one on a tie, into d0, d1.
    a, k = d0, d1
    np.add(u, 0.5, out=a)
    np.floor(a, out=a)
    np.floor(u, out=k)
    np.copyto(a, k, where=shifted)
    np.add(v, 0.5, out=k)
    np.floor(k, out=k)
    np.floor(v, out=u)
    np.copyto(k, u, where=shifted)
    # delta*(a, sqrt(3) k) = G (a - k, 2k); its shift is G (a - k, 2k + 1).
    np.subtract(a, k, out=u)
    np.multiply(k, 2.0, out=v)
    v += shifted


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


def _scratch_size(n: int, dim: int) -> int:
    """
    Floats of scratch `quantize_clipped` and `_cell_residual` take for n
    sub-vectors of dimension dim: the sub-vectors' own size, and for L = 2
    one more float per sub-vector.
    """
    return n * dim + (n if dim == 2 else 0)


def _pieces(lat: Lattice, n: int, scratch: np.ndarray):
    """
    The pieces in which a block of n sub-vectors goes through
    `_nearest_coords_into`, and the scratch for them: a sequence of (rows,
    coords, tmp), a slice of the block's rows and views of the scratch for
    that piece's coordinates and temporaries. Scaled-identity lattices take
    the block whole, with no temporaries. A hexagonal one, whose search
    holds 5 floats per sub-vector, takes two halves of at least 2 rows
    each, so that both fit in 3 n floats of scratch (one whole piece below
    4 rows, on scratch of its own if need be).
    """
    dim = lat.dimension
    if lat.family != "hexagonal":
        return ((slice(0, n), scratch[:n * dim].reshape(n, dim), scratch[:0]),)
    half = -(-n // 2) if n >= 4 else n
    if len(scratch) < 5 * half:
        scratch = np.empty(5 * half)
    pieces = []
    for lo in range(0, n, half):
        r = min(half, n - lo)
        pieces.append((slice(lo, lo + r), scratch[:2 * r].reshape(r, 2),
                       scratch[2 * r:5 * r]))
    return pieces


def _index_into(lat: Lattice, coords: np.ndarray, idx: np.ndarray,
                overloaded: np.ndarray, spare: np.ndarray) -> None:
    """
    Codebook index of each (n, L) row of integral coords into idx, and
    into overloaded whether it lies outside the codebook, in which case idx
    holds some codebook index or -1, for the caller to replace. For L = 2,
    spare takes n ints; coords is spent.
    """
    n = len(coords)
    top = 2 * lat._lmax
    # The grid offset of each axis: outside the grid means overloaded (a
    # negative offset reads as a large unsigned one). An overloaded offset
    # is not clipped: the lookup's own clip keeps its read in range.
    np.copyto(idx, coords[:, 0], casting="unsafe")
    idx += lat._lmax
    np.greater(idx.view(np.uint64), top, out=overloaded)
    flag = coords.reshape(-1).view(bool)[:n]
    if lat.dimension == 2:
        col = spare[:n].view(np.intp)
        np.copyto(col, coords[:, 1], casting="unsafe")
        col += lat._lmax
        np.greater(col.view(np.uint64), top, out=flag)
        overloaded |= flag
        idx *= top + 1
        idx += col
    lat._lookup.take(idx, out=idx, mode="clip")
    np.less(idx, 0, out=flag)
    overloaded |= flag


def quantize_clipped(lat: Lattice, x: np.ndarray, *, out=None,
                     scratch: np.ndarray | None = None):
    """
    Quantize each sub-vector of x, shape (..., L), to the nearest codebook
    point.

    Returns (point, index, overloaded) of shapes (..., L), (...) and (...);
    overloaded is True iff the unrestricted nearest lattice point lies
    outside the codebook, in which case the point is the nearest codebook
    point instead.

    With out = (index, overloaded), 1-D intp and bool arrays of one entry
    per sub-vector, they take the results in place of new arrays, and no
    points are gathered: point is None. scratch, `_scratch_size` floats,
    is spent in place of a new buffer.
    """
    x = _subvectors(lat, x)
    flat = x.reshape(-1, lat.dimension)
    n = len(flat)
    if out is None:
        idx, overloaded = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    else:
        idx, overloaded = out
    if scratch is None:
        scratch = np.empty(_scratch_size(n, lat.dimension))
    for rows, coords, tmp in _pieces(lat, n, scratch):
        _nearest_coords_into(lat, flat[rows], coords, tmp)
        spare = scratch[coords.size:] if lat.family != "hexagonal" else tmp
        _index_into(lat, coords, idx[rows], overloaded[rows], spare)
    if np.count_nonzero(overloaded):  # without ndarray.any's wrapper
        # The nearest codebook point by brute force, by the sum of squared
        # per-axis differences, a chunk of rows at a time in the spent
        # scratch: each row's distances are its own, as is its argmin.
        points = len(lat.codebook)
        buf = scratch if len(scratch) >= 2 * points else np.empty(2 * points)
        far = np.flatnonzero(overloaded)
        step = len(buf) // (2 * points)
        for lo in range(0, len(far), step):
            bad = flat[far[lo:lo + step]]
            d2, sq = buf[:2 * len(bad) * points].reshape(2, len(bad), -1)
            np.subtract(bad[:, 0, None], lat.codebook[:, 0], out=d2)
            np.square(d2, out=d2)
            for a in range(1, lat.dimension):
                np.subtract(bad[:, a, None], lat.codebook[:, a], out=sq)
                d2 += np.square(sq, out=sq)
            idx[far[lo:lo + step]] = np.argmin(d2, axis=1)
    if out is not None:
        return None, idx, overloaded
    # np.take copies the rows several times faster than codebook[idx].
    batch_shape = x.shape[:-1]
    return (np.take(lat.codebook, idx, axis=0).reshape(x.shape),
            idx.reshape(batch_shape), overloaded.reshape(batch_shape))


def _cell_residual(lat: Lattice, scratch: np.ndarray,
                   out: np.ndarray) -> None:
    """
    Map unit-cube coordinates u to G u - Q_L(G u) in the basic cell; u
    uniform over [0, 1)^L gives a cell-uniform result. The (n, L)
    coordinates u lie in scratch[:n L] on entry, and out receives the (n, L)
    residuals; scratch, of `_scratch_size` floats, is spent. The products
    with G are `_generate`'s, so each row's result is what mapping that row
    alone gives, bit for bit.
    """
    n, dim = out.shape
    _generate(lat.family, lat.generator, scratch[:n * dim].reshape(n, dim),
              out)
    for rows, coords, tmp in _pieces(lat, n, scratch):
        _nearest_coords_into(lat, out[rows], coords, tmp)
        # A scaled-identity piece has no temporaries: it scales its
        # coordinates in place.
        point = tmp[:coords.size].reshape(coords.shape) if tmp.size else coords
        _generate(lat.family, lat.generator, coords, point)
        out[rows] -= point


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

    Closed-form sinc for scaled-identity families, and a sum of three
    rhombus CFs (products of two sincs) for the hexagonal cell. Takes t of
    shape (..., L); returns shape (...).
    """
    t = _subvectors(lat, t)
    if lat.family == "hexagonal":
        return _hexagon_cf(lat, t)
    return np.prod(np.sinc(t * lat.delta_q / (2.0 * np.pi)), axis=-1)


def _hexagon_cf(lat: Lattice, t: np.ndarray) -> np.ndarray:
    """
    CF of the uniform distribution over the hexagonal cell.

    The cell's vertices v_0, ..., v_5 lie at radius delta/sqrt(3), angles
    pi/6 + j pi/3, and v_j + v_{j+2} = v_{j+1}. So the cell is the three
    rhombi {a v_j + b v_{j+2} : a, b in [0, 1]}, j = 0, 2, 4, of equal
    area, and the CF is the mean of theirs:
    Phi(t) = (1/3) sum_j cos(t.v_{j+1}/2) sinc(t.v_j/2pi) sinc(t.v_{j+2}/2pi).
    """
    ang = np.pi / 6.0 + np.arange(6) * np.pi / 3.0
    verts = lat.delta_q / np.sqrt(3.0) * np.stack([np.cos(ang), np.sin(ang)],
                                                  axis=1)
    # t . v_j / 2 as an elementwise sum, not a BLAS product.
    half = [0.5 * (t[..., 0] * v[0] + t[..., 1] * v[1]) for v in verts]
    out = np.zeros(t.shape[:-1])
    for j in (0, 2, 4):
        out += (np.cos(half[j + 1]) * np.sinc(half[j] / np.pi)
                * np.sinc(half[(j + 2) % 6] / np.pi))
    return out / 3.0
