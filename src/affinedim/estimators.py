"""Point-cloud dimension estimators.

Dyadic grid box counting plus localized two-scale covering exponents for
Assouad-type and lower-type estimates.  All estimators refuse to count
below twice the cloud's resolution and report fit residuals.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .config import seeded_rng
from .errors import DegenerateRange

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


class Frozen:
    """Base of the slotted records that check or normalise their fields:
    `__init__` sets each field once through object.__setattr__, and no
    field can be rebound or deleted afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class PointCloud(Frozen):
    """Finite sample of a set with a stated resolution guarantee: 1-D
    points become one column, and the resolution must be positive."""

    __slots__ = ("points", "resolution")

    def __init__(self, points, resolution):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "resolution", resolution)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def bbox(self):
        if len(self.points) == 0:
            return np.zeros(self.dim), np.zeros(self.dim)
        cols = self.points.T
        return (np.array([c.min() for c in cols]),
                np.array([c.max() for c in cols]))

    @property
    def extent(self):
        lo, hi = self.bbox
        return float(np.max(hi - lo)) if len(self.points) else 0.0

    def __len__(self):
        return len(self.points)


class CoverReport(NamedTuple):
    scales: tuple
    counts: tuple
    dimension: float
    residual: float

    def to_json(self):
        return {"scales": list(self.scales), "counts": list(self.counts),
                "dimension": self.dimension, "residual": self.residual}


def grid_count(points, delta, anchor):
    """Number of delta-grid boxes (anchored at `anchor`) meeting the cloud.

    Boxes are half-open except the last one along each axis, so points
    sitting exactly on the far edge do not spawn a phantom extra box.
    Each axis is read as one column, which is contiguous when points is
    column-major; each occupied cell gets one int64 key, and the distinct
    keys are counted (see `_distinct`).  DegenerateRange is raised, before
    an axis is cast, when its scaled range is not finite or leaves the
    int64 range, and before any key is formed when the cells span more
    keys than an int64 holds.
    """
    if len(points) == 0:
        return 0
    cols = points.reshape(len(points), -1)
    anchor = np.broadcast_to(anchor, cols.shape[1:])
    keys, spans = 0, []
    for k in range(cols.shape[1]):
        cells, span = _cells(cols[:, k], anchor[k], delta, k)
        spans.append(span)
        if math.prod(spans) > INT64_MAX:
            raise DegenerateRange(
                f"grid of {spans} cells overflows an int64 key")
        keys = keys * span + cells
    return _distinct(keys, math.prod(spans))


def _cells(col, origin, delta, axis):
    """(cells, span): the delta-grid cell from origin of every coordinate
    of one axis, shifted to start at 0, and the number of cells between
    the least and the greatest.  The far edge folds into the last cell;
    rounding can put a point one cell below the origin, hence the shift.
    Raises DegenerateRange, before the cast, when the scaled range is not
    finite or leaves the int64 range."""
    scaled = col - origin
    scaled /= delta
    s_lo, s_hi = float(scaled.min()), float(scaled.max())
    if not (math.isfinite(s_lo) and math.isfinite(s_hi)) \
            or math.floor(s_lo) < INT64_MIN or math.ceil(s_hi) > INT64_MAX:
        raise DegenerateRange(f"axis {axis} spans scaled range "
                              f"[{s_lo}, {s_hi}] outside an int64")
    top = max(math.ceil(s_hi) - 1, 0)
    lo = min(math.floor(s_lo), top)
    cells = np.floor(scaled, out=scaled).astype(np.int64)
    # the clamp and the shift, each only where it moves a cell
    if math.floor(s_hi) > top:
        np.minimum(cells, top, out=cells)
    if lo:
        cells -= lo
    return cells, min(math.floor(s_hi), top) - lo + 1


# most grid cells whose keys `_distinct` marks in an occupancy array; a
# two-scale grid of the default pairs has at most 33 x 33
OCCUPANCY_CELLS = 2 ** 16


def _distinct(keys, n_cells):
    """Number of distinct keys in [0, n_cells): marked in an occupancy
    array on a small grid, counted between neighbours after a sort on a
    large one."""
    if n_cells <= OCCUPANCY_CELLS:
        seen = np.zeros(n_cells, dtype=bool)
        seen[keys] = True
        return int(np.count_nonzero(seen))
    keys.sort()
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def morton_keys(cells):
    """The Morton keys, as uint64, of cells given as one array of
    nonnegative integers per axis: bit b of axis k moves to bit
    b * dim + k over dim axes.  The caller keeps every key within 64
    bits.

    Each axis is spread by magic-mask steps, s = 2^m down to 1 with 2^m
    the least power of two that is at least half the bits of the widest
    cell: before a step the bits stand in blocks of 2s at multiples of
    2s * dim, and each step moves
    the upper half of every block s * (dim - 1) places up and keeps the
    blocks of s bits at multiples of s * dim."""
    dim = len(cells)
    keys = np.zeros(len(cells[0]), dtype=np.uint64)
    for k, col in enumerate(cells):
        bits = int(col.max(initial=0)).bit_length()
        x, s = col.astype(np.uint64), 1
        while 2 * s < bits:
            s *= 2
        while s:
            mask = sum(((1 << s) - 1) << j for j in range(0, 64, s * dim))
            x = (x | (x << np.uint64(s * (dim - 1)))) & np.uint64(mask)
            s //= 2
        keys |= x << np.uint64(k)
    return keys


def _dyadic_counts(points, anchor, delta, n_coarser):
    """Box counts at the scales delta * 2^j, j = n_coarser down to 0, of
    the cloud whose coordinates are at least anchor, from one sort.

    Each point's cells at the finest scale delta are those of
    `grid_count`; its cell at scale delta * 2^j is the finest cell shifted
    right by j bits on every axis, since floor(y / 2^j) =
    floor(floor(y) / 2^j), and the far-edge fold commutes with the shift.
    The Morton key interleaves the bits of the axes, so the key of the
    coarser cell is the finest key shifted right by dim * j bits: the
    distinct cells at that scale are the sorted keys whose neighbours
    differ above bit dim * j.  The caller keeps dim * (bits of a cell)
    under 63, and the cells start at 0 because anchor is the least
    coordinate."""
    cols = points.reshape(len(points), -1)
    dim = cols.shape[1]
    keys = morton_keys([_cells(cols[:, k], anchor[k], delta, k)[0]
                        for k in range(dim)])
    keys.sort()
    moved = keys[1:] ^ keys[:-1]
    return [int(np.count_nonzero(moved >> dim * j)) + 1
            for j in range(n_coarser, -1, -1)]


def box_dim(cloud, scale_lo=None, base=2.0):
    """Least-squares box-counting dimension over dyadic scales.

    scale_lo defaults to max(6*resolution, extent/2^12); the largest scale
    is extent/4.  Scales are geometric between the two; the fit slope of
    log N against log(1/delta) is returned with its rms residual.
    """
    if len(cloud) == 0:
        raise DegenerateRange("empty cloud")
    ext = cloud.extent
    if ext == 0.0:
        return CoverReport((cloud.resolution,) * 1, (1,), 0.0, 0.0)
    scale_hi = ext / 4.0
    if scale_lo is None:
        # keep a healthy margin above the cloud's net spacing by default;
        # callers may push down to the hard 2x floor explicitly
        scale_lo = max(6.0 * cloud.resolution, ext * 2.0 ** -12)
    if scale_lo < 2.0 * cloud.resolution:
        raise DegenerateRange(
            f"scale_lo {scale_lo} below 2x resolution {2 * cloud.resolution}")
    if not scale_lo < scale_hi:
        raise DegenerateRange(f"empty scale range [{scale_lo}, {scale_hi}]")
    # scales ext/base^k so the grid tiles the bounding box exactly;
    # otherwise boundary spill inflates coarse counts and biases the slope.
    # base 2 is the dyadic default; self-similar clouds can pass their own
    # contraction denominator to kill the log-periodic count oscillation.
    logb = math.log(base)
    k_lo = max(int(math.ceil(math.log(ext / scale_hi) / logb)), 1)
    k_hi = int(math.floor(math.log(ext / scale_lo) / logb))
    if k_hi - k_lo + 1 < 5:
        raise DegenerateRange(
            f"fewer than 5 base-{base} scales in [{scale_lo}, {scale_hi}]")
    deltas = ext / base ** np.arange(k_lo, k_hi + 1)
    # 1 / delta overflows below about 5.6e-309, and the fit with it
    with np.errstate(over="ignore"):
        x = np.log(1.0 / deltas)
    if not np.isfinite(x).all():
        raise DegenerateRange(f"finest scale {deltas[-1]} has no finite "
                              "log(1/delta)")
    anchor = cloud.bbox[0]
    # at base 2 the scales ext / 2^k halve exactly while the finest is a
    # normal float, so one sort gives every count when its key fits
    if base == 2.0 and cloud.dim * k_hi <= 62 \
            and deltas[-1] >= sys.float_info.min:
        counts = _dyadic_counts(cloud.points, anchor, deltas[-1],
                                k_hi - k_lo)
    else:
        counts = [grid_count(cloud.points, d, anchor) for d in deltas]
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    dimension = float(min(max(slope, 0.0), cloud.points.shape[1]))
    return CoverReport(tuple(float(d) for d in deltas), tuple(counts),
                       dimension, resid)


def _default_pairs(cloud):
    """Up to four scale pairs (16 r, r), r halving from extent/16 down to
    twice the resolution, so R falls along the list."""
    ext = cloud.extent
    r_min = 2.0 * cloud.resolution
    pairs = []
    r = ext / 16.0
    while r >= r_min and len(pairs) < 4:
        pairs.append((r * 16.0, r))
        r /= 2.0
    if not pairs:
        raise DegenerateRange("cloud too coarse for two-scale estimates")
    return pairs


def _covering_count(points, dist, center, R, r):
    """Grid-box count at mesh r of the points within distance R of center,
    with those points and their distances `dist`, from which every smaller
    ball about the same center is cut.  points is column-major, (m, dim)
    over a (dim, m) array, and so are the points kept."""
    inside = np.flatnonzero(dist <= R)
    local = points.T.take(inside, axis=1).T
    dist = dist.take(inside)
    n = grid_count(local, r, center - R) if len(local) else 0
    return n, local, dist


# centers that the two-scale estimates sample from the cloud
N_CENTERS = 32


def two_scale_exponents(cloud, seed):
    """log N(B(x,R), r) / log(R/r) for every count N >= 1, over N_CENTERS
    sampled centers x (cloud points) and the `_default_pairs` (R, r).

    The distances to a center are computed once, and the pairs are walked
    in their order, from the largest R down, each ball cut from the
    previous one: with the same distances B(x, R') is a subset of B(x, R)
    for R' <= R.  The cloud is copied once to columns, so every axis the
    walk reads is contiguous.
    """
    pairs = _default_pairs(cloud)
    rng = seeded_rng(seed)
    idx = rng.choice(len(cloud), size=min(N_CENTERS, len(cloud)), replace=False)
    cols = np.ascontiguousarray(cloud.points.T)
    out = []
    for center in cloud.points[idx]:
        # the operations np.linalg.norm(axis=1) does, one column at a time
        diffs = [col - c for col, c in zip(cols, center)]
        points, dist = cols.T, np.sqrt(sum(d * d for d in diffs))
        for R, r in pairs:
            n, points, dist = _covering_count(points, dist, center, R, r)
            if n >= 1:
                out.append(math.log(n) / math.log(R / r))
    return out


def lowest_exponent(exponents):
    """The least two-scale exponent; DegenerateRange when there is none."""
    if not exponents:
        raise DegenerateRange("no usable center/scale pair")
    return min(exponents)


def assouad_two_scale(cloud, seed=7):
    """Localized covering exponent, maximized over centers and scale pairs.

    max over x and (R, r) of log N(B(x,R), r) / log(R/r): a finite-sample
    lower estimate of the Assouad dimension.
    """
    return max(two_scale_exponents(cloud, seed), default=0.0)


def lower_two_scale(cloud, seed=7):
    """Minimized localized covering exponent over the default scale pairs:
    an upper estimate of the lower dimension.  Centers are cloud points,
    as the definition quantifies over x in the set itself."""
    return lowest_exponent(two_scale_exponents(cloud, seed))
