"""Point-cloud dimension estimators.

Dyadic grid box counting plus localized two-scale covering exponents for
Assouad-type and lower-type estimates, and an Ahlfors regularity
diagnostic driven by cylinder weights.  All estimators refuse to count
below twice the cloud's resolution and report fit residuals.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DegenerateRange


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a set with a stated resolution guarantee."""

    points: np.ndarray
    resolution: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def bbox(self):
        if len(self.points) == 0:
            return np.zeros(self.dim), np.zeros(self.dim)
        return self.points.min(axis=0), self.points.max(axis=0)

    @property
    def extent(self):
        lo, hi = self.bbox
        return float(np.max(hi - lo)) if len(self.points) else 0.0

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class CoverReport:
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
    Each occupied cell gets one int64 key, and the distinct keys are
    counted; DegenerateRange is raised when the cells span more keys than
    an int64 holds.
    """
    if len(points) == 0:
        return 0
    scaled = (points - anchor) / delta
    cells = np.floor(scaled).astype(np.int64)
    top = np.maximum(np.ceil(scaled.max(axis=0)).astype(np.int64) - 1, 0)
    cells = np.minimum(cells, top).reshape(len(points), -1)
    # rounding can put a point one cell below the anchor, so shift each
    # axis to start at 0 before the cells are linearised
    lo = cells.min(axis=0)
    spans = [int(h) - int(l) + 1 for h, l in zip(cells.max(axis=0), lo)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise DegenerateRange(f"grid of {spans} cells overflows an int64 key")
    cells -= lo
    keys = cells[:, 0]
    for k in range(1, cells.shape[1]):
        keys = keys * spans[k] + cells[:, k]
    keys.sort()
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def box_dim(cloud, scale_lo=None, scale_hi=None, base=2.0):
    """Least-squares box-counting dimension over dyadic scales.

    scale_lo defaults to max(2*resolution, extent/2^10); scale_hi to
    extent/4.  Scales are geometric between the two; the fit slope of
    log N against log(1/delta) is returned with its rms residual.
    """
    if len(cloud) == 0:
        raise DegenerateRange("empty cloud")
    ext = cloud.extent
    if ext == 0.0:
        return CoverReport((cloud.resolution,) * 1, (1,), 0.0, 0.0)
    if scale_hi is None:
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
    anchor = cloud.bbox[0]
    counts = [grid_count(cloud.points, d, anchor) for d in deltas]
    x = np.log(1.0 / deltas)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    dimension = float(min(max(slope, 0.0), cloud.points.shape[1]))
    return CoverReport(tuple(float(d) for d in deltas), tuple(counts),
                       dimension, resid)


def _default_pairs(cloud, n_pairs=4, ratio=16.0):
    ext = cloud.extent
    r_min = 2.0 * cloud.resolution
    pairs = []
    r = ext / ratio
    while r >= r_min and len(pairs) < n_pairs:
        pairs.append((r * ratio, r))
        r /= 2.0
    if not pairs:
        raise DegenerateRange("cloud too coarse for two-scale estimates")
    return pairs


def _covering_count(points, center, R, r):
    """Grid-box count of the cloud restricted to B(center, R) at mesh r."""
    d = np.linalg.norm(points - center, axis=1)
    local = points[d <= R]
    if len(local) == 0:
        return 0
    return grid_count(local, r, center - R)


def assouad_two_scale(cloud, pairs=None, n_centers=32, seed=7):
    """Localized covering exponent, maximized over centers and scale pairs.

    max over x and (R, r) of log N(B(x,R), r) / log(R/r): a finite-sample
    lower estimate of the Assouad dimension.
    """
    if pairs is None:
        pairs = _default_pairs(cloud)
    for R, r in pairs:
        if r < 2.0 * cloud.resolution or R / r < 8.0:
            raise DegenerateRange(f"bad scale pair ({R}, {r})")
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.choice(len(cloud), size=min(n_centers, len(cloud)), replace=False)
    best = 0.0
    for center in cloud.points[idx]:
        for R, r in pairs:
            n = _covering_count(cloud.points, center, R, r)
            if n > 1:
                best = max(best, math.log(n) / math.log(R / r))
    return best


def lower_two_scale(cloud, pairs=None, n_centers=32, seed=7):
    """Minimized localized covering exponent: an upper estimate of the
    lower dimension.  Centers are cloud points, as the definition
    quantifies over x in the set itself."""
    if pairs is None:
        pairs = _default_pairs(cloud)
    for R, r in pairs:
        if r < 2.0 * cloud.resolution or R / r < 8.0:
            raise DegenerateRange(f"bad scale pair ({R}, {r})")
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.choice(len(cloud), size=min(n_centers, len(cloud)), replace=False)
    worst = math.inf
    for center in cloud.points[idx]:
        for R, r in pairs:
            n = _covering_count(cloud.points, center, R, r)
            if n >= 1:
                worst = min(worst, math.log(max(n, 1)) / math.log(R / r))
    if not math.isfinite(worst):
        raise DegenerateRange("no usable center/scale pair")
    return worst


def regularity_diagnostic(cloud, weights, s, radii=None, n_centers=24, seed=3,
                          threshold=50.0):
    """Ahlfors envelope of a weighted cloud: spread of mu(B(x,r))/r^s.

    weights is an array of per-point masses summing to ~1 (cylinder
    weights pushed to canonical points).  Returns the max and min ratio
    over a grid of cloud centers and radii spanning two decades, plus a
    verdict flag (regular iff max/min <= threshold).
    """
    weights = np.asarray(weights, dtype=float)
    if radii is None:
        ext = cloud.extent
        radii = np.geomspace(ext / 4.0, max(4.0 * cloud.resolution, ext / 400.0), 6)
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.choice(len(cloud), size=min(n_centers, len(cloud)), replace=False)
    ratios = []
    for center in cloud.points[idx]:
        d = np.linalg.norm(cloud.points - center, axis=1)
        for r in radii:
            mass = weights[d <= r].sum()
            if mass > 0:
                ratios.append(mass / r ** s)
    ratios = np.array(ratios)
    mx, mn = float(ratios.max()), float(ratios.min())
    return {"max_ratio": mx, "min_ratio": mn, "spread": mx / mn,
            "regular": mx / mn <= threshold}
