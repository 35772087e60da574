"""Fine-geometric apparatus: separation conditions, projected cylinder
counting, slices, weak tangents, Hausdorff content of projections, and
the transversality derivative of projected distances.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .config import seeded_rng, word_cap
from .errors import BudgetExceeded, DegenerateRange, HypothesisViolated, \
    NotDominated, NotSeparated
from .estimators import PointCloud, box_dim, morton_keys
from .ifs import batch_singular_values, compose, derived, mul2, pull_back
from .projective import PI, ProjPoint, furstenberg_directions
from .roots import brentq
from .thermo import _cylinder_directions, affinity_dimension, \
    equilibrium_state

# ---------------------------------------------------------------------------
# projected diameters

# angles on the grid of DiameterTable
DIAM_GRID = 720


class DiameterTable:
    """diam(proj_u X) indexed by the angle of the projection axis u.

    Precomputed on a uniform grid from a certified cylinder cloud; the
    map is 2*diam-Lipschitz in the angle, which gives a certified upper
    bound between grid nodes.
    """

    def __init__(self, ifs, depth=8):
        depth = ifs._fit_depth(depth)
        hull, radius = ifs._hull(depth)
        # the suffix-level centres, which the hull never reads;
        # perfbench's tracer sizes the table from the first
        # _cylinder_centers call under it
        ifs._cylinder_centers(ifs._suffix_level(depth))
        self.err = 2.0 * float(radius)
        self.thetas = np.linspace(0.0, PI, DIAM_GRID, endpoint=False)
        dirs = np.stack([np.cos(self.thetas), np.sin(self.thetas)])
        # a linear function is largest on a hull vertex, so only the hull
        # is projected
        proj = hull @ dirs
        self.widths = proj.max(axis=0) - proj.min(axis=0)
        self.step = PI / DIAM_GRID
        self.lip = 2.0 * float(ifs.diam_upper)

    def upper(self, theta):
        """Certified upper bound at an angle or an array of angles."""
        theta = np.mod(theta, PI)
        k = np.rint(theta / self.step).astype(int) % len(self.thetas)
        d = np.abs(theta - self.thetas[k])
        return self.widths[k] + self.lip * np.minimum(d, PI - d) + self.err


@derived
def _diam_table(ifs):
    return DiameterTable(ifs)


def _axis(v):
    """Unit vector u spanning the perpendicular of the direction v."""
    u_theta = v.angle + PI / 2.0
    return np.array([math.cos(u_theta), math.sin(u_theta)])


def _hull_half_widths(ifs, mats, u):
    """Certified half-widths |A_w^T u| * ball radius of the projections of
    the cylinders phi_w(X) to the unit axis u, one per product A_w."""
    return np.linalg.norm(pull_back(mats, u), axis=1) * ifs.ball_radius


def projected_diameter_bound(ifs, mats, direction):
    """Certified upper bounds for diam(proj_{V_perp} phi_w(X)), one per
    product A_w of a (k,2,2) stack, via the factorization through the
    pulled-back projection axis A_w^T u."""
    au = pull_back(mats, _axis(direction))
    return np.linalg.norm(au, axis=1) \
        * _diam_table(ifs).upper(np.arctan2(au[:, 1], au[:, 0]))


# ---------------------------------------------------------------------------
# strong separation


class SscReport(NamedTuple):
    separated: str          # Certified | Overlap | Unknown
    delta_lower: float
    delta_upper: float
    depth: int

    def to_json(self):
        return {"separated": self.separated, "delta_lower": self.delta_lower,
                "delta_upper": self.delta_upper, "depth": self.depth}


def _first_level_clouds(ifs, depth):
    """Centres and error radii of the depth-n cylinders, one pair of
    arrays for each first letter."""
    pts, errs = ifs._cylinder_centers(depth)
    return list(zip(np.split(pts, ifs.n_maps), np.split(errs, ifs.n_maps)))


# pairs of blocks expanded at once in `_least_gap`; the live pairs stay
# within a few times this per level whatever the clouds look like
_PAIR_CHUNK = 1 << 14


def _block_tree(pts, errs):
    """A cloud as `_least_gap` reads it.  The points, with their error
    radii, are sorted along the Morton curve of a 2^32 x 2^32 grid over
    their bounding box; level k holds the bounding boxes (lo, hi) and the
    largest radius of the blocks of 2^k consecutive points, from single
    points to the whole cloud.  The last block of a level may be short."""
    cells = []
    for x in pts.T:
        lo, hi = x.min(), x.max()
        cells.append(((x - lo) / ((hi - lo) or 1.0)
                      * float(2 ** 32 - 1)).astype(np.uint64))
    order = np.argsort(morton_keys(cells), kind="stable")
    pts = pts[order]
    levels = [(pts, pts, errs[order])]
    while len(levels[-1][0]) > 1:
        lo, hi, rad = levels[-1]
        if len(lo) % 2:
            lo, hi, rad = (np.concatenate([x, x[-1:]]) for x in (lo, hi, rad))
        levels.append((np.minimum(lo[0::2], lo[1::2]),
                       np.maximum(hi[0::2], hi[1::2]),
                       np.maximum(rad[0::2], rad[1::2])))
    return levels


def _lengths(v):
    """Euclidean lengths of the rows of a (k, 2) array, as
    sqrt(x*x + y*y), for box distances and point distances alike."""
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def _least_gap(tree_i, tree_j):
    """(least, upper) over the points a of one cloud and b of another of
    the same size, given as block trees: the least of |a - b| - (e_a + e_b)
    with their error radii, and |a - b| + e_a + e_b at a pair that attains
    it.

    Exact branch and bound over the blocks of the Morton-sorted clouds,
    which are spatially compact however the cylinders of the clouds
    overlap.  Pairs of blocks are refined one level at a time into their
    four child pairs, a bounded number of pairs at a time and depth first.
    A pair is dropped when its bound, the distance between its boxes less
    the largest radii of its two blocks, is not below the least value seen
    at the first points of the pairs.  Rounding is monotone, so no bound
    exceeds a value of its pair, and no least pair is dropped.
    """
    (pi, _, ei), (pj, _, ej) = tree_i[0], tree_j[0]
    least = upper = math.inf
    r = np.arange(2)
    # one pair above the whole-cloud boxes, whose child pairs hold them
    root = np.zeros(1, dtype=np.int64)
    stack = [(len(tree_i), root, root)]
    while stack:
        k, a, b = stack.pop()
        if len(a) > _PAIR_CHUNK:
            stack.append((k, a[_PAIR_CHUNK:], b[_PAIR_CHUNK:]))
            a, b = a[:_PAIR_CHUNK], b[:_PAIR_CHUNK]
        k -= 1
        (lo_i, hi_i, ri), (lo_j, hi_j, rj) = tree_i[k], tree_j[k]
        shape = (len(a), 2, 2)
        a = np.broadcast_to((2 * a)[:, None, None] + r[:, None], shape).ravel()
        b = np.broadcast_to((2 * b)[:, None, None] + r, shape).ravel()
        real = (a < len(lo_i)) & (b < len(lo_j))
        a, b = a[real], b[real]
        d = _lengths(pi[a << k] - pj[b << k])
        e = ei[a << k] + ej[b << k]
        gap = d - e
        t = np.argmin(gap)
        if gap[t] < least:
            least, upper = float(gap[t]), float(d[t] + e[t])
        bound = _lengths(np.maximum(
            np.maximum(lo_j[b] - hi_i[a], lo_i[a] - hi_j[b]), 0.0)) \
            - (ri[a] + rj[b])
        keep = bound < least
        if k and keep.any():
            stack.append((k, a[keep], b[keep]))
    return least, upper


def _pair_scan(ifs, depth):
    """(least gap, upper bound) over the first-level pairs at depth: the
    least of |a - b| - e_a - e_b over the centres a, b of depth-n
    cylinders with different first letters and their error radii, and
    the least of the upper bounds of `_least_gap`."""
    trees = [_block_tree(*g) for g in _first_level_clouds(ifs, depth)]
    gaps = [_least_gap(trees[i], trees[j])
            for i, j in itertools.combinations(range(ifs.n_maps), 2)]
    return min(g[0] for g in gaps), min(g[1] for g in gaps)


def ssc_check(ifs, depth=6):
    """Tri-state strong separation check from cylinder-center clouds.

    Certified: the least gap of `_pair_scan` is positive, so the cylinder
    balls of different first letters are disjoint.  Overlap: some cross
    pair of cylinder balls intersects at depth and at each deeper fitted
    depth of depth + 1 and depth + 2, each scanned once: at the fitted
    ceiling, fewer than three depths.  Unknown otherwise.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    depth = ifs._fit_depth(depth)
    lo, hi = _pair_scan(ifs, depth)
    if lo > 0:
        return SscReport("Certified", lo, hi, depth)
    # persistence test: the intersecting-ball condition, just seen at
    # depth, must hold at each deeper fitted depth to be an overlap
    deeper = {ifs._fit_depth(d) for d in (depth + 1, depth + 2)} - {depth}
    if lo < 0 and all(_pair_scan(ifs, d)[0] < 0 for d in sorted(deeper)):
        return SscReport("Overlap", 0.0, max(hi, 0.0), depth)
    return SscReport("Unknown", 0.0, max(hi, 0.0), depth)


# ---------------------------------------------------------------------------
# projective open set condition


class PoscReport(NamedTuple):
    eta_hat: float
    eta_by_depth: dict
    trend: float | None
    appears_to_hold: bool

    def to_json(self):
        return {"eta_hat": self.eta_hat,
                "eta_by_depth": {str(k): v for k, v in self.eta_by_depth.items()},
                "trend": self.trend,
                "appears_to_hold": self.appears_to_hold}


def _proj_stop(ifs, v, r):
    """Stop rule of the projected stopping sets: the certified projected
    diameter bound in direction v is at most r."""
    return lambda mats, pts, a1: projected_diameter_bound(ifs, mats, v) <= r


def _proj_stopping(ifs, v, r, cap=None):
    """Cylinders, in the emission order of `Ifs.frontier`, that stop once
    the certified projected diameter bound in direction v is at most r."""
    return ifs.frontier(_proj_stop(ifs, v, r), cap=cap)


# directions on the grid over the limit-direction intervals of posc_check
POSC_DIRECTIONS = 5
# rows that posc_check pairs with each row: the next ones in the order of
# the projected centres
POSC_PAIRS = 7


def _least_pair(projs):
    """(i, j, eta): the pair of rows of projs, the projected images of one
    sample under each stopping word, with the least normalised separation
    eta = max |projs[i] - projs[j]| / max(ptp projs[i], ptp projs[j])
    among the pairs up to POSC_PAIRS apart in the order of the projected
    centres; the earliest such pair wins a tie.  Row a, column d - 1 of
    the table holds the pair (a, a + d) of the sorted rows, so the flat
    argmin is a-major and each column is one difference of two slices."""
    hi, lo = projs.max(axis=1), projs.min(axis=1)
    order = np.argsort(0.5 * (hi + lo))
    sp, sd = projs[order], np.maximum(hi - lo, 1e-300)[order]
    m = len(projs)
    vals = np.full((m, POSC_PAIRS), math.inf)
    for d in range(1, min(m, POSC_PAIRS + 1)):
        vals[:m - d, d - 1] = np.abs(sp[:m - d] - sp[d:]).max(axis=1) \
            / np.maximum(sd[:m - d], sd[d:])
    a, d = divmod(int(np.argmin(vals)), POSC_PAIRS)
    return order[a], order[a + d + 1], vals[a, d]


def posc_check(ifs, depth=6):
    """Empirical projective open set condition scan.

    For POSC_DIRECTIONS directions V on a grid over the limit-direction
    intervals, for 64 chaos-game points x of seed 0, and for word pairs
    from projected-diameter stopping sets at dyadic scales, the normalized
    separation max_x |proj(phi_i x) - proj(phi_j x)| / diam(proj phi_i X)
    is minimized over (V, pair).  Reported per depth with the log-slope
    trend; slope near zero is evidence the condition holds, a clearly
    negative slope is evidence it fails.  A zero separation fails it and
    has no trend (None).
    """
    da = furstenberg_directions(ifs, depth=30)
    per_interval = POSC_DIRECTIONS // len(da.cone.starts) + 1
    directions = [ProjPoint(angle) for angle
                  in da.sample_angles(per_interval)[:POSC_DIRECTIONS]]
    xs = ifs.chaos_game(0, 64)
    eta_by_depth = {}
    for k in range(2, depth + 1):
        eta_k = math.inf
        for v in directions:
            u = _axis(v)
            r = _diam_table(ifs).upper(v.angle + PI / 2.0) * 2.0 ** (-k)
            try:
                found = _proj_stopping(ifs, v, r, min(word_cap(), 4000))
            except BudgetExceeded:
                continue
            if len(found) < 2:
                continue
            # projected images of the x-sample under every stopping word:
            # u . phi_w(x) = (A_w^T u) . (x - c) + u . phi_w(c)
            projs = pull_back(found.mats, u) @ (xs - ifs.ball_center).T \
                + (found.pts @ u)[:, None]
            i, j, eta = _least_pair(projs)
            if eta < eta_k:
                # recompute the winning pair from its composed maps, which
                # round apart from the walk's products and points
                t = [(mul2(found.mats[w], xs[..., None])[..., 0]
                      + ifs.compose_word(found.word(ifs, w))[1]) @ u
                     for w in (i, j)]
                eta_k = np.abs(t[0] - t[1]).max() \
                    / max(np.ptp(t[0]), np.ptp(t[1]), 1e-300)
        if math.isfinite(eta_k):
            eta_by_depth[k] = float(eta_k)
    if not eta_by_depth:
        raise NotDominated("no usable scale for the scan")
    eta_hat = float(min(eta_by_depth.values()))
    if eta_hat == 0.0:
        # two cylinders share their projected images: log 0 has no trend
        return PoscReport(eta_hat, eta_by_depth, None, False)
    ks = np.array(sorted(eta_by_depth))
    ys = np.log([eta_by_depth[k] for k in ks])
    trend = float(np.polyfit(ks, ys, 1)[0]) if len(ks) > 1 else 0.0
    return PoscReport(eta_hat, eta_by_depth, trend, trend > -0.05)


# ---------------------------------------------------------------------------
# projected cylinder counting


def _misses(ifs, v, x, r):
    """Prune rule of `sigma_count`: the certified projected hull of the
    cylinder misses the interval of radius r around the projection of x.
    The hulls of its children stay inside its own."""
    u = _axis(v)
    t0 = float(np.asarray(x, dtype=float) @ u)
    return lambda mats, pts, a1: \
        np.abs(pts @ u - t0) > r + _hull_half_widths(ifs, mats, u)


def sigma_count(ifs, v, x, r):
    """Count stopping words (by projected diameter in direction v) whose
    projected cylinder hull meets the interval of radius r around the
    projection of x, and list them in the emission order of
    `Ifs.frontier`.  Boundary-ambiguous words are included, so the count
    is an upper bound."""
    if not 0.0 < r < _diam_table(ifs).upper(v.angle + PI / 2.0):
        raise ValueError("r outside (0, projected diameter)")
    words = ifs.frontier(_proj_stop(ifs, v, r),
                         _misses(ifs, v, x, r)).words(ifs)
    return len(words), words


# ---------------------------------------------------------------------------
# slices


def slice_points(ifs, v, x, tube_width, resolution):
    """Attractor sample inside the tube of the line through x in
    direction v; returns 1-D along-line coordinates."""
    if tube_width < 2.0 * resolution * ifs.diam_upper:
        raise ValueError("tube narrower than twice the sample resolution")
    cloud = ifs.attractor_sample(resolution)
    x = np.asarray(x, dtype=float)
    d = v.vector
    u = v.perp.vector
    rel = cloud.points - x
    mask = np.abs(rel @ u) <= tube_width
    coords = rel[mask] @ d
    return PointCloud(coords[:, None], cloud.resolution)


def slice_upper_bound(ifs, depth=6):
    """Upper bound < 1 for slice dimensions from the separation gap of
    `ssc_check` at depth: the root of M^(1-s) (1 - (M-1) q)^s = 1 with
    q = delta/(3 diam + 2 delta), maximized over the number of first-level
    branches M."""
    ssc = ssc_check(ifs, depth)
    if ssc.separated != "Certified":
        raise NotSeparated("needs a certified positive separation gap")
    delta = ssc.delta_lower
    diam = ifs.diam_upper
    q = delta / (3.0 * diam + 2.0 * delta)
    return max([0.0] + [slice_root(m, q) for m in range(2, ifs.n_maps + 1)])


def slice_root(m, q):
    """Root of M^(1-s)(1-(M-1)q)^s = 1 for one branch count; exposed for
    the closed-form cross checks."""
    c = 1.0 - (m - 1) * q
    if c <= 0.0:
        return 0.0
    return brentq(lambda s: (1.0 - s) * math.log(m) + s * math.log(c),
                  0.0, 1.0, xtol=1e-14)


# ---------------------------------------------------------------------------
# weak tangents


def weak_tangent(ifs, x, r, resolution):
    """Magnified window: the PointCloud, of the given resolution, of a
    cylinder-center sample of X inside B(x, r), mapped through
    z -> (z - x)/r and clipped to the closed unit ball."""
    if r <= 0 or resolution <= 0:
        raise ValueError("r and resolution must be positive")
    x = np.asarray(x, dtype=float)
    rad = ifs.ball_radius
    # prune cylinders that cannot meet the window
    pts = ifs.frontier(
        lambda mats, pts, a1: a1 * rad <= resolution * r,
        prune=lambda mats, pts, a1: _lengths(pts - x) > r + a1 * rad).pts
    z = (pts - x) / r
    nrm = _lengths(z)
    keep = nrm <= 1.0 + resolution
    z, nrm = z[keep], nrm[keep]
    over = nrm > 1.0
    z[over] /= nrm[over, None]
    return PointCloud(z, resolution)


def grid_carpet_digits(ifs):
    """(p, q, digits) when every map of `ifs` is z -> diag(1/p, 1/q) z +
    (j/p, k/q) with integers q > p >= 2, 0 <= j < p, 0 <= k < q and the
    digits (j, k) distinct, as `carpets.to_ifs` builds them; digits are in
    map order.  None for any other family.  Entries are matched to 1e-9."""
    tol = 1e-9
    diag, off = ifs.lins[:, [0, 1], [0, 1]], ifs.lins[:, [0, 1], [1, 0]]
    if (np.abs(off) > tol).any():
        return None
    p, q = round(1.0 / diag[0, 0]), round(1.0 / diag[0, 1])
    if not q > p >= 2:
        return None
    cells = ifs.vs * (p, q)
    jk = np.rint(cells)
    if (np.abs(diag * (p, q) - 1.0) > tol).any() \
            or (np.abs(cells - jk) > tol).any() \
            or not ((jk >= 0) & (jk < (p, q))).all():
        return None
    digits = [(int(j), int(k)) for j, k in jk]
    if len(set(digits)) != len(digits):
        return None
    return p, q, digits


def _least_int(ok, guess):
    """Least n >= 0 with ok(n), for a predicate that stays true once it
    holds, searched from a float guess."""
    n = max(int(guess), 0)
    while n > 0 and ok(n - 1):
        n -= 1
    while not ok(n):
        n += 1
    return n


def _square_rows(p, q, k):
    """Rows fixed by a level-k approximate square: the least L with
    q^L >= p^k, so its height q^-L is at most its width p^-k."""
    return _least_int(lambda n: q ** n >= p ** k,
                      k * math.log(p) / math.log(q))


def approximate_square_counts(p, q, digits, word, depth, n_scales):
    """Exact covering numbers of a grid carpet's approximate square.

    The level-k approximate square Q_k(w) holds the points whose code
    agrees with w in the first L(k) digits and in the column of digits
    L(k)+1..k, L(k) = `_square_rows(p, q, k)`: a grid rectangle of width
    p^-k and height q^-L(k) <= p^-k.  Entry j of the result is the number
    of level-(depth + j) approximate squares inside Q_depth(word), for
    j = 0..n_scales.  It is the product over the newly fixed digit
    positions of the free choices there: the count of the column of w_i
    where only the row is free, N where the whole digit is, and the number
    of nonempty columns where only the column is.  `word` holds map
    indices into `digits` and has at least `depth` letters; counts are
    Python ints.
    """
    if len(word) < depth:
        raise ValueError("word shorter than the window depth")
    column = {}
    for j, _ in digits:
        column[j] = column.get(j, 0) + 1
    rows0 = _square_rows(p, q, depth)
    counts = []
    for k in range(depth, depth + n_scales + 1):
        rows = _square_rows(p, q, k)
        n = len(column) ** (k - max(rows, depth))
        for i in range(rows0, rows):
            n *= column[digits[word[i]][0]] if i < depth else len(digits)
        counts.append(n)
    return counts


# random base words or points of each tangent scan
N_TANGENTS = 8


def _grid_tangent_scan(p, q, digits, seed, resolution):
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    # p^J >= 1/resolution, and the deepest window fixes rows only where
    # the base square already fixes columns: q^K >= p^(K+J)
    n_scales = max(_least_int(lambda j: p ** j * resolution >= 1.0,
                              -math.log(resolution) / math.log(p)), 1)
    theta = math.log(p) / math.log(q)
    depth = _least_int(lambda k: q ** k >= p ** (k + n_scales),
                       theta * n_scales / (1.0 - theta))
    cap = word_cap()
    letters = (N_TANGENTS + len(digits)) * depth
    if letters > cap:
        raise BudgetExceeded(cap, letters)
    rng = seeded_rng(seed)
    words = list(rng.integers(len(digits), size=(N_TANGENTS, depth)))
    words += [[i] * depth for i in range(len(digits))]
    x = np.arange(n_scales + 1) * math.log(p)
    dims = []
    for w in words:
        y = [math.log(n) for n in
             approximate_square_counts(p, q, digits, w, depth, n_scales)]
        dims.append(float(min(np.polyfit(x, y, 1)[0], 2.0)))
    return {"max_dim": max(dims), "min_dim": min(dims), "dims": dims}


def tangent_dimension_scan(ifs, seed, resolution=0.002):
    """Dimension estimates of weak tangent windows.  The max is a
    tangent-based lower estimate of the Assouad dimension and the min an
    upper estimate of the lower dimension.

    A grid carpet (see `grid_carpet_digits`) is scanned exactly.  Its
    windows are approximate squares Q_K(w) with p^J >= 1/resolution and
    K the least depth with q^K >= p^(K+J).  A window's dimension is the
    slope of log N_j against j log p, where N_j, j = 0..J, are the exact
    counts of `approximate_square_counts`.  The base words are
    N_TANGENTS random words of the seed, then the constant word of each
    map, i.e. its fixed point, since only digits that stay in the
    heaviest column reach the Assouad dimension.  No word is enumerated.

    Any other family is scanned by box-dimension fits of `weak_tangent`
    point clouds at randomized base points and at the dyadic scales 2^-2
    to 2^-5 of the diameter; windows whose sample only touches the unit
    sphere are discarded."""
    grid = grid_carpet_digits(ifs)
    if grid is not None:
        return _grid_tangent_scan(*grid, seed, resolution)
    scales = [2.0 ** -k for k in range(2, 6)]
    rng = seeded_rng(seed)
    base = ifs.chaos_game(seed, max(N_TANGENTS * 4, 64))
    idx = rng.choice(len(base), size=N_TANGENTS, replace=False)
    dims = []
    for x in base[idx]:
        r = scales[int(rng.integers(len(scales)))] * ifs.diam_upper
        window = weak_tangent(ifs, x, r, resolution)
        if len(window) < 16:
            continue
        inner = np.linalg.norm(window.points, axis=1) < 0.999
        if not inner.any():
            continue
        try:
            # the window sample is honest down to resolution * r, so the
            # fit may use the hard 2x floor rather than box_dim's default
            rep = box_dim(window, scale_lo=2.0 * resolution)
        except DegenerateRange:
            continue
        dims.append(rep.dimension)
    if not dims:
        raise ValueError("no usable tangent window")
    return {"max_dim": max(dims), "min_dim": min(dims), "dims": dims}


# ---------------------------------------------------------------------------
# Hausdorff content of projections


def _union_blocks(ivs):
    """Starts and ends of the maximal blocks, left to right, of the union
    of the rows [a, b] of ivs with a < b.  Ties in a leave the blocks as
    they are, so one unstable sort orders the rows."""
    keep = ivs[:, 1] > ivs[:, 0]
    a, b = ivs[:, 0][keep], ivs[:, 1][keep]
    if len(a) == 0:
        return a, b
    order = np.argsort(a)
    a, b = a[order], b[order]
    reach = np.maximum.accumulate(b)
    opens = np.concatenate(([True], a[1:] > reach[:-1]))
    closes = np.append(opens[1:], True)
    return a[opens], reach[closes]


def _gap_order(gaps):
    """Indices of the positive gaps in ascending order, each run of equal
    gaps right to left: the order of np.lexsort((-np.arange(m), gaps))
    from two unstable sorts, which take a third of its time on projected
    hulls.  The key is built in place; with more temporaries, these two
    helpers raise the peak RSS of `verify content cone` by about 1 MiB."""
    first = np.argsort(gaps)
    key = np.zeros(len(gaps), dtype=np.int64)
    # the number of the run of equal gaps that each sorted gap is in
    np.cumsum(np.diff(gaps[first]) != 0.0, out=key[1:])
    key *= len(gaps)
    key -= first
    return first[np.argsort(key)]


def interval_content(intervals, s):
    """Largest-gap estimate of the s-content of a finite union of closed
    intervals.

    The merged union is split recursively at its leftmost largest gap, and
    each block costs min(hull^s, cost(left) + cost(right)).  That is the
    cost of one cover by block hulls, so it bounds the s-content from
    above: it is the merged length at s = 1, but for s < 1 it can exceed
    the exact minimum over all covers by hulls of contiguous blocks.

    The split tree is built bottom-up, in rounds.  Gaps are ranked in
    ascending order, equal gaps right to left, the order in which merging
    adjacent blocks one gap at a time gives the same blocks as the
    recursion.  A gap is ready when its rank is below the ranks of the two
    gaps just outside the blocks it joins, the ends of the union ranking
    above every gap.  Then both blocks are complete, and the gap joins them
    with the same operands as in the one-at-a-time merge.  No two ready
    gaps touch, so a round merges all of them in one vectorised step, and
    the only gap a merged block can make ready is its parent, the lower
    ranked of the two gaps around it.  So the value is that of the
    one-at-a-time merge bit for bit.  x**s is np.float_power(x, s), whose
    float64 loop calls libm pow as float.__pow__ does; np.power's SIMD
    kernel differs in the last bit on 3,410 of the 59,049 depth-10 hull
    lengths of `cone` at its affinity dimension on an AVX-512 CPU.

    The loop runs once per level of the split tree, which is shallow on
    projected cylinder hulls.  A union whose tree is a chain, with gaps
    that grow from one end or are all equal, takes one round per gap, and
    a round is a few dozen numpy calls.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("s must be in (0, 1]")
    if not isinstance(intervals, np.ndarray):
        intervals = list(intervals)
    ivs = np.asarray(intervals, dtype=float).reshape(len(intervals), 2)
    starts, ends = _union_blocks(ivs)
    n = len(starts)
    if n == 0:
        return 0.0

    # Gap c, for 0 < c < n, lies between merged intervals c - 1 and c,
    # and right[c] is the end of interval c - 1; c = 0 and c = n stand for
    # the two ends, ranked n, so they are never ready.  cost[i] is the
    # cost of the block whose first interval is i; the block left of gap c
    # starts at head[c], the one right of it ends left of gap tail[c].
    rank = np.full(n + 1, n)
    rank[1 + _gap_order(starts[1:] - ends[:-1])] = np.arange(n - 1)
    right = np.append(np.nan, ends)
    cost = np.float_power(ends - starts, s)
    head = np.append(0, np.arange(n))
    tail = np.append(np.arange(1, n + 1), n)
    gaps = np.arange(1, n)
    while len(gaps):
        gaps = gaps[rank[gaps] < np.minimum(rank[head[gaps]],
                                            rank[tail[gaps]])]
        lo, hi = head[gaps], tail[gaps]
        hull = np.float_power(right[hi] - starts[lo], s)
        cost[lo] = np.minimum(hull, cost[lo] + cost[gaps])
        tail[lo] = hi
        head[hi] = lo
        parents = np.where(rank[lo] < rank[hi], lo, hi)
        fresh = np.ones(len(parents), dtype=bool)
        np.not_equal(parents[1:], parents[:-1], out=fresh[1:])
        gaps = parents[fresh]
    return float(cost[0])


class ContentEstimate(NamedTuple):
    s: float
    direction: ProjPoint
    value: float
    depth: int


def _projected_hulls(ifs, v, depth):
    """Certified projected hull intervals of all depth-n cylinders."""
    u = _axis(v)
    halves = _hull_half_widths(ifs, ifs.level_products(depth), u)
    centers = ifs._cylinder_centers(depth)[0] @ u
    return centers - halves, centers + halves


def hausdorff_content_projection(ifs, v, s, depth):
    """Content of the projection of X to the line perpendicular to v,
    computed from the depth-n projected cylinder hull cover."""
    depth = ifs._fit_depth(depth)
    lo, hi = _projected_hulls(ifs, v, depth)
    value = interval_content(np.column_stack((lo, hi)), s)
    return ContentEstimate(s, v, value, depth)


def sampled_cylinder_directions(ifs, depth, count, seed):
    """count distinct depth-n cylinders drawn from the seed, or all of
    them when there are fewer, as their flat indices and the angles of
    their limit directions; NotDominated without a certified multicone."""
    thetas = _cylinder_directions(ifs, depth)
    idx = seeded_rng(seed).choice(len(thetas), size=min(count, len(thetas)),
                                  replace=False)
    return idx, thetas[idx]


# depth and number of the cylinders content_consistency samples
CONTENT_DEPTH, CONTENT_CYLINDERS = 6, 20


def content_consistency(ifs, depth, seed):
    """Spread of content / eigenfunction over sampled cylinders.

    For each of CONTENT_CYLINDERS sampled cylinders of depth CONTENT_DEPTH
    the content of the projection in its own limit direction is compared
    with the transfer-operator eigenfunction at the cylinder, both at the
    affinity dimension s; near-constancy of the ratio is the numerical
    shadow of the content-eigenfunction identity.  Returns the coefficient
    of variation of the ratios and s.
    """
    s, _ = affinity_dimension(ifs)
    if s > 1.0:
        raise ValueError("content comparison needs s <= 1")
    state = equilibrium_state(ifs, s, m=CONTENT_DEPTH)
    idx, thetas = sampled_cylinder_directions(ifs, CONTENT_DEPTH,
                                              CONTENT_CYLINDERS, seed)
    ratios = []
    for k, theta in zip(idx, thetas):
        est = hausdorff_content_projection(ifs, ProjPoint(theta), s, depth)
        ratios.append(est.value / float(state.h[k]))
    ratios = np.array(ratios)
    cv = float(ratios.std() / ratios.mean()) if ratios.mean() > 0 else math.inf
    return {"cv": cv, "s": s}


# ---------------------------------------------------------------------------
# transversality


def _periodic_point(arrs, vs, word, depth):
    """t_w of the word extended periodically to length depth."""
    return compose(arrs, vs, itertools.islice(itertools.cycle(word), depth))[1]


def transversality_derivative(matrices, w, word_i, word_j, depth=30):
    """Derivative magnitude of the projected gap between the canonical
    points of two symbolic words, with respect to shifting the
    translation of the first letter of word_i along the unit vector w.

    Words are extended periodically; the truncation tail is at most
    (max norm)^depth / (1 - max norm).  Requires max norm < 1/2 and
    distinct first letters.
    """
    arrs = np.asarray(matrices, dtype=float)
    a = batch_singular_values(arrs)[0].max()
    if a >= 0.5:
        raise HypothesisViolated(f"max matrix norm {a} >= 1/2")
    wi, wj = tuple(word_i), tuple(word_j)
    if wi[0] == wj[0]:
        raise ValueError("words must differ in the first letter")
    w = np.asarray(w, dtype=float)
    # the gap is linear in the translations: the unit vector along w at
    # the first letter of word_i, 0 elsewhere, gives its derivative
    vs = np.zeros((len(arrs), 2))
    vs[wi[0] - 1] = w / np.linalg.norm(w)
    return abs(projected_gap(arrs, vs, w, wi, wj, depth))


def transversality_tail_bound(matrices, depth):
    a = batch_singular_values(np.asarray(matrices, dtype=float))[0].max()
    return a ** depth / (1.0 - a)


def projected_gap(matrices, translations, w, word_i, word_j, depth):
    """Signed coordinate along w of the difference of the two canonical
    points, with words extended periodically.  It is linear in the
    translations; `verify trans` checks the derivative above against its
    finite difference."""
    arrs = np.asarray(matrices, dtype=float)
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    ts = np.asarray(translations, dtype=float)
    return float(w @ (_periodic_point(arrs, ts, word_i, depth)
                      - _periodic_point(arrs, ts, word_j, depth)))


# ---------------------------------------------------------------------------
# constant scan for the norm comparison on limit directions


def bochi_morris_scan(ifs, depth):
    """Empirical constant D in alpha1(A_w) <= D * norm of A_w^T on the
    perpendicular of limit directions; the reverse inequality is an exact
    norm bound and is asserted on every sample."""
    angles = furstenberg_directions(ifs, depth=30).sample_angles(3)
    if len(angles) > 64:
        angles = angles[:: len(angles) // 64 + 1]
    perps = (angles + PI / 2.0) % PI
    us = np.stack([np.cos(perps), np.sin(perps)], axis=1)
    out = {}
    for n in range(1, depth + 1):
        prods = ifs.level_products(n)
        a1 = batch_singular_values(prods)[0]
        # norms of A_w^T u for all words x directions
        norms = np.linalg.norm(pull_back(prods[:, None], us[None]), axis=2)
        if (norms > a1[:, None] * (1.0 + 1e-10)).any():
            raise AssertionError("norm bound violated; numerical fault")
        out[n] = float((a1[:, None] / norms).max())
    return out
