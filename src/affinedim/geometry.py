"""Fine-geometric apparatus: separation conditions, projected cylinder
counting, slices, weak tangents, Hausdorff content of projections, and
the transversality derivative of projected distances.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .config import word_cap
from .errors import BudgetExceeded, DegenerateRange, HypothesisViolated, \
    NotDominated, NotSeparated
from .estimators import PointCloud, box_dim
from .ifs import batch_singular_values
from .projective import PI, ProjPoint, furstenberg_directions
from .thermo import affinity_dimension, equilibrium_state

# ---------------------------------------------------------------------------
# projected diameters


class DiameterTable:
    """diam(proj_u X) indexed by the angle of the projection axis u.

    Precomputed on a uniform grid from a certified cylinder cloud; the
    map is 2*diam-Lipschitz in the angle, which gives a certified upper
    bound between grid nodes.
    """

    def __init__(self, ifs, n_grid=720, depth=8):
        pts, errs = ifs._cylinder_centers(ifs._fit_depth(depth))
        self.err = 2.0 * float(errs.max())
        self.thetas = np.linspace(0.0, PI, n_grid, endpoint=False)
        dirs = np.stack([np.cos(self.thetas), np.sin(self.thetas)])
        # a linear function is largest on a hull vertex, so only the hull
        # is projected; a flat cloud has no hull and is projected whole
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
        proj = pts @ dirs
        self.widths = proj.max(axis=0) - proj.min(axis=0)
        self.step = PI / n_grid
        self.lip = 2.0 * float(ifs.diam_upper)

    def upper(self, theta):
        """Certified upper bound at an angle or an array of angles."""
        theta = np.mod(theta, PI)
        k = np.rint(theta / self.step).astype(int) % len(self.thetas)
        d = np.abs(theta - self.thetas[k])
        return self.widths[k] + self.lip * np.minimum(d, PI - d) + self.err


def _diam_table(ifs):
    key = "diam_table"
    if key not in ifs._cache:
        ifs._cache[key] = DiameterTable(ifs)
    return ifs._cache[key]


def _axis(v):
    """Unit vector u spanning the perpendicular of the direction v."""
    u_theta = v.angle + PI / 2.0
    return np.array([math.cos(u_theta), math.sin(u_theta)])


def projected_diameter_bound(ifs, mats, direction):
    """Certified upper bounds for diam(proj_{V_perp} phi_w(X)), one per
    product A_w of a (k,2,2) stack, via the factorization through the
    pulled-back projection axis A_w^T u."""
    au = mats.transpose(0, 2, 1) @ _axis(direction)
    return np.linalg.norm(au, axis=1) \
        * _diam_table(ifs).upper(np.arctan2(au[:, 1], au[:, 0]))


# ---------------------------------------------------------------------------
# strong separation


@dataclass(frozen=True)
class SscReport:
    separated: str          # Certified | Overlap | Unknown
    delta_lower: float
    delta_upper: float
    depth: int

    def to_json(self):
        return {"separated": self.separated, "delta_lower": self.delta_lower,
                "delta_upper": self.delta_upper, "depth": self.depth}


def _first_level_clouds(ifs, depth, cap):
    pts, errs = ifs._cylinder_centers(depth, cap)
    per = ifs.n_maps ** (depth - 1)
    groups = [(pts[i * per:(i + 1) * per], errs[i * per:(i + 1) * per])
              for i in range(ifs.n_maps)]
    return groups


def _pair_gap(groups, i, j):
    pi, ei = groups[i]
    pj, ej = groups[j]
    tree = cKDTree(pj)
    d, idx = tree.query(pi)
    k = int(np.argmin(d))
    return float(d[k]), float(ei[k] + ej[idx[k]])


def ssc_check(ifs, depth=6, cap=None):
    """Tri-state strong separation check from cylinder-center clouds.

    Certified: every first-level pair has positive certified gap.
    Overlap: some cross pair of cylinder balls keeps intersecting at three
    successive refinement depths.  Unknown otherwise.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if ifs.n_maps < 2:
        raise ValueError("need at least two maps")
    depth = ifs._fit_depth(depth)
    groups = _first_level_clouds(ifs, depth, cap)
    lo = math.inf
    hi = math.inf
    touching = False
    for i in range(ifs.n_maps):
        for j in range(i + 1, ifs.n_maps):
            d, err = _pair_gap(groups, i, j)
            lo = min(lo, d - err)
            hi = min(hi, d + err)
            if d < err:
                touching = True
    if lo > 0:
        return SscReport("Certified", lo, hi, depth)
    if touching:
        # persistence test: the intersecting-ball condition, just seen at
        # depth, must survive the next two depths to be called an overlap
        persists = True
        for d2 in (depth + 1, depth + 2):
            d2 = ifs._fit_depth(d2)
            g2 = _first_level_clouds(ifs, d2, cap)
            hit = False
            for i in range(ifs.n_maps):
                for j in range(i + 1, ifs.n_maps):
                    dd, err = _pair_gap(g2, i, j)
                    if dd < err:
                        hit = True
            if not hit:
                persists = False
                break
        if persists:
            return SscReport("Overlap", 0.0, max(hi, 0.0), depth)
    return SscReport("Unknown", 0.0, max(hi, 0.0), depth)


# ---------------------------------------------------------------------------
# projective open set condition


@dataclass(frozen=True)
class PoscReport:
    eta_hat: float
    eta_by_depth: dict
    trend: float
    witness: tuple
    appears_to_hold: bool

    def to_json(self):
        return {"eta_hat": self.eta_hat,
                "eta_by_depth": {str(k): v for k, v in self.eta_by_depth.items()},
                "trend": self.trend,
                "appears_to_hold": self.appears_to_hold}


def _proj_stopping(ifs, v, r, cap):
    """Cylinders, in lexicographic word order, that stop once the
    certified projected diameter bound in direction v is at most r."""
    return ifs.frontier(
        lambda mats, pts, a1: projected_diameter_bound(ifs, mats, v) <= r,
        cap=cap, lex=True)


def posc_check(ifs, depth=6, v_grid_size=5, x_samples=64, directions=None,
               cap=None, seed=0):
    """Empirical projective open set condition scan.

    For directions V on a grid over the limit-direction intervals and for
    word pairs from projected-diameter stopping sets at dyadic scales,
    the normalized separation max_x |proj(phi_i x) - proj(phi_j x)| /
    diam(proj phi_i X) is minimized over (V, pair).  Reported per depth
    with the log-slope trend; slope near zero is evidence the condition
    holds, a clearly negative slope is evidence it fails.
    """
    if ifs.n_maps < 2:
        raise ValueError("need at least two maps")
    if directions is None:
        da = furstenberg_directions(ifs, depth=30)
        directions = da.sample_directions(
            per_interval=max(1, v_grid_size // max(len(da.intervals), 1) + 1))
        directions = directions[:max(v_grid_size, 1)]
    xs = ifs.attractor_sample(0.01, mode="chaos-game", seed=seed,
                              count=x_samples).points
    eta_by_depth = {}
    witness = None
    for k in range(2, depth + 1):
        eta_k = math.inf
        for v in directions:
            u = _axis(v)
            r = _diam_table(ifs).upper(v.angle + PI / 2.0) * 2.0 ** (-k)
            try:
                found = _proj_stopping(ifs, v, r, min(word_cap(cap), 4000))
            except BudgetExceeded:
                continue
            if len(found) < 2:
                continue
            # projected images of the x-sample under every stopping word:
            # phi_w(x) = A_w x + t_w with t_w = phi_w(c) - A_w c
            trans = found.pts - found.mats @ ifs.ball_center
            projs = (xs @ found.mats.transpose(0, 2, 1)
                     + trans[:, None, :]) @ u
            hi, lo = projs.max(axis=1), projs.min(axis=1)
            diams = np.maximum(hi - lo, 1e-300)
            # pairs up to 7 apart in the order of the projected centres,
            # first pair first, so ties go to the earliest pair
            order = np.argsort(0.5 * (hi + lo))
            a = np.repeat(np.arange(len(found)), 7)
            b = a + np.tile(np.arange(1, 8), len(found))
            ia, ib = order[a[b < len(found)]], order[b[b < len(found)]]
            vals = np.abs(projs[ia] - projs[ib]).max(axis=1) \
                / np.maximum(diams[ia], diams[ib])
            j = int(np.argmin(vals))
            if vals[j] < eta_k:
                # recompute the winning pair from its composed maps; the
                # differences phi_w(c) - A_w c above carry extra rounding
                pair = (found.word(ifs, ia[j]), found.word(ifs, ib[j]))
                t = [(xs @ found.mats[i].T + ifs.compose_word(w).v) @ u
                     for i, w in zip((ia[j], ib[j]), pair)]
                eta_k = np.abs(t[0] - t[1]).max() \
                    / max(np.ptp(t[0]), np.ptp(t[1]), 1e-300)
                witness = (v,) + pair
        if math.isfinite(eta_k):
            eta_by_depth[k] = float(eta_k)
    if not eta_by_depth:
        raise NotDominated("no usable scale for the scan")
    ks = np.array(sorted(eta_by_depth))
    ys = np.log([eta_by_depth[k] for k in ks])
    trend = float(np.polyfit(ks, ys, 1)[0]) if len(ks) > 1 else 0.0
    eta_hat = float(min(eta_by_depth.values()))
    return PoscReport(eta_hat, eta_by_depth, trend, witness,
                      trend > -0.05)


# ---------------------------------------------------------------------------
# projected cylinder counting


def sigma_count(ifs, v, x, r, cap=None):
    """Count stopping words (by projected diameter in direction v) whose
    projected cylinder hull meets the interval of radius r around the
    projection of x.  Boundary-ambiguous words are included, so the count
    is an upper bound."""
    if not 0.0 < r < _diam_table(ifs).upper(v.angle + PI / 2.0):
        raise ValueError("r outside (0, projected diameter)")
    u = _axis(v)
    t0 = float(np.asarray(x, dtype=float) @ u)

    def misses(mats, pts, a1):
        # children hulls stay inside this hull
        half = np.linalg.norm(mats.transpose(0, 2, 1) @ u, axis=1) \
            * ifs.ball_radius
        return np.abs(pts @ u - t0) > r + half

    words = ifs.frontier(
        lambda mats, pts, a1: projected_diameter_bound(ifs, mats, v) <= r,
        misses, cap, lex=True).words(ifs)
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


def slice_upper_bound(ifs, ssc=None, depth=6):
    """Upper bound < 1 for slice dimensions from the separation gap:
    the root of M^(1-s) (1 - (M-1) q)^s = 1 with q = delta/(3 diam + 2 delta),
    maximized over the number of first-level branches M."""
    if ssc is None:
        ssc = ssc_check(ifs, depth)
    if ssc.separated != "Certified":
        raise NotSeparated("needs a certified positive separation gap")
    delta = ssc.delta_lower
    diam = ifs.diam_upper
    q = delta / (3.0 * diam + 2.0 * delta)
    best = 0.0
    for m in range(2, ifs.n_maps + 1):
        c = 1.0 - (m - 1) * q
        if c <= 0.0:
            continue

        def logf(s, m=m, c=c):
            return (1.0 - s) * math.log(m) + s * math.log(c)

        if logf(1.0) >= 0.0:
            continue
        best = max(best, brentq(logf, 0.0, 1.0, xtol=1e-14))
    return best


def slice_root(m, q, tol=1e-14):
    """Root of M^(1-s)(1-(M-1)q)^s = 1 for one branch count; exposed for
    the closed-form cross checks."""
    c = 1.0 - (m - 1) * q
    if c <= 0.0:
        return 0.0
    return brentq(lambda s: (1.0 - s) * math.log(m) + s * math.log(c),
                  0.0, 1.0, xtol=tol)


# ---------------------------------------------------------------------------
# weak tangents


@dataclass(frozen=True)
class TangentCloud:
    base: np.ndarray
    scale: float
    cloud: PointCloud

    def __len__(self):
        return len(self.cloud)


def weak_tangent(ifs, x, r, resolution=0.01, cap=None):
    """Magnified window: cylinder-center sample of X inside B(x, r),
    mapped through z -> (z - x)/r and clipped to the closed unit ball."""
    if r <= 0 or resolution <= 0:
        raise ValueError("r and resolution must be positive")
    x = np.asarray(x, dtype=float)
    rad = ifs.ball_radius
    # prune cylinders that cannot meet the window
    pts = ifs.frontier(
        lambda mats, pts, a1: a1 * rad <= resolution * r,
        prune=lambda mats, pts, a1:
            np.linalg.norm(pts - x, axis=1) > r + a1 * rad,
        cap=cap).pts
    z = (pts - x) / r
    z = z[np.linalg.norm(z, axis=1) <= 1.0 + resolution]
    nrm = np.linalg.norm(z, axis=1)
    over = nrm > 1.0
    z[over] /= nrm[over, None]
    return TangentCloud(x, r, PointCloud(z, resolution))


def grid_carpet_digits(ifs):
    """(p, q, digits) when every map of `ifs` is z -> diag(1/p, 1/q) z +
    (j/p, k/q) with integers q > p >= 2, 0 <= j < p, 0 <= k < q and the
    digits (j, k) distinct, as `carpets.to_ifs` builds them; digits are in
    map order.  None for any other family.  Entries are matched to 1e-9."""
    tol = 1e-9
    lins = [m.linear for m in ifs.maps]
    if any(abs(a.b) > tol or abs(a.c) > tol for a in lins):
        return None
    p, q = round(1.0 / lins[0].a), round(1.0 / lins[0].d)
    if not q > p >= 2:
        return None
    digits = []
    for m in ifs.maps:
        a, (tx, ty) = m.linear, m.translation
        j, k = round(tx * p), round(ty * q)
        if abs(a.a * p - 1.0) > tol or abs(a.d * q - 1.0) > tol \
                or abs(tx * p - j) > tol or abs(ty * q - k) > tol \
                or not (0 <= j < p and 0 <= k < q):
            return None
        digits.append((j, k))
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


def _grid_tangent_scan(p, q, digits, n_tangents, seed, resolution, cap):
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    # p^J >= 1/resolution, and the deepest window fixes rows only where
    # the base square already fixes columns: q^K >= p^(K+J)
    n_scales = max(_least_int(lambda j: p ** j * resolution >= 1.0,
                              -math.log(resolution) / math.log(p)), 1)
    theta = math.log(p) / math.log(q)
    depth = _least_int(lambda k: q ** k >= p ** (k + n_scales),
                       theta * n_scales / (1.0 - theta))
    cap = word_cap(cap)
    letters = (n_tangents + len(digits)) * depth
    if letters > cap:
        raise BudgetExceeded(cap, letters)
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = list(rng.integers(len(digits), size=(n_tangents, depth)))
    words += [[i] * depth for i in range(len(digits))]
    x = np.arange(n_scales + 1) * math.log(p)
    dims = []
    for w in words:
        y = [math.log(n) for n in
             approximate_square_counts(p, q, digits, w, depth, n_scales)]
        dims.append(float(min(np.polyfit(x, y, 1)[0], 2.0)))
    return {"max_dim": max(dims), "min_dim": min(dims), "dims": dims}


def tangent_dimension_scan(ifs, n_tangents=8, scales=None, seed=0,
                           resolution=0.002, cap=None):
    """Dimension estimates of weak tangent windows.  The max is a
    tangent-based lower estimate of the Assouad dimension and the min an
    upper estimate of the lower dimension.

    A grid carpet (see `grid_carpet_digits`) is scanned exactly.  Its
    windows are approximate squares Q_K(w) with p^J >= 1/resolution and
    K the least depth with q^K >= p^(K+J).  A window's dimension is the
    slope of log N_j against j log p, where N_j, j = 0..J, are the exact
    counts of `approximate_square_counts`.  The base words are
    `n_tangents` random words of the seed, then the constant word of each
    map, i.e. its fixed point, since only digits that stay in the
    heaviest column reach the Assouad dimension.  No word is enumerated,
    and `scales` does not apply.

    Any other family is scanned by box-dimension fits of `weak_tangent`
    point clouds at randomized base points and at the dyadic `scales` of
    the diameter; windows whose sample only touches the unit sphere are
    discarded."""
    if n_tangents < 1:
        raise ValueError("need at least one tangent")
    grid = grid_carpet_digits(ifs)
    if grid is not None:
        return _grid_tangent_scan(*grid, n_tangents, seed, resolution, cap)
    if scales is None:
        scales = [2.0 ** -k for k in range(2, 6)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    base_cloud = ifs.attractor_sample(0.005, mode="chaos-game", seed=seed,
                                      count=max(n_tangents * 4, 64))
    idx = rng.choice(len(base_cloud), size=n_tangents, replace=False)
    dims = []
    for x in base_cloud.points[idx]:
        r = scales[int(rng.integers(len(scales)))] * ifs.diam_upper
        tc = weak_tangent(ifs, x, r, resolution, cap)
        if len(tc) < 16:
            continue
        inner = np.linalg.norm(tc.cloud.points, axis=1) < 0.999
        if not inner.any():
            continue
        try:
            # the window sample is honest down to resolution * r, so the
            # fit may use the hard 2x floor rather than box_dim's default
            rep = box_dim(tc.cloud, scale_lo=2.0 * resolution)
        except DegenerateRange:
            continue
        dims.append(rep.dimension)
    if not dims:
        raise ValueError("no usable tangent window")
    return {"max_dim": max(dims), "min_dim": min(dims), "dims": dims}


# ---------------------------------------------------------------------------
# Hausdorff content of projections


def interval_content(intervals, s):
    """s-content of a finite union of closed intervals via the largest-gap
    splitting recursion: min(hull^s, content(left) + content(right)).
    Exact for s <= 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must be in (0, 1]")
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    if not ivs:
        return 0.0
    merged = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    starts = np.array([a for a, _ in merged])
    ends = np.array([b for _, b in merged])

    # explicit stack, since the split tree can be deep
    total = 0.0
    stack = [(0, len(merged) - 1)]
    memo = {}
    order = []
    while stack:
        lo, hi = stack.pop()
        if (lo, hi) in memo:
            continue
        if lo == hi:
            memo[(lo, hi)] = (ends[hi] - starts[lo]) ** s
            continue
        gaps = starts[lo + 1:hi + 1] - ends[lo:hi]
        k = lo + int(np.argmax(gaps))
        if ((lo, k) in memo) and ((k + 1, hi) in memo):
            memo[(lo, hi)] = min((ends[hi] - starts[lo]) ** s,
                                 memo[(lo, k)] + memo[(k + 1, hi)])
        else:
            stack.extend([(lo, hi), (lo, k), (k + 1, hi)])
    return memo[(0, len(merged) - 1)]


def brute_force_content(intervals, s):
    """Minimum cost over all covers by hulls of contiguous blocks;
    reference implementation for small unions."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    n = len(ivs)
    if n == 0:
        return 0.0
    best = [0.0] + [math.inf] * n
    for i in range(1, n + 1):
        for j in range(i):
            best[i] = min(best[i], best[j] + (ivs[i - 1][1] - ivs[j][0]) ** s)
    return best[n]


@dataclass(frozen=True)
class ContentEstimate:
    s: float
    direction: ProjPoint
    value: float
    depth: int

    def to_json(self):
        return {"s": self.s, "direction": self.direction.angle,
                "value": self.value, "depth": self.depth}


def _projected_hulls(ifs, v, depth, cap=None):
    """Certified projected hull intervals of all depth-n cylinders."""
    u = _axis(v)
    pts, _ = ifs._cylinder_centers(depth, cap)
    prods = ifs.level_products(depth, cap)
    halves = np.linalg.norm(np.einsum("wqp,q->wp", prods, u), axis=1) \
        * ifs.ball_radius
    centers = pts @ u
    return centers - halves, centers + halves


def hausdorff_content_projection(ifs, v, s, depth=8, cap=None):
    """Content of the projection of X to the line perpendicular to v,
    computed from the depth-n projected cylinder hull cover."""
    depth = ifs._fit_depth(depth)
    lo, hi = _projected_hulls(ifs, v, depth, cap)
    value = interval_content(zip(lo, hi), s)
    return ContentEstimate(s, v, value, depth)


def content_consistency(ifs, n_cylinders=20, depth=8, seed=0, s=None,
                        m=6, cap=None):
    """Spread of content / eigenfunction over sampled cylinders.

    For each sampled depth-m cylinder the content of the projection in
    its own limit direction is compared with the transfer-operator
    eigenfunction at the cylinder; near-constancy of the ratio is the
    numerical shadow of the content-eigenfunction identity.
    Returns the coefficient of variation and the per-cylinder table.
    """
    if s is None:
        s, _ = affinity_dimension(ifs)
    if s > 1.0:
        raise ValueError("content comparison needs s <= 1")
    state = equilibrium_state(ifs, s, m=m, cap=cap)
    from .thermo import _cylinder_directions
    thetas = _cylinder_directions(ifs, m, cap)
    rng = np.random.Generator(np.random.Philox(key=seed))
    size = ifs.n_maps ** m
    idx = rng.choice(size, size=min(n_cylinders, size), replace=False)
    ratios = []
    table = []
    for k in idx:
        v = ProjPoint(thetas[k])
        est = hausdorff_content_projection(ifs, v, s, depth, cap)
        h = float(state.h[k])
        ratios.append(est.value / h)
        table.append((str(ifs.word_from_flat(int(k), m)), est.value, h))
    ratios = np.array(ratios)
    cv = float(ratios.std() / ratios.mean()) if ratios.mean() > 0 else math.inf
    return {"cv": cv, "ratios": ratios, "table": table, "s": s}


# ---------------------------------------------------------------------------
# transversality


def _as_arrays(matrices):
    out = []
    for m in matrices:
        out.append(m.array if hasattr(m, "array") else np.asarray(m, float))
    return out


def _series_terms(arrs, w, word, letter, depth):
    """Partial sums of indicator(word_n == letter) * (A_{word|n-1} w) over
    the word extended periodically to the given depth."""
    acc = np.zeros(2)
    prod = np.eye(2)
    n = len(word)
    for k in range(depth):
        if word[k % n] == letter:
            acc = acc + prod @ w
        prod = prod @ arrs[word[k % n] - 1]
    return acc


def transversality_derivative(matrices, w, word_i, word_j, depth=30):
    """Derivative magnitude of the projected gap between the canonical
    points of two symbolic words, with respect to shifting the
    translation of the first letter of word_i along the unit vector w.

    Words are extended periodically; the truncation tail is at most
    (max norm)^depth / (1 - max norm).  Requires max norm < 1/2 and
    distinct first letters.
    """
    arrs = _as_arrays(matrices)
    a = max(batch_singular_values(np.stack(arrs))[0])
    if a >= 0.5:
        raise HypothesisViolated(f"max matrix norm {a} >= 1/2")
    wi = tuple(word_i)
    wj = tuple(word_j)
    if wi[0] == wj[0]:
        raise ValueError("words must differ in the first letter")
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    letter = wi[0]
    si = _series_terms(arrs, w, wi, letter, depth)
    sj = _series_terms(arrs, w, wj, letter, depth)
    return abs(float(w @ (si - sj)))


def transversality_tail_bound(matrices, depth):
    arrs = _as_arrays(matrices)
    a = max(batch_singular_values(np.stack(arrs))[0])
    return a ** depth / (1.0 - a)


def projected_gap(matrices, translations, w, word_i, word_j, depth=30):
    """Signed coordinate along w of the difference of the two canonical
    points, with words extended periodically; the finite-difference
    oracle for the derivative above."""
    arrs = _as_arrays(matrices)
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    ts = [np.asarray(t, dtype=float) for t in translations]

    def pi_point(word):
        acc = np.zeros(2)
        prod = np.eye(2)
        n = len(word)
        for k in range(depth):
            acc = acc + prod @ ts[word[k % n] - 1]
            prod = prod @ arrs[word[k % n] - 1]
        return acc

    return float(w @ (pi_point(tuple(word_i)) - pi_point(tuple(word_j))))


# ---------------------------------------------------------------------------
# constant scan for the norm comparison on limit directions


def bochi_morris_scan(ifs, depth=8, directions=None, cap=None):
    """Empirical constant D in alpha1(A_w) <= D * norm of A_w^T on the
    perpendicular of limit directions; the reverse inequality is an exact
    norm bound and is asserted on every sample."""
    if directions is None:
        da = furstenberg_directions(ifs, depth=30)
        directions = da.sample_directions(per_interval=3)
    if len(directions) > 64:
        directions = directions[:: len(directions) // 64 + 1]
    us = np.stack([d.perp.vector for d in directions])
    out = {}
    for n in range(1, depth + 1):
        prods = ifs.level_products(n, cap)
        a1 = batch_singular_values(prods)[0]
        # norms of A_w^T u for all words x directions
        norms = np.linalg.norm(np.einsum("wqp,dq->wdp", prods, us), axis=2)
        if (norms > a1[:, None] * (1.0 + 1e-10)).any():
            raise AssertionError("norm bound violated; numerical fault")
        out[n] = float((a1[:, None] / norms).max())
    return out
