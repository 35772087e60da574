"""Real projective line machinery for planar matrix tuples.

Lines through the origin are angles in [0, pi).  A finite union of closed
projective intervals, which may wrap around, is a `Multicone`: the two
arrays of its starts and widths.  Each operation on unions is one array
function: `images` under a stack of matrices (the image of [s, e] is
[A s, A e] when det A > 0 and [A e, A s] when det A < 0), `merge`,
`complement` and the invariance test `certify_invariance`.  On top of
them sit the domination certificate (strongly invariant multicone
search), the irreducibility classifier, and the limit directions of the
inverse matrix walk.
"""

import math
from typing import NamedTuple

import numpy as np

from .config import word_cap
from .errors import Inconclusive, NotDominated
from .estimators import Frozen
from .ifs import batch_singular_values, derived, det2

PI = math.pi

MERGE_TOL = 1e-9
# sines of angles below which classify_irreducibility takes two lines as one
LINE_TOL = 1e-8
DEFAULT_MARGIN = 1e-6
# most intervals a level of furstenberg_directions may hold before merging
MAX_INTERVALS = 3000


def _mod_pi(theta):
    """theta in [0, pi): 0 where theta % PI rounds a tiny theta < 0 to pi."""
    r = np.remainder(theta, PI)
    return np.where(r == PI, 0.0, r)


def _line_dist(a, b):
    # how far apart the lines at angles a and b are: |sin(a - b)|
    return np.abs(np.sin(a - b))


class ProjPoint(Frozen):
    """Line span(cos theta, sin theta), theta in [0, pi)."""

    __slots__ = ("angle",)

    def __init__(self, angle):
        object.__setattr__(self, "angle", float(_mod_pi(angle)))

    @property
    def vector(self):
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def perp(self):
        return ProjPoint(self.angle + PI / 2.0)

    def dist(self, other):
        return float(_line_dist(self.angle, other.angle))


def _atan2(y, x):
    # math.atan2 element by element: np.arctan2 differs in the last bit on
    # 73,400 of 10^6 normal (y, x) pairs, 986 in long double rounded back,
    # and those bits move the fixtures' multicones and limit directions.
    # No ufunc calls libm atan2 alone, as np.float_power calls libm pow
    return np.fromiter(map(math.atan2, np.ravel(y).tolist(),
                           np.ravel(x).tolist()),
                       float, np.size(y)).reshape(np.shape(y))


def act_angle(arr, theta):
    """Angle in [0, pi) of the image of the line at angle theta under the
    invertible matrix arr.  A stack of N matrices and K angles give the
    (N, K) table of all images, one row per matrix."""
    c, s = np.cos(theta), np.sin(theta)
    x = np.multiply.outer(arr[..., 0, 0], c) \
        + np.multiply.outer(arr[..., 0, 1], s)
    y = np.multiply.outer(arr[..., 1, 0], c) \
        + np.multiply.outer(arr[..., 1, 1], s)
    return _mod_pi(_atan2(y, x))


class Multicone(NamedTuple):
    """Union of pairwise disjoint closed projective intervals
    [starts[k], starts[k] + widths[k]], a proper subset of the projective
    line, as two read-only arrays: starts sorted in [0, pi), widths in
    (0, pi).  `merge` builds one."""

    starts: np.ndarray
    widths: np.ndarray


def merge(starts, widths):
    """Multicone of the union of the intervals [starts[k], starts[k] +
    widths[k]], widths in (0, pi), merging overlaps and gaps below
    MERGE_TOL.  Raises ValueError if the union covers the whole line."""
    starts = _mod_pi(starts)
    base = starts.min()
    # unroll to the real line over [base, base + pi); a piece that wraps
    # past base + pi is split in two
    s = (starts - base) % PI
    e = s + widths
    wrap = e > PI
    s = np.concatenate([s, np.zeros(np.count_nonzero(wrap))])
    e = np.concatenate([np.where(wrap, PI, e), e[wrap] - PI])
    order = np.lexsort((e, s))
    s, e = s[order], e[order]
    # a component ends where the next piece starts beyond the reach of
    # all pieces before it
    reach = np.maximum.accumulate(e)
    first = np.flatnonzero(np.r_[True, s[1:] > reach[:-1] + MERGE_TOL])
    lo, hi = s[first], reach[np.r_[first[1:], len(s)] - 1]
    # the last component joins the first across the wrap
    if len(lo) > 1 and lo[0] + PI <= hi[-1] + MERGE_TOL:
        lo = np.r_[lo[-1] - PI, lo[1:-1]]
        hi = hi[:-1]
    w = hi - lo
    if (w >= PI - MERGE_TOL).any():
        raise ValueError("interval union covers the projective line")
    starts = _mod_pi(base + lo)
    order = np.argsort(starts, kind="stable")
    cone = Multicone(starts[order], np.maximum(w, 1e-15)[order])
    for arr in cone:
        arr.flags.writeable = False
    return cone


def images(cone, arrs):
    """Images of the intervals of the cone under the stack of invertible
    matrices arrs, map by map, as unmerged (starts, widths).  A matrix
    with det > 0 keeps the orientation of the projective line and maps
    [s, e] onto [A s, A e]; one with det < 0 reverses it and maps [s, e]
    onto [A e, A s]."""
    a = act_angle(arrs, cone.starts)
    b = act_angle(arrs, (cone.starts + cone.widths) % PI)
    keep = (det2(arrs) > 0.0)[:, None]
    lo, hi = np.where(keep, a, b), np.where(keep, b, a)
    w = (hi - lo) % PI
    w[w == 0.0] = 1e-15
    return lo.ravel(), np.minimum(w, PI - 1e-15).ravel()


def complement(cone):
    """Multicone of the closure of the complement of the cone."""
    ends = (cone.starts + cone.widths) % PI
    gaps = (np.roll(cone.starts, -1) - ends) % PI
    keep = gaps > 1e-14
    if not keep.any():
        raise ValueError("complement is empty")
    return merge(ends[keep], gaps[keep])


@derived
def find_invariant_multicone(ifs):
    """Search for a multicone C with A_i C inside the interior of C for
    every map, with angular slack >= DEFAULT_MARGIN.

    Seeds with quarter-turn intervals around the dominant singular
    directions of the products of length 1 to 3, iterates the image-union
    map until the intervals stabilize, at most 200 times, then pads and
    certifies.  Returns the certified
    Multicone or None; None is not a proof that no cone exists.
    """
    arrs = ifs.lins
    prods = []
    for n in range(1, 4):
        level = ifs.level_products(n)
        a1, a2 = batch_singular_values(level)
        prods.append(level[~(a1 - a2 < 1e-12 * a1)])
    prods = np.concatenate(prods)
    if not len(prods):
        return None
    u = np.linalg.svd(prods)[0]
    thetas = _atan2(u[:, 1, 0], u[:, 0, 0])
    try:
        cone = merge(thetas - PI / 8.0, np.full(len(thetas), PI / 4.0))
    except ValueError:
        return None
    for _ in range(200):
        if len(cone.starts) * len(arrs) > 600:
            # the projective attractor is fragmenting into a Cantor set;
            # stop refining, padding below will glue the gaps
            break
        try:
            nxt = merge(*images(cone, arrs))
        except ValueError:
            return None
        settled = len(nxt.starts) == len(cone.starts) \
            and np.abs(np.array(nxt) - np.array(cone)).max() <= 1e-12
        cone = nxt
        if settled:
            break
    for pad in (1e-4, 1e-3, 1e-2, 0.05, 0.1):
        widths = cone.widths + 2.0 * pad
        if (widths >= PI).any():
            continue
        try:
            padded = merge(cone.starts - pad, widths)
        except ValueError:
            continue
        if certify_invariance(padded, arrs):
            return padded
    return None


def certify_invariance(cone, arrs):
    """True if every matrix of arrs maps every interval of the cone into
    one of its components with angular slack >= DEFAULT_MARGIN."""
    starts, widths = images(cone, arrs)
    off = (starts[:, None] - cone.starts) % PI
    inside = (off >= DEFAULT_MARGIN - 1e-15) \
        & (off + widths[:, None] <= cone.widths - DEFAULT_MARGIN + 1e-15)
    return bool(inside.any(axis=1).all())


def is_dominated(ifs, depth=6):
    """Domination report: certificate via multicone search, plus a
    least-squares (C, tau) fit of alpha2/alpha1 <= C tau^n over all words
    up to depth, fitted by `Ifs._fit_depth`.  The fit is a diagnostic only
    and never certifies."""
    if depth < 3:
        raise ValueError("depth must be >= 3")
    depth = ifs._fit_depth(depth)
    cone = find_invariant_multicone(ifs)
    levels = [ifs.level_singular_values(n) for n in range(1, depth + 1)]
    logs = np.concatenate([np.log(a2 / a1) for a1, a2 in levels])
    ns = np.repeat(np.arange(1, depth + 1), [len(a1) for a1, _ in levels])
    slope, intercept = np.polyfit(ns, logs, 1)
    return {
        "certified": cone is not None,
        "multicone": cone,
        "fitted_tau": float(math.exp(slope)),
        "fitted_C": float(math.exp(intercept)),
    }


def _eigen_lines(stack):
    """Angles in [0, pi) of the real eigenlines of a stack of matrices, in
    stack order and then in eig order."""
    vals, vecs = np.linalg.eig(stack)
    real = np.abs(vals.imag) <= 1e-12 * np.maximum(np.abs(vals), 1.0)
    v = vecs.real.transpose(0, 2, 1)[real]
    return _mod_pi(_atan2(v[:, 1], v[:, 0]))


class IrreducibilityClass(NamedTuple):
    tag: str
    witness: tuple = ()


def strictly_affine(ifs, depth=6):
    """Search for a proximal product (two real eigenvalues of different
    modulus): trace^2 > 4 det together with nonzero trace, up to depth
    fitted by `Ifs._fit_depth`.  Level by level in lexicographic order, so
    the witness is the least proximal word of the shortest length."""
    for n in range(1, ifs._fit_depth(depth) + 1):
        p = ifs.level_products(n)
        tr = p[:, 0, 0] + p[:, 1, 1]
        hits = np.flatnonzero((tr * tr > 4.0 * det2(p) + 1e-14)
                              & (np.abs(tr) > 1e-14))
        if len(hits):
            return True, ifs.word_from_flat(int(hits[0]), n)
    return False, None


def classify_irreducibility(ifs):
    """Trichotomy: common invariant line (Reducible); invariant 2-element
    line set with a genuine swap (IrreducibleNotStrongly); otherwise
    StronglyIrreducible, certified through a proximal product.  Lines
    closer than LINE_TOL count as equal.  The candidate lines are the
    real eigenlines of the maps and of the level-2 products; pairs are
    tested one row of the (N, K) image table at a time, in the order of
    itertools.combinations, so no (N, K, K) table is built."""
    arrs = ifs.lins
    cands = _eigen_lines(np.concatenate([arrs, ifs.level_products(2)]))
    img = act_angle(arrs, cands)
    fixed = _line_dist(img, cands) <= LINE_TOL

    hit = np.flatnonzero(fixed.all(axis=0))
    if len(hit):
        return IrreducibilityClass("Reducible", (ProjPoint(cands[hit[0]]),))

    for k in range(len(cands) - 1):
        rest = cands[k + 1:]
        both = fixed[:, k, None] & fixed[:, k + 1:]
        swap = (_line_dist(img[:, k, None], rest) <= LINE_TOL) \
            & (_line_dist(img[:, k + 1:], cands[k]) <= LINE_TOL)
        # some map swaps a kept pair: if every map fixed both lines, then
        # fixed[:, k].all(), and the Reducible stage would have returned.
        # Two lines within LINE_TOL are one line, and this stage can meet
        # such a pair: reflections about lines between and beside it swap
        # it while they move every line near it
        ok = (_line_dist(cands[k], rest) > LINE_TOL) \
            & (both | swap).all(axis=0)
        hit = np.flatnonzero(ok)
        if len(hit):
            return IrreducibilityClass(
                "IrreducibleNotStrongly",
                (ProjPoint(cands[k]), ProjPoint(rest[hit[0]])))

    depth = ifs._fit_depth(6)
    found, witness = strictly_affine(ifs, depth)
    if not found:
        raise Inconclusive(
            f"no proximal product up to depth {depth}; strong "
            "irreducibility not certified")
    return IrreducibilityClass("StronglyIrreducible", (witness,))


class DirectionsApprox(NamedTuple):
    """Nested outer approximation of the limit directions of the inverse
    matrix walk: the union of intervals reached at a given iteration
    depth."""

    depth: int
    cone: Multicone

    def sample_angles(self, per_interval):
        """Angles in [0, pi) of per_interval evenly spaced directions
        across each interval, interval by interval."""
        t = np.linspace(0.0, 1.0, per_interval)
        return ((self.cone.starts[:, None] + t * self.cone.widths[:, None])
                % PI).ravel()


@derived
def furstenberg_directions(ifs, depth):
    """Iterate U <- union_i A_i^{-1} U from the closed complement of the
    strongly invariant multicone of `find_invariant_multicone`; the result
    contains the asymptotic weakest-contraction directions at every depth.

    The interval count can grow like N^depth before merging, so the
    iteration stops early once a level would exceed MAX_INTERVALS (or the
    word cap) and the reached depth is reported instead of the requested one.
    Raises Inconclusive when an iterate covers the projective line.
    """
    multicone = find_invariant_multicone(ifs)
    if multicone is None:
        raise NotDominated("no invariant multicone certificate")
    limit = min(word_cap(), MAX_INTERVALS)
    invs = np.linalg.inv(ifs.lins)
    u = complement(multicone)
    reached = 0
    for _ in range(depth):
        if len(u.starts) * ifs.n_maps > limit:
            break
        try:
            u = merge(*images(u, invs))
        except ValueError as e:
            raise Inconclusive(f"limit directions at inverse step "
                               f"{reached + 1}: {e}")
        reached += 1
    return DirectionsApprox(reached, u)
