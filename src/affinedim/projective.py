"""Real projective line machinery for planar matrix tuples.

Lines through the origin are angles in [0, pi); closed projective
intervals wrap around.  On top of the interval arithmetic sit the
domination certificate (strongly invariant multicone search), the
irreducibility classifier, and the limit directions of the inverse
matrix walk.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .config import word_cap
from .errors import Inconclusive, NotDominated
from .ifs import batch_singular_values, derived

PI = math.pi

MERGE_TOL = 1e-9
# sines of angles below which classify_irreducibility takes two lines as one
LINE_TOL = 1e-8
DEFAULT_MARGIN = 1e-6
# most intervals a level of furstenberg_directions may hold before merging
MAX_INTERVALS = 3000


def _mod_pi(theta):
    return theta % PI


@dataclass(frozen=True)
class ProjPoint:
    """Line span(cos theta, sin theta), theta in [0, pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(_mod_pi(self.angle)))

    @property
    def vector(self):
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def perp(self):
        return ProjPoint(self.angle + PI / 2.0)

    def dist(self, other):
        return abs(math.sin(self.angle - other.angle))


def act(m, v):
    """Image of the line v under the invertible matrix m."""
    w = m @ v.vector
    return ProjPoint(math.atan2(w[1], w[0]))


def act_angle(arr, theta):
    c, s = math.cos(theta), math.sin(theta)
    x = arr[0, 0] * c + arr[0, 1] * s
    y = arr[1, 0] * c + arr[1, 1] * s
    return _mod_pi(math.atan2(y, x))


@dataclass(frozen=True)
class ProjInterval:
    """Closed projective interval [start, start+width], width in (0, pi)."""

    start: float
    width: float

    def __post_init__(self):
        if not 0.0 < self.width < PI:
            raise ValueError(f"width {self.width} outside (0, pi)")
        object.__setattr__(self, "start", float(_mod_pi(self.start)))
        object.__setattr__(self, "width", float(self.width))

    @property
    def end(self):
        return _mod_pi(self.start + self.width)

    @property
    def midpoint(self):
        return ProjPoint(self.start + self.width / 2.0)

    def contains_angle(self, theta, tol=0.0):
        return _mod_pi(theta - self.start) <= self.width + tol \
            or _mod_pi(theta - self.start) >= PI - tol

    def pad(self, eps):
        w = self.width + 2.0 * eps
        if w >= PI:
            raise ValueError("padding makes the interval improper")
        return ProjInterval(self.start - eps, w)

    def image(self, arr):
        """Image interval under an invertible matrix (a homeomorphism of
        the projective circle, so intervals map to intervals)."""
        a = act_angle(arr, self.start)
        b = act_angle(arr, self.end)
        m = act_angle(arr, self.start + self.width / 2.0)
        w = _mod_pi(b - a)
        if w == 0.0:
            w = 1e-15
        cand = ProjInterval(a, min(w, PI - 1e-15))
        if cand.contains_angle(m, tol=1e-12):
            return cand
        w2 = PI - w
        return ProjInterval(b, min(max(w2, 1e-15), PI - 1e-15))


def merge_intervals(intervals):
    """Disjoint union of projective intervals, merging overlaps and gaps
    below MERGE_TOL.  Raises ValueError if the union covers the whole
    line."""
    ivs = sorted(intervals, key=lambda iv: iv.start)
    if not ivs:
        return []
    # unroll to the real line over [start0, start0 + pi)
    base = ivs[0].start
    segs = []
    for iv in ivs:
        s = _mod_pi(iv.start - base)
        segs.append((s, s + iv.width))
        if s + iv.width > PI:
            # wraps past base + pi: split
            segs[-1] = (s, PI)
            segs.append((0.0, s + iv.width - PI))
    segs.sort()
    merged = []
    for s, e in segs:
        if merged and s <= merged[-1][1] + MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    # wraparound join between last and first
    if len(merged) > 1 and merged[0][0] + PI <= merged[-1][1] + MERGE_TOL:
        merged[0][0] = merged[-1][0] - PI
        merged.pop()
    out = []
    for s, e in merged:
        w = e - s
        if w >= PI - MERGE_TOL:
            raise ValueError("interval union covers the projective line")
        out.append(ProjInterval(base + s, max(w, 1e-15)))
    return sorted(out, key=lambda iv: iv.start)


@dataclass(frozen=True)
class Multicone:
    """Finite union of pairwise disjoint closed projective intervals,
    a proper subset of the projective line."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(merge_intervals(list(self.intervals)))
        object.__setattr__(self, "intervals", ivs)

    def contains_interval(self, iv, margin=0.0):
        """True if iv sits inside a single component with angular slack
        >= margin at both ends."""
        for comp in self.intervals:
            off = _mod_pi(iv.start - comp.start)
            if off >= margin - 1e-15 and off + iv.width <= comp.width - margin + 1e-15:
                return True
        return False

    def image(self, arr):
        return Multicone(tuple(iv.image(arr) for iv in self.intervals))

    def complement(self):
        ivs = sorted(self.intervals, key=lambda iv: iv.start)
        gaps = []
        for k, iv in enumerate(ivs):
            nxt = ivs[(k + 1) % len(ivs)]
            g = _mod_pi(nxt.start - iv.end)
            if g > 1e-14:
                gaps.append(ProjInterval(iv.end, g))
        if not gaps:
            raise ValueError("complement is empty")
        return Multicone(tuple(gaps))

    def to_json(self):
        return sorted([iv.start, iv.width] for iv in self.intervals)


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
    seeds = []
    for n in range(1, 4):
        prods = ifs.level_products(n)
        a1, a2 = batch_singular_values(prods)
        for prod in prods[~(a1 - a2 < 1e-12 * a1)]:
            u, _, _ = np.linalg.svd(prod)
            theta = math.atan2(u[1, 0], u[0, 0])
            seeds.append(ProjInterval(theta - PI / 8.0, PI / 4.0))
    if not seeds:
        return None
    try:
        cone = Multicone(tuple(seeds))
    except ValueError:
        return None
    for _ in range(200):
        if len(cone.intervals) * len(arrs) > 600:
            # the projective attractor is fragmenting into a Cantor set;
            # stop refining, padding below will glue the gaps
            break
        images = [iv.image(a) for a in arrs for iv in cone.intervals]
        try:
            nxt = Multicone(tuple(images))
        except ValueError:
            return None
        if _cone_close(cone, nxt, 1e-12):
            cone = nxt
            break
        cone = nxt
    for pad in (1e-4, 1e-3, 1e-2, 0.05, 0.1):
        try:
            padded = Multicone(tuple(iv.pad(pad) for iv in cone.intervals))
        except ValueError:
            continue
        if certify_invariance(padded, arrs):
            return padded
    return None


def certify_invariance(cone, arrs):
    """True if every matrix of arrs maps every interval of the cone into
    one of its components with angular slack >= DEFAULT_MARGIN."""
    for a in arrs:
        for iv in cone.intervals:
            if not cone.contains_interval(iv.image(a),
                                          margin=DEFAULT_MARGIN):
                return False
    return True


def _cone_close(c1, c2, tol):
    if len(c1.intervals) != len(c2.intervals):
        return False
    return all(abs(a.start - b.start) <= tol and abs(a.width - b.width) <= tol
               for a, b in zip(c1.intervals, c2.intervals))


def is_dominated(ifs, depth=6):
    """Domination report: certificate via multicone search, plus a
    least-squares (C, tau) fit of alpha2/alpha1 <= C tau^n over all words
    up to depth.  The fit is a diagnostic only and never certifies."""
    if depth < 3:
        raise ValueError("depth must be >= 3")
    cone = find_invariant_multicone(ifs)
    logs, ns = [], []
    for n in range(1, depth + 1):
        a1, a2 = ifs.level_singular_values(n)
        ratio = a2 / a1
        logs.extend(np.log(ratio))
        ns.extend([n] * len(ratio))
    slope, intercept = np.polyfit(ns, logs, 1)
    return {
        "certified": cone is not None,
        "multicone": cone,
        "fitted_tau": float(math.exp(slope)),
        "fitted_C": float(math.exp(intercept)),
    }


def _real_eigen_lines(arr):
    vals, vecs = np.linalg.eig(arr)
    out = []
    for k in range(2):
        if abs(vals[k].imag) <= 1e-12 * max(abs(vals[k]), 1.0):
            v = vecs[:, k].real
            out.append(ProjPoint(math.atan2(v[1], v[0])))
    return out


@dataclass(frozen=True)
class IrreducibilityClass:
    tag: str
    witness: tuple = ()


def strictly_affine(ifs, depth=6):
    """Search for a proximal product (two real eigenvalues of different
    modulus): trace^2 > 4 det together with nonzero trace.  Level by level
    in lexicographic order, so the witness is the least proximal word of
    the shortest length."""
    for n in range(1, depth + 1):
        p = ifs.level_products(n)
        tr = p[:, 0, 0] + p[:, 1, 1]
        det = p[:, 0, 0] * p[:, 1, 1] - p[:, 0, 1] * p[:, 1, 0]
        hits = np.flatnonzero((tr * tr > 4.0 * det + 1e-14)
                              & (np.abs(tr) > 1e-14))
        if len(hits):
            return True, ifs.word_from_flat(int(hits[0]), n)
    return False, None


def classify_irreducibility(ifs):
    """Trichotomy: common invariant line (Reducible); invariant 2-element
    line set with a genuine swap (IrreducibleNotStrongly); otherwise
    StronglyIrreducible, certified through a proximal product.  Lines
    closer than LINE_TOL count as equal."""
    arrs = ifs.lins

    def fixes(arr, p):
        return act(arr, p).dist(p) <= LINE_TOL

    # candidate lines: eigendirections of single maps, squares, and pairs
    cands = []
    prods = list(arrs) + [a @ a for a in arrs] \
        + [a @ b for a in arrs for b in arrs]
    for p in prods:
        cands.extend(_real_eigen_lines(p))

    for p in cands:
        if all(fixes(a, p) for a in arrs):
            return IrreducibilityClass("Reducible", (p,))

    for p, q in itertools.combinations(cands, 2):
        if p.dist(q) <= LINE_TOL:
            continue
        ok, swapped = True, False
        for a in arrs:
            if fixes(a, p) and fixes(a, q):
                continue
            if act(a, p).dist(q) <= LINE_TOL \
                    and act(a, q).dist(p) <= LINE_TOL:
                swapped = True
                continue
            ok = False
            break
        if ok and swapped:
            return IrreducibilityClass("IrreducibleNotStrongly", (p, q))

    found, witness = strictly_affine(ifs)
    if not found:
        raise Inconclusive(
            "no proximal product up to depth 6; strong irreducibility "
            "not certified")
    return IrreducibilityClass("StronglyIrreducible", (witness,))


@dataclass(frozen=True)
class DirectionsApprox:
    """Nested outer approximation of the limit directions of the inverse
    matrix walk: union of intervals at a given iteration depth."""

    depth: int
    cone: Multicone

    @property
    def intervals(self):
        return self.cone.intervals

    @property
    def width_bound(self):
        return max(iv.width for iv in self.cone.intervals)

    def to_json(self):
        return {"depth": self.depth, "intervals": self.cone.to_json()}

    def sample_directions(self, per_interval=3):
        """Grid of directions covering the intervals."""
        out = []
        for iv in self.cone.intervals:
            for t in np.linspace(0.0, 1.0, per_interval):
                out.append(ProjPoint(iv.start + t * iv.width))
        return out


@derived
def furstenberg_directions(ifs, depth=8):
    """Iterate U <- union_i A_i^{-1} U from the closed complement of the
    strongly invariant multicone of `find_invariant_multicone`; the result
    contains the asymptotic weakest-contraction directions at every depth.

    The interval count can grow like N^depth before merging, so the
    iteration stops early once a level would exceed MAX_INTERVALS (or the
    word cap) and the reached depth is reported instead of the requested one.
    """
    multicone = find_invariant_multicone(ifs)
    if multicone is None:
        raise NotDominated("no invariant multicone certificate")
    limit = min(word_cap(), MAX_INTERVALS)
    invs = np.linalg.inv(ifs.lins)
    u = multicone.complement()
    reached = 0
    for _ in range(depth):
        if len(u.intervals) * ifs.n_maps > limit:
            break
        images = [iv.image(a) for a in invs for iv in u.intervals]
        u = Multicone(tuple(images))
        reached += 1
    return DirectionsApprox(reached, u)
