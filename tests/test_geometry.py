import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError, cKDTree

from affinedim import geometry
from affinedim.carpets import CarpetSpec, fraser_lower, to_ifs
from affinedim.errors import AffinedimError, HypothesisViolated, \
    NotSeparated
from affinedim.geometry import DiameterTable, approximate_square_counts, \
    bochi_morris_scan, content_consistency, grid_carpet_digits, \
    hausdorff_content_projection, interval_content, posc_check, \
    projected_gap, sigma_count, slice_points, slice_root, slice_upper_bound, \
    ssc_check, tangent_dimension_scan, transversality_derivative, \
    transversality_tail_bound, weak_tangent
from affinedim.ifs import HULL_DEPTH, Ifs, batch_singular_values, \
    hull_vertices, pull_back
from affinedim.projective import PI, ProjPoint, furstenberg_directions
from affinedim.thermo import _cylinder_directions, affinity_dimension
from conftest import FIXTURE_DIR, load_fixture, twenty_maps


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def top_down_content(intervals, s):
    """The largest-gap recursion as first written, top-down with a memo:
    the reference that `interval_content` must match bit for bit."""
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
    stack = [(0, len(merged) - 1)]
    memo = {}
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


def sequential_content(intervals, s):
    """Oracle for `geometry.interval_content`, copied from it at 2739f21.
    The largest-gap tree merged one gap at a time, in ascending gap order
    with equal gaps right to left: the reference that `interval_content`
    must match bit for bit where the top-down recursion is quadratic."""
    if not isinstance(intervals, np.ndarray):
        intervals = list(intervals)
    ivs = np.asarray(intervals, dtype=float).reshape(len(intervals), 2)
    a, b = ivs[ivs[:, 1] > ivs[:, 0]].T
    if len(a) == 0:
        return 0.0
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    reach = np.maximum.accumulate(b)
    opens = np.concatenate(([True], a[1:] > reach[:-1]))
    closes = np.append(opens[1:], True)
    starts, ends = a[opens], reach[closes]
    gaps = starts[1:] - ends[:-1]
    merge_order = np.lexsort((-np.arange(len(gaps)), gaps)).tolist()

    # cost[i] is the cost of the block whose first interval is i; the
    # block ending at interval j starts at first[j], the one starting at
    # i ends at last[i].  Gap k joins the block ending at k to the one
    # starting at k + 1.
    starts, ends = starts.tolist(), ends.tolist()
    cost = [(hi - lo) ** s for lo, hi in zip(starts, ends)]
    first = list(range(len(starts)))
    last = list(range(len(starts)))
    for k in merge_order:
        lo, hi = first[k], last[k + 1]
        cost[lo] = min((ends[hi] - starts[lo]) ** s, cost[lo] + cost[k + 1])
        last[lo] = hi
        first[hi] = lo
    return cost[0]


def brute_force_content(intervals, s):
    """Oracle for `geometry.interval_content`, copied from
    `geometry.brute_force_content` at 2739f21.  Minimum cost over all
    covers by hulls of contiguous blocks: the exact block DP, O(m^2), for
    small unions."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    n = len(ivs)
    if n == 0:
        return 0.0
    best = [0.0] + [math.inf] * n
    for i in range(1, n + 1):
        right = -math.inf   # a block's hull ends at its largest end
        for j in range(i - 1, -1, -1):
            right = max(right, ivs[j][1])
            best[i] = min(best[i], best[j] + (right - ivs[j][0]) ** s)
    return best[n]


def increasing_gap_chain(n):
    """n intervals of length ell whose every gap exceeds all gaps to its
    left, so the split tree is a chain as deep as the union.  ell and the
    gaps are multiples of 2^-30 and every end stays below 2^23, so all
    endpoints and lengths are exact."""
    ell = round(1e-3 * 2 ** 30) / 2 ** 30
    gaps = 1.0 + np.arange(n - 1) / 256.0
    lo = np.concatenate(([0.0], np.cumsum(ell + gaps)))
    return np.column_stack((lo, lo + ell)), ell


def merged_length(intervals):
    """Total length of a union of intervals, by a plain merge."""
    total, end = 0.0, -math.inf
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if a > end:
            total, end = total + (b - a), b
        elif b > end:
            total, end = total + (b - end), b
    return total


def brute_force_square_counts(spec, word, depth, n_scales):
    """Distinct level-(depth + j) approximate squares inside
    Q_depth(word), j = 0..n_scales, by enumerating continuations of the
    word and indexing the grid rectangle that each level's square is."""
    p, q = spec.p, spec.q

    def rows(k):
        n = 0
        while q ** n < p ** k:
            n += 1
        return n

    def cell(u, k):
        x = y = 0
        for j, _ in u[:k]:
            x = x * p + j
        for _, r in u[:rows(k)]:
            y = y * q + r
        return x, y

    base = [spec.digits[i] for i in word[:depth]]
    target = cell(base, depth)
    # a word that differs in its first rows(depth) digits lies in another
    # row band of height q^-rows(depth), so only the rest is enumerated
    head = base[:rows(depth)]
    squares = [set() for _ in range(n_scales + 1)]
    for tail in itertools.product(spec.digits,
                                  repeat=depth + n_scales - len(head)):
        u = head + list(tail)
        if cell(u, depth) == target:
            for j, found in enumerate(squares):
                found.add(cell(u, depth + j))
    return [len(found) for found in squares]


def touching_pair():
    """Two half-scale similarities whose pieces genuinely overlap."""
    m = np.diag([0.6, 0.6])
    return Ifs([m, m], [(0.0, 0.0), (0.1, 0.0)])


class TestSsc:
    def test_cone_certified(self, cone_ifs):
        rep = ssc_check(cone_ifs)
        assert rep.separated == "Certified"
        assert rep.delta_lower == pytest.approx(0.3750307856670565, rel=1e-9)
        assert rep.delta_lower <= rep.delta_upper

    def test_sim3_certified(self, sim3):
        assert ssc_check(sim3).separated == "Certified"

    def test_overlap_detected(self):
        rep = ssc_check(touching_pair())
        assert rep.separated == "Overlap"
        assert rep.delta_lower == 0.0

    def test_projection_overlap_fixture_still_separated(self, overlap_ifs):
        # the collision is arranged along one projection direction only
        assert ssc_check(overlap_ifs).separated == "Certified"

    def test_persistence_starts_below_the_checked_depth(self, square4,
                                                         monkeypatch):
        depths = []
        clouds = geometry._first_level_clouds

        def spy(ifs, depth):
            depths.append(depth)
            return clouds(ifs, depth)

        monkeypatch.setattr(geometry, "_first_level_clouds", spy)
        assert ssc_check(square4).separated == "Overlap"
        assert depths == [6, 7, 8]

    def test_each_fitted_depth_is_scanned_once(self, monkeypatch):
        # 20 maps fit depths 6, 7 and 8 to level 4 alike, so the
        # persistence test has no deeper depth to scan
        ifs = to_ifs(CarpetSpec.from_json(twenty_maps("carpet")))
        depths = []
        scan = geometry._pair_scan

        def spy(ifs, depth):
            depths.append(depth)
            return scan(ifs, depth)

        monkeypatch.setattr(geometry, "_pair_scan", spy)
        rep = ssc_check(ifs)
        assert (rep.separated, rep.depth) == ("Overlap", 4)
        assert depths == [4]


FIXTURES = ["sim3", "cantor2", "square4", "positive_pair", "cone_ifs",
            "overlap_ifs", "carpet_ifs"]


def box_gaps(lo, hi, pts, errs):
    """Distances from each point b to the box [lo, hi], less errs.  Where
    errs is at least e_a + e_b, none exceeds the computed
    |a - b| - (e_a + e_b) of a point a in the box, as rounding is
    monotone."""
    off = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.sqrt((off ** 2).sum(axis=1)) - errs


def brute_force_gaps(pi, ei, pj, ej, rows=625):
    """(least, uppers): the least of |a - b| - (e_a + e_b) over all pairs
    of a point a of one cloud and b of the other, and the set of
    |a - b| + e_a + e_b over the pairs that attain it.

    The rows of the first cloud are taken in chunks, so no matrix of all
    pairs is formed.  A chunk is compared with each point whose distance
    to the chunk's bounding box, less the radii, is at most the least
    found so far; chunks go in the order of their distance to the other
    cloud's box, and the row of the point nearest that box starts the
    least."""
    pair = lambda a, ea, b, eb: (np.sqrt(((a[:, None] - b[None]) ** 2)
                                         .sum(axis=2)), ea[:, None] + eb)
    jlo, jhi = pj.min(axis=0), pj.max(axis=0)
    first = np.argmin(box_gaps(jlo, jhi, pi, ei))
    d, e = pair(pi[first:first + 1], ei[first:first + 1], pj, ej)
    least, uppers = float((d - e).min()), set()
    chunks = [slice(s, s + rows) for s in range(0, len(pi), rows)]
    bounds = [float(box_gaps(jlo, jhi, pi[c], ei[c] + ej.max()).min())
              for c in chunks]
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > least:
            break
        a, ea = pi[chunks[k]], ei[chunks[k]]
        near = box_gaps(a.min(axis=0), a.max(axis=0), pj,
                        ea.max() + ej) <= least
        d, e = pair(a, ea, pj[near], ej[near])
        if not d.size or (d - e).min() > least:
            continue
        if (d - e).min() < least:
            least, uppers = float((d - e).min()), set()
        hit = d - e == least
        uppers |= set((d[hit] + e[hit]).tolist())
    return least, uppers


def brute_force_scan(ifs, depth):
    """The least gap over the first-level pairs at depth by brute force."""
    groups = geometry._first_level_clouds(ifs, depth)
    return min(brute_force_gaps(*groups[i], *groups[j])[0]
               for i, j in itertools.combinations(range(ifs.n_maps), 2))


def least_gap(groups, i, j):
    return geometry._least_gap(geometry._block_tree(*groups[i]),
                               geometry._block_tree(*groups[j]))


def overlapping_line(n):
    """n maps of ratios 0.9 to 0.95 by 0.05 with nearby translations on a
    line: the first-level cylinders overlap all the way down, so a bound
    over cylinder blocks keeps nearly every pair."""
    return Ifs([np.diag([0.9 + 0.0125 * i, 0.05]) for i in range(n)],
               [(0.02 * i, 0.0) for i in range(n)])


# four random maps, entries rounded to 4 digits, whose cylinder balls of
# different first letters intersect at depth 6 although the closest pair
# of centres is farther apart than its two radii
CROSSING_BALLS = {"maps": [
    {"a": -0.4955, "b": -0.006067, "c": 0.2055, "d": 0.01157,
     "tx": -0.6105, "ty": -0.602},
    {"a": -0.526, "b": 0.0008161, "c": -0.2629, "d": -0.0003308,
     "tx": -0.07662, "ty": -0.8481},
    {"a": 0.1075, "b": 0.2323, "c": -0.2096, "d": 0.04274,
     "tx": -0.08738, "ty": -0.3368},
    {"a": 0.2382, "b": 2.994e-06, "c": 0.01447, "d": 5.558e-06,
     "tx": 0.7219, "ty": 0.3949}]}


@st.composite
def cloud_pairs(draw):
    """Two clouds of one size, 1 to 300 points, with error radii.  Grid
    clouds of binary fractions have exact differences, so they hold
    copies and exact ties; the others are uniform."""
    size = draw(st.integers(1, 300))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        span = draw(st.sampled_from([2, 4, 16, 1024]))
        pts = g.integers(0, span, size=(2, size, 2)) / 64.0
        pts[1] += g.integers(0, span, size=2) / 64.0
        errs = g.integers(0, 4, size=(2, size)) / 256.0
    else:
        pts = g.uniform(size=(2, size, 2))
        pts[1, :, 0] += draw(st.floats(-1.0, 1.0))
        errs = g.uniform(0.0, draw(st.floats(0.0, 0.5)), size=(2, size))
    return [(pts[0], errs[0]), (pts[1], errs[1])]


class TestPairGap:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_scan_is_the_least_over_all_pairs(self, name, request):
        ifs = request.getfixturevalue(name)
        depths = [ifs._fit_depth(d) for d in range(2, 9)]
        if name == "positive_pair":
            depths += [10, 14]
        for depth in depths:
            lo, hi = geometry._pair_scan(ifs, depth)
            assert lo == pytest.approx(brute_force_scan(ifs, depth),
                                       rel=1e-12, abs=0.0)
            assert lo <= hi

    def test_crossing_balls_are_not_certified(self):
        ifs = Ifs.from_json(CROSSING_BALLS)
        assert geometry._pair_scan(ifs, 6)[0] \
            == pytest.approx(brute_force_scan(ifs, 6), rel=1e-12)
        assert geometry._pair_scan(ifs, 6)[0] < -0.02
        assert ssc_check(ifs).separated != "Certified"

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(cloud_pairs())
    def test_matches_brute_force_both_ways(self, groups):
        least, uppers = brute_force_gaps(*groups[0], *groups[1])
        for i, j in ((0, 1), (1, 0)):
            gap, upper = least_gap(groups, i, j)
            assert gap == least
            assert upper in uppers

    def test_ties_across_the_first_cloud_match_kdtree(self):
        g = rng(5)
        for size in (2 ** 8, 3 ** 5, 5 ** 3):
            for _ in range(10):
                # binary fractions keep the differences exact, so four
                # points of cloud 0 at one offset from points of cloud 1
                # tie for the least distance
                pts = g.integers(0, 1 << 20, size=(2, size, 2)) / 1024.0
                hits = g.permutation(size)[:8]
                pts[0, hits[:4]] = pts[1, hits[4:]] + [3.0 / 1024, 4.0 / 1024]
                # with no radii the least gap is the closest distance
                bare = [(p, np.zeros(size)) for p in pts]
                d, _ = cKDTree(pts[1]).query(pts[0])
                assert d.min() == 5.0 / 1024
                for i, j in ((0, 1), (1, 0)):
                    assert least_gap(bare, i, j) == (d.min(), d.min())
                groups = [(p, g.uniform(size=size)) for p in pts]
                least, uppers = brute_force_gaps(*groups[0], *groups[1])
                for i, j in ((0, 1), (1, 0)):
                    gap, upper = least_gap(groups, i, j)
                    assert gap == least
                    assert upper in uppers

    def test_ties_and_copies_match_brute_force(self):
        g = rng(6)
        for size in (2 ** 6, 3 ** 4, 4 ** 3, 5 ** 3):
            for span in (3, 6, 50):
                for _ in range(10):
                    # a coarse grid: copies, and many pairs at each distance
                    pts = g.integers(0, span, size=(2, size, 2)) * 0.1
                    pts[1, :, 0] += 0.05 * span
                    groups = [(p, g.uniform(size=size)) for p in pts]
                    least, uppers = brute_force_gaps(*groups[0], *groups[1])
                    for i, j in ((0, 1), (1, 0)):
                        gap, upper = least_gap(groups, i, j)
                        assert gap == least
                        assert upper in uppers
                    bare = [(p, np.zeros(size)) for p in pts]
                    d, _ = cKDTree(pts[1]).query(pts[0])
                    assert least_gap(bare, 0, 1)[0] == d.min()

    def test_single_points_and_short_blocks(self):
        g = rng(7)
        for size in (1, 2, 3, 7, 33, 300):
            groups = [(g.uniform(size=(size, 2)), g.uniform(size=size))
                      for _ in range(2)]
            least, uppers = brute_force_gaps(*groups[0], *groups[1])
            for i, j in ((0, 1), (1, 0)):
                assert least_gap(groups, i, j) == (least, *uppers)

    def test_overlapping_cylinders_stay_small(self):
        # 5^7 points a cloud, interleaved along a line: the live pairs, and
        # so the memory, must stay far below the cloud size squared
        ifs = overlapping_line(5)
        groups = geometry._first_level_clouds(ifs, ifs._fit_depth(8))
        assert len(groups[0][0]) == 5 ** 7
        tracemalloc.start()
        try:
            gap = least_gap(groups, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap[0] == brute_force_gaps(*groups[0], *groups[1])[0]
        assert peak < 64 * 2 ** 20

    def test_ssc_check_on_overlapping_cylinders(self):
        rep = ssc_check(overlapping_line(4))
        assert rep.separated == "Overlap"
        assert rep.depth == 6


def full_cloud_widths(pts, thetas):
    """Projected widths of the whole cloud, a few directions at a time, so
    the carpet's 5^8 centres never make a (points x 720) array."""
    widths = []
    for part in np.array_split(thetas, 30):
        proj = pts @ np.stack([np.cos(part), np.sin(part)])
        widths.append(proj.max(axis=0) - proj.min(axis=0))
    return np.concatenate(widths)


class TestDiameterTable:
    def test_table_reads_cylinder_centers_after_a_memo_hit(self, carpet_ifs,
                                                           monkeypatch):
        # perfbench's tracer sizes the table from the first
        # _cylinder_centers call under it, also when the hull is kept
        ifs = Ifs.from_json(carpet_ifs.to_json())
        ifs.diam_bounds()
        calls = []
        centers = Ifs._cylinder_centers

        def spy(self, depth):
            calls.append(depth)
            return centers(self, depth)

        monkeypatch.setattr(Ifs, "_cylinder_centers", spy)
        DiameterTable(ifs)
        assert calls == [6]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_hull_widths_match_the_full_cloud(self, name, request):
        # the hull is taken over the images of the level above's hull
        # vertices, and the image of an inner point can round past it: at
        # sim3 depth 5 one width comes out 1.1e-16 (one ulp) short, as
        # with Qhull's vertex set, which drops an extreme point there.
        # Each depth's hull is projected on the table's grid as the table
        # projects its own, which is the one at HULL_DEPTH
        ifs = request.getfixturevalue(name)
        table = DiameterTable(ifs)
        dirs = np.stack([np.cos(table.thetas), np.sin(table.thetas)])
        for depth in range(2, 9):
            fitted = ifs._fit_depth(depth)
            proj = ifs._hull(fitted)[0] @ dirs
            widths = proj.max(axis=0) - proj.min(axis=0)
            if fitted == ifs._fit_depth(HULL_DEPTH):
                assert np.array_equal(table.widths, widths)
            pts, _ = ifs._cylinder_centers(fitted)
            if name == "cantor2":
                # a flat cloud: its hull is the two ends
                with pytest.raises(QhullError):
                    ConvexHull(pts)
                assert len(hull_vertices(pts)) == 2
            want = full_cloud_widths(pts, table.thetas)
            if (name, depth) == ("sim3", 5):
                off = np.flatnonzero(widths != want)
                assert len(off) == 1
                assert abs(widths[off] - want[off]) <= np.spacing(want[off])
            else:
                assert np.array_equal(widths, want)


def as_set(pts):
    return set(map(tuple, pts.tolist()))


class TestHullVertices:
    thetas = np.linspace(0.0, PI, 720, endpoint=False)

    def assert_covers(self, pts):
        hull = hull_vertices(pts)
        assert as_set(hull) <= as_set(pts)
        assert np.array_equal(full_cloud_widths(hull, self.thetas),
                              full_cloud_widths(pts, self.thetas))
        return hull

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (1.0, 0.0),
                                           (1.0, 2.0), (-3.0, 1.0)])
    def test_collinear_cloud_gives_its_two_ends(self, direction):
        # binary fractions along an integer direction: exactly collinear
        t = rng(1).permutation(np.arange(-200, 300)) / 64.0
        pts = 0.25 + t[:, None] * np.array(direction)
        hull = self.assert_covers(pts)
        ends = pts[[np.argmin(t), np.argmax(t)]]
        assert as_set(hull) == as_set(ends) and len(hull) == 2

    def test_tilted_collinear_cloud(self):
        # a line of slope 1/3, rounded: the hull may keep points the
        # rounding pushed off the line, never fewer than the two ends
        t = np.linspace(-1.0, 2.0, 3001)
        pts = np.stack([t, t / 3.0 + 0.1], axis=1)
        hull = self.assert_covers(pts)
        assert as_set(pts[[0, -1]]) <= as_set(hull)

    def test_one_and_two_points(self):
        one = np.array([[0.3, -0.2]])
        assert np.array_equal(hull_vertices(one), one)
        assert np.array_equal(hull_vertices(np.repeat(one, 5, axis=0)), one)
        two = np.array([[0.3, -0.2], [0.1, 0.4]])
        assert as_set(hull_vertices(two)) == as_set(two)
        assert len(hull_vertices(np.repeat(two, 3, axis=0))) == 2

    def test_duplicated_points(self):
        g = rng(2)
        pts = g.uniform(size=(300, 2))
        pts = pts[g.integers(0, 300, size=1200)]
        hull = self.assert_covers(pts)
        assert len(hull) == len(as_set(hull))
        assert as_set(hull) == as_set(pts[ConvexHull(pts).vertices])

    def test_points_in_convex_position(self):
        # every point is a vertex: 5000 edges, more than the recursion
        # limit would allow a recursive quickhull
        angles = rng(3).uniform(0.0, 2.0 * PI, size=5000)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        hull = self.assert_covers(pts)
        assert len(hull) == 5000
        assert as_set(hull) == as_set(pts[ConvexHull(pts).vertices])

    def test_random_clouds_match_qhull(self):
        g = rng(4)
        for size in (3, 10, 100, 10_000):
            pts = g.normal(size=(size, 2))
            hull = self.assert_covers(pts)
            assert as_set(hull) == as_set(pts[ConvexHull(pts).vertices])


def gathered_least_pair(projs):
    """Oracle for `geometry._least_pair`, copied from `posc_check` at
    059f64b: its pair scan as first written, every pair up to 7 apart in
    the order of the projected centres gathered into two copies of their
    rows, a-major."""
    hi, lo = projs.max(axis=1), projs.min(axis=1)
    diams = np.maximum(hi - lo, 1e-300)
    order = np.argsort(0.5 * (hi + lo))
    a = np.repeat(np.arange(len(projs)), 7)
    b = a + np.tile(np.arange(1, 8), len(projs))
    ia, ib = order[a[b < len(projs)]], order[b[b < len(projs)]]
    vals = np.abs(projs[ia] - projs[ib]).max(axis=1) \
        / np.maximum(diams[ia], diams[ib])
    j = int(np.argmin(vals))
    return ia[j], ib[j], vals[j]


def tied_family():
    """cone.json with its first map twice: two cylinders of every depth
    share their projected images, so the scan meets tied pairs."""
    with open(os.path.join(FIXTURE_DIR, "cone.json")) as fh:
        maps = json.load(fh)["maps"]
    return Ifs.from_json({"maps": maps + maps[:1]})


def posc_bits(ifs):
    """posc_check's depths, separations and trend as exact hex strings,
    or the error it raises."""
    try:
        rep = posc_check(ifs)
    except AffinedimError as e:
        return type(e), str(e)
    trend = None if rep.trend is None else rep.trend.hex()
    return {k: v.hex() for k, v in rep.eta_by_depth.items()}, trend


class TestPosc:
    @pytest.mark.parametrize("size", [2, 3, 7, 8, 9, 40, 300])
    def test_offset_scan_matches_the_gather(self, size):
        # small integer rows give exactly tied separations; permutations
        # of one row give one centre and ties between pairs of every
        # offset, where an offset-major scan would pick another pair
        g = rng(size)
        ints = [g.integers(0, 4, size=(size, cols)).astype(float)
                for cols in (1, 3, 64)]
        perms = [g.permuted(np.tile(np.arange(cols), (size, 1)), axis=1)
                 for cols in (4.0, 6.0)]
        for projs in ints + perms:
            i, j, eta = geometry._least_pair(projs)
            want = gathered_least_pair(projs)
            assert (int(i), int(j), float(eta).hex()) \
                == (int(want[0]), int(want[1]), float(want[2]).hex())

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(FIXTURE_DIR) if f != "checksums.json")
        + ["tied"])
    def test_report_matches_the_gather(self, name, monkeypatch):
        def family():
            return tied_family() if name == "tied" else load_fixture(name)
        got = posc_bits(family())
        monkeypatch.setattr(geometry, "_least_pair", gathered_least_pair)
        assert got == posc_bits(family())
        if name == "tied":
            assert got[0] and got[1] is None

    def test_cone_trend_flat(self, cone_ifs):
        rep = posc_check(cone_ifs)
        assert rep.appears_to_hold
        assert rep.trend >= -0.05
        assert rep.eta_hat == pytest.approx(1.94, abs=0.05)

    def test_overlap_trend_negative(self, overlap_ifs):
        rep = posc_check(overlap_ifs)
        assert not rep.appears_to_hold
        assert rep.trend < -0.05

    def test_word_cap_lowers_the_diameter_table(self, carpet_spec,
                                                monkeypatch):
        # 5^8 cylinder centres would exceed the cap; the diameter table,
        # the SSC clouds and the projected hulls fall back to depth 6
        # (5^6 <= 20000) instead of raising
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", "20000")
        ifs = to_ifs(carpet_spec)
        rep = posc_check(ifs)
        assert sorted(rep.eta_by_depth) == [2, 3, 4, 5, 6]
        assert not rep.appears_to_hold
        v = ProjPoint(PI / 2.0)
        n, words = sigma_count(ifs, v, ifs.ball_center, 0.1)
        assert n == len(words) >= 1
        assert ssc_check(ifs, 8).depth == 6
        assert hausdorff_content_projection(ifs, v, 0.5, 8).depth == 6


class TestSigmaCount:
    def test_counts_and_words(self, cone_ifs):
        v = ProjPoint(3.0 * PI / 4.0)
        r = 0.02 * cone_ifs.diam_upper
        x = cone_ifs.ball_center
        n, words = sigma_count(cone_ifs, v, x, r)
        assert n == len(words)
        assert n >= 1
        # all returned cylinders really meet the window in projection
        u = v.perp.vector
        t0 = float(x @ u)
        for w in words:
            # phi_w of the ball centre; the cylinder lies within
            # alpha1(A_w) times the ball radius of it
            lin, t = cone_ifs.compose_word(w)
            p = lin @ x + t
            err = np.linalg.svd(lin, compute_uv=False)[0] \
                * cone_ifs.ball_radius
            assert abs(float(p @ u) - t0) <= r + err + 1e-12

    def test_rejects_huge_radius(self, cone_ifs):
        with pytest.raises(ValueError):
            sigma_count(cone_ifs, ProjPoint(0.3), cone_ifs.ball_center,
                        10.0 * cone_ifs.diam_upper)


class TestSlices:
    def test_root_closed_form(self):
        expect = math.log(2.0) / math.log(2.5)
        assert slice_root(2, 0.2) == pytest.approx(expect, abs=1e-14)

    def test_upper_bound_below_one(self, cone_ifs, sim3):
        for ifs in (cone_ifs, sim3):
            b = slice_upper_bound(ifs)
            assert 0.0 < b < 1.0

    def test_requires_separation(self):
        with pytest.raises(NotSeparated):
            slice_upper_bound(touching_pair())

    def test_slice_points_live_on_line(self, carpet_ifs):
        v = ProjPoint(PI / 2.0)
        pc = slice_points(carpet_ifs, v, np.array([0.0, 0.0]), 0.002, 1e-4)
        assert len(pc) > 100
        assert pc.points.shape[1] == 1

    def test_narrow_tube_rejected(self, carpet_ifs):
        with pytest.raises(ValueError):
            slice_points(carpet_ifs, ProjPoint(0.0), np.zeros(2), 1e-9, 0.01)


def two_norm_window(ifs, x, r, resolution):
    """weak_tangent as first written: np.linalg.norm in the prune, and the
    window's row norms taken once to filter and again to clip."""
    x = np.asarray(x, dtype=float)
    rad = ifs.ball_radius
    pts = ifs.frontier(
        lambda mats, pts, a1: a1 * rad <= resolution * r,
        prune=lambda mats, pts, a1:
            np.linalg.norm(pts - x, axis=1) > r + a1 * rad).pts
    z = (pts - x) / r
    z = z[np.linalg.norm(z, axis=1) <= 1.0 + resolution]
    nrm = np.linalg.norm(z, axis=1)
    over = nrm > 1.0
    z[over] /= nrm[over, None]
    return z


class TestTangents:
    @pytest.mark.parametrize("name", ["positive_pair", "cone_ifs",
                                      "carpet_ifs"])
    def test_one_norm_window_matches_two_norms(self, request, name):
        ifs = request.getfixturevalue(name)
        xs = ifs.chaos_game(3, 6)
        for k, x in enumerate(xs):
            r = 2.0 ** -(2 + k % 4) * ifs.diam_upper
            got = weak_tangent(ifs, x, r, 0.002).points
            want = two_norm_window(ifs, x, r, 0.002)
            assert len(want) > 0
            assert got.shape == want.shape
            assert (got.view(np.int64) == want.view(np.int64)).all()

    def test_window_and_determinism(self, cone_ifs):
        x = cone_ifs.ball_center
        window = weak_tangent(cone_ifs, x, 0.1, resolution=0.005)
        assert len(window) > 0
        assert (np.linalg.norm(window.points, axis=1) <= 1.0 + 1e-12).all()
        again = weak_tangent(cone_ifs, x, 0.1, resolution=0.005)
        assert np.array_equal(window.points, again.points)

    def test_regular_fixture_collapses_spectrum(self):
        sim = Ifs([np.diag([0.5, 0.5])] * 3,
                  [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
        out = tangent_dimension_scan(sim, seed=1)
        dim_h = math.log(3.0) / math.log(2.0)
        assert out["max_dim"] == pytest.approx(dim_h, abs=0.1)
        assert out["min_dim"] == pytest.approx(dim_h, abs=0.1)

    def test_carpet_tangent_exceeds_affinity(self, carpet_ifs):
        # Mackay's formula gives this carpet dim_A = log 3/log 4 +
        # log 3/log 5 = 1.475, reached by weak tangents at points whose
        # digits stay in the heaviest column (Mackay 2011; Fraser 2014).
        # Its affinity dimension is 1 + log(5/4)/log 5 = 1.1386, so the
        # tangent scan must clear s + 0.15 = 1.289 with room to spare.
        s, _ = affinity_dimension(carpet_ifs)
        out = tangent_dimension_scan(carpet_ifs, seed=1)
        assert out["max_dim"] >= s + 0.15

    def test_grid_carpet_recognition(self, carpet_spec, carpet_ifs, sim3,
                                     cone_ifs):
        assert grid_carpet_digits(carpet_ifs) \
            == (carpet_spec.p, carpet_spec.q, list(carpet_spec.digits))
        # similarities have p == q and stay on the point-cloud path
        assert grid_carpet_digits(sim3) is None
        assert grid_carpet_digits(cone_ifs) is None
        # windows in the single-digit columns see only the column structure
        out = tangent_dimension_scan(carpet_ifs, seed=1)
        assert out["min_dim"] == pytest.approx(fraser_lower(carpet_spec),
                                               abs=1e-12)

    @pytest.mark.parametrize("spec, depth, n_scales", [
        (None, 8, 3),
        (None, 2, 3),
        (CarpetSpec(2, 3, ((0, 0), (0, 2), (1, 1))), 6, 4),
        (CarpetSpec(3, 5, ((0, 1), (0, 3), (0, 4), (2, 2))), 5, 3),
        (CarpetSpec(2, 5, ((0, 0), (1, 1), (1, 3))), 4, 4),
    ])
    def test_square_counts_match_enumeration(self, carpet_spec, spec, depth,
                                             n_scales):
        spec = spec or carpet_spec
        p, q, digits = grid_carpet_digits(to_ifs(spec))
        n = len(digits)
        words = [[i] * depth for i in range(n)]
        words += [list(w) for w in rng(3).integers(n, size=(2, depth))]
        for word in words:
            exact = approximate_square_counts(p, q, digits, word, depth,
                                              n_scales)
            assert exact == brute_force_square_counts(spec, word, depth,
                                                      n_scales)


@st.composite
def grid_unions(draw):
    """1-400 rows on a 1/8 grid, shuffled: the left ends are a random walk
    and the lengths run from -2 to a drawn cap, so gaps tie and rows
    repeat, nest, shrink to a point or come reversed, and a union has
    from one block to hundreds."""
    size = draw(st.integers(1, 400))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = draw(st.integers(1, 16))
    cap = draw(st.integers(1, 24))
    lo = np.cumsum(g.integers(0, step + 1, size=size))
    ivs = np.column_stack((lo, lo + g.integers(-2, cap + 1, size=size)))
    return ivs[g.permutation(size)] / 8.0


def object_power(x, s):
    """x**s of each float of x as a Python float, which calls libm pow."""
    return np.power(x.astype(object), s).astype(float)


class TestFloatPower:
    # interval_content takes its powers with np.float_power, whose float64
    # loop calls libm pow, as math.pow and float.__pow__ do; np.power can
    # dispatch to a SIMD kernel that differs in the last bit
    def test_equals_the_object_array_power(self):
        g = rng(81)
        tiny = np.nextafter(0.0, 1.0)
        for k in range(40):
            x = np.concatenate([
                [0.0, -0.0, 1.0, tiny, 2.0 ** -1030, 2.0 ** -1022],
                tiny * g.integers(1, 2 ** 20, 20),
                g.uniform(0.0, 1.0, 200), g.uniform(0.0, 3.0, 100)])
            s = 1.0 if k == 0 else float(1.0 - g.uniform(0.0, 1.0))
            got = np.float_power(x, s)
            assert got.dtype == float and len(got) == len(x)
            assert got.tobytes() == object_power(x, s).tobytes(), s

    def test_projected_hull_lengths_of_cone(self, cone_ifs):
        # the depth-10 hulls that `verify content cone` powers, at s the
        # affinity dimension
        s, _ = affinity_dimension(cone_ifs)
        for theta in _cylinder_directions(cone_ifs, 4)[::20]:
            lo, hi = geometry._projected_hulls(cone_ifs, ProjPoint(theta), 10)
            x = hi - lo
            assert np.float_power(x, s).tobytes() \
                == object_power(x, s).tobytes()


class TestContent:
    def test_single_interval_exact(self):
        assert interval_content([(0.0, 0.5)], 0.7) \
            == pytest.approx(0.5 ** 0.7, rel=1e-12)

    def test_full_measure_at_s_one(self):
        ivs = [(0.0, 0.2), (0.1, 0.4), (0.6, 0.9)]
        assert interval_content(ivs, 1.0) == pytest.approx(0.7, rel=1e-12)

    def test_hull_bound(self):
        g = rng(51)
        for _ in range(20):
            a = np.sort(g.uniform(size=8))
            ivs = list(zip(a[::2], a[1::2]))
            s = float(g.uniform(0.1, 1.0))
            hull = (max(b for _, b in ivs) - min(a for a, _ in ivs)) ** s
            assert interval_content(ivs, s) <= hull + 1e-12

    def test_matches_brute_force(self):
        g = rng(52)
        for _ in range(10):
            a = np.sort(g.uniform(size=10))
            ivs = list(zip(a[::2], a[1::2]))
            s = float(g.uniform(0.1, 1.0))
            assert interval_content(ivs, s) \
                == pytest.approx(brute_force_content(ivs, s), rel=1e-10)

    def test_between_block_dp_and_hull(self):
        # the largest-gap tree is one family of block covers, so it bounds
        # the exact block DP from above; at s = 1 both give the length.
        # A nested interval must not shorten its block's hull:
        assert brute_force_content([(0.0, 1.0), (0.1, 0.2)], 0.5) == 1.0
        g = rng(53)
        excess = 0
        for _ in range(500):
            m = int(g.integers(2, 14))
            lo = g.uniform(size=m)
            ivs = list(zip(lo, lo + g.uniform(0.0, 0.2, size=m)))
            s = float(g.uniform(0.1, 1.0))
            hull = max(b for _, b in ivs) - min(a for a, _ in ivs)
            exact = brute_force_content(ivs, s)
            value = interval_content(ivs, s)
            assert exact <= value + 1e-12
            assert value <= hull ** s + 1e-12
            excess += value > exact * (1.0 + 1e-9)
            length = merged_length(ivs)
            assert interval_content(ivs, 1.0) \
                == pytest.approx(length, rel=1e-12)
            assert brute_force_content(ivs, 1.0) \
                == pytest.approx(length, rel=1e-12)
        assert excess > 0

    def test_matches_top_down_recursion(self):
        g = rng(54)
        unions = [[], [(0.1, 0.5), (0.1, 0.5)], [(0.0, 1.0), (0.2, 0.3)],
                  [(0.0, 0.5), (0.5, 1.0), (1.5, 2.0)],
                  [(0.3, 0.3), (1.0, 2.0)], [(2.0, 1.0), (0.0, 0.5)],
                  [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)]]
        for _ in range(300):
            m = int(g.integers(1, 30))
            # rounded endpoints give equal gaps, duplicates and reversals
            unions.append(np.round(g.uniform(0, 5, size=(m, 2)), 1).tolist())
        for ivs in unions:
            for s in (0.3, 0.5, float(g.uniform(0.05, 1.0)), 1.0):
                assert interval_content(ivs, s) == top_down_content(ivs, s)

    def test_projected_hulls_match_top_down_recursion(self, cone_ifs,
                                                      overlap_ifs):
        for ifs in (cone_ifs, overlap_ifs):
            for theta in np.linspace(0.0, PI, 6, endpoint=False):
                lo, hi = geometry._projected_hulls(ifs, ProjPoint(theta), 8)
                ivs = np.column_stack((lo, hi))
                for s in (0.37, 0.81, 1.0):
                    ref = top_down_content(zip(lo, hi), s)
                    assert interval_content(ivs, s) == ref
                    # a list of rows, as perfbench's tracer passes it on
                    assert interval_content(list(ivs), s) == ref

    def test_increasing_gap_chain(self):
        # the split tree is a chain as deep as the union (quadratic for the
        # top-down recursion, one round per gap for interval_content)
        n = 50_000
        ivs, ell = increasing_gap_chain(n)
        assert interval_content(ivs, 1.0) == pytest.approx(n * ell, rel=1e-12)
        assert interval_content(ivs, 0.5) \
            == pytest.approx(n * ell ** 0.5, rel=1e-9)

    def test_projected_hulls_match_sequential_merge(self, cone_ifs,
                                                    overlap_ifs):
        for ifs in (cone_ifs, overlap_ifs):
            for theta in (0.3, 1.9):
                lo, hi = geometry._projected_hulls(ifs, ProjPoint(theta), 10)
                ivs = np.column_stack((lo, hi))
                for s in (0.68, 1.0):
                    ref = sequential_content(ivs, s)
                    assert interval_content(ivs, s) == ref
                    assert interval_content(list(ivs), s) == ref

    def test_chains_match_sequential_merge(self):
        ivs, _ = increasing_gap_chain(50_000)
        # equally spaced intervals: every gap ties, merged right to left
        ties = np.arange(4096.0)[:, None] + [0.0, 0.5]
        for union in (ivs, -ivs[:, ::-1], ties):
            assert interval_content(union, 0.5) \
                == sequential_content(union, 0.5)

    def test_degenerate_rows_match_sequential_merge(self):
        unions = [[(0.0, 1.0), (0.2, 0.3), (0.25, 0.9), (2.0, 3.0)],
                  [(0.5, 1.5)] * 5 + [(3.0, 4.0)] * 3,
                  [(0.7, 0.7), (1.0, 1.0), (0.0, 0.25), (2.0, 2.0)],
                  [(1.0, 0.0), (3.0, 2.0), (4.0, 5.0), (6.0, 7.5)],
                  [(2.0, 1.0)], [(1.0, 1.0)],
                  [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (0.0, 3.0),
                   (5.0, 5.0), (6.0, 4.0), (7.0, 8.0)]]
        for ivs in unions:
            for s in (0.3, 0.5, 0.81, 1.0):
                ref = sequential_content(ivs, s)
                assert interval_content(ivs, s) == ref
                assert interval_content(np.array(ivs), s) == ref

    def test_equal_gaps_merge_right_to_left(self):
        # of two equal gaps the right one merges first, so the two long
        # intervals share one hull; left to right would give 12.28
        ivs = [(0.0, 0.125), (1.125, 11.125), (12.125, 22.125)]
        value = interval_content(ivs, 0.81)
        assert value == sequential_content(ivs, 0.81)
        assert value == top_down_content(ivs, 0.81)
        assert value == pytest.approx(11.96156088394739, rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(grid_unions(), st.one_of(st.sampled_from([0.3, 0.5, 1.0]),
                                    st.floats(0.0, 1.0, exclude_min=True)))
    def test_property_matches_sequential_merge(self, ivs, s):
        assert interval_content(ivs, s) == sequential_content(ivs, s)

    def test_projection_content_refines_downward(self, overlap_ifs):
        s, _ = affinity_dimension(overlap_ifs)
        v = ProjPoint(3.0 * PI / 4.0)
        v6 = hausdorff_content_projection(overlap_ifs, v, s, 6).value
        v10 = hausdorff_content_projection(overlap_ifs, v, s, 10).value
        assert v10 <= v6 + 1e-12

    def test_consistency_on_regular_fixture(self, cone_ifs):
        out = content_consistency(cone_ifs, depth=8, seed=3)
        assert out["cv"] <= 0.2


def periodic_sum(arrs, vecs, word, depth):
    """Oracle for `geometry.transversality_derivative` and
    `geometry.projected_gap`, copied from them at 5f80bea.  Sum of
    A_{word|k} vecs[word_{k+1}] over k < depth, with the word extended
    periodically and A_{word|k} kept as a running product; the letters that
    are not keys of the dict vecs add nothing: their recurrence before
    they composed through `ifs.compose`."""
    acc = np.zeros(2)
    prod = np.eye(2)
    n = len(word)
    for k in range(depth):
        letter = word[k % n]
        if letter in vecs:
            acc = acc + prod @ vecs[letter]
        prod = prod @ arrs[letter - 1]
    return acc


class TestTransversality:
    def quarter_ensemble(self, seed):
        g = rng(seed)
        mats = []
        for _ in range(3):
            arr = g.normal(size=(2, 2))
            arr *= 0.25 / np.linalg.svd(arr, compute_uv=False)[0]
            mats.append(arr)
        return mats

    def test_matches_finite_difference(self):
        mats = self.quarter_ensemble(61)
        ts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.3, 0.8])]
        g = rng(62)
        for _ in range(5):
            theta = float(g.uniform(0, 2 * math.pi))
            w = np.array([math.cos(theta), math.sin(theta)])
            wi, wj = (1, 2, 3), (2, 1, 1)
            val = transversality_derivative(mats, w, wi, wj, depth=40)
            h = 1e-6

            def gap(shift):
                ts2 = list(ts)
                ts2[0] = ts[0] + shift * w
                return projected_gap(mats, ts2, w, wi, wj, depth=40)

            fd = abs(gap(h) - gap(-h)) / (2 * h)
            assert val == pytest.approx(fd, abs=1e-6)

    def test_lower_bound(self):
        mats = self.quarter_ensemble(63)
        tail = transversality_tail_bound(mats, 40)
        g = rng(64)
        for _ in range(10):
            theta = float(g.uniform(0, 2 * math.pi))
            w = np.array([math.cos(theta), math.sin(theta)])
            val = transversality_derivative(mats, w, (1, 3), (2, 2), depth=40)
            # two geometric tails of ratio <= 1/4 against the unit term
            assert val >= 1.0 / 3.0 - tail

    @pytest.mark.parametrize("recurs", [True, False])
    def test_matches_the_periodic_sum(self, recurs):
        # seeded words over three maps, the first with det < 0; word_i's
        # first letter recurs in one of the words, or in neither
        g = rng(65 + recurs)
        mats = np.array(self.quarter_ensemble(65))
        if np.linalg.det(mats[0]) > 0.0:
            mats[0, :, 1] *= -1.0
        ts = g.uniform(-1.0, 1.0, size=(3, 2))
        for _ in range(20):
            wi = (1, *g.integers(1, 4, size=g.integers(0, 5)))
            wj = (2, *g.integers(2, 4, size=g.integers(0, 5)))
            if recurs:
                wj = wj + (1,)
            else:
                wi = (1, *[k for k in wi[1:] if k != 1])
            depth = int(g.integers(1, 41))
            w = g.normal(size=2)
            # both functions take the unit vector along w
            u = w / np.linalg.norm(w)
            want = abs(float(u @ (periodic_sum(mats, {1: u}, wi, depth)
                                  - periodic_sum(mats, {1: u}, wj, depth))))
            got = transversality_derivative(mats, w, wi, wj, depth)
            assert got.hex() == want.hex()
            vecs = dict(enumerate(ts, 1))
            want = float(u @ (periodic_sum(mats, vecs, wi, depth)
                              - periodic_sum(mats, vecs, wj, depth)))
            got = projected_gap(mats, list(ts), w, wi, wj, depth)
            assert got.hex() == want.hex()

    def test_rejects_large_norms(self):
        mats = [np.eye(2) * 0.6, np.eye(2) * 0.3]
        with pytest.raises(HypothesisViolated):
            transversality_derivative(mats, np.array([1.0, 0.0]),
                                      (1, 2), (2, 1))

    def test_rejects_equal_first_letters(self):
        mats = [np.eye(2) * 0.3, np.eye(2) * 0.2]
        with pytest.raises(ValueError):
            transversality_derivative(mats, np.array([1.0, 0.0]),
                                      (1, 2), (1, 1))


class TestNormComparison:
    def test_cone_constant_stable(self, cone_ifs):
        out = bochi_morris_scan(cone_ifs, depth=6)
        assert all(v >= 1.0 for v in out.values())
        assert out[6] <= 1.1 * out[3]


class TestPullBack:
    # levels where a stacked @ on a C-ordered stack and einsum differ in
    # the last bit; mul2 equals einsum bit for bit on every layout
    @pytest.mark.parametrize("name", ["cone_ifs", "overlap_ifs",
                                      "positive_pair"])
    def test_reads_products_through_mul2(self, request, name):
        ifs = request.getfixturevalue(name)
        v = ProjPoint(0.3)
        u = geometry._axis(v)
        level = ifs.level_products(6)
        au = np.einsum("wqp,q->wp", level, u)
        norms = np.linalg.norm(au, axis=1)
        bound = norms * geometry._diam_table(ifs).upper(
            np.arctan2(au[:, 1], au[:, 0]))
        for mats in (level, np.ascontiguousarray(level)):
            assert pull_back(mats, u).tobytes() == au.tobytes()
            assert geometry.projected_diameter_bound(ifs, mats, v) \
                .tobytes() == bound.tobytes()
            assert geometry._hull_half_widths(ifs, mats, u).tobytes() \
                == (norms * ifs.ball_radius).tobytes()

    def test_norm_scan_pulls_back_every_direction(self, cone_ifs):
        # the constant of each level from einsum's pulled-back axes, at
        # the scan's at most 64 directions
        angles = furstenberg_directions(cone_ifs, depth=30).sample_angles(3)
        angles = angles[:: len(angles) // 64 + 1]
        perps = (angles + PI / 2.0) % PI
        us = np.stack([np.cos(perps), np.sin(perps)], axis=1)
        out = bochi_morris_scan(cone_ifs, depth=5)
        for n in range(1, 6):
            prods = cone_ifs.level_products(n)
            a1 = batch_singular_values(prods)[0]
            norms = np.linalg.norm(np.einsum("wqp,kq->wkp", prods, us),
                                   axis=2)
            assert out[n] == float((a1[:, None] / norms).max())
