import math
import re
import sys
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from affinedim import estimators
from affinedim.errors import DegenerateRange
from affinedim.estimators import N_CENTERS, OCCUPANCY_CELLS, CoverReport, \
    PointCloud, _default_pairs, _distinct, assouad_two_scale, box_dim, \
    grid_count, lower_two_scale, morton_keys, two_scale_exponents


def grid_square(n=512):
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return PointCloud(pts, 1.0 / (n - 1))


def cantor_points(level=9):
    """Left endpoints of the level-n middle-third construction."""
    xs = np.array([0.0])
    for _ in range(level):
        xs = np.concatenate([xs / 3.0, xs / 3.0 + 2.0 / 3.0])
    return np.sort(xs)


def cantor_dust(level=8):
    xs = cantor_points(level)
    pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    return PointCloud(pts, 3.0 ** -level)


def unique_cells(points, delta, anchor):
    """Reference count: distinct clamped grid cells, one row per point."""
    scaled = (points - anchor) / delta
    cells = np.floor(scaled).astype(np.int64)
    top = np.maximum(np.ceil(scaled.max(axis=0)).astype(np.int64) - 1, 0)
    cells = np.minimum(cells, top)
    return len(np.unique(cells, axis=0))


class TestGridCount:
    @pytest.mark.parametrize("shape", [(3000,), (3000, 1), (3000, 2)])
    def test_matches_unique_cells_on_random_clouds(self, shape):
        g = np.random.Generator(np.random.Philox(key=5))
        for _ in range(3):
            pts = g.uniform(-1.0, 2.0, size=shape)
            anchor = pts.min(axis=0)
            for delta in (1.0, 0.3, 0.07, 0.011, 1e-3, 1e-5):
                assert grid_count(pts, delta, anchor) \
                    == unique_cells(pts, delta, anchor)

    def test_far_edge_and_below_anchor_match_unique_cells(self):
        g = np.random.Generator(np.random.Philox(key=6))
        pts = g.uniform(size=(400, 2))
        # points on the far edge, and an ulp below the anchor, where
        # rounding puts a cell at -1
        pts[:40, 0] = 1.0
        pts[40:80, 1] = 1.0
        pts[80:120] = np.nextafter(0.0, -1.0)
        pts[120:160, 0] = np.nextafter(0.0, -1.0)
        for delta in (0.5, 0.25, 0.1, 1.0 / 64, 0.003):
            assert grid_count(pts, delta, np.zeros(2)) \
                == unique_cells(pts, delta, np.zeros(2))

    def test_duplicated_points_count_once(self):
        g = np.random.Generator(np.random.Philox(key=7))
        base = g.uniform(size=(300, 2))
        pts = g.permutation(np.repeat(base, 4, axis=0))
        for delta in (0.2, 0.01, 1e-4):
            n = grid_count(pts, delta, np.zeros(2))
            assert n == unique_cells(pts, delta, np.zeros(2))
            assert n == grid_count(base, delta, np.zeros(2))

    def test_empty_cloud_has_no_boxes(self):
        assert grid_count(np.zeros((0, 2)), 0.1, np.zeros(2)) == 0

    def test_key_overflow_is_refused(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
        # 2^31 cells per axis still fit in one int64 key
        assert grid_count(pts, 2.0 ** -31, np.zeros(2)) == 3
        with pytest.raises(DegenerateRange):
            grid_count(pts, 1e-10, np.zeros(2))

    @pytest.mark.parametrize("pts, anchor", [
        # every coordinate once cast to INT64_MIN, so three cells counted 1
        (np.array([[1e30], [2e30], [3e30]]), np.zeros(1)),
        (np.array([[1e30, 0.0], [2e30, 0.0]]), np.zeros(2)),
        (np.array([[0.0, 0.0], [np.nan, 1.0]]), np.zeros(2)),
        (np.array([[0.0, -np.inf], [1.0, 1.0]]), np.zeros(2)),
        (np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([-1e30, 0.0])),
    ])
    def test_unrepresentable_range_is_refused(self, pts, anchor):
        with pytest.raises(DegenerateRange):
            grid_count(pts, 1.0, anchor)

    def test_range_is_refused_before_the_cast(self):
        # a scaled range of 1e19 once wrapped on the cast to int64
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRange, match="outside an int64"):
                grid_count(pts, 1e-19, np.zeros(2))

    def test_counts_occupied_cells(self):
        pts = np.array([[0.05, 0.05], [0.95, 0.95], [0.06, 0.04]])
        assert grid_count(pts, 0.5, np.zeros(2)) == 2

    def test_far_edge_has_no_phantom_box(self):
        # points exactly on the top edge fold into the last cell
        pts = np.stack(np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]),
                       axis=-1).reshape(-1, 2)
        assert grid_count(pts, 0.5, np.zeros(2)) == 4

    def test_subset_monotone(self):
        g = np.random.Generator(np.random.Philox(key=21))
        pts = g.uniform(size=(500, 2))
        sub = pts[:200]
        for delta in (0.3, 0.1, 0.03):
            assert grid_count(sub, delta, np.zeros(2)) \
                <= grid_count(pts, delta, np.zeros(2))


class TestBoxDim:
    def test_square(self):
        rep = box_dim(grid_square())
        assert rep.dimension == pytest.approx(2.0, abs=0.05)

    def test_single_point(self):
        rep = box_dim(PointCloud(np.zeros((1, 2)), 1e-6))
        assert rep.dimension == 0.0

    def test_segment(self):
        pts = np.stack([np.linspace(0, 1, 4000), np.zeros(4000)], axis=1)
        rep = box_dim(PointCloud(pts, 1.0 / 3999))
        assert rep.dimension == pytest.approx(1.0, abs=0.05)

    def test_cantor_dust(self):
        rep = box_dim(cantor_dust(), base=3.0)
        assert rep.dimension == pytest.approx(2 * math.log(2) / math.log(3),
                                              abs=0.05)

    def test_counts_monotone_in_scale(self):
        rep = box_dim(grid_square(512))
        assert all(a <= b for a, b in zip(rep.counts, rep.counts[1:]))

    def test_refuses_scales_below_resolution(self):
        with pytest.raises(DegenerateRange):
            box_dim(grid_square(64), scale_lo=1e-6)

    def test_deterministic(self):
        cloud = cantor_dust(8)
        r1 = box_dim(cloud, base=3.0)
        r2 = box_dim(cloud, base=3.0)
        assert r1 == r2


class TestTwoScale:
    def test_square_assouad(self):
        # the localized count overshoots dim by the boundary +1 per axis
        est = assouad_two_scale(grid_square())
        assert 1.8 <= est <= 2.6

    def test_square_lower(self):
        est = lower_two_scale(grid_square())
        assert est == pytest.approx(2.0, abs=0.25)

    def test_ordering_on_mixed_cloud(self):
        # a segment with an attached square patch: assouad sees the square,
        # lower sees the segment
        seg = np.stack([np.linspace(-1, 0, 3000, endpoint=False),
                        np.zeros(3000)], axis=1)
        sq = grid_square(80).points * 0.5
        cloud = PointCloud(np.concatenate([seg, sq]), 1.0 / 3000)
        hi = assouad_two_scale(cloud)
        lo = lower_two_scale(cloud)
        assert hi >= lo
        assert hi > 1.5
        assert lo < 1.4

    def test_deterministic(self):
        cloud = cantor_dust(6)
        assert assouad_two_scale(cloud) == assouad_two_scale(cloud)


def reference_exponents(cloud, pairs, n_centers, seed):
    """The whole-cloud walk: one np.linalg.norm over the cloud for each
    center and pair, in the given pair order, counted by unique_cells."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.choice(len(cloud), size=min(n_centers, len(cloud)), replace=False)
    out = []
    for center in cloud.points[idx]:
        for R, r in pairs:
            d = np.linalg.norm(cloud.points - center, axis=1)
            local = cloud.points[d <= R]
            if len(local):
                n = unique_cells(local, r, center - R)
                out.append(math.log(n) / math.log(R / r))
    return out


def integer_grid(n=41):
    # integer centers sit at exactly distance 20 from lattice points
    # ((12, 16) and 20 along the axes), and at 40 along the axes
    t = np.arange(n, dtype=float)
    return PointCloud(np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2),
                      0.5)


def uniform_square():
    return PointCloud(np.random.Generator(np.random.Philox(key=11)).uniform(
        -1.0, 1.0, size=(4000, 2)), 1e-3)


class TestCoveringWalk:
    @pytest.mark.parametrize("cloud", [integer_grid(), cantor_dust(6),
                                       uniform_square()],
                             ids=["integer_grid", "cantor_dust",
                                  "uniform_square"])
    def test_matches_whole_cloud_walk(self, cloud):
        pairs = _default_pairs(cloud)
        for seed in (1, 2, 7):
            assert sorted(two_scale_exponents(cloud, seed)) \
                == sorted(reference_exponents(cloud, pairs, N_CENTERS, seed))

    def test_integer_grid_has_points_on_the_ball_edges(self):
        # the walk keeps points at distance exactly R, with <=, as the
        # whole-cloud walk does; the grid puts some there for every seed
        cloud = integer_grid()
        pairs = _default_pairs(cloud)
        assert pairs == [(40.0, 2.5), (20.0, 1.25)]
        for seed in (1, 2, 7):
            rng = np.random.Generator(np.random.Philox(key=seed))
            idx = rng.choice(len(cloud), size=N_CENTERS, replace=False)
            dist = np.linalg.norm(cloud.points[None]
                                  - cloud.points[idx][:, None], axis=2)
            assert all((dist == R).any() for R, _ in pairs)

    @pytest.mark.parametrize("cloud", [integer_grid(), cantor_dust(6),
                                       cantor_dust(7), uniform_square(),
                                       grid_square(64), grid_square(512)])
    def test_default_pairs_fall_and_keep_their_ratio(self, cloud):
        # the walk cuts each ball from the one before, so R must fall
        pairs = _default_pairs(cloud)
        assert all(a[0] > b[0] for a, b in zip(pairs, pairs[1:]))
        assert all(r >= 2.0 * cloud.resolution and R / r == 16.0
                   for R, r in pairs)

    def test_default_pairs_match_whole_cloud_walk(self):
        cloud = cantor_dust(7)
        ext = cloud.extent
        pairs = [(ext / 2.0 ** k, ext / 2.0 ** (k + 4)) for k in range(4)]
        assert sorted(two_scale_exponents(cloud, 3)) \
            == sorted(reference_exponents(cloud, pairs, N_CENTERS, 3))

    def test_wrappers_take_max_and_min(self):
        cloud = cantor_dust(6)
        exponents = two_scale_exponents(cloud, 5)
        assert assouad_two_scale(cloud, seed=5) == max(exponents)
        assert lower_two_scale(cloud, seed=5) == min(exponents)


def per_scale_box_dim(cloud, scale_lo=None, base=2.0):
    """The box-counting fit with one grid_count per scale, as box_dim took
    every count before its dyadic path: the oracle of that path."""
    if len(cloud) == 0:
        raise DegenerateRange("empty cloud")
    ext = cloud.extent
    if ext == 0.0:
        return CoverReport((cloud.resolution,) * 1, (1,), 0.0, 0.0)
    scale_hi = ext / 4.0
    if scale_lo is None:
        scale_lo = max(6.0 * cloud.resolution, ext * 2.0 ** -12)
    if scale_lo < 2.0 * cloud.resolution:
        raise DegenerateRange(
            f"scale_lo {scale_lo} below 2x resolution {2 * cloud.resolution}")
    if not scale_lo < scale_hi:
        raise DegenerateRange(f"empty scale range [{scale_lo}, {scale_hi}]")
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


def same_fit(cloud, scale_lo=None):
    """box_dim and the per-scale oracle give the same report, or raise
    the same DegenerateRange."""
    try:
        want = per_scale_box_dim(cloud, scale_lo)
    except DegenerateRange as e:
        with pytest.raises(DegenerateRange, match=re.escape(str(e))):
            box_dim(cloud, scale_lo)
        return None
    got = box_dim(cloud, scale_lo)
    assert got == want
    return got


@st.composite
def dyadic_clouds(draw):
    """Clouds of 1 to 80 points, in one or two dimensions, with an origin
    and a side that are exact in binary.  Lattice points i / 2^m of the
    unit side sit on exact cell multiples (0 and 2^m pin the extent on
    the first axis, so 1.0 is a far edge); others are uniform.  Points
    repeat, and a second axis may be flat."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(0, 14))
    lattice = st.integers(0, 2 ** m).map(lambda i: i / 2.0 ** m)
    coord = st.one_of(lattice, st.floats(0.0, 1.0))
    n = draw(st.integers(1, 80))
    unit = np.array(draw(st.lists(st.lists(coord, min_size=dim,
                                           max_size=dim),
                                  min_size=n, max_size=n)))
    if draw(st.booleans()):
        unit = np.concatenate([unit, np.zeros((1, dim)),
                               np.eye(1, dim)])
    if dim == 2 and draw(st.booleans()):
        unit[:, 1] = draw(coord)
    repeats = draw(st.integers(1, 3))
    unit = np.repeat(unit, repeats, axis=0)
    origin = draw(st.integers(-8, 8))
    side = 2.0 ** draw(st.integers(-6, 6))
    pts = origin + side * unit
    resolution = side * 2.0 ** -draw(st.integers(2, 20))
    return PointCloud(pts, resolution)


class TestDyadicCounts:
    @settings(max_examples=300, deadline=None)
    @given(dyadic_clouds(), st.booleans())
    def test_matches_one_grid_count_per_scale(self, cloud, hard_floor):
        same_fit(cloud, 2.0 * cloud.resolution if hard_floor else None)

    @pytest.mark.parametrize("cloud", [
        PointCloud(np.random.Generator(np.random.Philox(key=3)).uniform(
            size=(4000, 2)), 1e-4),
        cantor_dust(7), PointCloud(np.zeros((1, 2)), 1e-3),
        PointCloud(np.linspace(0.0, 1.0, 3001), 1e-4),
        PointCloud(np.stack([np.linspace(-1.0, 3.0, 5000),
                             np.full(5000, 0.25)], axis=1), 1e-4),
    ], ids=["square", "cantor", "one_point", "segment_1d", "flat_2d"])
    def test_takes_no_grid_count_at_base_2(self, cloud, monkeypatch):
        want = per_scale_box_dim(cloud)

        def refused(*args):
            raise AssertionError("grid_count called at base 2")
        monkeypatch.setattr(estimators, "grid_count", refused)
        assert box_dim(cloud) == want

    @pytest.mark.parametrize("dim,exp", [(1, 40), (1, 70), (2, 28),
                                         (2, 40)])
    def test_fine_grids_match_or_refuse_alike(self, dim, exp):
        # 62 key bits hold 62 halvings of a 1-D cloud and 31 of a 2-D
        # one; past that box_dim counts scale by scale, and an int64
        # refuses the finest scales just as it refuses them there
        g = np.random.Generator(np.random.Philox(key=dim * exp))
        pts = g.uniform(size=(500, dim))
        pts[0], pts[1] = 0.0, 1.0
        same_fit(PointCloud(pts, 2.0 ** -exp), 2.0 ** -exp * 2.0)

    def test_subnormal_finest_scale_counts_scale_by_scale(self):
        # ext / 2^23 is subnormal and rounded, so the scales no longer
        # halve exactly and box_dim counts scale by scale
        ext = (2.0 ** 52 + 1.0) * 2.0 ** -1052
        g = np.random.Generator(np.random.Philox(key=23))
        pts = np.concatenate([[0.0, ext], g.uniform(0.0, ext, 400)])
        cloud = PointCloud(pts, 0.45 * ext * 2.0 ** -23)
        rep = same_fit(cloud, 2.0 * cloud.resolution)
        assert 0.0 < rep.scales[-1] < sys.float_info.min

    def test_scales_without_a_finite_log_refuse(self):
        # 1 / delta overflows below about 5.6e-309, and log(1/delta) with
        # it; the fit once failed inside np.polyfit with LinAlgError
        pts = np.array([0.0, 2.0 ** -1010, 3.0 * 2.0 ** -1030])
        cloud = PointCloud(pts, 2.0 ** -1033)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRange, match="log"):
                box_dim(cloud, 2.0 * cloud.resolution)


def mask_spread_keys(cells_x, cells_y):
    """Morton keys of two axes of 32-bit cells by five magic-mask steps
    per axis, moving the 32 bits of a cell to every other bit place, as
    `geometry._block_tree` spread them before `morton_keys`: its first
    oracle."""
    keys = np.zeros(len(cells_x), dtype=np.uint64)
    for axis, cells in enumerate((cells_x, cells_y)):
        cells = cells.astype(np.uint64)
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                            (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                            (1, 0x5555555555555555)):
            cells = (cells | (cells << np.uint64(shift))) & np.uint64(mask)
        keys |= cells << np.uint64(axis)
    return keys


def byte_table_keys(cells):
    """Morton keys spread a byte at a time through the table of the 256
    bytes with their bits spread dim apart, for any number of axes, as
    `_dyadic_counts` spread them before `morton_keys`: its second
    oracle."""
    dim = len(cells)
    v = np.arange(256)
    table = np.zeros(256, dtype=np.int64)
    for b in range(8):
        table |= ((v >> b) & 1) << (b * dim)
    keys = np.zeros(len(cells[0]), dtype=np.uint64)
    for k, col in enumerate(cells):
        for byte in range((int(col.max()).bit_length() + 7) // 8):
            keys |= table[(col >> 8 * byte) & 255].astype(np.uint64) \
                << np.uint64(8 * byte * dim + k)
    return keys


class TestMortonKeys:
    @pytest.mark.parametrize("size", [1, 5, 1000, 15625])
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_matches_the_mask_spread(self, size, dtype):
        g = np.random.Generator(np.random.Philox(key=size))
        cells = g.integers(0, 2 ** 32, size=(2, size), dtype=np.uint64)
        # the least and the greatest 32-bit cell, and cells of one byte
        cells[:, 0] = (0, 2 ** 32 - 1)
        cells[:, 1::3] = [[2 ** 32 - 1], [0]]
        cells[:, 2::5] >>= np.uint64(24)
        keys = morton_keys([c.astype(dtype) for c in cells])
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, mask_spread_keys(*cells))

    @pytest.mark.parametrize("dim,bits", [(1, 1), (1, 9), (1, 62), (2, 3),
                                          (2, 17), (2, 31), (3, 8),
                                          (3, 21), (4, 16)])
    def test_matches_the_byte_table(self, dim, bits):
        g = np.random.Generator(np.random.Philox(key=dim * 100 + bits))
        cells = g.integers(0, 2 ** bits, size=(dim, 300), dtype=np.int64)
        cells[:, 0], cells[:, 1] = 0, 2 ** bits - 1
        assert np.array_equal(morton_keys(list(cells)),
                              byte_table_keys(list(cells)))


def sorted_distinct(keys):
    """The count of distinct keys that a sort gives: the grid_count of
    the sort path alone."""
    keys = np.sort(keys)
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


class TestOccupancyCount:
    @pytest.mark.parametrize("n_cells", [1, 2, 33 * 33, OCCUPANCY_CELLS - 1,
                                         OCCUPANCY_CELLS,
                                         OCCUPANCY_CELLS + 1,
                                         4 * OCCUPANCY_CELLS])
    def test_matches_the_sort_count(self, n_cells):
        g = np.random.Generator(np.random.Philox(key=n_cells))
        for size in (1, 7, 1000, 3 * n_cells):
            keys = g.integers(0, n_cells, size=size)
            assert _distinct(keys.copy(), n_cells) == sorted_distinct(keys)
        # the first and the last cell of the grid
        keys = np.array([n_cells - 1, 0, n_cells - 1])
        assert _distinct(keys.copy(), n_cells) == sorted_distinct(keys)

    @pytest.mark.parametrize("side", [255, 256, 257])
    def test_grids_either_side_of_the_threshold(self, side):
        # side^2 cells: 65,025 and 65,536 are marked, 66,049 sorted
        g = np.random.Generator(np.random.Philox(key=side))
        pts = g.uniform(size=(20000, 2))
        pts[0], pts[1] = 0.0, 1.0
        for n_points in (3, 2000, 20000):
            sub = pts[:n_points]
            delta = 1.0 / side
            assert grid_count(sub, delta, np.zeros(2)) \
                == unique_cells(sub, delta, np.zeros(2))
            columns = np.ascontiguousarray(sub.T).T
            assert grid_count(columns, delta, np.zeros(2)) \
                == unique_cells(sub, delta, np.zeros(2))
