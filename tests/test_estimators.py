import math

import numpy as np
import pytest

from affinedim.errors import DegenerateRange
from affinedim.estimators import PointCloud, assouad_two_scale, box_dim, \
    grid_count, lower_two_scale, regularity_diagnostic


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
        hi = assouad_two_scale(cloud, n_centers=64)
        lo = lower_two_scale(cloud, n_centers=64)
        assert hi >= lo
        assert hi > 1.5
        assert lo < 1.4

    def test_rejects_bad_pairs(self):
        with pytest.raises(DegenerateRange):
            assouad_two_scale(grid_square(64), pairs=[(0.1, 0.05)])

    def test_deterministic(self):
        cloud = cantor_dust(6)
        assert assouad_two_scale(cloud) == assouad_two_scale(cloud)


class TestRegularity:
    def test_uniform_grid_is_regular(self):
        cloud = grid_square(96)
        w = np.full(len(cloud), 1.0 / len(cloud))
        out = regularity_diagnostic(cloud, w, 2.0)
        assert out["spread"] <= 4.0
        assert out["regular"]

    def test_mass_concentration_is_flagged(self):
        cloud = grid_square(96)
        w = np.full(len(cloud), 1e-9)
        # all the mass on the central grid point; a radius covering the
        # whole square sees it, a small one almost never does
        w[len(w) // 2] = 1.0 - (len(w) - 1) * 1e-9
        out = regularity_diagnostic(cloud, w, 2.0, radii=(0.9, 0.05),
                                    threshold=50.0)
        assert not out["regular"]
