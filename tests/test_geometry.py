import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from affinedim import geometry
from affinedim.carpets import CarpetSpec, fraser_lower, to_ifs
from affinedim.errors import HypothesisViolated, NotSeparated
from affinedim.geometry import DiameterTable, approximate_square_counts, \
    bochi_morris_scan, brute_force_content, content_consistency, \
    grid_carpet_digits, hausdorff_content_projection, interval_content, \
    posc_check, projected_gap, sigma_count, slice_points, slice_root, \
    slice_upper_bound, ssc_check, tangent_dimension_scan, \
    transversality_derivative, transversality_tail_bound, weak_tangent
from affinedim.ifs import AffineMap, Ifs, Matrix2
from affinedim.projective import PI, ProjPoint
from affinedim.thermo import affinity_dimension


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


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
    m = Matrix2(0.6, 0.0, 0.0, 0.6)
    return Ifs([AffineMap(m, (0.0, 0.0)), AffineMap(m, (0.1, 0.0))])


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

        def spy(ifs, depth, cap):
            depths.append(depth)
            return clouds(ifs, depth, cap)

        monkeypatch.setattr(geometry, "_first_level_clouds", spy)
        assert ssc_check(square4).separated == "Overlap"
        assert depths == [6, 7, 8]


class TestDiameterTable:
    @pytest.mark.parametrize("name", ["sim3", "cantor2", "square4",
                                      "positive_pair", "cone_ifs",
                                      "overlap_ifs", "carpet_ifs"])
    def test_hull_widths_match_the_full_cloud(self, name, request):
        ifs = request.getfixturevalue(name)
        table = DiameterTable(ifs)
        pts, _ = ifs._cylinder_centers(ifs._fit_depth(8))
        if name == "cantor2":
            # a flat cloud: the table projects the whole cloud
            with pytest.raises(QhullError):
                ConvexHull(pts)
        # project the full cloud a few directions at a time, so the carpet's
        # 5^8 centres never make a (points x 720) array
        widths = []
        for thetas in np.array_split(table.thetas, 30):
            proj = pts @ np.stack([np.cos(thetas), np.sin(thetas)])
            widths.append(proj.max(axis=0) - proj.min(axis=0))
        assert np.array_equal(table.widths, np.concatenate(widths))


class TestPosc:
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
        # 5^8 cylinder centres would exceed the cap; the diameter table
        # falls back to depth 6 (5^6 <= 20000) instead of raising
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", "20000")
        ifs = to_ifs(carpet_spec)
        rep = posc_check(ifs)
        assert sorted(rep.eta_by_depth) == [2, 3, 4, 5, 6]
        assert not rep.appears_to_hold
        v = ProjPoint(PI / 2.0)
        n, words = sigma_count(ifs, v, ifs.ball_center, 0.1)
        assert n == len(words) >= 1


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
            p, err = cone_ifs.canonical_point(w)
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


class TestTangents:
    def test_window_and_determinism(self, cone_ifs):
        x = cone_ifs.ball_center
        tc = weak_tangent(cone_ifs, x, 0.1, resolution=0.005)
        assert len(tc) > 0
        assert (np.linalg.norm(tc.cloud.points, axis=1) <= 1.0 + 1e-12).all()
        tc2 = weak_tangent(cone_ifs, x, 0.1, resolution=0.005)
        assert np.array_equal(tc.cloud.points, tc2.cloud.points)

    def test_regular_fixture_collapses_spectrum(self):
        sim = Ifs([AffineMap(Matrix2(0.5, 0.0, 0.0, 0.5), t)
                   for t in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))])
        out = tangent_dimension_scan(sim, n_tangents=8, seed=1)
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
        out = tangent_dimension_scan(carpet_ifs, n_tangents=8, seed=1)
        assert out["max_dim"] >= s + 0.15

    def test_grid_carpet_recognition(self, carpet_spec, carpet_ifs, sim3,
                                     cone_ifs):
        assert grid_carpet_digits(carpet_ifs) \
            == (carpet_spec.p, carpet_spec.q, list(carpet_spec.digits))
        # similarities have p == q and stay on the point-cloud path
        assert grid_carpet_digits(sim3) is None
        assert grid_carpet_digits(cone_ifs) is None
        # windows in the single-digit columns see only the column structure
        out = tangent_dimension_scan(carpet_ifs, n_tangents=8, seed=1)
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

    def test_projection_content_refines_downward(self, overlap_ifs):
        s, _ = affinity_dimension(overlap_ifs)
        v = ProjPoint(3.0 * PI / 4.0)
        v6 = hausdorff_content_projection(overlap_ifs, v, s, 6).value
        v10 = hausdorff_content_projection(overlap_ifs, v, s, 10).value
        assert v10 <= v6 + 1e-12

    def test_consistency_on_regular_fixture(self, cone_ifs):
        out = content_consistency(cone_ifs, n_cylinders=10, seed=3)
        assert out["cv"] <= 0.2


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
