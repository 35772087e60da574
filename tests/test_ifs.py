import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from affinedim.errors import BudgetExceeded, IndexOutOfRange, SingularMatrix
from affinedim.geometry import projected_diameter_bound
from affinedim.ifs import AffineMap, Ifs, Matrix2, Word, _cloud_diameter, \
    batch_singular_values, singular_values, svf
from affinedim.projective import ProjPoint, strictly_affine


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestMatrix2:
    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix2(1.0, 2.0, 2.0, 4.0)

    def test_inverse_and_product(self):
        g = rng(11)
        for _ in range(50):
            arr = g.normal(size=(2, 2))
            if abs(np.linalg.det(arr)) < 1e-3:
                continue
            m = Matrix2.from_array(arr)
            assert np.allclose((m @ m.inverse).array, np.eye(2), atol=1e-12)
            assert np.allclose(m.transpose.array, arr.T)

    def test_singular_values_match_svd(self):
        g = rng(12)
        for _ in range(200):
            arr = g.normal(size=(2, 2))
            if abs(np.linalg.det(arr)) < 1e-6:
                continue
            a1, a2 = singular_values(Matrix2.from_array(arr))
            ref = np.linalg.svd(arr, compute_uv=False)
            assert a1 == pytest.approx(ref[0], rel=1e-10)
            assert a2 == pytest.approx(ref[1], rel=1e-8)
            assert a1 * a2 == pytest.approx(abs(np.linalg.det(arr)), rel=1e-12)

    def test_batch_agrees_with_scalar(self):
        g = rng(13)
        mats = g.normal(size=(64, 2, 2))
        a1, a2 = batch_singular_values(mats)
        for k in range(64):
            s1, s2 = singular_values(Matrix2.from_array(mats[k]))
            assert a1[k] == pytest.approx(s1, rel=1e-12)
            assert a2[k] == pytest.approx(s2, rel=1e-12)


class TestSvf:
    def test_branches(self):
        m = Matrix2(0.5, 0.0, 0.0, 0.2)
        assert svf(m, 0.0) == pytest.approx(1.0)
        assert svf(m, 1.0) == pytest.approx(0.5)
        assert svf(m, 1.5) == pytest.approx(0.5 * 0.2 ** 0.5)
        assert svf(m, 2.0) == pytest.approx(0.1)
        assert svf(m, 3.0) == pytest.approx(0.1 ** 1.5)

    def test_continuity_at_breakpoints(self):
        m = Matrix2(0.7, 0.1, -0.2, 0.4)
        for s0 in (1.0, 2.0):
            assert svf(m, s0 - 1e-12) == pytest.approx(svf(m, s0 + 1e-12),
                                                       rel=1e-9)

    def test_submultiplicative(self):
        g = rng(14)
        for _ in range(100):
            x = Matrix2.from_array(0.5 * g.normal(size=(2, 2)))
            y = Matrix2.from_array(0.5 * g.normal(size=(2, 2)))
            s = float(g.uniform(0.0, 2.5))
            assert svf(x @ y, s) <= svf(x, s) * svf(y, s) * (1 + 1e-12)


class TestWord:
    def test_str_and_empty(self):
        assert str(Word((1, 2, 1))) == "121"
        assert str(Word()) == "-"
        assert len(Word()) == 0

    def test_rejects_zero_letter(self):
        with pytest.raises(IndexOutOfRange):
            Word((0, 1))

    def test_prefix_relations(self):
        w = Word((1, 2, 3, 1))
        assert w.prefix(2) == Word((1, 2))
        assert w.parent == Word((1, 2, 3))
        assert w.reversed == Word((1, 3, 2, 1))
        assert Word((1, 2)).is_prefix_of(w)
        assert not Word((2,)).is_prefix_of(w)
        assert Word((1, 2, 9)).common_prefix(w) == Word((1, 2))

    def test_concat(self):
        assert Word((1,)).concat(Word((2, 3))) == Word((1, 2, 3))


class TestIfs:
    def test_ball_is_invariant(self, cone_ifs):
        c, r = cone_ifs.ball_center, cone_ifs.ball_radius
        for m in cone_ifs.maps:
            a1 = singular_values(m.linear)[0]
            assert np.linalg.norm(m(c) - c) + a1 * r <= r * (1 + 1e-9)

    def test_rejects_expanding_map(self):
        with pytest.raises(ValueError):
            Ifs([AffineMap(Matrix2(1.2, 0.0, 0.0, 0.5), (0.0, 0.0))])

    def test_compose_word_matches_manual(self, cone_ifs):
        w = Word((2, 1, 3))
        aff = cone_ifs.compose_word(w)
        x = np.array([0.3, -0.1])
        m2, m1, m3 = (cone_ifs.maps[i] for i in (1, 0, 2))
        assert np.allclose(aff(x), m2(m1(m3(x))), atol=1e-14)
        assert np.allclose(cone_ifs.word_matrix(w), aff.linear.array)

    def test_level_products_order(self, cone_ifs):
        prods = cone_ifs.level_products(3)
        assert prods.shape == (27, 2, 2)
        w = Word((2, 1, 3))
        k = cone_ifs.flat_from_word(w)
        assert np.allclose(prods[k], cone_ifs.word_matrix(w))

    def test_flat_roundtrip(self, cone_ifs):
        for flat in range(27):
            w = cone_ifs.word_from_flat(flat, 3)
            assert cone_ifs.flat_from_word(w) == flat

    def test_canonical_point_error_radius(self, cone_ifs):
        w = Word((1, 3, 2, 2))
        p, err = cone_ifs.canonical_point(w)
        # a deeper refinement of the same cylinder stays inside the radius
        q, _ = cone_ifs.canonical_point(w.concat(Word((1, 1, 1))))
        assert np.linalg.norm(p - q) <= err

    def test_diam_bounds_bracket(self, sim3):
        lo, hi = sim3.diam_bounds()
        # the attractor contains the three map fixed points
        fixed = np.array([m.fixed_point() for m in sim3.maps])
        spread = max(np.linalg.norm(a - b) for a in fixed for b in fixed)
        assert lo <= spread <= hi
        assert hi - lo < 0.01 * hi

    def test_json_roundtrip(self, cone_ifs):
        data = json.loads(json.dumps(cone_ifs.to_json()))
        back = Ifs.from_json(data)
        for m1, m2 in zip(cone_ifs.maps, back.maps):
            assert m1.linear == m2.linear
            assert m1.translation == m2.translation
        assert back.ball_radius == cone_ifs.ball_radius


class TestStoppingSets:
    def test_uniform_ratio_counts(self, sim3):
        # similarity ratio 1/3: scale diam/27 stops exactly at depth 3
        ss = sim3.stopping_set(sim3.diam_upper / 27.0)
        assert len(ss) == 27
        assert all(len(w) == 3 for w in ss.words)
        assert ss.is_prefix_free()

    def test_huge_scale_gives_first_level(self, sim3):
        ss = sim3.stopping_set(10.0 * sim3.diam_upper)
        assert sorted(str(w) for w in ss.words) == ["1", "2", "3"]

    def test_prefix_free_nonuniform(self, cone_ifs):
        ss = cone_ifs.stopping_set(0.0015 * cone_ifs.diam_upper)
        assert ss.is_prefix_free()
        # mixed contraction rates produce mixed word lengths
        lengths = {len(w) for w in ss.words}
        assert len(lengths) > 1

    def test_budget_guard(self, cone_ifs):
        with pytest.raises(BudgetExceeded):
            cone_ifs.stopping_set(cone_ifs.diam_upper * 1e-9, cap=1000)


class TestCylinderCenters:
    def test_cached_read_only_and_capped(self, cone_ifs):
        pts, errs = cone_ifs._cylinder_centers(5)
        again = cone_ifs._cylinder_centers(5)
        assert again[0] is pts and again[1] is errs
        assert not pts.flags.writeable and not errs.flags.writeable
        # the word cap holds on a cache hit too
        with pytest.raises(BudgetExceeded):
            cone_ifs._cylinder_centers(5, cap=3 ** 5 - 1)


class TestAttractorSample:
    def test_cylinder_centers_resolution(self, cone_ifs):
        cloud = cone_ifs.attractor_sample(0.002)
        assert cloud.resolution <= 0.002 * cone_ifs.diam_upper
        assert len(cloud) > 50

    def test_chaos_game_deterministic(self, cone_ifs):
        a = cone_ifs.attractor_sample(0.01, mode="chaos-game", seed=5,
                                      count=500)
        b = cone_ifs.attractor_sample(0.01, mode="chaos-game", seed=5,
                                      count=500)
        assert np.array_equal(a.points, b.points)

    def test_chaos_game_points_near_cylinder_cloud(self, cone_ifs):
        chaos = cone_ifs.attractor_sample(0.02, mode="chaos-game", seed=1,
                                          count=300)
        cover = cone_ifs.attractor_sample(0.005)
        from scipy.spatial import cKDTree
        d, _ = cKDTree(cover.points).query(chaos.points)
        assert d.max() <= 0.01 * cone_ifs.diam_upper


def reference_stopping_words(ifs, stop):
    """Plain recursive enumeration of the cylinder tree: the words w whose
    product satisfies stop(A_w) and no proper prefix does, in
    lexicographic order, each product built node by node as A_w A_i."""
    words = []

    def visit(word, mat):
        if stop(mat):
            words.append(Word(word))
            return
        for i, m in enumerate(ifs.maps, start=1):
            visit(word + (i,), mat @ m.linear.array)

    for i, m in enumerate(ifs.maps, start=1):
        visit((i,), m.linear.array)
    return words


def reference_witness(ifs, depth=6):
    """Least proximal word of the shortest length, by brute force."""
    for n in range(1, depth + 1):
        for letters in itertools.product(range(1, ifs.n_maps + 1), repeat=n):
            arr = ifs.word_matrix(letters)
            tr = arr[0, 0] + arr[1, 1]
            det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
            if tr * tr > 4.0 * det + 1e-14 and abs(tr) > 1e-14:
                return Word(letters)
    return None


# (fixture, scale as a fraction of diam_upper, rho); sim3 is conformal,
# alpha2 = alpha1, so only rho above its diameter lets the aspect stop
FRONTIER_CASES = [("sim3", 0.003, 2.0), ("cone_ifs", 0.003, 0.02),
                  ("positive_pair", 0.01, 0.05)]


class TestFrontier:
    @pytest.mark.parametrize("name,frac,rho", FRONTIER_CASES)
    @pytest.mark.parametrize("criterion", ["by-alpha1", "by-alpha2-aspect",
                                           "by-projected-diameter"])
    def test_stopping_set_matches_recursion(self, request, name, frac, rho,
                                            criterion):
        ifs = request.getfixturevalue(name)
        diam = ifs.diam_upper
        r = frac * diam
        v = ProjPoint(0.3)

        def stop(mat):
            a1, a2 = (x[0] for x in batch_singular_values(mat[None]))
            if criterion == "by-alpha1":
                return a1 * diam <= r
            if criterion == "by-alpha2-aspect":
                return a2 * diam < rho * a1 and a1 * diam <= r
            return projected_diameter_bound(ifs, mat[None], v)[0] <= r

        ref = reference_stopping_words(ifs, stop)
        kw = dict(criterion=criterion, rho=rho, direction=v)
        assert list(ifs.stopping_set(r, **kw).words) == ref
        assert len(ifs.stopping_set(r, cap=len(ref), **kw)) == len(ref)
        with pytest.raises(BudgetExceeded):
            ifs.stopping_set(r, cap=len(ref) - 1, **kw)

    @pytest.mark.parametrize("name", ["sim3", "cone_ifs", "positive_pair"])
    def test_strictly_affine_witness_is_least_shortest(self, request, name):
        ifs = request.getfixturevalue(name)
        ref = reference_witness(ifs)
        assert strictly_affine(ifs) == (ref is not None, ref)

    def test_deep_walk_raises_instead_of_truncating(self):
        # the slow map needs about 690 letters to reach the scale, past
        # the deepest level the walk may enter
        slow = Ifs([AffineMap(Matrix2(0.99, 0.0, 0.0, 0.99), (0.0, 0.0)),
                    AffineMap(Matrix2(0.1, 0.0, 0.0, 0.1), (1.0, 0.0))])
        with pytest.raises(BudgetExceeded):
            slow.stopping_set(1e-3 * slow.diam_upper)


def collinear_ifs(n_maps):
    """Similarities of ratio 0.3 with translations on the line through 0
    and (1, 2); the attractor is a Cantor set from 0 to (1, 2)."""
    return Ifs([AffineMap(Matrix2(0.3, 0.0, 0.0, 0.3), (t, 2.0 * t))
                for t in np.linspace(0.0, 0.7, n_maps)])


class TestFlatClouds:
    def test_collinear_diameter_bounds(self):
        lo, hi = collinear_ifs(3).diam_bounds(depth=5)
        assert lo <= math.sqrt(5.0) <= hi
        assert hi - lo < 0.05

    def test_collinear_cloud_is_exact_in_linear_memory(self):
        t = rng(21).uniform(0.0, 1.0, size=2000)
        pts = np.stack([t, 2.0 * t], axis=1)
        exact = float(np.sqrt(((pts[t.argmax()] - pts[t.argmin()]) ** 2)
                              .sum()))
        tracemalloc.start()
        try:
            d = _cloud_diameter(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == exact
        # a pairwise difference array would take 2000^2 * 16 B = 64 MB
        assert peak < 1_000_000
