import math

import numpy as np
import pytest

from affinedim.errors import Inconclusive
from affinedim.ifs import Ifs
from affinedim.projective import PI, Multicone, ProjInterval, ProjPoint, \
    act, act_angle, certify_invariance, classify_irreducibility, \
    find_invariant_multicone, furstenberg_directions, is_dominated, \
    merge_intervals, strictly_affine


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def rotation_ifs(scale=0.5, angle=1.0):
    c, s = math.cos(angle), math.sin(angle)
    rot = [[scale * c, -scale * s], [scale * s, scale * c]]
    return Ifs([rot, rot], [(0.0, 0.0), (0.3, 0.1)])


def swap_ifs():
    """Two maps preserving the unordered pair {x-axis, y-axis} with a
    genuine swap: irreducible but not strongly."""
    swap = [[0.0, 0.5], [0.4, 0.0]]
    diag = [[0.5, 0.0], [0.0, 0.3]]
    return Ifs([swap, diag], [(0.0, 0.0), (0.4, 0.2)])


class TestProjPoint:
    def test_angle_mod_pi(self):
        p = ProjPoint(PI + 0.3)
        assert p.angle == pytest.approx(0.3)

    def test_dist_is_sine(self):
        g = rng(31)
        for _ in range(50):
            t1, t2 = g.uniform(0, PI, 2)
            d = ProjPoint(t1).dist(ProjPoint(t2))
            assert d == pytest.approx(abs(math.sin(t1 - t2)), abs=1e-12)

    def test_act_matches_direct(self):
        g = rng(32)
        for _ in range(50):
            arr = g.normal(size=(2, 2))
            if abs(np.linalg.det(arr)) < 1e-6:
                continue
            theta = float(g.uniform(0, PI))
            img = arr @ np.array([math.cos(theta), math.sin(theta)])
            expect = math.atan2(img[1], img[0]) % PI
            assert act_angle(arr, theta) == pytest.approx(expect, abs=1e-12)
            assert act(arr, ProjPoint(theta)).angle == pytest.approx(expect,
                                                                     abs=1e-12)


class TestIntervals:
    def test_contains_with_wraparound(self):
        iv = ProjInterval(3.0, 0.3)      # wraps past pi
        assert iv.contains_angle(3.1)
        assert iv.contains_angle(0.1)
        assert not iv.contains_angle(1.5)

    def test_merge_overlapping(self):
        out = merge_intervals([ProjInterval(0.1, 0.3), ProjInterval(0.3, 0.3),
                               ProjInterval(2.0, 0.2)])
        assert len(out) == 2
        widths = sorted(iv.width for iv in out)
        assert widths[0] == pytest.approx(0.2)
        assert widths[1] == pytest.approx(0.5)

    def test_merge_across_zero(self):
        out = merge_intervals([ProjInterval(3.0, 0.3), ProjInterval(0.1, 0.2)])
        assert len(out) == 1
        assert out[0].width == pytest.approx(PI - 3.0 + 0.3)

    def test_image_preserves_membership(self):
        g = rng(34)
        iv = ProjInterval(0.4, 0.5)
        for _ in range(20):
            arr = g.normal(size=(2, 2))
            if abs(np.linalg.det(arr)) < 1e-3:
                continue
            img = iv.image(arr)
            # endpoints can land one ulp outside under orientation flips
            for t in np.linspace(0.01, 0.99, 9):
                theta = iv.start + t * iv.width
                assert img.contains_angle(act_angle(arr, theta))

    def test_complement_widths(self):
        mc = Multicone((ProjInterval(0.2, 0.4), ProjInterval(1.5, 0.3)))
        comp = mc.complement()
        widths = [iv.width for iv in mc.intervals + comp.intervals]
        assert sum(widths) == pytest.approx(PI)


class TestDomination:
    def test_cone_fixture_certified(self, cone_ifs):
        out = is_dominated(cone_ifs)
        assert out["certified"]
        cone = out["multicone"]
        assert certify_invariance(cone, cone_ifs.lins)

    def test_image_strictly_inside(self, cone_ifs):
        cone = find_invariant_multicone(cone_ifs)
        for arr in cone_ifs.lins:
            img = cone.image(arr)
            for iv in img.intervals:
                assert cone.contains_interval(iv)

    def test_carpet_tau(self, carpet_ifs):
        out = is_dominated(carpet_ifs)
        assert out["certified"]
        # singular value ratio per level is exactly (1/5)/(1/4)
        assert out["fitted_tau"] == pytest.approx(0.8, abs=1e-6)

    def test_rotation_not_certified(self):
        out = is_dominated(rotation_ifs())
        assert not out["certified"]
        assert out["fitted_tau"] == pytest.approx(1.0, abs=1e-6)


class TestIrreducibility:
    def test_carpet_reducible(self, carpet_ifs):
        assert classify_irreducibility(carpet_ifs).tag == "Reducible"

    def test_swap_pair(self):
        assert classify_irreducibility(swap_ifs()).tag \
            == "IrreducibleNotStrongly"

    def test_positive_pair_strong(self, positive_pair):
        cls = classify_irreducibility(positive_pair)
        assert cls.tag == "StronglyIrreducible"

    def test_rotation_inconclusive(self):
        with pytest.raises(Inconclusive):
            classify_irreducibility(rotation_ifs(angle=math.pi / 2))

    def test_strictly_affine_witness(self, cone_ifs):
        found, witness = strictly_affine(cone_ifs)
        assert found
        arr, _ = cone_ifs.compose_word(witness)
        tr = arr[0, 0] + arr[1, 1]
        assert tr * tr > 4.0 * np.linalg.det(arr)

    def test_no_proximal_in_conformal_family(self):
        found, witness = strictly_affine(rotation_ifs(angle=math.pi / 2),
                                         depth=4)
        assert not found
        assert witness is None


class TestDirections:
    def test_carpet_single_interval_near_vertical(self, carpet_ifs):
        da = furstenberg_directions(carpet_ifs, depth=60)
        assert len(da.intervals) == 1
        assert da.intervals[0].contains_angle(PI / 2.0)

    def test_widths_shrink_with_depth(self, carpet_ifs):
        w1 = furstenberg_directions(carpet_ifs, depth=10).width_bound
        w2 = furstenberg_directions(carpet_ifs, depth=40).width_bound
        assert w2 < w1

    def test_json_sorted(self, cone_ifs):
        da = furstenberg_directions(cone_ifs, depth=6)
        data = da.to_json()
        starts = [iv[0] for iv in data["intervals"]]
        assert starts == sorted(starts)
        assert data["depth"] <= 6

    def test_cone_contains_directions(self, cone_ifs):
        # the limit directions live in the complement of the transpose
        # cone; iterating once more keeps them inside the current outer set
        da = furstenberg_directions(cone_ifs, depth=5)
        db = furstenberg_directions(cone_ifs, depth=6)
        if db.depth <= da.depth:
            pytest.skip("interval cap reached before depth 6")
        for iv in db.intervals:
            assert any(outer.contains_angle(iv.midpoint.angle)
                       for outer in da.intervals)
