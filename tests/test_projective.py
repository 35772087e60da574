import functools
import itertools
import math
import os

from hypothesis import given, reject, settings, strategies as st
import numpy as np
import pytest

from affinedim.errors import Inconclusive, NotDominated
from affinedim.ifs import Ifs
from affinedim.projective import LINE_TOL, MERGE_TOL, PI, ProjPoint, \
    act_angle, certify_invariance, classify_irreducibility, complement, \
    find_invariant_multicone, furstenberg_directions, images, is_dominated, \
    merge, strictly_affine, _eigen_lines, _mod_pi

from conftest import FIXTURE_DIR, load_fixture


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def rotation_ifs(scale=0.5, angle=1.0):
    c, s = math.cos(angle), math.sin(angle)
    rot = [[scale * c, -scale * s], [scale * s, scale * c]]
    return Ifs([rot, rot], [(0.0, 0.0), (0.3, 0.1)])


def contains_angle(starts, widths, theta):
    """Which of the closed intervals [starts, starts + widths] hold the
    line at angle theta."""
    off = (theta - np.asarray(starts)) % PI
    return (off <= widths) | (off >= PI)


def inside(cone, starts, widths):
    """Whether each interval [starts, starts + widths] lies in one
    component of the cone."""
    off = (starts[:, None] - cone.starts) % PI
    return ((off >= -1e-15)
            & (off + widths[:, None] <= cone.widths + 1e-15)).any(axis=1)


def merge_reference(starts, widths):
    """Oracle for `projective.merge`, copied from it at f5177ad: the union
    merged one piece at a time, by the loop that merge replaced, as sorted
    (start, width) pairs.  Starts are reduced by `_mod_pi`, as merge
    reduces them."""
    pieces = sorted(zip(_mod_pi(starts).tolist(), widths))
    base = pieces[0][0]
    segs = []
    for start, width in pieces:
        s = (start - base) % PI
        if s + width > PI:
            segs += [(s, PI), (0.0, s + width - PI)]
        else:
            segs.append((s, s + width))
    merged = []
    for s, e in sorted(segs):
        if merged and s <= merged[-1][1] + MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    if len(merged) > 1 and merged[0][0] + PI <= merged[-1][1] + MERGE_TOL:
        merged[0][0] = merged[-1][0] - PI
        merged.pop()
    return sorted((float(_mod_pi(base + s)), max(e - s, 1e-15))
                  for s, e in merged)


def rot(angle):
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


def looped_classify(ifs, stack):
    """Oracle for `projective.classify_irreducibility`, copied from it at
    c32b87e.  Tag and witness of the irreducibility classifier by the
    loop that the table form replaced: the real eigenlines of each matrix
    of stack in turn, then each line and each pair of lines tested map by
    map, one act_angle call per map and line.  Inconclusive is a tag
    here."""
    arrs = ifs.lins

    def image(arr, p):
        return ProjPoint(act_angle(arr, p.angle))

    def fixes(arr, p):
        return image(arr, p).dist(p) <= LINE_TOL

    cands = []
    for arr in stack:
        vals, vecs = np.linalg.eig(arr)
        for k in range(2):
            if abs(vals[k].imag) <= 1e-12 * max(abs(vals[k]), 1.0):
                v = vecs[:, k].real
                cands.append(ProjPoint(math.atan2(v[1], v[0])))

    for p in cands:
        if all(fixes(a, p) for a in arrs):
            return "Reducible", (p,)

    for p, q in itertools.combinations(cands, 2):
        if p.dist(q) <= LINE_TOL:
            continue
        ok, swapped = True, False
        for a in arrs:
            if fixes(a, p) and fixes(a, q):
                continue
            if image(a, p).dist(q) <= LINE_TOL \
                    and image(a, q).dist(p) <= LINE_TOL:
                swapped = True
                continue
            ok = False
            break
        if ok and swapped:
            return "IrreducibleNotStrongly", (p, q)

    found, witness = strictly_affine(ifs)
    return ("StronglyIrreducible", (witness,)) if found \
        else ("Inconclusive", ())


def classified(ifs):
    """Tag and witness of classify_irreducibility, Inconclusive a tag."""
    try:
        cls = classify_irreducibility(ifs)
    except Inconclusive:
        return "Inconclusive", ()
    return cls.tag, cls.witness


def witness_bits(witness):
    return [w.angle.hex() if isinstance(w, ProjPoint) else w
            for w in witness]


def assert_witness(ifs, tag, witness):
    """Every map fixes a Reducible witness line; every map fixes both
    lines of an IrreducibleNotStrongly witness or swaps them, and one
    swaps them.  Lines closer than LINE_TOL are equal."""
    def near(a, b):
        return np.abs(np.sin(a - b)) <= LINE_TOL

    arrs = ifs.lins
    if tag == "Reducible":
        [p] = witness
        assert near(act_angle(arrs, p.angle), p.angle).all()
    elif tag == "IrreducibleNotStrongly":
        p, q = (w.angle for w in witness)
        assert not near(p, q)
        ip, iq = act_angle(arrs, p), act_angle(arrs, q)
        fixed = near(ip, p) & near(iq, q)
        swapped = near(ip, q) & near(iq, p)
        assert (fixed | swapped).all() and (swapped & ~fixed).any()


FAMILY_KINDS = ("diagonal", "swaps", "conjugated", "rotated", "reflected",
                "mixed")


def seeded_family(kind, seed):
    """Two or three maps with norms in [0.1, 0.6] and translations in
    [-1, 1]^2.  diagonal: diag(n, m); swaps: diag(n, m) or an axis swap,
    the first a swap; conjugated: diag(n, m) or a swap, all turned by one
    R(c); rotated: R(a) diag(n, m) R(b); reflected: the same with a
    reflection before R(b); mixed: one diagonal, one swap, one rotated."""
    g = rng(seed)
    c = g.uniform(0.0, PI)
    lins = []
    for i in range(3 if kind == "mixed" else int(g.integers(2, 4))):
        n, m = g.uniform(0.1, 0.6, 2)
        a, b = g.uniform(0.0, 2.0 * PI, 2)
        diag, swap = np.diag([n, m]), np.array([[0.0, n], [m, 0.0]])
        flip = np.diag([1.0, -1.0 if kind == "reflected" else 1.0])
        turned = rot(a) @ diag @ flip @ rot(b)
        choices = {"diagonal": [diag],
                   "swaps": [swap] if i == 0 else [diag, swap],
                   "conjugated": [diag, swap],
                   "rotated": [turned], "reflected": [turned],
                   "mixed": [[diag, swap, turned][i]]}[kind]
        arr = choices[int(g.integers(len(choices)))]
        lins.append(rot(c) @ arr @ rot(-c) if kind == "conjugated" else arr)
    return Ifs(lins, g.uniform(-1.0, 1.0, (len(lins), 2)))


def edge_family(kind, gap):
    """A diagonal map and a second map turned by the angle whose sine is
    gap * LINE_TOL: for "fixed" the same diagonal map, which then moves
    the x-axis by that distance; for "swap" an axis swap, which takes
    each axis to within that distance of the other."""
    diag = np.diag([0.5, 0.3])
    other = diag if kind == "fixed" else np.array([[0.0, 0.5], [0.4, 0.0]])
    return Ifs([diag, rot(math.asin(gap * LINE_TOL)) @ other],
               [(0.0, 0.0), (0.4, 0.2)])


def close_pair_family():
    """Lines at t = 0.3 and t + 0.95 LINE_TOL, each fixed by one of two maps
    with multipliers 1.05 and 1 / 1.05 there (so near the pair the maps
    move every line by about 0.05 LINE_TOL), and two scaled reflections
    about the lines at t + 0.9 LINE_TOL and t + 0.3 LINE_TOL.  Each
    reflection takes each line of the pair to within LINE_TOL of the
    other, so every map fixes or swaps the pair.  Every eigenline near the
    pair, of a map or of a level-2 product, lies within 0.35 LINE_TOL of
    one reflection's axis and so at least 0.55 LINE_TOL from the other's,
    which moves it by more than LINE_TOL: no line is Reducible's."""
    t, tol = 0.3, LINE_TOL

    def fixing(a, mu_a, b, mu_b):
        # the map with eigenvalue mu_a on the line at angle a, mu_b at b
        vecs = np.array([[math.cos(a), math.cos(b)],
                         [math.sin(a), math.sin(b)]])
        return vecs @ np.diag([mu_a, mu_b]) @ np.linalg.inv(vecs)

    def reflection(scale, axis):
        c, s = math.cos(2.0 * axis), math.sin(2.0 * axis)
        return scale * np.array([[c, s], [s, -c]])

    lins = [fixing(t, 0.2, t - 0.7, 0.21),
            fixing(t + 0.95 * tol, 0.4, t + 1.0, 0.4 / 1.05),
            reflection(0.4, t + 0.9 * tol), reflection(0.35, t + 0.3 * tol)]
    return Ifs(lins, [(0.0, 0.0), (0.5, 0.1), (-0.4, 0.3), (0.2, -0.5)])


ORACLE_FAMILIES = {
    **{name[:-5]: functools.partial(load_fixture, name)
       for name in sorted(os.listdir(FIXTURE_DIR))
       if name.endswith(".json") and name != "checksums.json"},
    **{f"{kind}-{seed}": functools.partial(seeded_family, kind, seed)
       for kind in FAMILY_KINDS for seed in range(8)},
    "quarter-turn": functools.partial(rotation_ifs, angle=PI / 2),
    "one-radian-turn": rotation_ifs,
    **{f"{kind}-edge-{gap}": functools.partial(edge_family, kind, gap)
       for kind in ("fixed", "swap") for gap in (0.5, 2.0)},
    "close-pair": close_pair_family,
}


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

    def test_tiny_negative_angle_is_zero(self):
        # -1e-17 % PI rounds up to pi, the line at 0
        assert ProjPoint(-1e-17).angle == 0.0
        assert act_angle(np.eye(2), np.array([-1e-17])).tolist() == [0.0]

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


class TestIntervals:
    def test_contains_with_wraparound(self):
        cone = merge(np.array([3.0]), np.array([0.3]))      # wraps past pi
        assert contains_angle(*cone, 3.1).all()
        assert contains_angle(*cone, 0.1).all()
        assert not contains_angle(*cone, 1.5).any()

    def test_merge_overlapping(self):
        out = merge(np.array([0.1, 0.3, 2.0]), np.array([0.3, 0.3, 0.2]))
        assert len(out.starts) == 2
        widths = sorted(out.widths)
        assert widths[0] == pytest.approx(0.2)
        assert widths[1] == pytest.approx(0.5)

    def test_merge_across_zero(self):
        out = merge(np.array([3.0, 0.1]), np.array([0.3, 0.2]))
        assert len(out.starts) == 1
        assert out.widths[0] == pytest.approx(PI - 3.0 + 0.3)

    def test_merge_matches_loop_reference(self):
        # bit for bit, on unions with wraps, repeats, touching ends and a
        # start of -1e-17, which % pi rounds to pi
        g = rng(35)
        for _ in range(200):
            k = int(g.integers(1, 40))
            starts = g.uniform(-1.0, 4.0, k)
            widths = g.uniform(0.0, 0.3, k) ** 2 + 1e-12
            starts[k // 2:] = (starts + widths)[:k - k // 2] \
                if g.uniform() < 0.5 else starts[:k - k // 2]
            if g.uniform() < 0.25:
                starts[g.integers(k)] = -1e-17
            out = merge(starts, widths)
            assert list(zip(out.starts, out.widths)) \
                == merge_reference(starts, widths)

    def test_merge_start_below_zero(self):
        # the union is [-1e-17, 2.29 - 1e-17]; its start reduced mod pi
        # rounds up to pi
        out = merge(np.array([-1e-17, 0.18]), np.array([2.29, 0.81]))
        assert out.starts.tolist() == [0.0]

    def test_eigen_lines_below_zero(self):
        # the eigenline of 2 is at angle -1e-17
        lines = _eigen_lines(np.array([[[2.0, 0.0], [-1e-17, 1.0]]]))
        assert sorted(lines.tolist()) == [0.0, PI / 2.0]

    def test_merge_rejects_the_whole_line(self):
        with pytest.raises(ValueError):
            merge(np.array([0.0, 1.5]), np.array([1.6, 1.7]))

    def test_merge_is_read_only(self):
        out = merge(np.array([0.5]), np.array([0.2]))
        with pytest.raises(ValueError):
            out.starts[0] = 0.0

    def test_image_preserves_membership(self):
        # matrices of either orientation (each draw and its column swap),
        # and intervals down to widths near the rounding of their ends
        for width in (0.5, 1e-6, 1e-10, 1e-13):
            g = rng(34)
            cone = merge(np.array([0.4]), np.array([width]))
            for _ in range(20):
                arr = g.normal(size=(2, 2))
                if abs(np.linalg.det(arr)) < 1e-3:
                    continue
                for a in (arr, arr[:, ::-1]):
                    img = images(cone, a[None])
                    # endpoints can land one ulp outside under orientation
                    # flips
                    for t in np.linspace(0.01, 0.99, 9):
                        theta = cone.starts[0] + t * width
                        assert contains_angle(*img,
                                              act_angle(a, theta)).all()

    def test_complement_widths(self):
        mc = merge(np.array([0.2, 1.5]), np.array([0.4, 0.3]))
        comp = complement(mc)
        widths = list(mc.widths) + list(comp.widths)
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
            img = merge(*images(cone, arr[None]))
            assert inside(cone, *img).all()

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

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_table_matches_the_loop(self, family):
        # over the same candidate lines the table finds the loop's witness
        # bit for bit; over the old candidates, which list each square
        # A_i A_i twice, the tag is the same and the witness may be another
        # valid line or pair
        ifs = ORACLE_FAMILIES[family]()
        tag, witness = classified(ifs)
        pairs = ifs.level_products(2)
        same = looped_classify(ifs, np.concatenate([ifs.lins, pairs]))
        assert (same[0], witness_bits(same[1])) \
            == (tag, witness_bits(witness))
        old = looped_classify(
            ifs, [*ifs.lins, *pairs[::ifs.n_maps + 1], *pairs])
        assert old[0] == tag
        assert_witness(ifs, tag, witness)

    def test_oracle_families_reach_every_tag(self):
        tags = {classified(make())[0] for make in ORACLE_FAMILIES.values()}
        assert tags == {"Reducible", "IrreducibleNotStrongly",
                        "StronglyIrreducible", "Inconclusive"}

    @pytest.mark.parametrize("kind, gap, tag", [
        ("fixed", 0.5, "Reducible"), ("fixed", 2.0, "StronglyIrreducible"),
        ("swap", 0.5, "IrreducibleNotStrongly"),
        ("swap", 2.0, "StronglyIrreducible")])
    def test_line_tolerance_edges(self, kind, gap, tag):
        # lines 0.5 LINE_TOL apart are one line, 2 LINE_TOL apart two
        ifs = edge_family(kind, gap)
        cls = classify_irreducibility(ifs)
        assert cls.tag == tag
        if tag == "Reducible":
            assert cls.witness[0].angle == pytest.approx(0.0, abs=1e-12)
        elif tag == "IrreducibleNotStrongly":
            assert sorted(round(w.angle, 6) for w in cls.witness) \
                == [0.0, round(PI / 2, 6)]

    def test_close_pair_is_one_line(self):
        # maps 1 and 2 fix one line each of a pair 0.95 LINE_TOL apart,
        # and maps 3 and 4 swap them: only the pair stage's distinct-lines
        # condition keeps it from being IrreducibleNotStrongly's witness
        ifs = close_pair_family()
        lines = np.array([_eigen_lines(ifs.lins[i:i + 1])[0]
                          for i in range(2)])
        gap = abs(math.sin(lines[1] - lines[0]))
        assert 0.9 * LINE_TOL <= gap <= LINE_TOL
        img = act_angle(ifs.lins, lines)
        near = np.abs(np.sin(img - lines)) <= LINE_TOL
        crossed = np.abs(np.sin(img - lines[::-1])) <= LINE_TOL
        assert near.all(axis=1).tolist() == [True, True, False, False]
        assert crossed.all(axis=1).all()
        cls = classify_irreducibility(ifs)
        assert (cls.tag, cls.witness) == ("StronglyIrreducible", ((1,),))

    def test_strictly_affine_witness(self, cone_ifs):
        found, witness = strictly_affine(cone_ifs)
        assert found
        arr, _ = cone_ifs.compose_word(witness)
        tr = arr[0, 0] + arr[1, 1]
        assert tr * tr > 4.0 * np.linalg.det(arr)

    def test_no_proximal_in_conformal_family(self):
        found, witness = strictly_affine(rotation_ifs(angle=math.pi / 2))
        assert not found
        assert witness is None


class TestDirections:
    def test_carpet_single_interval_near_vertical(self, carpet_ifs):
        da = furstenberg_directions(carpet_ifs, depth=60)
        assert len(da.cone.starts) == 1
        assert contains_angle(*da.cone, PI / 2.0).all()

    def test_widths_shrink_with_depth(self, carpet_ifs):
        w1 = furstenberg_directions(carpet_ifs, depth=10).cone.widths.max()
        w2 = furstenberg_directions(carpet_ifs, depth=40).cone.widths.max()
        assert w2 < w1

    def test_json_sorted(self, cone_ifs):
        da = furstenberg_directions(cone_ifs, depth=6)
        starts = list(da.cone.starts)
        assert starts == sorted(starts)
        assert da.depth <= 6

    def test_cone_contains_directions(self, cone_ifs):
        # the limit directions live in the complement of the transpose
        # cone; iterating once more keeps them inside the current outer set
        da = furstenberg_directions(cone_ifs, depth=5)
        db = furstenberg_directions(cone_ifs, depth=6)
        if db.depth <= da.depth:
            pytest.skip("interval cap reached before depth 6")
        midpoints = db.cone.starts + db.cone.widths / 2.0
        for theta in midpoints:
            assert contains_angle(*da.cone, theta).any()


@st.composite
def dominated_families(draw):
    """Two or three maps with entries in [0.05, 1], columns swapped at
    random (so det < 0 is common), operator norms in [0.1, 0.5] and
    translations in [-1, 1]^2.  Positive matrices map the positive
    quadrant into itself, so every such family is dominated."""
    entry, unit = st.floats(0.05, 1.0), st.floats(-1.0, 1.0)
    lins, vs = [], []
    for _ in range(draw(st.integers(2, 3))):
        a, b, c, d = (draw(entry) for _ in range(4))
        lin = np.array([[b, a], [d, c]] if draw(st.booleans())
                       else [[a, b], [c, d]])
        lins.append(lin * draw(st.floats(0.1, 0.5)) / np.linalg.norm(lin, 2))
        vs.append((draw(unit), draw(unit)))
    try:
        return Ifs(lins, vs)
    except ValueError:
        reject()


def assert_union(cone):
    assert (cone.starts >= 0.0).all() and (cone.starts < PI).all()
    assert (np.diff(cone.starts) > 0.0).all()
    assert (cone.widths > 0.0).all() and (cone.widths < PI).all()


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(dominated_families())
    def test_dominated_families(self, ifs):
        cone = find_invariant_multicone(ifs)
        if cone is not None:
            assert certify_invariance(cone, ifs.lins)
            assert_union(cone)
        try:
            da = furstenberg_directions(ifs, depth=30)
        except NotDominated:
            return
        assert da.depth <= 30
        assert_union(da.cone)
