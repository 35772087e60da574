import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from affinedim.config import word_cap
from affinedim.errors import BudgetExceeded, IndexOutOfRange
from affinedim.geometry import DIAM_GRID, DiameterTable, _misses, \
    _proj_stop, _proj_stopping, projected_diameter_bound
from affinedim.ifs import HULL_DEPTH, LEVEL_BLOCK, Cylinders, Ifs, \
    _cloud_diameter, batch_singular_values, det2, derived, fit_level, \
    hull_vertices, log_svf, mul2, word_label
from affinedim.projective import ProjPoint, strictly_affine
from affinedim.thermo import PRESSURE_CHUNK, _letter_sums, \
    affinity_dimension

from conftest import kept_arrays, load_fixture, svd_svf


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSingularValues:
    def test_singular_values_match_svd(self):
        g = rng(12)
        for _ in range(200):
            arr = g.normal(size=(2, 2))
            if abs(np.linalg.det(arr)) < 1e-6:
                continue
            a1, a2 = (float(x[0]) for x in batch_singular_values(arr[None]))
            ref = np.linalg.svd(arr, compute_uv=False)
            assert a1 == pytest.approx(ref[0], rel=1e-10)
            assert a2 == pytest.approx(ref[1], rel=1e-8)
            assert a1 * a2 == pytest.approx(abs(np.linalg.det(arr)), rel=1e-12)


def svd_log_svf(m, s):
    """log phi^s(m) from the singular values of np.linalg.svd."""
    la1, la2 = np.log(np.linalg.svd(m[None], compute_uv=False)).T
    return float(log_svf(la1, la2, s)[0])


class TestSvf:
    def test_branches(self):
        m = np.diag([0.5, 0.2])
        for s, phi in ((0.0, 1.0), (1.0, 0.5), (1.5, 0.5 * 0.2 ** 0.5),
                       (2.0, 0.1), (3.0, 0.1 ** 1.5)):
            assert svd_log_svf(m, s) == pytest.approx(math.log(phi),
                                                      abs=1e-14)

    def test_matches_the_reference(self):
        g = rng(13)
        mats = 0.5 * g.normal(size=(50, 2, 2))
        la1, la2 = np.log(np.linalg.svd(mats, compute_uv=False)).T
        buf = np.empty(len(mats))
        for s in (0.0, 1.0, 1.5, 2.0, 3.0):
            ref = [math.log(svd_svf(m, s)) for m in mats]
            assert log_svf(la1, la2, s) == pytest.approx(ref, abs=1e-12)
            assert log_svf(la1, la2, s, out=buf) is buf
            assert buf == pytest.approx(ref, abs=1e-12)

    def test_continuity_at_breakpoints(self):
        m = np.array([[0.7, 0.1], [-0.2, 0.4]])
        for s0 in (1.0, 2.0):
            assert svd_log_svf(m, s0 - 1e-12) \
                == pytest.approx(svd_log_svf(m, s0 + 1e-12), abs=1e-9)

    def test_submultiplicative(self):
        g = rng(14)
        for _ in range(100):
            x = 0.5 * g.normal(size=(2, 2))
            y = 0.5 * g.normal(size=(2, 2))
            s = float(g.uniform(0.0, 2.5))
            assert svd_log_svf(x @ y, s) \
                <= svd_log_svf(x, s) + svd_log_svf(y, s) + 1e-12


class TestWord:
    def test_str_and_empty(self, cone_ifs):
        assert word_label((1, 2, 1)) == "121"
        assert word_label(()) == "-"
        assert cone_ifs.word_from_flat(5, 3) == (1, 2, 3)
        assert cone_ifs.word_from_flat(0, 0) == ()

    def test_labels_tell_words_apart(self):
        # (1, 12), (11, 2) and (1, 1, 2) were all labelled "112"
        words = [w for n in range(4)
                 for w in itertools.product(range(1, 13), repeat=n)]
        assert len({word_label(w) for w in words}) == len(words) == 1885
        assert [word_label(w) for w in ((1, 12), (11, 2), (1, 1, 2))] \
            == ["1[12]", "[11]2", "112"]


class TestIfs:
    def test_ball_is_invariant(self, cone_ifs):
        c, r = cone_ifs.ball_center, cone_ifs.ball_radius
        a1 = batch_singular_values(cone_ifs.lins)[0]
        for lin, v, a in zip(cone_ifs.lins, cone_ifs.vs, a1):
            assert np.linalg.norm(lin @ c + v - c) + a * r <= r * (1 + 1e-9)

    def test_rejects_singular_map(self):
        with pytest.raises(ValueError, match="map 1 is singular"):
            Ifs([[[1.0, 2.0], [2.0, 4.0]], np.diag([0.5, 0.5])],
                [(0.0, 0.0), (0.5, 0.0)])

    def test_rejects_expanding_map(self):
        with pytest.raises(ValueError, match="map 2 is not contractive"):
            Ifs([np.diag([0.5, 0.5]), np.diag([1.2, 0.5])],
                [(0.0, 0.0), (0.5, 0.0)])

    @pytest.mark.parametrize("ball", [{"ball_center": (5.0, 5.0)},
                                      {"ball_radius": 10.0}])
    def test_rejects_half_a_ball(self, ball):
        # a center alone must not give way to a fitted ball
        with pytest.raises(ValueError, match="center and radius together"):
            Ifs([np.diag([0.5, 0.5])] * 2, [(0.0, 0.0), (0.5, 0.0)], **ball)

    def test_compose_word_matches_manual(self, cone_ifs):
        lin, t = cone_ifs.compose_word((2, 1, 3))
        x = np.array([0.3, -0.1])

        def phi(i, y):
            return cone_ifs.lins[i - 1] @ y + cone_ifs.vs[i - 1]

        assert np.allclose(lin @ x + t, phi(2, phi(1, phi(3, x))), atol=1e-14)
        a1, a2, a3 = cone_ifs.lins
        assert np.allclose(lin, a2 @ a1 @ a3)

    def test_compose_word_rejects_letters_out_of_range(self, cone_ifs):
        for word in ((1, 4), (0,)):
            with pytest.raises(IndexOutOfRange):
                cone_ifs.compose_word(word)

    @pytest.mark.parametrize("name, shortest, longest", [
        ("positive_pair", 19, 24),
        ("cone_ifs", 30, 40),
        ("overlap_ifs", 30, 40),
    ])
    def test_compose_word_on_long_words(self, request, name, shortest,
                                        longest):
        # the long prefix products of these words have |det| below the
        # input singularity threshold, 1e-14 times the largest squared row
        # norm, and are still valid products
        ifs = request.getfixturevalue(name)
        g = rng(17)
        for n in range(longest, shortest - 1, -1):
            for letters in g.integers(1, ifs.n_maps + 1, size=(4, n)):
                lin, v = ifs.compose_word(letters)
                want_lin, want_v = np.eye(2), np.zeros(2)
                for i in letters:
                    want_lin, want_v = (want_lin @ ifs.lins[i - 1],
                                        want_lin @ ifs.vs[i - 1] + want_v)
                assert_same_bits(lin, want_lin)
                assert_same_bits(v, want_v)

    def test_level_products_order(self, cone_ifs):
        prods = cone_ifs.level_products(3)
        assert prods.shape == (27, 2, 2)
        w = (2, 1, 3)
        k = np.ravel_multi_index([letter - 1 for letter in w], (3, 3, 3))
        assert np.allclose(prods[k], cone_ifs.compose_word(w)[0])

    def test_cylinder_center_error_radius(self, cone_ifs):
        # every deeper cylinder centre of a word stays inside its radius
        pts4, errs4 = cone_ifs._cylinder_centers(4)
        pts7, _ = cone_ifs._cylinder_centers(7)
        n = cone_ifs.n_maps
        parent = np.arange(n ** 7) // n ** 3
        dist = np.linalg.norm(pts7 - pts4[parent], axis=1)
        assert (dist <= errs4[parent]).all()

    def test_diam_bounds_bracket(self, sim3):
        lo, hi = sim3.diam_bounds()
        # the attractor contains the three map fixed points
        fixed = np.linalg.solve(np.eye(2) - sim3.lins,
                                sim3.vs[..., None])[..., 0]
        spread = max(np.linalg.norm(a - b) for a in fixed for b in fixed)
        assert lo <= spread <= hi
        assert hi - lo < 0.01 * hi

    def test_json_roundtrip(self, cone_ifs):
        data = json.loads(json.dumps(cone_ifs.to_json()))
        back = Ifs.from_json(data)
        assert np.array_equal(back.lins, cone_ifs.lins)
        assert np.array_equal(back.vs, cone_ifs.vs)
        assert back.ball_radius == cone_ifs.ball_radius


def alpha1_stop(ifs, r):
    """Stop rule of the scale-r stopping set: alpha1(A_w) diam <= r."""
    diam = ifs.diam_upper
    return lambda mats, pts, a1: a1 * diam <= r


def is_prefix_free(words):
    seen = set(words)
    return not any(w[:k] in seen for w in words for k in range(len(w)))


class TestStoppingSets:
    def test_uniform_ratio_counts(self, sim3):
        # similarity ratio 1/3: scale diam/27 stops exactly at depth 3
        found = sim3.frontier(alpha1_stop(sim3, sim3.diam_upper / 27.0))
        words = found.words(sim3)
        assert len(words) == 27
        assert all(len(w) == 3 for w in words)
        assert is_prefix_free(words)

    def test_huge_scale_gives_first_level(self, sim3):
        found = sim3.frontier(alpha1_stop(sim3, 10.0 * sim3.diam_upper))
        assert sorted(found.words(sim3)) == [(1,), (2,), (3,)]

    def test_prefix_free_nonuniform(self, cone_ifs):
        found = cone_ifs.frontier(
            alpha1_stop(cone_ifs, 0.0015 * cone_ifs.diam_upper))
        words = found.words(cone_ifs)
        assert is_prefix_free(words)
        # mixed contraction rates produce mixed word lengths
        lengths = {len(w) for w in words}
        assert len(lengths) > 1

    def test_budget_guard(self, cone_ifs, monkeypatch):
        r = cone_ifs.diam_upper * 1e-9
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", "1000")
        with pytest.raises(BudgetExceeded):
            cone_ifs.frontier(alpha1_stop(cone_ifs, r))


class TestCylinderCenters:
    def test_cached_read_only_and_capped(self, cone_ifs, monkeypatch):
        pts, errs = cone_ifs._cylinder_centers(5)
        again = cone_ifs._cylinder_centers(5)
        assert again[0] is pts and again[1] is errs
        assert not pts.flags.writeable and not errs.flags.writeable
        # the word cap holds on a cache hit too
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(3 ** 5 - 1))
        with pytest.raises(BudgetExceeded):
            cone_ifs._cylinder_centers(5)


class TestLevelProducts:
    def test_negative_level_raises(self, cone_ifs):
        with pytest.raises(ValueError):
            cone_ifs.level_products(-1)

    def test_cached_read_only_and_capped(self, cone_ifs, monkeypatch):
        prods = cone_ifs.level_products(5)
        assert cone_ifs.level_products(5) is prods
        assert not prods.flags.writeable
        # the word cap holds on a cache hit too
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(3 ** 5 - 1))
        with pytest.raises(BudgetExceeded):
            cone_ifs.level_products(5)

    def test_levels_are_entry_major(self, cone_ifs):
        # mul2 writes, and batch_singular_values reads, contiguous rows
        for n in range(1, 6):
            prods = cone_ifs.level_products(n)
            assert all(prods[:, p, r].flags.c_contiguous
                       for p in range(2) for r in range(2))

    def test_layouts_above_a_block(self, positive_pair):
        # products stay entry-major when gathered from blocks, and the
        # centres C-ordered, which `centers @ u` rounds on
        ifs = Ifs.from_json(positive_pair.to_json())
        for n in (3, 15):
            prods = ifs.level_products(n)
            assert all(prods[:, p, r].flags.c_contiguous
                       for p in range(2) for r in range(2))
            assert ifs._cylinder_centers(n)[0].flags.c_contiguous
        assert len(prods) > LEVEL_BLOCK

    def test_only_levels_asked_for_are_kept(self, positive_pair):
        # the memo keeps the root and its bracket, and no level: neither
        # products nor the log singular values the pressure read
        ifs = Ifs.from_json(positive_pair.to_json())
        first = affinity_dimension(ifs, budget=2 ** 16)
        assert not kept_arrays(ifs)
        assert affinity_dimension(ifs, budget=2 ** 16) is first


def walk_arrays(ifs, n):
    """(start, prods, dets, inverse prods, inverse dets) over the blocks
    of the two walks `Ifs._level_walk(n, lins)` of the products and of
    the inverse products, which come in the same order."""
    for (start, *arrays), (again, *inverse) in zip(
            ifs._level_walk(n, ifs.lins),
            ifs._level_walk(n, np.linalg.inv(ifs.lins))):
        assert again == start
        yield (start, *arrays, *inverse)


def einsum_levels(ifs, n):
    """The arrays of walk_arrays over level n, each level built whole from
    the one below by einsum and det A_iw = det A_i * det A_w."""
    def entry_dets(mats):
        a, b, c, d = mats.reshape(-1, 4).T
        return a * d - b * c

    invs = np.linalg.inv(ifs.lins)
    prods = inv_prods = np.eye(2)[None]
    dets = inv_dets = np.ones(1)
    for _ in range(n):
        prods = np.einsum("ipq,wqr->iwpr", ifs.lins, prods).reshape(-1, 2, 2)
        dets = np.multiply.outer(entry_dets(ifs.lins), dets).reshape(-1)
        inv_prods = np.einsum("ipq,wqr->iwpr", invs, inv_prods) \
            .reshape(-1, 2, 2)
        inv_dets = np.multiply.outer(entry_dets(invs), inv_dets).reshape(-1)
    return prods, dets, inv_prods, inv_dets


def random_contractions(g, size):
    """size Gaussian maps scaled to norms in [0.15, 0.6], the first with
    det < 0."""
    lins = g.normal(size=(size, 2, 2))
    if np.linalg.det(lins[0]) > 0.0:
        lins[0, :, 1] *= -1.0
    norms = np.linalg.norm(lins, 2, axis=(1, 2))
    lins *= (g.uniform(0.15, 0.6, size) / norms)[:, None, None]
    return Ifs(lins, g.uniform(-1.0, 1.0, size=(size, 2)))


class TestLevelBlocks:
    # block exponents: 2^14, 3^8, 5^6 and 28^2 words
    @pytest.mark.parametrize("size,suffix", [(2, 14), (3, 8), (5, 6),
                                             (28, 2)])
    def test_blocks_match_the_whole_level(self, size, suffix):
        g = rng(size)
        for _ in range(2):
            ifs = random_contractions(g, size)
            assert np.linalg.det(ifs.lins[0]) < 0.0
            for n in (suffix - 1, suffix, suffix + 2):
                whole = einsum_levels(ifs, n)
                seen = np.zeros(size ** n, dtype=int)
                for start, *blocks in walk_arrays(ifs, n):
                    span = slice(start, start + len(blocks[0]))
                    for block, level in zip(blocks, whole):
                        assert len(block) == size ** min(n, suffix)
                        assert_same_bits(block, level[span])
                    seen[span] += 1
                assert (seen == 1).all()
                want = batch_singular_values(*whole[:2])
                for got, alpha in zip(ifs.level_singular_values(n), want):
                    assert_same_bits(got, alpha)
                assert_same_bits(ifs.level_log_alpha1(n), np.log(want[0]))

    def test_more_maps_than_a_block_walk_level_one(self):
        ifs = random_contractions(rng(7), LEVEL_BLOCK + 1)
        blocks = list(walk_arrays(ifs, 1))
        assert len(blocks) == 1 and blocks[0][0] == 0
        for block, level in zip(blocks[0][1:], einsum_levels(ifs, 1)):
            assert_same_bits(block, level)

    def test_budget_raises_before_allocating(self, cone_ifs, monkeypatch):
        ifs = Ifs.from_json(cone_ifs.to_json())
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(3 ** 12 - 1))
        for walk in (lambda: next(walk_arrays(ifs, 12)),
                     lambda: ifs.level_log_alpha1(12),
                     lambda: ifs.level_singular_values(12)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    walk()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 10
        assert not ifs._cache

    def test_affinity_dimension_holds_no_level(self, positive_pair):
        # one float per word of 2^21 and 8 MiB: the pressure holds log
        # alpha1 alone, rebuilds log alpha2 in chunks with no buffer of
        # the level's size, and nothing over 1 MiB outlives the root
        ifs = Ifs.from_json(positive_pair.to_json())
        tracemalloc.start()
        try:
            affinity_dimension(ifs, budget=4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 21 + 8 * 2 ** 20
        assert ifs._cache
        assert not [part for part in kept_arrays(ifs)
                    if part.nbytes > 2 ** 20]


# The rules that fit_level replaced, kept as its oracles.

def old_fit_depth(n_maps, depth, limit):
    """`Ifs._fit_depth` at commit 6acc1cc, its limit min(word cap,
    500_000) passed in."""
    while n_maps ** depth > limit and depth > 2:
        depth -= 1
    return depth


def old_suffix_level(n_maps, n):
    """`Ifs._suffix_level` at commit 6acc1cc."""
    m = n
    while n_maps ** m > LEVEL_BLOCK and m > 1:
        m -= 1
    return m


def old_chunk_level(n_letters, n):
    """The chunk level k of `thermo._log_sum_fn` at commit 6acc1cc."""
    k = n
    while n_letters ** k > PRESSURE_CHUNK and k > 1:
        k -= 1
    return k


def old_affinity_level(n_maps, budget):
    """The level n_hi of `thermo.affinity_dimension` at commit 6acc1cc,
    its budget already lowered to the word cap."""
    n_hi = 2
    while n_maps ** (n_hi + 1) <= budget:
        n_hi += 1
    return n_hi


def old_frontier_depth(n_maps):
    """The deepest level of `Ifs.frontier` at commit 6acc1cc."""
    return int(63 / math.log2(max(n_maps, 2)))


def old_gibbs_ladder(n_maps):
    """The depth ladder of `cli._suite_gibbs` at commit 6acc1cc."""
    return [d for d in range(4, 9) if n_maps ** d <= 200_000]


def int_root(x, m):
    """The largest integer r with r^m <= x."""
    r = int(round(x ** (1.0 / m)))
    while r ** m > x:
        r -= 1
    while (r + 1) ** m <= x:
        r += 1
    return r


class TestFitLevel:
    def test_fit_depth(self):
        for limit in (0, 1, 8, 100, 3 ** 13 - 1, 3 ** 13, 500_000):
            for n_maps in range(2, 40):
                for depth in range(0, 21):
                    assert fit_level(n_maps, depth, limit, 2) \
                        == old_fit_depth(n_maps, depth, limit)

    def test_fit_depth_method(self, monkeypatch):
        for name in ("sim3.json", "cone.json", "carpet.json"):
            ifs = load_fixture(name)
            for cap in ("100", "500000", "5000000"):
                monkeypatch.setenv("AFFINEDIM_WORD_CAP", cap)
                for depth in range(0, 21):
                    assert ifs._fit_depth(depth) == old_fit_depth(
                        ifs.n_maps, depth, min(int(cap), 500_000))

    def test_suffix_and_chunk_levels(self):
        for n_maps in [*range(2, 200), LEVEL_BLOCK, LEVEL_BLOCK + 1,
                       PRESSURE_CHUNK, PRESSURE_CHUNK + 1]:
            for n in range(0, 20):
                assert fit_level(n_maps, n, LEVEL_BLOCK, 1) \
                    == old_suffix_level(n_maps, n)
                assert fit_level(n_maps, n, PRESSURE_CHUNK, 1) \
                    == old_chunk_level(n_maps, n)

    def test_affinity_level(self):
        budgets = [0, 1, 2, 3, 4, 7, 8, 9, 26, 27, 28, 100, 2 * 10 ** 5 - 1,
                   2 * 10 ** 5, 2 * 10 ** 5 + 1, 3 ** 13 - 1, 3 ** 13,
                   3 ** 13 + 1, 2 ** 21, 2 ** 22 - 1, 4 * 10 ** 6,
                   5 * 10 ** 6]
        for n_maps in range(2, 40):
            for budget in budgets:
                top = max(budget.bit_length(), 2)
                assert fit_level(n_maps, top, budget, 2) \
                    == old_affinity_level(n_maps, budget)

    def test_frontier_depth(self):
        # both rules fall with the number of maps, so they agree on 2 to
        # 200 000 maps when they agree at each end of every run of
        # fit_level: int_root(2^63, m) is the most maps of depth m
        ends = set()
        for m in range(1, 64):
            r = int_root(2 ** 63, m)
            ends |= {r, r + 1}
        for n_maps in sorted(set(range(2, 2 ** 12)) | ends):
            if 2 <= n_maps <= 200_000:
                assert fit_level(n_maps, 63, 2 ** 63, 1) \
                    == old_frontier_depth(n_maps)

    def test_gibbs_ladder(self):
        for n_maps in range(2, 100):
            assert list(range(4, fit_level(n_maps, 8, 200_000, 3) + 1)) \
                == old_gibbs_ladder(n_maps)

    def test_shallow_levels_are_kept(self):
        # n <= least is never lowered, whatever the words; n = 0 fits
        for n_maps in (2, 3, 28, 10 ** 6):
            assert fit_level(n_maps, 0, 0, 1) == 0
            assert fit_level(n_maps, 0, 10, 2) == 0
            assert fit_level(n_maps, 1, 0, 1) == 1
            assert fit_level(n_maps, 2, 0, 2) == 2
            assert fit_level(n_maps, 2, 0, 3) == 2
            assert fit_level(n_maps, 5, 0, 2) == 2


class TestDeterminantIdentity:
    # alpha1 alpha2 = |det A_w| and det is multiplicative, so log alpha1 +
    # log alpha2 is the letter sum of log|det A_i|, up to the roundings of
    # the carried determinant, the quotient alpha2 = |det| / alpha1, the
    # two logs and the n additions of the sum
    def assert_letter_sum(self, ifs, n):
        a1, a2 = ifs.level_singular_values(n)
        sums = _letter_sums(np.log(np.abs(det2(ifs.lins))), n)
        assert np.all(np.abs(np.log(a1) + np.log(a2) - sums)
                      <= (n + 4) * np.spacing(np.abs(sums))), n

    @pytest.mark.parametrize("name", ["sim3", "cantor2", "square4",
                                      "positive_pair", "cone", "overlap",
                                      "carpet"])
    def test_fixtures(self, name):
        ifs = load_fixture(name + ".json")
        for n in range(1, 13):
            if ifs.n_maps ** n > 3 ** 12:
                break
            self.assert_letter_sum(ifs, n)

    def test_seeded_families(self):
        g = rng(83)
        for _ in range(30):
            ifs = random_contractions(g, int(g.integers(2, 6)))
            for n in range(1, 13):
                if ifs.n_maps ** n > 3 ** 10:
                    break
                self.assert_letter_sum(ifs, n)


class TestDerived:
    def test_kept_per_arguments_and_word_cap(self, monkeypatch):
        calls = []

        @derived
        def ramp(ifs, n, scale=1.0):
            calls.append((n, scale))
            return np.arange(n) * scale, n

        ifs = collinear_ifs(2)
        first = ramp(ifs, 3)
        assert ramp(ifs, 3) is first and calls == [(3, 1.0)]
        assert not first[0].flags.writeable
        ramp(ifs, 3, scale=2.0)
        ramp(collinear_ifs(2), 3)
        assert calls == [(3, 1.0), (3, 2.0), (3, 1.0)]
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", "100")
        assert ramp(ifs, 3) is not first and len(calls) == 4

    def test_exceptions_are_not_kept(self):
        calls = []

        @derived
        def flaky(ifs):
            calls.append(1)
            if len(calls) == 1:
                raise BudgetExceeded(1)
            return "value"

        ifs = collinear_ifs(2)
        with pytest.raises(BudgetExceeded):
            flaky(ifs)
        assert flaky(ifs) == flaky(ifs) == "value" and len(calls) == 2


class TestAttractorSample:
    def test_cylinder_centers_resolution(self, cone_ifs):
        cloud = cone_ifs.attractor_sample(0.002)
        assert cloud.resolution <= 0.002 * cone_ifs.diam_upper
        assert len(cloud) > 50

    def test_chaos_game_deterministic(self, cone_ifs):
        # a second family, since the same one answers from its memo
        a = cone_ifs.chaos_game(5, 500)
        b = Ifs.from_json(cone_ifs.to_json()).chaos_game(5, 500)
        assert a.shape == (500, 2)
        assert np.array_equal(a, b)

    # each case is a sampler's name and its arguments
    @pytest.mark.parametrize("args,kwargs", [
        (("attractor_sample", 0.003), {}),
        (("chaos_game",), {"seed": 2, "count": 200})])
    def test_memoized_with_read_only_points(self, cone_ifs, args, kwargs):
        def points(ifs):
            sample = getattr(ifs, args[0])(*args[1:], **kwargs)
            return getattr(sample, "points", sample)

        ifs = Ifs.from_json(cone_ifs.to_json())
        pts = points(ifs)
        assert points(ifs) is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        fresh = Ifs.from_json(cone_ifs.to_json())
        assert np.array_equal(points(fresh), pts)

    def test_chaos_game_points_near_cylinder_cloud(self, cone_ifs):
        chaos = cone_ifs.chaos_game(1, 300)
        cover = cone_ifs.attractor_sample(0.005)
        from scipy.spatial import cKDTree
        d, _ = cKDTree(cover.points).query(chaos)
        assert d.max() <= 0.01 * cone_ifs.diam_upper


def reference_stopping_words(ifs, stop):
    """Plain recursive enumeration of the cylinder tree: the words w whose
    product satisfies stop(A_w) and no proper prefix does, in
    lexicographic order, each product built node by node as A_w A_i."""
    words = []

    def visit(word, mat):
        if stop(mat):
            words.append(word)
            return
        for i, lin in enumerate(ifs.lins, start=1):
            visit(word + (i,), mat @ lin)

    for i, lin in enumerate(ifs.lins, start=1):
        visit((i,), lin)
    return words


def reference_witness(ifs, depth=6):
    """Least proximal word of the shortest length, by brute force."""
    for n in range(1, depth + 1):
        for letters in itertools.product(range(1, ifs.n_maps + 1), repeat=n):
            arr, _ = ifs.compose_word(letters)
            tr = arr[0, 0] + arr[1, 1]
            det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
            if tr * tr > 4.0 * det + 1e-14 and abs(tr) > 1e-14:
                return letters
    return None


# (fixture, scale as a fraction of diam_upper, rho); sim3 is conformal,
# alpha2 = alpha1, so only rho above its diameter lets the aspect stop
FRONTIER_CASES = [("sim3", 0.003, 2.0), ("cone_ifs", 0.003, 0.02),
                  ("positive_pair", 0.01, 0.05)]


class TestFrontier:
    @pytest.mark.parametrize("name,frac,rho", FRONTIER_CASES)
    @pytest.mark.parametrize("criterion", ["by-alpha1", "by-alpha2-aspect",
                                           "by-projected-diameter"])
    def test_stopping_set_matches_recursion(self, request, monkeypatch,
                                            name, frac, rho, criterion):
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

        def aspect_stop(mats, pts, a1):
            a2 = batch_singular_values(mats)[1]
            return (a2 * diam < rho * a1) & (a1 * diam <= r)

        def stopping_set():
            if criterion == "by-alpha1":
                return ifs.frontier(alpha1_stop(ifs, r))
            if criterion == "by-alpha2-aspect":
                return ifs.frontier(aspect_stop)
            return _proj_stopping(ifs, v, r)

        # the same words; the walk emits them level by level
        ref = reference_stopping_words(ifs, stop)
        assert sorted(stopping_set().words(ifs)) == ref
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(len(ref)))
        assert len(stopping_set()) == len(ref)
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(len(ref) - 1))
        with pytest.raises(BudgetExceeded):
            stopping_set()

    @pytest.mark.parametrize("name", ["sim3", "cone_ifs", "positive_pair"])
    def test_strictly_affine_witness_is_least_shortest(self, request, name):
        ifs = request.getfixturevalue(name)
        ref = reference_witness(ifs)
        assert strictly_affine(ifs) == (ref is not None, ref)

    def test_deep_walk_raises_instead_of_truncating(self):
        # the slow map needs about 690 letters to reach the scale, past
        # the deepest level the walk may enter
        slow = Ifs([np.diag([0.99, 0.99]), np.diag([0.1, 0.1])],
                   [(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(BudgetExceeded):
            slow.frontier(alpha1_stop(slow, 1e-3 * slow.diam_upper))


def collinear_ifs(n_maps):
    """Similarities of ratio 0.3 with translations on the line through 0
    and (1, 2); the attractor is a Cantor set from 0 to (1, 2)."""
    return Ifs([np.diag([0.3, 0.3])] * n_maps,
               [(t, 2.0 * t) for t in np.linspace(0.0, 0.7, n_maps)])


class TestFlatClouds:
    def test_collinear_diameter_bounds(self):
        hull, radius = collinear_ifs(3)._hull(5)
        d, e = _cloud_diameter(hull), 2.0 * radius
        lo, hi = max(d - e, 0.0), d + e
        assert lo <= math.sqrt(5.0) <= hi
        assert hi - lo < 0.05

    def test_collinear_cloud_is_exact_in_linear_memory(self):
        t = rng(21).uniform(0.0, 1.0, size=2000)
        pts = np.stack([t, 2.0 * t], axis=1)
        exact = float(np.sqrt(((pts[t.argmax()] - pts[t.argmin()]) ** 2)
                              .sum()))
        tracemalloc.start()
        try:
            d = _cloud_diameter(hull_vertices(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == exact
        # a pairwise difference array would take 2000^2 * 16 B = 64 MB
        assert peak < 1_000_000


class TestStreamedHull:
    # (family, depth): carpet and square4 walk levels 6 and 7, the
    # 3-map family (det < 0 on map 1) level 8, the 28-map family level
    # 2, and the collinear family, whose hull edges carry exact ties,
    # level 8
    @pytest.mark.parametrize("family,depth", [
        (lambda request: request.getfixturevalue("carpet_ifs"), 8),
        (lambda request: request.getfixturevalue("square4"), 8),
        (lambda request: random_contractions(rng(3), 3), 10),
        (lambda request: random_contractions(rng(28), 28), 3),
        (lambda request: collinear_ifs(3), 10),
    ], ids=["carpet", "square4", "three_maps", "28_maps", "collinear"])
    def test_diameters_match_the_whole_level(self, request, family, depth):
        whole = family(request)
        assert whole.n_maps ** depth > LEVEL_BLOCK
        pts, errs = whole._cylinder_centers(depth)
        hull, e = hull_vertices(pts), 2.0 * errs.max()
        d = _cloud_diameter(hull)
        thetas = np.linspace(0.0, math.pi, DIAM_GRID, endpoint=False)
        proj = hull @ np.stack([np.cos(thetas), np.sin(thetas)])

        ifs = Ifs.from_json(whole.to_json())
        walked, radius = ifs._hull(depth)
        assert (_cloud_diameter(walked), 2.0 * radius) == (d, e)
        # the walked hull on the grid of DiameterTable, projected as the
        # table projects it
        widths = proj.max(axis=0) - proj.min(axis=0)
        on_grid = walked @ np.stack([np.cos(thetas), np.sin(thetas)])
        assert np.array_equal(on_grid.max(axis=0) - on_grid.min(axis=0),
                              widths)
        if depth == HULL_DEPTH:
            table = DiameterTable(ifs)
            assert table.err == float(e)
            assert np.array_equal(table.widths, widths)
        assert max(len(part) for part in kept_arrays(ifs)) <= LEVEL_BLOCK

    def test_carpet_diameter_holds_no_level(self, carpet_ifs):
        # the whole depth-8 level, its centres and radii are 43 MiB
        ifs = Ifs.from_json(carpet_ifs.to_json())
        tracemalloc.start()
        try:
            ifs.diam_bounds()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


FIXTURES = ["sim3", "cantor2", "square4", "positive_pair", "cone_ifs",
            "overlap_ifs", "carpet_ifs"]


def assert_same_bits(got, want):
    """Equal bit patterns, every NaN counted equal to every NaN; unlike
    np.array_equal this tells -0.0 from 0.0."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got.view(np.int64)[~nan] == want.view(np.int64)[~nan]).all()


def special_stack(g, shape):
    """Normals with about three entries in four replaced by signed zeros,
    units, infinities, subnormals or 1e308."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e-320,
                     -1e-320, 1e308])
    vals = g.normal(size=shape)
    pick = g.integers(0, len(pool) + 3, size=shape)
    special = pick < len(pool)
    vals[special] = pool[pick[special]]
    return vals


# every einsum mul2 replaced, with the mul2 call that replaced it
MUL2_SITES = [
    ("ipq,wqr->iwpr", (3, 2, 2), (50, 2, 2),
     lambda x, y: mul2(x[:, None], y[None])),
    ("wpq,iqr->iwpr", (50, 2, 2), (3, 2, 2),
     lambda x, y: mul2(x[None], y[:, None])),
    ("ipq,wq->iwp", (3, 2, 2), (50, 2),
     lambda x, y: mul2(x[:, None], y[None, :, :, None])[..., 0]),
    ("wpq,iq->iwp", (50, 2, 2), (3, 2),
     lambda x, y: mul2(x[None], y[:, None, :, None])[..., 0]),
    ("ipq,q->ip", (50, 2, 2), (2,),
     lambda x, y: mul2(x, y[:, None])[..., 0]),
    ("wqp,q->wp", (50, 2, 2), (2,),
     lambda x, y: mul2(x.swapaxes(1, 2), y[:, None])[..., 0]),
    ("wqp,dq->wdp", (50, 2, 2), (7, 2),
     lambda x, y: mul2(x.swapaxes(1, 2)[:, None],
                       y[None, :, :, None])[..., 0]),
    ("wpq,kq->wkp", (50, 2, 2), (4, 2),
     lambda x, y: mul2(x[:, None], y[None, :, :, None])[..., 0]),
    ("kpq,kq->kp", (50, 2, 2), (50, 2),
     lambda x, y: mul2(x, y[:, :, None])[..., 0]),
]


class TestMul2:
    @pytest.mark.parametrize("spec,lshape,rshape,kernel", MUL2_SITES,
                             ids=[site[0] for site in MUL2_SITES])
    def test_special_values_match_einsum(self, spec, lshape, rshape, kernel):
        g = rng(31)
        for _ in range(20):
            x, y = special_stack(g, lshape), special_stack(g, rshape)
            with np.errstate(invalid="ignore", over="ignore"):
                assert_same_bits(kernel(x, y), np.einsum(spec, x, y))

    def test_sum_of_negative_zeros_is_positive_zero(self):
        x = np.ones((1, 2, 2))
        y = np.array([[[-0.0, 1.0], [-0.0, 1.0]]])
        want = np.einsum("ipq,wqr->iwpr", x, y)
        plain = x[0, 0, 0] * y[0, 0, 0] + x[0, 0, 1] * y[0, 1, 0]
        # the plain two-term sum keeps the sign einsum drops
        assert math.copysign(1.0, plain) == -1.0
        assert math.copysign(1.0, want[0, 0, 0, 0]) == 1.0
        assert_same_bits(mul2(x[:, None], y[None]), want)

    def test_entry_major_out_matches_einsum(self):
        # the layout of level products: each output entry, and each entry
        # of the right stack, is one contiguous row
        def entry_major(size):
            return np.empty((2, 2, size)).transpose(2, 0, 1)

        g = rng(37)
        cases = [(special_stack(g, (3, 2, 2)), special_stack(g, (50, 2, 2)))
                 for _ in range(20)]
        cases.append((np.ones((1, 2, 2)),
                      np.array([[[-0.0, 1.0], [-0.0, 1.0]]])))
        for x, y in cases:
            right = entry_major(len(y))
            right[...] = y
            level = entry_major(len(x) * len(y))
            out = level.reshape(len(x), len(y), 2, 2)
            with np.errstate(invalid="ignore", over="ignore"):
                assert mul2(x[:, None], right[None], out=out) is out
                want = np.einsum("ipq,wqr->iwpr", x, y)
            assert_same_bits(level, want.reshape(-1, 2, 2))
        # the last case sums two -0.0 products
        assert math.copysign(1.0, level[0, 0, 0]) == 1.0

    @pytest.mark.parametrize("name", FIXTURES)
    def test_level_chains_match_einsum(self, request, name):
        ifs = request.getfixturevalue(name)
        depth = ifs._fit_depth(12)
        prods = inv_prods = np.eye(2)[None]
        invs = np.linalg.inv(ifs.lins)
        pts = ifs.ball_center[None]
        for n in range(1, depth + 1):
            prods = np.einsum("ipq,wqr->iwpr", ifs.lins, prods) \
                .reshape(-1, 2, 2)
            assert_same_bits(ifs.level_products(n), prods)
            inv_prods = np.einsum("ipq,wqr->iwpr", invs, inv_prods) \
                .reshape(-1, 2, 2)
            # the inverse walk's blocks, which _cylinder_directions reads
            gathered = np.empty_like(inv_prods)
            for start, block, _ in ifs._level_walk(n, invs):
                gathered[start:start + len(block)] = block
            assert_same_bits(gathered, inv_prods)
            pts = (np.einsum("ipq,wq->iwp", ifs.lins, pts)
                   + ifs.vs[:, None, :]).reshape(-1, 2)
        assert_same_bits(ifs._cylinder_centers(depth)[0], pts)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_frontier_expansion_matches_einsum(self, request, name):
        ifs = request.getfixturevalue(name)
        calls = []

        def third_level(mats, pts, a1):
            calls.append(len(mats))
            return np.full(len(mats), len(calls) == 3)

        found = ifs.frontier(third_level)
        c = ifs.ball_center
        drifts = np.einsum("ipq,q->ip", ifs.lins, c) + ifs.vs - c
        mats, pts = ifs.lins, c + drifts
        for _ in range(2):
            pts = (np.einsum("wpq,iq->iwp", mats, drifts)
                   + pts[None, :, :]).reshape(-1, 2)
            mats = np.einsum("wpq,iqr->iwpr", mats, ifs.lins) \
                .reshape(-1, 2, 2)
        assert_same_bits(found.mats, mats)
        assert_same_bits(found.pts, pts)


def c_ordered_frontier(ifs, stop, prune=None):
    """Ifs.frontier as it was before its products were held entry-major:
    C-ordered products, masked by rows, children through mul2 into a new
    (n_maps, k, 2, 2) array.  The oracle of the entry-major walk."""
    cap = word_cap()
    n, c = ifs.n_maps, ifs.ball_center
    drifts = mul2(ifs.lins, c[:, None])[..., 0] + ifs.vs - c
    codes, mats, pts = np.arange(n), ifs.lins, c + drifts
    found, emitted = [], 0
    for depth in range(1, int(63 / math.log2(max(n, 2))) + 1):
        a1 = batch_singular_values(mats)[0]
        if prune is not None:
            keep = ~prune(mats, pts, a1)
            codes, mats, pts, a1 = codes[keep], mats[keep], pts[keep], \
                a1[keep]
        done = stop(mats, pts, a1)
        found.append((depth, codes[done], mats[done], pts[done], a1[done]))
        emitted += len(found[-1][1])
        live = ~done
        codes, mats, pts = codes[live], mats[live], pts[live]
        if emitted + n * len(codes) > cap:
            raise BudgetExceeded(cap, emitted + n * len(codes))
        if not len(codes):
            break
        codes = (codes[None, :] * n + np.arange(n)[:, None]).reshape(-1)
        pts = (mul2(mats[None], drifts[:, None, :, None])[..., 0]
               + pts[None, :, :]).reshape(-1, 2)
        mats = mul2(mats[None], ifs.lins[:, None]).reshape(-1, 2, 2)
    else:
        raise BudgetExceeded(cap, None)
    depths, *parts = zip(*found)
    lengths = np.repeat(depths, [len(k) for k in parts[0]])
    return Cylinders(lengths, *[np.concatenate(p) for p in parts])


def is_entry_major(mats):
    """mats is the (k, 2, 2) view of a contiguous (2, 2, k) buffer."""
    return mats.transpose(1, 2, 0).flags.c_contiguous


class TestEntryMajorFrontier:
    # the 7 fixtures, three maps with det < 0 on the first, and 28 maps
    @pytest.mark.parametrize("family,frac", [
        *[(lambda request, name=name: request.getfixturevalue(name), 0.02)
          for name in FIXTURES],
        (lambda request: random_contractions(rng(3), 3), 0.01),
        (lambda request: random_contractions(rng(28), 28), 0.05),
    ], ids=FIXTURES + ["three_maps", "28_maps"])
    # stop by alpha1, unpruned (False) or pruned to a ball (True), and the
    # projected stop rule of posc_check and sigma_count with
    # sigma_count's prune ("projected")
    @pytest.mark.parametrize("pruned", [False, True, "projected"])
    def test_matches_the_c_ordered_walk(self, request, family, frac, pruned):
        ifs = family(request)
        diam, rad = ifs.diam_upper, ifs.ball_radius
        x = ifs.compose_word((1, 2))[1]
        v = ProjPoint(0.3)
        seen = {"oracle": [], "walk": []}

        def logged(log, fn):
            def rule(mats, pts, a1):
                log.append((mats.copy(), pts.copy(), a1.copy()))
                return fn(mats, pts, a1)
            return rule

        def rules(log):
            if pruned == "projected":
                return (logged(log, _proj_stop(ifs, v, frac * diam)),
                        logged(log, _misses(ifs, v, x, 0.3 * diam)))
            stop = logged(log, lambda mats, pts, a1: a1 * diam <= frac * diam)
            prune = logged(log, lambda mats, pts, a1: np.linalg.norm(
                pts - x, axis=1) > 0.3 * diam + a1 * rad)
            return stop, prune if pruned else None

        want = c_ordered_frontier(ifs, *rules(seen["oracle"]))
        layouts = []
        stop, prune = rules(seen["walk"])
        got = ifs.frontier(
            lambda mats, pts, a1: layouts.append(is_entry_major(mats))
            or stop(mats, pts, a1),
            prune and (lambda mats, pts, a1: layouts.append(
                is_entry_major(mats)) or prune(mats, pts, a1)))
        assert len(got) > ifs.n_maps
        assert all(layouts) and is_entry_major(got.mats)
        for part in ("lengths", "codes", "mats", "pts", "a1"):
            assert_same_bits(getattr(got, part), getattr(want, part))
        assert len(seen["walk"]) == len(seen["oracle"])
        for args, oracle_args in zip(seen["walk"], seen["oracle"]):
            for a, b in zip(args, oracle_args):
                assert_same_bits(a, b)


# the 7 fixtures, 28 maps, and three maps with det < 0 on the first
LEVEL_FAMILIES = [
    *[lambda request, name=name: request.getfixturevalue(name)
      for name in FIXTURES],
    lambda request: random_contractions(rng(28), 28),
    lambda request: random_contractions(rng(3), 3),
]
LEVEL_IDS = FIXTURES + ["28_maps", "three_maps"]


def einsum_images(ifs, x):
    """The images of the points x (k, ..., 2) under every map, map-major,
    by einsum."""
    shape = (ifs.n_maps,) + (1,) * (x.ndim - 1) + (2,)
    return (np.einsum("ipq,w...q->iw...p", ifs.lins, x)
            + ifs.vs.reshape(shape)).reshape(-1, *x.shape[1:])


class TestLevelImages:
    @pytest.mark.parametrize("family", LEVEL_FAMILIES, ids=LEVEL_IDS)
    def test_ball_center_matches_einsum(self, request, family):
        ifs = family(request)
        c = ifs.ball_center
        want = c[None]
        for n in range(1, ifs._fit_depth(8) + 1):
            want = einsum_images(ifs, want)
            got = ifs.level_images(c[None], n)
            assert got.flags.c_contiguous
            assert_same_bits(got, want)

    @pytest.mark.parametrize("family", LEVEL_FAMILIES, ids=LEVEL_IDS)
    def test_render_square_matches_einsum(self, request, family):
        # the corners of the square around the ball, as `render` takes them
        ifs = family(request)
        c, r = ifs.ball_center, ifs.ball_radius
        corners = np.array([[c[0] - r, c[1] - r], [c[0] + r, c[1] - r],
                            [c[0] + r, c[1] + r], [c[0] - r, c[1] + r]])
        want = corners[None]
        for n in range(1, 4):
            want = einsum_images(ifs, want)
            got = ifs.level_images(corners[None], n)
            assert got.shape == (ifs.n_maps ** n, 4, 2)
            assert got.flags.c_contiguous
            assert_same_bits(got, want)

    def test_budget_raises_before_allocating(self, cone_ifs, monkeypatch):
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", str(3 ** 12 - 1))
        c = cone_ifs.ball_center
        for x in (c[None], np.stack([c, c, c, c])[None]):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    cone_ifs.level_images(x, 12)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 10

    @pytest.mark.parametrize("family", LEVEL_FAMILIES, ids=LEVEL_IDS)
    def test_hull_matches_an_einsum_vertex_walk(self, request, family):
        # the hull vertices of each level's images of the hull vertices
        # above, and alpha1 of the einsum products
        ifs = Ifs.from_json(family(request).to_json())
        depth = ifs._fit_depth(8)
        prods, hull = np.eye(2)[None], ifs.ball_center[None]
        for _ in range(depth):
            prods = np.einsum("ipq,wqr->iwpr", ifs.lins, prods) \
                .reshape(-1, 2, 2)
            hull = hull_vertices(einsum_images(ifs, hull))
        radius = batch_singular_values(prods)[0].max() * ifs.ball_radius
        got, got_radius = ifs._hull(depth)
        assert_same_bits(got, hull)
        assert float(got_radius).hex() == float(radius).hex()
