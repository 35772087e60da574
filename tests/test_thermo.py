from collections import Counter
import itertools
import math
from types import SimpleNamespace
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from affinedim import thermo
from affinedim.errors import NotDominated
from affinedim.ifs import Ifs, det2, log_svf
from affinedim.projective import ProjPoint, complement, \
    find_invariant_multicone
from affinedim.roots import RTOL, brentq
from affinedim.thermo import PRESSURE_CHUNK, _cylinder_directions, \
    _letter_sums, _log_sum_fn, _pressure_fn, affinity_dimension, \
    equilibrium_state, gibbs_spread_by_depth, is_similarity, \
    kaenmaki_weights, pressure, transfer_matrix

from conftest import load_fixture, svd_svf


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_family(g, similar):
    """2 to 5 contractions with norms in [0.15, 0.6] and translations in
    [-1, 1]^2.  A similar family has linear parts [[a, -b], [b, a]] or the
    reflections [[a, b], [b, -a]], with a and b multiples of 1/64, so that
    A^T A is exactly (a^2 + b^2) I and the maps pass the similarity test.
    The others are Gaussian with alpha2 >= 0.05 alpha1."""
    lins, size = [], g.integers(2, 6)
    while len(lins) < size:
        if similar:
            a, b = g.integers(-38, 39, size=2) / 64.0
            lin = np.array([[a, -b], [b, a]])
            if g.integers(2):
                lin[:, 1] *= -1.0
        else:
            lin = g.normal(size=(2, 2))
        a1, a2 = np.linalg.svd(lin, compute_uv=False)
        if similar and 0.15 <= a1 <= 0.6:
            lins.append(lin)
        elif not similar and a2 >= 0.05 * a1:
            lins.append(lin * (g.uniform(0.15, 0.6) / a1))
    return Ifs(lins, g.uniform(-1.0, 1.0, size=(len(lins), 2)))


def svd_pressure_fn(ifs, n):
    """Oracle for the similarity bracket of `thermo.affinity_dimension`,
    copied from `thermo._pressure_fn` at 59974fa: the level-n pressure
    from the singular values of np.linalg.svd, by the two-array formula.
    They stay equal on products of similarities, which
    batch_singular_values splits by about 1e-8 relative: t^2 - 4 det^2
    cancels to rounding noise, and its square root adds that noise to
    alpha1."""
    a1, a2 = np.linalg.svd(ifs.level_products(n), compute_uv=False).T
    return lambda s: unbuffered_pressure(a1, a2, n, s)


def alpha2_sum_fn(ifs):
    """log sum of alpha2(A_i)^s over the maps, a lower bound for every
    level-n pressure: the level-1 sum at alpha1 = alpha2 = alpha2(A_i)."""
    la2 = np.log(ifs.level_singular_values(1)[1])
    return _log_sum_fn(la2, 2.0 * la2, 1)


def letter_log_dets(ifs):
    return np.log(np.abs(det2(ifs.lins)))


class TestPressure:
    def test_matches_direct_sum(self, cone_ifs):
        n, s = 3, 0.7
        total = 0.0
        for flat in range(cone_ifs.n_maps ** n):
            w = cone_ifs.word_from_flat(flat, n)
            total += svd_svf(cone_ifs.compose_word(w)[0], s)
        ps = pressure(cone_ifs, s, n)
        assert ps.value == pytest.approx(math.log(total) / n, rel=1e-12)

    def test_decreasing_in_s(self, cone_ifs):
        vals = [pressure(cone_ifs, s, 4).value for s in (0.2, 0.6, 1.0, 1.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_subadditive(self, cone_ifs, positive_pair, carpet_ifs):
        for ifs in (cone_ifs, positive_pair, carpet_ifs):
            for n, m in ((2, 3), (3, 3), (4, 4)):
                s = 0.9
                pn = pressure(ifs, s, n).value
                pm = pressure(ifs, s, m).value
                pnm = pressure(ifs, s, n + m).value
                assert (n + m) * pnm <= n * pn + m * pm + 1e-10


def unbuffered_pressure(a1, a2, n, s):
    """Oracle for `thermo._pressure_fn`, copied from it at ac4aeab: the
    level-n pressure over two arrays, log alpha1 and log alpha2, as three
    fresh arrays: logs, logs - m, exp."""
    la1, la2 = np.log(a1), np.log(a2)
    if s <= 1.0:
        logs = s * la1
    elif s <= 2.0:
        logs = la1 + (s - 1.0) * la2
    else:
        logs = 0.5 * s * (la1 + la2)
    m = logs.max()
    return (m + math.log(np.exp(logs - m).sum())) / n


class TestPressureClosure:
    ORDER = (1.5, 0.3, 2.7, 1.5, 1.0, 2.0, 0.3)

    def test_fixture_levels(self, cone_ifs, positive_pair):
        for ifs, n in ((cone_ifs, 6), (positive_pair, 12)):
            p = _pressure_fn(ifs, n)
            want = whole_array_log_sum_fn(
                np.log(ifs.level_singular_values(n)[0]), letter_log_dets(ifs),
                n)
            for s in self.ORDER:
                assert p(s) == want(s)

    def test_zero_alpha2(self):
        # letters of log|det| near -40 take alpha2 = |det| / alpha1 of
        # most words of level 20 below the least float, to 0.0; their log
        # alpha2, a letter sum, stays finite, and so do their terms
        g = rng(41)
        log_dets = g.uniform(-45.0, -35.0, 2)
        la1 = g.uniform(-3.0, -1.0, 2 ** 20)
        assert (np.exp(_letter_sums(log_dets, 20)[::4096]
                       - la1[::4096]) == 0.0).mean() > 0.5
        p = _log_sum_fn(la1, log_dets, 20)
        want = whole_array_log_sum_fn(la1, log_dets, 20)
        for s in self.ORDER:
            assert p(s) == want(s) and math.isfinite(p(s))

    @pytest.mark.parametrize("name", ["positive_pair", "cone_ifs",
                                      "overlap_ifs", "carpet_ifs"])
    def test_near_the_two_array_formula(self, request, name):
        # log alpha2 from the letter sum of log|det| moves the pressure by
        # rounding alone
        ifs = request.getfixturevalue(name)
        for n in range(1, 13):
            if ifs.n_maps ** n > 2 ** 21:
                break
            p = _pressure_fn(ifs, n)
            a1, a2 = ifs.level_singular_values(n)
            for s in (0.0, 0.3, 0.7, 1.0, 1.3, 1.7, 2.0, 2.5, 3.5, 4.0):
                want = unbuffered_pressure(a1, a2, n, s)
                assert abs(p(s) - want) <= 1e-13 * abs(want), (n, s)


def scaled_rotations(g, size):
    """size maps r R(theta), theta uniform in [0, 2 pi) and r in
    [0.15, 0.6]."""
    theta, r = g.uniform(0.0, 2.0 * math.pi, size), g.uniform(0.15, 0.6, size)
    c, s = r * np.cos(theta), r * np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)


def python_letter_sums(log_dets, k):
    """The right-nested letter sums of every word of length k, in
    lexicographic word order, added in Python floats word by word."""
    sums = []
    for word in itertools.product(log_dets.tolist(), repeat=k):
        total = 0.0
        for v in reversed(word):
            total = v + total
        sums.append(total)
    return np.array(sums)


def chunk_letters(maps, n):
    """The letters of a chunk of `thermo._log_sum_fn` on level n of maps
    maps: the most that keep it within PRESSURE_CHUNK words, and one at
    least."""
    k = n
    while maps ** k > PRESSURE_CHUNK and k > 1:
        k -= 1
    return k


def whole_array_log_sum_fn(la1, log_dets, n):
    """Oracle for `thermo._log_sum_fn`, written with it rather than copied
    from a commit: its chunks as the rows of whole-level arrays.  log
    alpha2 is a prefix's letter sum plus a suffix's less log alpha1; each
    row is shifted by its own max and summed along the row, and the rows
    are joined in order in Python floats."""
    k = chunk_letters(len(log_dets), n)
    sums = python_letter_sums(log_dets, n - k)[:, None] \
        + python_letter_sums(log_dets, k)
    la2 = sums.reshape(-1) - la1

    def p(s):
        logs = log_svf(la1, la2, s).reshape(len(sums), -1)
        tops = logs.max(axis=1)
        rows = np.exp(logs - tops[:, None]).sum(axis=1)
        m, total = -math.inf, 0.0
        for top, row in zip(tops.tolist(), rows.tolist()):
            if top > m:
                m, total = top, total * math.exp(m - top) + row
            else:
                total += row * math.exp(top - m)
        return (m + math.log(total)) / n
    return p


def pairwise_model(x):
    """Oracle for numpy's sum of a contiguous float64 array, which
    `thermo._log_sum_fn` takes of each chunk and whole_array_log_sum_fn of
    each row; written at e66c233, not copied.  The sum in the order of
    numpy's pairwise summation, in Python floats: a node of fewer than 8
    terms adds them from 0.0 in turn, one of at most 128 keeps 8
    accumulators over its first multiple of 8 terms, joins them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the rest
    in turn, and a larger one splits after h = n//2 - (n//2) % 8 terms.
    The reduction adds the root to 0.0."""
    x = x.tolist()

    def node(a, size):
        if size < 8:
            res = 0.0
            for v in x[a:a + size]:
                res += v
            return res
        if size <= 128:
            r = x[a:a + 8]
            body = size - size % 8
            for i in range(8, body, 8):
                for j in range(8):
                    r[j] += x[a + i + j]
            res = ((r[0] + r[1]) + (r[2] + r[3])) \
                + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in x[a + body:a + size]:
                res += v
            return res
        half = size // 2 - size // 2 % 8
        return node(a, half) + node(a + half, size - half)
    return 0.0 + node(0, len(x))


# level sizes N^n around the chunk size and its splits: one map (1), one
# level of one chunk (7 = 7^1, 8 = 2^3, 129 = 129^1, 65535 = 65535^1,
# 65536 = 2^16), level 1 of more maps than a chunk holds (65537^1,
# 131080^1), and levels of many chunks (3^13, 2^18)
SUM_LEVELS = {1: 1, 7: 7, 8: 2, 129: 129,
              PRESSURE_CHUNK - 1: PRESSURE_CHUNK - 1, PRESSURE_CHUNK: 2,
              PRESSURE_CHUNK + 1: PRESSURE_CHUNK + 1,
              2 * PRESSURE_CHUNK + 8: 2 * PRESSURE_CHUNK + 8, 3 ** 13: 3,
              2 ** 18: 2}
SUM_SIZES = tuple(SUM_LEVELS)


def sum_level(size):
    """(maps, n): the level n of SUM_LEVELS[size] maps that has size
    words."""
    maps, n = SUM_LEVELS[size], 1
    while maps ** n < size:
        n += 1
    return maps, n


def seeded_level(size, seed):
    """(la1, log_dets, n): the log|det| of SUM_LEVELS[size] random maps,
    and log alpha1 of the size words of a level n of them, between half
    the word's letter sum (alpha1 = alpha2) and 5 more."""
    g, (maps, n) = rng(seed), sum_level(size)
    log_dets = g.uniform(-8.0, -1.0, maps)
    la1 = 0.5 * _letter_sums(log_dets, n) + g.uniform(0.0, 5.0, size)
    return la1, log_dets, n


class TestPressureLeaves:
    S_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0) \
        + tuple(rng(71).uniform(0.0, 4.0, 20))

    def assert_whole_array_bits(self, la1, log_dets, n):
        got = _log_sum_fn(la1, log_dets, n)
        want = whole_array_log_sum_fn(la1, log_dets, n)
        for s in self.S_VALUES:
            assert got(s) == want(s), s

    @pytest.mark.parametrize("size", SUM_SIZES)
    def test_equals_the_whole_array_sum(self, size):
        self.assert_whole_array_bits(*seeded_level(size, size))

    @pytest.mark.parametrize("n", [11, 12])
    def test_fixture_levels(self, cone_ifs, n):
        # levels of more than one chunk, with the levels' own log alpha1
        self.assert_whole_array_bits(cone_ifs.level_log_alpha1(n),
                                     letter_log_dets(cone_ifs), n)

    @pytest.mark.parametrize("size", SUM_SIZES)
    def test_numpy_sums_in_pairwise_order(self, size):
        # a chunk's np.sum and the oracle's sums along the rows of a
        # level repeat each other bit for bit only while numpy sums a
        # contiguous float64 array, and each row of a C-ordered one, in
        # this order
        x = rng(size).normal(size=size) * 10.0 ** rng(size + 1).integers(
            -8, 8, size)
        assert x.sum() == pairwise_model(x)
        maps, n = sum_level(size)
        rows = x.reshape(-1, maps ** chunk_letters(maps, n))
        assert rows.sum(axis=1).tolist() \
            == [pairwise_model(row) for row in rows]


class TestPressureOnce:
    @pytest.mark.parametrize("name,budget", [("positive_pair", 2 ** 16),
                                             ("cone_ifs", 200_000),
                                             ("sim3", 200_000)])
    def test_each_level_summed_once_at_each_s(self, request, monkeypatch,
                                              name, budget):
        # the root solvers ask again for the ends of their bracket, and
        # the extrapolation for the values of both levels; a sum is
        # known by its log alpha1, as the similarity bracket sums two of
        # level 1.  Each s takes one pass over the chunks of a level; a
        # second call reads the memo and sums nothing
        data = request.getfixturevalue(name).to_json()
        want = affinity_dimension(Ifs.from_json(data), budget=budget)
        ifs = Ifs.from_json(data)
        calls, bases = [], []
        svf = thermo.log_svf

        def spy(la1, la2, s, out=None):
            # a chunk is a view, named by its base and its first term;
            # the bases are kept so that no id or address is reused
            bases.append(la1.base)
            calls.append((id(la1.base), la1.ctypes.data, s))
            return svf(la1, la2, s, out=out)

        monkeypatch.setattr(thermo, "log_svf", spy)
        assert affinity_dimension(ifs, budget=budget) == want
        assert calls and set(Counter(calls).values()) == {1}
        summed = len(calls)
        assert affinity_dimension(ifs, budget=budget) == want
        assert len(calls) == summed


class TestIsSimilarity:
    def test_every_scaled_rotation_and_reflection(self):
        # alpha1 - alpha2 from batch_singular_values is rounding noise
        # here, and failed a 1e-12 relative bound on 73 of these rotations
        lins = scaled_rotations(np.random.default_rng(1), 1000)
        reflections = lins * np.array([1.0, -1.0])
        for lin in np.concatenate([lins, reflections]):
            assert is_similarity(SimpleNamespace(lins=lin[None]))

    def test_a_small_shear_is_not_a_similarity(self):
        lins = scaled_rotations(np.random.default_rng(2), 200)
        for lin, reflect in itertools.product(lins, (1.0, -1.0)):
            lin = lin * np.array([1.0, reflect])
            shear = lin @ np.array([[1.0, 1e-9], [0.0, 1.0]])
            assert is_similarity(SimpleNamespace(lins=lin[None]))
            assert not is_similarity(SimpleNamespace(lins=shear[None]))

    @pytest.mark.parametrize("name,similar", [
        ("sim3", True), ("cantor2", True), ("square4", True),
        ("positive_pair", False), ("cone_ifs", False),
        ("overlap_ifs", False), ("carpet_ifs", False)])
    def test_fixtures(self, request, name, similar):
        assert is_similarity(request.getfixturevalue(name)) is similar

    def test_rotation_families_get_the_level_one_bracket(self):
        g = np.random.default_rng(3)
        tol = 1e-10
        for _ in range(10):
            size = g.integers(2, 6)
            lins = scaled_rotations(g, size)
            lins[::2, :, 1] *= -1.0
            ifs = Ifs(lins, g.uniform(-1.0, 1.0, size=(size, 2)))
            ratios = np.hypot(lins[:, 0, 0], lins[:, 1, 0])
            root = brentq(lambda s: math.log((ratios ** s).sum()), 0.0, 4.0,
                          xtol=1e-14)
            s, (lo, hi) = affinity_dimension(ifs, budget=10)
            slack = 2.0 * (tol + RTOL * hi)
            assert lo - slack <= root <= hi + slack
            assert lo <= s <= hi and hi - lo <= 1e-7


class TestAffinityDimension:
    def test_similarity_exact(self, sim3):
        s, (lo, hi) = affinity_dimension(sim3)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert hi - lo <= 1e-9

    def test_cantor_pair(self, cantor2):
        s, _ = affinity_dimension(cantor2)
        assert s == pytest.approx(math.log(2) / math.log(3), abs=1e-9)

    def test_carpet_formula(self, carpet_ifs):
        s, (lo, hi) = affinity_dimension(carpet_ifs)
        expect = 1.0 + math.log(5.0 / 4.0) / math.log(5.0)
        assert lo <= s <= hi
        assert s == pytest.approx(expect, abs=7e-4)

    def test_bracket_contains_root(self, cone_ifs):
        s, (lo, hi) = affinity_dimension(cone_ifs)
        assert lo <= s <= hi
        assert s == pytest.approx(0.6816047434817972, abs=1e-9)

    @pytest.mark.parametrize("name,value", [
        ("sim3", (1.0, 1.0)),
        ("cantor2", (0.6309297535714574, 0.6309297535714574)),
        ("square4", (2.0, 2.0))])
    def test_similarity_bracket_ignores_the_budget(self, request, name,
                                                   value):
        ifs = request.getfixturevalue(name)
        assert is_similarity(ifs)
        for budget in (10, 200_000, 4_000_000):
            s, bracket = affinity_dimension(ifs, budget=budget)
            assert (s, bracket) == (value[1], value)

    def test_level_sums_bracket_the_pressure(self):
        # log sum alpha2_i^s <= P_n(s) <= P_1(s): alpha1(A_w) >= alpha2(A_w)
        # >= prod alpha2(A_i), and phi^s is submultiplicative
        g = rng(53)
        for _ in range(30):
            ifs = random_family(g, similar=False)
            lower, p1 = alpha2_sum_fn(ifs), _pressure_fn(ifs, 1)
            for n in range(2, 7):
                pn = _pressure_fn(ifs, n)
                for s in (0.2, 0.7, 1.0, 1.3, 1.9, 2.5):
                    assert lower(s) <= pn(s) + 1e-12
                    assert pn(s) <= p1(s) + 1e-12

    def test_similarity_bracket_holds_every_level_root(self):
        g = rng(59)
        tol = 1e-14
        for _ in range(12):
            ifs = random_family(g, similar=True)
            assert is_similarity(ifs)
            s, (lo, hi) = affinity_dimension(ifs, tol=tol)
            assert lo <= s <= hi and hi - lo <= 1e-12
            # a root brentq returns is within tol + RTOL * |x| of a sign
            # change, on both sides
            slack = 2.0 * (tol + RTOL * hi)
            for n in range(1, 9):
                root = brentq(svd_pressure_fn(ifs, n), 0.0, 4.0, xtol=tol)
                assert lo - slack <= root <= hi + slack

    def test_budget_at_an_exact_power(self, cone_ifs):
        # 3^13 words fit in a budget of 3^13: level 13 is read, as at
        # 3^13 + 1, and not level 12, as at 3^13 - 1
        at = affinity_dimension(cone_ifs, budget=3 ** 13)
        assert at == affinity_dimension(cone_ifs, budget=3 ** 13 + 1)
        assert at != affinity_dimension(cone_ifs, budget=3 ** 13 - 1)

    def test_positive_pair_level_21_keeps_alpha2(self):
        # a fresh family, so the 2^21 level is freed with it
        ifs = load_fixture("positive_pair.json")
        assert ifs.level_singular_values(21)[1].min() > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, (lo, hi) = affinity_dimension(ifs, budget=4_000_000)
        assert 1.09687884210563 <= lo <= s <= hi <= 1.0978056287141726


class TestTransferOperator:
    def test_carpet_eigenvalue_one_at_root(self, carpet_ifs):
        s, _ = affinity_dimension(carpet_ifs)
        state = equilibrium_state(carpet_ifs, s, m=5)
        assert abs(state.eigenvalue - 1.0) <= 1e-3
        assert state.h.min() > 0
        assert state.nu.min() >= 0
        assert state.nu.sum() == pytest.approx(1.0)
        assert float(state.h @ state.nu) == pytest.approx(1.0, rel=1e-12)

    def test_adjoint_relation(self, carpet_ifs):
        s, _ = affinity_dimension(carpet_ifs)
        m = 5
        L = transfer_matrix(carpet_ifs, s, m)
        state = equilibrium_state(carpet_ifs, s, m=m)
        g = np.random.Generator(np.random.Philox(key=41))
        for _ in range(3):
            f = g.uniform(size=L.shape[0])
            lhs = float((L @ f) @ state.nu)
            rhs = state.eigenvalue * float(f @ state.nu)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_eigen_equation_residual(self, cone_ifs):
        s, _ = affinity_dimension(cone_ifs)
        m = 5
        L = transfer_matrix(cone_ifs, s, m)
        state = equilibrium_state(cone_ifs, s, m=m)
        resid = np.abs(L @ state.h - state.eigenvalue * state.h).max()
        assert resid <= 1e-8 * state.h.max()

    @pytest.mark.parametrize("name", ["carpet_ifs", "cone_ifs"])
    def test_matches_a_compressed_row_matrix(self, name, request):
        # the product and its adjoint sum in the order of scipy's
        # csr_matrix and its transpose, so they agree bit for bit
        ifs = request.getfixturevalue(name)
        s, _ = affinity_dimension(ifs)
        m, n = 5, ifs.n_maps
        L = transfer_matrix(ifs, s, m)
        size = L.shape[0]
        # letter i at cylinder w reads the cylinder i w|_m
        cols = np.stack([i * n ** (m - 1) + np.arange(size) // n
                         for i in range(n)])
        rows = np.broadcast_to(np.arange(size), cols.shape)
        ref = csr_matrix((L.vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=L.shape)
        assert L.nnz == ref.nnz == ifs.n_maps * size
        g = np.random.Generator(np.random.Philox(key=43))
        for f in [np.ones(size)] + [g.uniform(size=size) for _ in range(3)]:
            assert np.array_equal(L @ f, ref @ f)
            assert np.array_equal(L.adjoint(f), ref.T @ f)

    @pytest.mark.parametrize("name", ["positive_pair", "cone_ifs",
                                      "carpet_ifs"])
    def test_directions_match_an_einsum_reference(self, name, request):
        # the inverse products and their images of v0 bit for bit, at
        # levels where a stacked @ rounds apart from einsum; the carpet's
        # level 7 is five blocks of the inverse walk
        ifs = request.getfixturevalue(name)
        gaps = complement(find_invariant_multicone(ifs))
        v0 = ProjPoint(gaps.starts[0] + gaps.widths[0] / 2.0).vector
        invs = np.linalg.inv(ifs.lins)
        prods = np.eye(2)[None]
        for m in range(1, 8):
            prods = np.einsum("ipq,wqr->iwpr", invs, prods) \
                .reshape(-1, 2, 2)
            vecs = np.einsum("wpq,q->wp", prods, v0)
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            want = np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]), math.pi)
            assert np.array_equal(_cylinder_directions(ifs, m), want)

    @pytest.mark.parametrize("name", ["positive_pair", "cone_ifs"])
    def test_weights_match_an_einsum_reference(self, name, request):
        # log alpha1 := log|A^T u| from einsum's pulled-back axes, bit for
        # bit
        ifs = request.getfixturevalue(name)
        s, m = 1.1, 5
        perp = _cylinder_directions(ifs, m) + math.pi / 2.0
        u = np.stack([np.cos(perp), np.sin(perp)], axis=1)
        vals = transfer_matrix(ifs, s, m).vals
        for a, got in zip(ifs.lins, vals):
            la1 = np.log(np.linalg.norm(np.einsum("qp,wq->wp", a, u),
                                        axis=1))
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            la2 = math.log(abs(det)) - la1
            assert np.array_equal(got, np.exp(log_svf(la1, la2, s)))

    def test_directions_hold_no_inverse_level(self, carpet_ifs):
        # the 5^7 inverse products are 2.4 MiB whole; the walk holds one
        # block of 5^6 at a time beside the 0.6 MiB of directions
        ifs = Ifs.from_json(carpet_ifs.to_json())
        tracemalloc.start()
        try:
            _cylinder_directions(ifs, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_needs_cone_for_true_affine(self):
        # a squeeze and a quarter-turn: genuinely affine, no invariant cone
        ifs = Ifs([[[0.5, 0.0], [0.0, 0.2]], [[0.0, -0.5], [0.5, 0.0]]],
                  [(0.0, 0.0), (0.3, 0.1)])
        with pytest.raises(NotDominated):
            equilibrium_state(ifs, 0.8, m=3)


class TestGibbsWeights:
    def test_similarity_spread_is_one(self, sim3):
        gw = kaenmaki_weights(sim3, 4, s=1.0)
        assert gw.gibbs_spread == pytest.approx(1.0, abs=1e-9)
        assert gw.weights.sum() == pytest.approx(1.0)
        # every depth-4 cylinder carries 3^-4
        assert np.allclose(gw.weights, 3.0 ** -4)

    def test_positive_pair_spread_stabilizes(self, positive_pair):
        s, _ = affinity_dimension(positive_pair)
        spreads = gibbs_spread_by_depth(positive_pair, s, (4, 5, 6))
        assert spreads[6] <= spreads[5] <= spreads[4]

    @pytest.mark.parametrize("name", ["positive_pair", "cone_ifs"])
    def test_spread_matches_the_linear_ratio(self, name, request):
        # the spread is taken in logs; max/min of weight / phi^s agrees
        ifs = request.getfixturevalue(name)
        s, _ = affinity_dimension(ifs)
        for depth in (4, 6):
            gw = kaenmaki_weights(ifs, depth, s=s)
            a1, a2 = ifs.level_singular_values(depth)
            phis = a1 ** s if s <= 1.0 else a1 * a2 ** (s - 1.0)
            ratio = gw.weights / phis
            assert gw.gibbs_spread \
                == pytest.approx(ratio.max() / ratio.min(), rel=1e-14)

    def test_letter_marginal_positions_agree(self, positive_pair):
        s, _ = affinity_dimension(positive_pair)
        gw = kaenmaki_weights(positive_pair, 6, s=s)
        # the distribution of the letter at positions 1 and 3 of the word
        w = gw.weights.reshape((positive_pair.n_maps,) * 6)
        m1 = w.sum(axis=(1, 2, 3, 4, 5))
        m3 = w.sum(axis=(0, 1, 3, 4, 5))
        assert m1.sum() == pytest.approx(1.0)
        # shift-invariance up to the Gibbs distortion
        assert np.abs(m1 - m3).max() <= 0.05
