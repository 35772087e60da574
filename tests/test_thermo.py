import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from affinedim.errors import NotDominated
from affinedim.ifs import Ifs
from affinedim.thermo import _pressure_fn, affinity_dimension, \
    equilibrium_state, gibbs_spread_by_depth, kaenmaki_weights, pressure, \
    transfer_matrix

from conftest import svd_svf


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
    """The level-n pressure as three fresh arrays: logs, logs - m, exp."""
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
            a1, a2 = ifs.level_singular_values(n)
            for s in self.ORDER:
                assert p(s) == unbuffered_pressure(a1, a2, n, s)

    def test_zero_alpha2(self):
        g = np.random.Generator(np.random.Philox(key=41))
        a1 = g.uniform(0.1, 1.0, size=1000)
        a2 = a1 * g.uniform(0.0, 1.0, size=1000)
        a2[::7] = 0.0
        ifs = SimpleNamespace(level_singular_values=lambda n: (a1, a2))
        with np.errstate(divide="ignore"):
            p = _pressure_fn(ifs, 9)
            for s in self.ORDER:
                assert p(s) == unbuffered_pressure(a1, a2, 9, s)


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
