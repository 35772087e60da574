import math

import numpy as np
import pytest

from affinedim.carpets import CarpetSpec, carpet_affinity, closed_forms, \
    example_fixture, fraser_lower, mackay_assouad, mcmullen_hausdorff, \
    s_eps_root, to_ifs, uniform_fibers, EXAMPLE_SPEC
from affinedim.errors import PlacementFailed
from affinedim.estimators import box_dim
from affinedim.ifs import batch_singular_values
from affinedim.thermo import affinity_dimension

from conftest import svd_svf


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_spec(g):
    p = int(g.integers(2, 5))
    q = int(g.integers(p + 1, 8))
    cells = [(j, k) for j in range(p) for k in range(q)]
    n = int(g.integers(2, len(cells) + 1))
    idx = g.choice(len(cells), size=n, replace=False)
    return CarpetSpec(p, q, tuple(cells[i] for i in idx))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CarpetSpec(4, 4, ((0, 0),))
        with pytest.raises(ValueError):
            CarpetSpec(2, 3, ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            CarpetSpec(2, 3, ((2, 0),))

    def test_column_counts(self):
        assert EXAMPLE_SPEC.column_counts() == [3, 0, 1, 1]

    def test_json_roundtrip(self):
        back = CarpetSpec.from_json(EXAMPLE_SPEC.to_json())
        assert back == EXAMPLE_SPEC


class TestToIfs:
    def test_small_example(self):
        spec = CarpetSpec(2, 3, ((0, 0), (1, 2)))
        ifs = to_ifs(spec)
        assert ifs.n_maps == 2
        assert np.allclose(ifs.lins[0], np.diag([0.5, 1.0 / 3.0]))
        assert tuple(ifs.vs[1]) == (0.5, 2.0 / 3.0)

    def test_contractive_alpha1(self):
        ifs = to_ifs(EXAMPLE_SPEC)
        for a1, a2 in zip(*batch_singular_values(ifs.lins)):
            assert a1 == pytest.approx(0.25)
            assert a2 == pytest.approx(0.2)

    def test_full_grid_is_square(self):
        spec = CarpetSpec(2, 3, tuple((j, k) for j in range(2)
                                      for k in range(3)))
        cloud = to_ifs(spec).attractor_sample(0.004)
        rep = box_dim(cloud, scale_lo=3.0 * cloud.resolution)
        assert rep.dimension == pytest.approx(2.0, abs=0.05)


class TestClosedForms:
    def test_example_values(self):
        # formula evaluations for columns (3, 0, 1, 1) on a 4 x 5 grid
        assert mackay_assouad(EXAMPLE_SPEC) == pytest.approx(
            math.log(3) / math.log(4) + math.log(3) / math.log(5), abs=1e-15)
        assert fraser_lower(EXAMPLE_SPEC) == pytest.approx(
            math.log(3) / math.log(4), abs=1e-15)
        e = math.log(4) / math.log(5)
        assert mcmullen_hausdorff(EXAMPLE_SPEC) == pytest.approx(
            math.log(3 ** e + 1 + 1) / math.log(4), abs=1e-15)

    def test_single_cell(self):
        assert mackay_assouad(CarpetSpec(2, 3, ((0, 0), (0, 1)))) \
            == pytest.approx(math.log(2) / math.log(3))
        spec = CarpetSpec(2, 3, ((0, 0),))
        assert mackay_assouad(spec) == 0.0

    def test_uniform_fibers_collapse(self):
        spec = CarpetSpec(4, 6, ((0, 0), (0, 3), (2, 1), (2, 5)))
        assert uniform_fibers(spec)
        assert mackay_assouad(spec) == pytest.approx(mcmullen_hausdorff(spec))
        assert mackay_assouad(spec) == pytest.approx(fraser_lower(spec))

    def test_uniform_iff_formulas_agree(self):
        g = rng(71)
        for _ in range(50):
            spec = random_spec(g)
            agree = math.isclose(mackay_assouad(spec),
                                 mcmullen_hausdorff(spec), abs_tol=1e-12) \
                and math.isclose(mackay_assouad(spec), fraser_lower(spec),
                                 abs_tol=1e-12)
            assert agree == uniform_fibers(spec)

    def test_ordering_random(self):
        g = rng(72)
        for _ in range(50):
            spec = random_spec(g)
            assert fraser_lower(spec) <= mcmullen_hausdorff(spec) + 1e-12
            assert mcmullen_hausdorff(spec) <= mackay_assouad(spec) + 1e-12

    def test_affinity_piecewise_vs_pressure(self):
        g = rng(73)
        done = 0
        while done < 20:
            spec = random_spec(g)
            if spec.n_maps > 40:
                continue
            s, _ = affinity_dimension(to_ifs(spec))
            assert s == pytest.approx(carpet_affinity(spec), abs=1e-6)
            done += 1


class TestExampleFixture:
    def test_eps_chain(self):
        fix = example_fixture(EXAMPLE_SPEC, 0.01)
        dims = closed_forms(EXAMPLE_SPEC)
        assert dims["fraser_lower"] < 1.0 <= dims["affinity"] <= fix["s_eps"]
        assert fix["s_eps"] < dims["mackay_assouad"]
        assert fix["ifs"].n_maps == 6

    # the extra map's fixed point is the center of the first empty cell,
    # emptiest column first and in a column nearest the middle row: cell
    # (1, 2) of the example, and cell (1, 0) of the 2 x 3 carpet, whose
    # rows 0 and 2 are equally near the middle
    @pytest.mark.parametrize("spec, center", [
        (EXAMPLE_SPEC, (1.5 / 4.0, 2.5 / 5.0)),
        (CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))), (0.75, 0.5 / 3.0))])
    def test_extra_map_takes_the_first_empty_cell(self, spec, center):
        extra = example_fixture(spec, 0.01)["ifs"]
        fixed = np.linalg.solve(np.eye(2) - extra.lins[-1], extra.vs[-1])
        assert fixed == pytest.approx(center, abs=1e-12)

    def test_full_grid_has_no_cell(self):
        spec = CarpetSpec(2, 3, tuple((j, k) for j in range(2)
                                      for k in range(3)))
        with pytest.raises(PlacementFailed):
            example_fixture(spec, 0.01)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            example_fixture(EXAMPLE_SPEC, 0.7)

    def test_root_equation_is_satisfied(self):
        eps = 0.05
        b = eps * np.array([[0.6, 0.3], [0.2, 0.5]])
        s = s_eps_root(EXAMPLE_SPEC, b)
        a = np.diag([0.25, 0.2])
        assert 5 * svd_svf(a, s) + svd_svf(b, s) \
            == pytest.approx(1.0, abs=1e-10)
