"""The claims of the source paper's abstract (arXiv 2107.00983), each as a
test that says whether this code shows it.  A claim the code cannot show
yet is a strict xfail that names the ROADMAP direction it waits on, so it
fails once that direction lands.  Claim 2 (Ahlfors regularity is
characterised) is not yet tested: its hypotheses are not stated here."""

import json
import math
import os

import numpy as np
import pytest

from affinedim import carpets
from affinedim.cli import main
from affinedim.projective import classify_irreducibility, \
    find_invariant_multicone
from affinedim.thermo import affinity_dimension

from conftest import FIXTURE_DIR

# the affinity dimension of `cone` and `overlap`, whose matrices are the
# same, from the operator value of ROADMAP Direction 2
CONE_AFFINITY = 0.681331631871692


@pytest.fixture(scope="module")
def dims(tmp_path_factory):
    """The `dims` reports of `carpet`, `cone` and `overlap` at seed 1."""
    out = tmp_path_factory.mktemp("dims")
    reports = {}
    for name in ("carpet", "cone", "overlap"):
        path = out / f"{name}.json"
        assert main(["dims", "--input",
                     os.path.join(FIXTURE_DIR, f"{name}.json"),
                     "--seed", "1", "--out", str(path)]) == 0
        reports[name] = json.loads(path.read_text())
    return reports


@pytest.mark.xfail(strict=True, reason="Direction 2: the default bracket "
                   "excludes the affinity dimension")
@pytest.mark.parametrize("name", ["cone", "overlap"])
def test_claim1_bracket_holds_the_affinity_dimension(dims, name):
    # dim_H equals the affinity dimension under SSC, which `check`
    # certifies on both families; the dimension must then lie in the
    # bracket, [0.6813323545, 0.6816047435] today
    lo, hi = dims[name]["affinity"]["bracket"]
    assert lo <= CONE_AFFINITY <= hi


@pytest.mark.xfail(strict=True, reason="Direction 8: the two-scale "
                   "estimate overshoots the Assouad dimension")
def test_claim3_assouad_estimate_meets_mackay(dims):
    # Mackay's closed form is 1.4751; the estimate is 1.6348 at seed 1
    rep = dims["carpet"]
    assert abs(rep["assouad_lower_estimate"]
               - rep["carpet_formulas"]["mackay_assouad"]) <= 0.1


def test_claim4_slice_dimension_bounded_and_estimated(dims, tmp_path):
    # the carpet's largest vertical slice is its column of three digits
    # out of q = 5 rows, of dimension log 3/log 5 exactly; the `dims`
    # bound (0.93357 at seed 1) is above it, and the `verify dima` slice
    # estimate (0.67606) is within Direction 17's tolerance of 0.05
    exact = math.log(3.0) / math.log(5.0)
    assert dims["carpet"]["slice_upper_bound"] >= exact
    path = tmp_path / "dima.json"
    assert main(["verify", "dima", "--input",
                 os.path.join(FIXTURE_DIR, "carpet.json"),
                 "--seed", "1", "--out", str(path)]) == 0
    measured = json.loads(path.read_text())["measured"]
    assert abs(measured["max_slice_dim"] - exact) <= 0.05


def test_claim5_assouad_above_affinity(dims):
    # two closed forms: Mackay's Assouad dimension of the carpet is above
    # its affinity dimension, the upper edge of the bracket
    rep = dims["carpet"]
    mackay = rep["carpet_formulas"]["mackay_assouad"]
    upper = rep["affinity"]["bracket"][1]
    assert round(mackay, 4) == 1.4751 and round(upper, 4) == 1.1386
    assert mackay > upper


def test_claim5_beyond_carpets():
    # the 4 x 5 example carpet plus the map B = 0.1 [[0.6, 0.3], [0.2,
    # 0.5]] is not a carpet: it is strongly irreducible and certified
    # dominated.  Its first five maps are the carpet's, so the carpet, the
    # attractor of that sub-family, lies in its attractor, and Assouad
    # dimension is monotone under inclusion: the new set's is at least
    # Mackay's 1.475087.  The affinity upper edge is a level-n pressure
    # root, which bounds the affinity dimension from above, and it lies
    # below that
    spec = carpets.EXAMPLE_SPEC
    ifs = carpets.example_fixture(spec, 0.1)["ifs"]
    sub = carpets.to_ifs(spec)
    assert np.array_equal(ifs.lins[:-1], sub.lins)
    assert np.array_equal(ifs.vs[:-1], sub.vs)
    assert classify_irreducibility(ifs).tag == "StronglyIrreducible"
    assert find_invariant_multicone(ifs) is not None
    value, (lo, hi) = affinity_dimension(ifs)
    assert value == hi
    assert (round(lo, 6), round(hi, 6)) == (1.161734, 1.163175)
    mackay = carpets.mackay_assouad(spec)
    assert round(mackay, 6) == 1.475087
    assert hi < mackay
