import json
import os

import numpy as np
import pytest

from affinedim.carpets import CarpetSpec, to_ifs
from affinedim.ifs import Ifs

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                           "affinedim", "fixtures")


def svd_svf(m, s):
    """Reference singular value function of a 2x2 matrix from the singular
    values np.linalg.svd gives: alpha1^s for s <= 1,
    alpha1 * alpha2^(s - 1) for 1 < s <= 2, (alpha1 * alpha2)^(s / 2)
    beyond."""
    a1, a2 = np.linalg.svd(m, compute_uv=False)
    if s <= 1.0:
        return a1 ** s
    if s <= 2.0:
        return a1 * a2 ** (s - 1.0)
    return (a1 * a2) ** (0.5 * s)


def kept_arrays(ifs):
    """The arrays that the memo keeps on ifs, alone or in a tuple."""
    return [part for value in ifs._cache.values()
            for part in (value if isinstance(value, tuple) else [value])
            if isinstance(part, np.ndarray)]


def load_fixture(name):
    with open(os.path.join(FIXTURE_DIR, name)) as fh:
        data = json.load(fh)
    if "maps" in data:
        return Ifs.from_json(data)
    return to_ifs(CarpetSpec.from_json(data))


@pytest.fixture(scope="session")
def sim3():
    """Three similarities of ratio 1/3: affinity dimension exactly 1."""
    return load_fixture("sim3.json")


@pytest.fixture(scope="session")
def cantor2():
    return load_fixture("cantor2.json")


@pytest.fixture(scope="session")
def square4():
    return load_fixture("square4.json")


@pytest.fixture(scope="session")
def positive_pair():
    """Two positive matrices, strongly irreducible, separated, dim > 1."""
    return load_fixture("positive_pair.json")


@pytest.fixture(scope="session")
def cone_ifs():
    """Three positive-cone maps with certified separation in space and in
    every projection direction; the regular testbed."""
    return load_fixture("cone.json")


@pytest.fixture(scope="session")
def overlap_ifs():
    """Same matrices as cone.json with one translation moved so two
    first-level pieces collide along a projection direction while staying
    disjoint in the plane."""
    return load_fixture("overlap.json")


@pytest.fixture(scope="session")
def carpet_spec():
    with open(os.path.join(FIXTURE_DIR, "carpet.json")) as fh:
        return CarpetSpec.from_json(json.load(fh))


@pytest.fixture(scope="session")
def carpet_ifs(carpet_spec):
    return to_ifs(carpet_spec)
