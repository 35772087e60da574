import json
import math
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


def twenty_maps(family):
    """20 maps: a 4 x 7 carpet on 20 of its cells, drawn by
    default_rng(3), whose pieces touch; or the rotations
    0.1 R(0.3 i + 0.1) translated to 0.9 (cos 2 pi i/20, sin 2 pi i/20),
    which are separated and make no proximal product."""
    if family == "carpet":
        picked = np.random.default_rng(3).choice(28, 20, replace=False)
        return {"p": 4, "q": 7,
                "digits": [[int(k) // 7, int(k) % 7]
                           for k in sorted(picked)]}
    maps = []
    for i in range(20):
        c, s = math.cos(0.3 * i + 0.1), math.sin(0.3 * i + 0.1)
        maps.append({"a": 0.1 * c, "b": -0.1 * s, "c": 0.1 * s,
                     "d": 0.1 * c,
                     "tx": 0.9 * math.cos(2.0 * math.pi * i / 20),
                     "ty": 0.9 * math.sin(2.0 * math.pi * i / 20)})
    return {"maps": maps}


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
