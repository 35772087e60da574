"""Brent's method: roots and errors equal to scipy.optimize.brentq's, which
serves as the reference implementation."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as reference

from affinedim import carpets, geometry, thermo
from affinedim.roots import brentq

from conftest import load_fixture

FIXTURES = ["sim3", "cantor2", "square4", "positive_pair", "cone", "overlap",
            "carpet"]


def outcome(solver, f, a, b, **kwargs):
    """The root, or the type and message of the error raised."""
    try:
        return solver(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def same(f, a, b, **kwargs):
    return outcome(brentq, f, a, b, **kwargs) \
        == outcome(reference, f, a, b, **kwargs)


@pytest.mark.parametrize("name", FIXTURES)
def test_affinity_dimension_matches(name, monkeypatch):
    # both pressure roots: the level-n one and the extrapolated one.  The
    # root is kept per family, so the reference solves a fresh one
    ours = thermo.affinity_dimension(load_fixture(name + ".json"))
    monkeypatch.setattr(thermo, "brentq", reference)
    assert thermo.affinity_dimension(load_fixture(name + ".json")) == ours


@pytest.mark.parametrize("name", FIXTURES)
def test_pressure_roots_match(name):
    ifs = load_fixture(name + ".json")
    for n in (2, 5, 8):
        p = thermo._pressure_fn(ifs, n)
        for tol in (1e-14, 1e-10, 1e-6):
            assert same(p, 0.0, 4.0, xtol=tol)


def test_slice_root_matches(monkeypatch):
    ours = [geometry.slice_root(m, q) for m in range(2, 9)
            for q in np.linspace(0.001, 0.5, 40)]
    monkeypatch.setattr(geometry, "brentq", reference)
    assert [geometry.slice_root(m, q) for m in range(2, 9)
            for q in np.linspace(0.001, 0.5, 40)] == ours


def test_s_eps_root_matches(monkeypatch):
    mats = [e * np.array([[0.6, 0.3], [0.2, 0.5]])
            for e in np.geomspace(1e-4, 0.49, 30)]
    ours = [carpets.s_eps_root(carpets.EXAMPLE_SPEC, b) for b in mats]
    monkeypatch.setattr(carpets, "brentq", reference)
    assert [carpets.s_eps_root(carpets.EXAMPLE_SPEC, b) for b in mats] \
        == ours


def seeded_functions(rng):
    yield lambda x, c=rng.normal(size=rng.integers(2, 8)): \
        float(np.polyval(c, x))
    yield lambda x, s=rng.uniform(0.1, 50.0), r=rng.normal(): \
        math.tanh(s * (x - r))
    # a 7-fold root: flat enough that most steps bisect
    yield lambda x, r=rng.normal(): (x - r) ** 7
    yield lambda x, r=rng.normal(), s=rng.uniform(1e-3, 30.0): \
        math.expm1(s * (x - r))
    yield lambda x, r=rng.normal(): math.atan(x - r) \
        + 1e-3 * math.sin(40.0 * x)


def test_seeded_brackets_match():
    rng = np.random.default_rng(7)
    roots = 0
    for _ in range(2500):
        for f in seeded_functions(rng):
            a, b = rng.normal(scale=3.0, size=2)
            xtol = 10.0 ** rng.uniform(-15.0, -3.0)
            assert same(f, a, b, xtol=xtol)
            roots += isinstance(outcome(brentq, f, a, b, xtol=xtol), float)
    # both the root and the same-sign paths are exercised
    assert 4000 < roots < 10000


def test_iteration_limit_and_relative_tolerance_match():
    rng = np.random.default_rng(8)
    for _ in range(300):
        for f in seeded_functions(rng):
            a, b = rng.normal(scale=3.0, size=2)
            assert same(f, a, b, maxiter=int(rng.integers(0, 8)))
            assert same(f, a, b, rtol=10.0 ** rng.uniform(-15.0, -3.0))


def test_error_paths_match():
    # same sign, also where the product f(a) f(b) underflows
    assert same(lambda x: x * x + 1.0, -1.0, 1.0)
    assert same(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0)
    assert same(lambda x: -1e-200 * (x + 1.0), 0.0, 1.0)
    # NaN at an end and inside the bracket
    assert same(lambda x: math.nan, 0.0, 1.0)
    assert same(lambda x: x - 0.7 if x < 0.9 else math.nan, 0.0, 2.0)
    assert same(lambda x: math.sqrt(x) - 0.5 if x >= 0.3 else math.nan,
                0.0, 1.0)
    # a zero at an end, a signed zero and a degenerate bracket
    assert same(lambda x: x - 0.3, 0.3, 1.0)
    assert same(lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0)
    assert same(lambda x: x - 0.3, 0.3, 0.3)
    for kwargs in ({"xtol": 0.0}, {"xtol": -1.0}, {"rtol": 1e-16},
                   {"maxiter": -1}, {"maxiter": 0}):
        assert same(lambda x: x - 0.3, 0.0, 1.0, **kwargs)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=3)
