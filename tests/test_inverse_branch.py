"""Inverse branches: the tabulated start of Newton on nonlinear branches, the
affine one-step path, and a property test against bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import NL_DOUBLING
from gibbsflow.presets import make_preset, preset_names
from gibbsflow.system import system_from_config

# a decreasing nonlinear branch: T(0) = 1, T(1/2) = 0, T' in [-2.63, -1.37]
DECREASING = {
    "partition": [0.0, 0.5, 1.0],
    "branches": [{"expr": "1-2*x+0.1*sin(2*pi*x)", "image": [0, 2]},
                 {"expr": "2*x-1", "image": [0, 2]}],
    "roof": ["1", "1"],
    "potential": ["0", "0"],
}

NONLINEAR = [(NL_DOUBLING, 0), (NL_DOUBLING, 1), (DECREASING, 0)]


def _midpoint_newton(sys, i, y):
    """The safeguarded Newton of inverse_branch, started at the midpoint."""
    a, b = sys.element_interval(i)
    T, dT = sys._T[i], sys._dT[i]
    sign = 1.0 if sys.increasing[i] else -1.0
    lo, hi = np.full(y.shape, a), np.full(y.shape, b)
    z = np.full(y.shape, 0.5 * (a + b))
    for _ in range(200):
        f = T(x=z) - y
        if np.all(np.abs(f) < 1e-13):
            return np.clip(z, a, b)
        lo = np.where(f * sign <= 0, z, lo)
        hi = np.where(f * sign > 0, z, hi)
        zn = z - f / (dT(x=z) + 0.0 * z)
        z = np.where((zn < lo) | (zn > hi), 0.5 * (lo + hi), zn)
    raise AssertionError("reference Newton did not converge")


def _test_points(sys, i):
    """10k random points of the image of branch i, its endpoints, points
    within 1e-12 inside them, and two points of the 1e-12 slack outside
    them (close enough that the element end meets the tolerance)."""
    lo, hi = sys.image_interval(i)
    rng = np.random.default_rng(5)
    edges = [lo, hi, lo + 1e-12, hi - 1e-12, lo + 3e-13, hi - 3e-13,
             lo - 5e-14, hi + 5e-14]
    return np.concatenate([lo + (hi - lo) * rng.random(10_000), edges])


@pytest.mark.parametrize("cfg,i", NONLINEAR)
def test_seeded_solve_matches_midpoint_newton(cfg, i):
    sys = system_from_config(cfg)
    y = _test_points(sys, i)
    z = sys.inverse_branch(i, y)
    assert sys._inverse_tables[i] is not None
    a, b = sys.element_interval(i)
    assert np.all((z >= a) & (z <= b))
    assert np.max(np.abs(sys._T[i](x=z) - y)) < 1e-13
    # outside the image there is no root to agree on, only the tolerance
    inside = y[:-2]
    assert np.max(np.abs(z[:-2] - _midpoint_newton(sys, i, inside))) <= 1e-15
    # the table is the midpoint-start Newton at its nodes, one step further
    table = sys._inverse_tables[i]
    nodes = np.linspace(*sys.image_interval(i), len(table))
    start = _midpoint_newton(sys, i, nodes)
    step = (sys._T[i](x=start) - nodes) / sys._dT[i](x=start)
    assert np.array_equal(table, np.clip(start - step, a, b))


@pytest.mark.parametrize("cfg,i", NONLINEAR)
def test_seeded_solve_takes_one_newton_step(cfg, i):
    sys = system_from_config(cfg)
    y = _test_points(sys, i)
    sys.inverse_branch(i, y[:1])  # builds the table
    T = sys._T[i]
    calls = []

    def counted(**env):
        calls.append(1)
        return T(**env)

    sys._T[i] = counted
    try:
        for chunk in (y, y[:1], y[5000:], float(y[7])):
            calls.clear()
            z = sys.inverse_branch(i, chunk)
            assert len(calls) <= 3
            assert np.max(np.abs(T(x=z) - chunk)) < 1e-13
    finally:
        sys._T[i] = T


@pytest.mark.parametrize("name", preset_names())
def test_affine_presets_keep_the_one_step_inverse(name):
    sys = make_preset(name)
    rng = np.random.default_rng(11)
    for i in range(sys.m):
        a, b = sys.element_interval(i)
        lo, hi = sys.image_interval(i)
        y = lo + (hi - lo) * rng.random(4096)
        t_mid, slope = sys._affine[i]
        expect = 0.5 * (a + b) - (t_mid - y) / slope
        assert np.array_equal(sys.inverse_branch(i, y), expect)
        # at an image end the step may round out of the element (SYS-C,
        # branch 1, at 1/3); Newton from the midpoint then takes over
        ends = np.array([lo, hi])
        z = sys.inverse_branch(i, ends)
        assert np.all((z >= a) & (z <= b))
        assert np.max(np.abs(sys._T[i](x=z) - ends)) < 1e-13
    assert sys._inverse_tables == [None] * sys.m


@pytest.mark.parametrize("cfg", [make_preset("SYS-B").to_config(), NL_DOUBLING])
def test_slack_outside_the_image_returns_the_element_end(cfg):
    # 4e-13 outside the image no z in the element meets the 1e-13 residual
    # test; the point is clamped to the image end, so its element end is
    # returned, and the points inside keep their bits
    sys = system_from_config(cfg)
    lo, hi = sys.image_interval(0)
    a, b = sys.element_interval(0)
    inside = lo + (hi - lo) * np.random.default_rng(2).random(1000)
    z = sys.inverse_branch(0, np.concatenate([inside, [hi + 4e-13, lo - 4e-13]]))
    assert z[-2:].tolist() == [b, a]
    assert np.array_equal(z[:-2], sys.inverse_branch(0, inside))


# -- property test: random monotone nonlinear branches against bisection ---------


def _random_branch_system(s, k, eps, increasing):
    """Element [0, h] carried by T(x) = +-s x + c + eps sin(2 pi k x) onto
    [0, 1]; [h, 1] is affine."""
    if increasing:
        expr = f"{s!r}*x+{eps!r}*sin(2*pi*{k}*x)"
        g = lambda x: s * x + eps * np.sin(2 * np.pi * k * x) - 1.0  # noqa: E731
    else:
        expr = f"1-{s!r}*x+{eps!r}*sin(2*pi*{k}*x)"
        g = lambda x: 1.0 - s * x + eps * np.sin(2 * np.pi * k * x)  # noqa: E731
    h = brentq(g, 1e-3, 1.0, xtol=1e-16, rtol=1e-15)
    return system_from_config({
        "partition": [0.0, h, 1.0],
        "branches": [{"expr": expr, "image": [0, 2]},
                     {"expr": f"(x-{h!r})/{1.0 - h!r}", "image": [0, 2]}],
        "roof": ["1", "1"],
        "potential": ["0", "0"],
    })


def _bisect(sys, y, steps=80):
    a, b = sys.element_interval(0)
    lo, hi = np.full(y.shape, a), np.full(y.shape, b)
    sign = 1.0 if sys.increasing[0] else -1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = (sys._T[0](x=mid) - y) * sign < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(s=st.floats(1.5, 4.0), k=st.integers(1, 3),
       frac=st.floats(0.05, 0.95), sign=st.sampled_from([-1.0, 1.0]),
       increasing=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_seeded_solve_agrees_with_bisection(s, k, frac, sign, increasing,
                                            seed):
    # inf |T'| = s - 2 pi k |eps| >= 1 + 0.05 (s - 1.05) > 1
    eps = sign * frac * (s - 1.05) / (2 * np.pi * k)
    sys = _random_branch_system(s, k, eps, increasing)
    assert sys._affine[0] is None and bool(sys.increasing[0]) == increasing
    y = np.concatenate([np.random.default_rng(seed).random(2000), [0.0, 1.0]])
    z = sys.inverse_branch(0, y)
    assert np.max(np.abs(sys._T[0](x=z) - y)) < 1e-13
    # the residual test admits |z - root| up to 1e-13 / inf |T'|
    lam = s - 2 * np.pi * k * abs(eps)
    assert np.max(np.abs(z - _bisect(sys, y))) <= 1e-13 / lam
