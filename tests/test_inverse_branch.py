"""Inverse branches: the tabulated start of Newton on nonlinear branches, the
affine one-step start, a property test against bisection, and each point
solved on its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import NL_DOUBLING, preset_config, system
from gibbsflow.presets import preset_names
from gibbsflow.system import OutsideImageError, system_from_config

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
    """The safeguarded Newton of inverse_branch, started at the midpoint and
    applied to each point on its own: a point whose residual is below 1e-13
    takes no further step, whatever the others do."""
    a, b = sys.element_interval(i)
    T, dT = sys.T[i].value, sys.T[i].deriv
    sign = 1.0 if sys.increasing[i] else -1.0
    lo, hi = np.full(y.shape, a), np.full(y.shape, b)
    z = np.full(y.shape, 0.5 * (a + b))
    for _ in range(200):
        f = T(x=z) - y
        go = ~(np.abs(f) < 1e-13)
        if not go.any():
            return np.clip(z, a, b)
        lo = np.where(go & (f * sign <= 0), z, lo)
        hi = np.where(go & (f * sign > 0), z, hi)
        zn = z - f / dT(x=z)
        z = np.where(go, np.where((zn < lo) | (zn > hi), 0.5 * (lo + hi), zn),
                     z)
    raise AssertionError("reference Newton did not converge")


def _each(solve, y):
    """``solve`` applied to each point of y on its own."""
    return np.concatenate([solve(y[k:k + 1]) for k in range(len(y))])


def _one_step_further(sys, i, z, y):
    """One more Newton step for T_i = y from z, clipped to the element."""
    T = sys.T[i]
    return np.clip(z - (T.value(x=z) - y) / T.deriv(x=z),
                   *sys.element_interval(i))


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
    assert sys._inverse_starts[i] is not None
    a, b = sys.element_interval(i)
    assert np.all((z >= a) & (z <= b))
    assert np.max(np.abs(sys.T[i].value(x=z) - y)) < 1e-13
    # outside the image there is no root to agree on, only the tolerance;
    # the midpoint start stops at the tolerance, one step short of rounding
    inside = y[:-2]
    assert np.max(np.abs(z[:-2] - _one_step_further(
        sys, i, _midpoint_newton(sys, i, inside), inside))) <= 1e-15
    # the table's values are the midpoint-start Newton at its nodes, one
    # step further, and its slopes H / T' there, H the node spacing
    values, slopes = sys._inverse_starts[i][:2]
    lo, hi = sys.image_interval(i)
    nodes = np.linspace(lo, hi, len(values))
    assert np.array_equal(values, _one_step_further(
        sys, i, _midpoint_newton(sys, i, nodes), nodes))
    T = sys.T[i]
    H = (hi - lo) / (len(values) - 1)
    assert np.array_equal(slopes, H / T.deriv(x=values))


@pytest.mark.parametrize("cfg,i", NONLINEAR)
def test_seeded_solve_takes_one_newton_step(cfg, i, expr_calls):
    sys = system_from_config(cfg)
    y = _test_points(sys, i)
    sys.inverse_branch(i, y[:1])  # builds the table
    # the Hermite start meets the tolerance, so a solve is one evaluation
    # of T: the residual test
    for chunk in (y, y[:1], y[5000:], float(y[7])):
        expr_calls.clear()
        z = sys.inverse_branch(i, chunk)
        assert expr_calls.of([sys.T[i].expr]) == 1
        assert np.max(np.abs(sys.T[i].value(x=z) - chunk)) < 1e-13


@pytest.mark.parametrize("name", preset_names())
def test_affine_presets_keep_the_one_step_inverse(name):
    sys = system(name)
    rng = np.random.default_rng(11)
    for i in range(sys.m):
        a, b = sys.element_interval(i)
        lo, hi = sys.image_interval(i)
        y = np.concatenate([lo + (hi - lo) * rng.random(4096), [lo, hi]])
        T = sys.T[i]
        t_mid = float(T.value(x=0.5 * (a + b)))
        # at an image end the step may round out of the element (SYS-C,
        # branch 1, at 1/3); the clip puts it on the element end, which
        # meets the tolerance, so no point needs Newton
        z = sys.inverse_branch(i, y)
        assert np.array_equal(
            z, np.clip(0.5 * (a + b) - (t_mid - y) / T.slope, a, b))
        assert np.max(np.abs(T.value(x=z) - y)) < 1e-13
    # the start kept is T at the midpoint: no Hermite table is built
    assert sys._inverse_starts == [
        float(T.value(x=0.5 * sum(sys.element_interval(i))))
        for i, T in enumerate(sys.T)]


@pytest.mark.parametrize("cfg", [preset_config("SYS-B"), NL_DOUBLING])
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


@pytest.mark.parametrize("cfg", [preset_config("SYS-B"), NL_DOUBLING])
def test_nan_is_outside_the_image(cfg):
    # NaN fails every comparison, so it must fail the image check rather
    # than reach Newton; the points inside the image keep their bits
    sys = system_from_config(cfg)
    lo, hi = sys.image_interval(0)
    inside = lo + (hi - lo) * np.random.default_rng(3).random(1000)
    before = sys.inverse_branch(0, inside)
    for y in ([0.3, np.nan], [np.nan], [np.nan, 0.3, np.inf]):
        with pytest.raises(OutsideImageError):
            sys.inverse_branch(0, np.array(y))
    assert np.array_equal(sys.inverse_branch(0, inside), before)
    assert np.array_equal(before, system_from_config(cfg).inverse_branch(0, inside))


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
        below = (sys.T[0].value(x=mid) - y) * sign < 0
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
    assert sys.T[0].slope is None and bool(sys.increasing[0]) == increasing
    y = np.concatenate([np.random.default_rng(seed).random(2000), [0.0, 1.0]])
    z = sys.inverse_branch(0, y)
    assert np.max(np.abs(sys.T[0].value(x=z) - y)) < 1e-13
    # the residual test admits |z - root| up to 1e-13 / inf |T'|
    lam = s - 2 * np.pi * k * abs(eps)
    assert np.max(np.abs(z - _bisect(sys, y))) <= 1e-13 / lam


# -- each point on its own -------------------------------------------------------


@pytest.mark.parametrize("name",
                         preset_names() + ["NL-DOUBLING", "HOELDER"])
def test_a_root_does_not_depend_on_its_batch(name):
    # an image end whose step rounds out of the element (SYS-C's branch 1
    # at 1/3) and points that need Newton (HOELDER's branch 0 near 0)
    # leave every other root as it is; a scalar y is solved as [y] is
    sys = system(name)
    for i in range(sys.m):
        lo, hi = sys.image_interval(i)
        y = np.concatenate([np.linspace(lo, hi, 257), _test_points(sys, i)[-8:],
                            lo + (hi - lo) * np.geomspace(1e-12, 1e-2, 40),
                            lo + (hi - lo) * np.random.default_rng(i).random(500)])
        z = sys.inverse_branch(i, y)
        assert _each(lambda v: sys.inverse_branch(i, v), y).tobytes() == \
            z.tobytes()
        scalars = [sys.inverse_branch(i, float(v)) for v in y]
        assert all(np.shape(r) == () for r in scalars)
        assert np.array(scalars).tobytes() == z.tobytes()


@pytest.mark.parametrize("name,i", [("SYS-C", 0), ("SYS-C", 1),
                                    ("NL-DOUBLING", 1)])
def test_root_written_into_out_keeps_the_bits(name, i):
    # one case per start: SYS-C's branch 0 keeps the affine step; branch 1's
    # step rounds out of its element at its image ends, which the points
    # hold, and is clipped; NL-DOUBLING starts from its table
    sys = system(name)
    y = _test_points(sys, i)
    want = _each(lambda v: sys.inverse_branch(i, v), y)
    out = np.full(y.shape, np.nan)
    got = sys.inverse_branch(i, y, out=out)
    assert got is out
    for root in (sys.inverse_branch(i, y), out):
        assert root.dtype == want.dtype and root.tobytes() == want.tobytes()
    # a block of rows of a 2-d array, as the engine passes them
    rows = np.full((3, len(y)), np.nan)
    sys.inverse_branch(i, np.stack([y, y]), out=rows[1:])
    assert rows[1:].tobytes() == np.stack([want, want]).tobytes()
    assert np.isnan(rows[0]).all()


@pytest.mark.parametrize("cfg", [preset_config("SYS-B"), NL_DOUBLING])
def test_out_leaves_the_image_check_as_it_was(cfg):
    sys = system_from_config(cfg)
    lo, hi = sys.image_interval(0)
    for y in ([0.3, np.nan], [np.nan], [lo - 1e-9], [hi + 1e-9, 0.3]):
        y = np.array(y)
        for out in (None, np.empty(y.shape)):
            with pytest.raises(OutsideImageError) as err:
                sys.inverse_branch(0, y, out=out)
            assert str(err.value) == \
                f"points outside the image [{lo}, {hi}] of branch 0"
