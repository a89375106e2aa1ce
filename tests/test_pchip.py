"""The one piecewise-PCHIP evaluator (``operator._ElementwisePchip``) behind
``GridFunction.eval`` and the cone iteration's windowed functions, checked
bit for bit against one ``PchipInterpolator`` per element and part, applied
by the per-element mask loop it replaced."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from conftest import NL_DOUBLING
from gibbsflow.dolgopyat import _node_sets
from gibbsflow.operator import GridFunction, _ElementwisePchip, node_grid
from gibbsflow.presets import make_preset, preset_names
from gibbsflow.system import system_from_config

SYSTEMS = list(preset_names()) + ["NL-DOUBLING"]


def _system(name):
    return system_from_config(NL_DOUBLING) if name == "NL-DOUBLING" else make_preset(name)


def _oracle(sys, nodes, values, x):
    """Per-element interpolators: element_of, then one mask, clip and scipy
    call per element, real and imaginary parts apart."""
    x = np.asarray(x, dtype=float)
    cplx = any(np.iscomplexobj(v) for v in values)
    out = np.zeros(x.shape, dtype=complex if cplx else float)
    idx = sys.element_of(x)
    for e in range(sys.m):
        mask = idx == e
        if not np.any(mask):
            continue
        z = np.clip(x[mask], nodes[e][0], nodes[e][-1])
        re = PchipInterpolator(nodes[e], values[e].real)(z)
        im = (1j * PchipInterpolator(nodes[e], values[e].imag)(z)
              if np.iscomplexobj(values[e]) else 0.0)
        out[mask] = re + im
    return out


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _values(nodes, rng, cplx):
    """Smooth data with noise, a flat stretch and a sign change, so every
    branch of the Fritsch-Carlson slope rule is taken."""
    v = np.sin(5 * nodes) + 0.1 * rng.normal(size=nodes.shape)
    v[..., : v.shape[-1] // 3] = 0.25
    if cplx:
        v = v + 1j * (np.cos(7 * nodes) - 0.5)
    return v


def _probe_points(sys, nodes, rng):
    """Nodes, partition points and their nextafter neighbours, random
    points, points outside [0, 1], infinities and NaN."""
    p = sys.partition
    special = np.concatenate([
        p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
        [-0.5, -1e-300, 1.0 + 1e-12, 2.0, -np.inf, np.inf, np.nan]])
    return np.concatenate([np.concatenate(list(nodes)), special, rng.random(2000)])


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("N", [2, 3, 256])
@pytest.mark.parametrize("cplx", [False, True])
def test_grid_function_eval_matches_per_element_oracle(name, N, cplx):
    sys = _system(name)
    rng = np.random.default_rng(N)
    nodes = node_grid(sys, N)
    v = GridFunction(sys, _values(nodes, rng, cplx))
    x = _probe_points(sys, nodes, rng)
    _assert_same_bits(v.eval(x), _oracle(sys, nodes, v.values, x))
    # 2-D x keeps its shape; a scalar becomes a 1-element array
    x2 = x[: 2 * (len(x) // 2)].reshape(2, -1)
    _assert_same_bits(v.eval(x2), _oracle(sys, nodes, v.values, x2))
    _assert_same_bits(v.eval(0.5), _oracle(sys, nodes, v.values, [0.5]))


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "NL-DOUBLING"])
def test_windowed_node_sets_match_per_element_oracle(name):
    sys = _system(name)
    rng = np.random.default_rng(3)
    # one window straddles the first interior partition point
    p1 = sys.partition[1]
    windows = [(0.05, 0.07), (p1 - 0.01, p1 + 0.02)]
    nodes = _node_sets(sys, 64, windows)
    assert len({len(xs) for xs in nodes}) > 1
    values = [_values(xs, rng, True) for xs in nodes]
    f = _ElementwisePchip(sys, nodes, values)
    x = _probe_points(sys, nodes, rng)
    _assert_same_bits(f.eval(x), _oracle(sys, nodes, values, x))
    # without atleast_1d a scalar stays 0-d
    _assert_same_bits(f.eval(p1), _oracle(sys, nodes, values, p1))


def test_node_sets_that_miss_their_element_are_refused():
    sys = make_preset("SYS-C")
    nodes = [np.linspace(*sys.element_interval(e), 9) for e in range(sys.m)]
    values = [np.ones(9) for _ in range(sys.m)]
    _ElementwisePchip(sys, nodes, values)
    short = [xs.copy() for xs in nodes]
    short[1][-1] = np.nextafter(short[1][-1], 0.0)
    late = [xs.copy() for xs in nodes]
    late[0] = np.linspace(0.01, sys.partition[1], 9)
    for bad in (short, late, nodes[:-1]):
        with pytest.raises(ValueError):
            _ElementwisePchip(sys, bad, values[: len(bad)])
