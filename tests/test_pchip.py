"""The one piecewise-PCHIP evaluator (``operator.ElementwisePchip``) behind
``GridFunction.eval`` and the cone iteration's windowed functions, checked
bit for bit against one ``PchipInterpolator`` per element and part, applied
by the per-element mask loop it replaced; and the constant read
(``operator._ConstantRead``) that stands in for it on constant real data,
checked bit for bit against it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from conftest import SYSTEMS, system
from gibbsflow.dolgopyat import _window_nodes
from gibbsflow.operator import (GridFunction, _ConstantRead, ElementwisePchip,
                                eigendata, node_grid)


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
    sys = system(name)
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
    sys = system(name)
    rng = np.random.default_rng(3)
    # one window straddles the first interior partition point
    p1 = sys.partition[1]
    windows = [(0.05, 0.07), (p1 - 0.01, p1 + 0.02)]
    base = [np.linspace(*sys.element_interval(e), 64) for e in range(sys.m)]
    nodes = [np.union1d(b, w)
             for b, w in zip(base, _window_nodes(sys, base, windows))]
    assert len({len(xs) for xs in nodes}) > 1
    values = [_values(xs, rng, True) for xs in nodes]
    f = ElementwisePchip(sys, nodes, values)
    x = _probe_points(sys, nodes, rng)
    _assert_same_bits(f.eval(x), _oracle(sys, nodes, values, x))
    # without atleast_1d a scalar stays 0-d
    _assert_same_bits(f.eval(p1), _oracle(sys, nodes, values, p1))


def test_node_sets_that_miss_their_element_are_refused():
    sys = system("SYS-C")
    nodes = [np.linspace(*sys.element_interval(e), 9) for e in range(sys.m)]
    values = [np.ones(9) for _ in range(sys.m)]
    ElementwisePchip(sys, nodes, values)
    short = [xs.copy() for xs in nodes]
    short[1][-1] = np.nextafter(short[1][-1], 0.0)
    late = [xs.copy() for xs in nodes]
    late[0] = np.linspace(0.01, sys.partition[1], 9)
    for bad in (short, late, nodes[:-1]):
        with pytest.raises(ValueError):
            ElementwisePchip(sys, bad, values[: len(bad)])
    # what scipy's PchipInterpolator refuses, the one-pass builder refuses
    def changed(arrays, e, fn):
        out = [a.copy() for a in arrays]
        out[e] = fn(out[e])
        return out

    def put(k, v):
        def fn(a):
            a[k] = v
            return a
        return fn

    cplx = [v + 1j for v in values]
    refused = [
        (changed(nodes, 1, put(4, np.nan)), values),
        (changed(nodes, 0, put(4, np.inf)), values),
        (nodes, changed(values, 2, put(3, np.nan))),
        (nodes, changed(values, 0, put(0, -np.inf))),
        (nodes, changed(cplx, 1, put(5, 1 + 1j * np.inf))),
        (nodes, changed(cplx, 1, put(5, complex(np.nan, 0.0)))),
        (changed(nodes, 1, put(4, nodes[1][3])), values),        # repeated
        (changed(nodes, 2, put(4, nodes[2][6])), values),        # decreasing
        (changed(nodes, 0, lambda a: a[[0]]), changed(values, 0,
                                                      lambda a: a[:1])),
        (changed(nodes, 0, lambda a: a[:0]), changed(values, 0,
                                                     lambda a: a[:0])),
        (nodes, changed(values, 1, lambda a: a[:-1])),          # one short
        (nodes, changed(values, 1, lambda a: np.append(a, 1.0))),
        (nodes, values[:-1]),
    ]
    for bad_nodes, bad_values in refused:
        with pytest.raises(ValueError):
            ElementwisePchip(sys, bad_nodes, bad_values)


def _ragged_part(rng, n):
    """n values with every branch of the slope rule in reach: a random
    walk or small integers (exact ties), a flat run, exact-zero steps and
    alternating signs."""
    if rng.random() < 0.5:
        y = rng.normal(size=n).cumsum()
    else:
        y = rng.integers(-2, 3, size=n).astype(float)
    i, j = np.sort(rng.integers(0, n, size=2))
    y[i:j + 1] = y[i]
    k = rng.integers(0, n - 1, size=n // 4)
    y[k + 1] = y[k]
    if rng.random() < 0.3:
        y[::2] *= -1.0
    return y


def _ragged_imag(rng, n):
    """An imaginary part: ragged, all -0.0, or ragged with -0.0 and 0.0
    put in."""
    kind = rng.integers(0, 3)
    if kind == 1:
        return np.full(n, -0.0)
    y = _ragged_part(rng, n)
    if kind == 2:
        y[rng.random(n) < 0.3] = -0.0
        y[rng.random(n) < 0.1] = 0.0
    return y


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SYSTEMS), cplx=st.booleans(), data=st.data())
def test_coefficients_are_scipy_pchip_coefficients_side_by_side(name, cplx,
                                                                data):
    # ragged non-uniform node sets of 2-40 nodes per element; each element
    # and part must have the bytes of its own PchipInterpolator
    sys = system(name)
    sizes = data.draw(st.lists(st.integers(2, 40), min_size=sys.m,
                               max_size=sys.m), label="sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    nodes, values = [], []
    for e, n in enumerate(sizes):
        lo, hi = sys.element_interval(e)
        # clustered towards lo or spread; a repeat or an end is dropped
        inner = lo + (hi - lo) * rng.random(n - 2) ** rng.choice([1.0, 4.0])
        inner = np.unique(inner[(inner > lo) & (inner < hi)])
        xs = np.concatenate([[lo], inner, [hi]])
        re = _ragged_part(rng, len(xs))
        nodes.append(xs)
        values.append(re + 1j * _ragged_imag(rng, len(xs)) if cplx else re)
    c = ElementwisePchip(sys, nodes, values)._pp.c
    parts = [np.real, np.imag] if cplx else [np.real]
    want = np.stack([
        np.concatenate([PchipInterpolator(xs, part(vs)).c
                        for xs, vs in zip(nodes, values)], axis=1)
        for part in parts], axis=-1)
    want = want if cplx else want[..., 0]
    assert c.flags.c_contiguous and c.dtype == np.float64
    assert c.shape == want.shape and c.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("N", [2, 3, 256])
@pytest.mark.parametrize("c", [1.0, -2.5, 0.0])
def test_constant_read_has_the_pchip_bits(name, N, c):
    # nodes, interior partition points (each read as its right-hand
    # element's, left-closed) and their neighbours, points outside [0, 1],
    # NaN and +-inf; 1-d, 2-d and 0-d input
    sys = system(name)
    rng = np.random.default_rng(N)
    nodes = node_grid(sys, N)
    v = GridFunction(sys, np.full(nodes.shape, c))
    pchip = ElementwisePchip(sys, nodes, v.values)
    x = _probe_points(sys, nodes, rng)
    got = v.eval(x)
    assert isinstance(v._pchip, _ConstantRead)
    _assert_same_bits(got, pchip.eval(x))
    assert not np.shares_memory(got, x)  # a new array, x untouched
    x2 = x[: 2 * (len(x) // 2)].reshape(2, -1)
    _assert_same_bits(v.eval(x2), pchip.eval(x2))
    _assert_same_bits(v.eval(0.5), pchip.eval(np.atleast_1d(0.5)))
    # the 0-d read of the reader itself stays 0-d, as the PCHIP's does
    _assert_same_bits(v._pchip.eval(sys.partition[1]),
                      pchip.eval(sys.partition[1]))
    nan_inf = v.eval([np.nan, -np.inf, np.inf])
    assert np.isnan(nan_inf[0]) and np.all(nan_inf[1:] == c)


def test_constant_read_needs_one_finite_real_value():
    sys = system("SYS-C")
    nodes = node_grid(sys, 9)
    ones = np.ones(nodes.shape)
    first, last = ones.copy(), ones.copy()
    first[0, 0] = last[-1, -1] = np.nextafter(1.0, 2.0)  # one ulp off
    for values in (ones + 0j, first, last):
        v = GridFunction(sys, values)
        v.eval(0.5)
        assert isinstance(v._pchip, ElementwisePchip)
    for bad in (np.inf, -np.inf, np.nan):  # refused, as the PCHIP refuses it
        with pytest.raises(ValueError):
            GridFunction(sys, np.full(nodes.shape, bad)).eval(0.5)


@pytest.mark.parametrize("name,constant", [
    ("SYS-A", True), ("SYS-B", True), ("SYS-A-LINROOF", True),
    ("SYS-C", False), ("NL-DOUBLING", False), ("SYS-A-BERNOULLI", False)])
def test_f_is_read_as_a_constant_exactly_on_the_doubling_presets(name,
                                                                 constant):
    eig = eigendata(system(name), 0.0, N=512)
    eig.f.eval(0.5)
    assert isinstance(eig.f._pchip, _ConstantRead) == constant
    assert np.all(eig.f.values == 1.0) == constant


def test_copy_with_drops_the_constant_read():
    sys = system("SYS-B")
    nodes = node_grid(sys, 64)
    v = GridFunction(sys, np.full(nodes.shape, 2.0))
    assert v.eval(0.3)[0] == 2.0
    w = v.copy_with(np.sin(5 * nodes))
    _assert_same_bits(w.eval(0.3), _oracle(sys, nodes, w.values, [0.3]))
    assert isinstance(w._pchip, ElementwisePchip)
    u = v.copy_with(np.full(nodes.shape, -1.0))
    assert u.eval(0.3)[0] == -1.0 and v.eval(0.3)[0] == 2.0
