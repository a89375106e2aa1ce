import math

import numpy as np
import pytest

from gibbsflow.operator import (
    GridFunction, apply_L, apply_P, c6_bound, deep_apply, eigendata,
    grid_function_from_callable, hoelder_seminorm, lasota_yorke_audit,
    node_grid, norm_b,
)
from gibbsflow.presets import make_preset

N = 512


@pytest.fixture(scope="module")
def eig_a():
    return eigendata(make_preset("SYS-A"), 0.0, N=N)


@pytest.fixture(scope="module")
def eig_b():
    return eigendata(make_preset("SYS-B"), 0.0, N=N)


def test_sys_a_eigendata(eig_a):
    assert eig_a.lam == pytest.approx(2.0, abs=1e-11)
    assert np.max(np.abs(eig_a.f.values - 1.0)) < 1e-10
    # nu is Lebesgue: integrates polynomials correctly
    nodes = node_grid(eig_a.system, N)
    assert float((eig_a.nu * nodes).sum()) == pytest.approx(0.5, abs=1e-6)
    assert float((eig_a.nu * np.cos(2 * np.pi * nodes)).sum()) == pytest.approx(
        0.0, abs=1e-6)
    assert eig_a.pressure == pytest.approx(math.log(2.0), abs=1e-11)


def test_sys_a_sigma_one():
    # r = 1 shifts the eigenvalue by e^{-sigma}
    eig = eigendata(make_preset("SYS-A"), 1.0, N=256)
    assert eig.lam == pytest.approx(2.0 / math.e, rel=1e-11)
    assert np.max(np.abs(eig.f.values - 1.0)) < 1e-9


def test_bernoulli_eigenvalue():
    # potential log(p), log(1-p): P_0 1 = 1, so lambda = 1 and pressure 0
    eig = eigendata(make_preset("SYS-A-BERNOULLI"), 0.0, N=256)
    assert eig.lam == pytest.approx(1.0, abs=1e-11)
    assert eig.pressure == pytest.approx(0.0, abs=1e-11)


def test_eigen_residual_at_nodes(eig_b):
    Pf = apply_P(eig_b.system, eig_b.sigma, eig_b.f)
    rel = np.max(np.abs(Pf.values - eig_b.lam * eig_b.f.values)) / eig_b.lam
    assert rel < 1e-8


def test_normalized_operator_fixes_one(eig_b):
    one = grid_function_from_callable(eig_b.system, lambda x: np.ones_like(x), N)
    out = apply_L(eig_b, 0.0, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-8


def test_duality_invariance(eig_b):
    # integral of L_sigma v against mu equals integral of v
    rng = np.random.default_rng(3)
    nodes = node_grid(eig_b.system, N)
    v = GridFunction(eig_b.system, np.sin(2 * np.pi * nodes) + rng.normal(size=nodes.shape) * 0.1)
    lhs = float((eig_b.mu * apply_L(eig_b, 0.0, v).values.real).sum())
    rhs = float((eig_b.mu * v.values).sum())
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_positivity_and_modulus_bound(eig_b):
    # |L_s v| <= L_sigma |v| pointwise at the nodes
    nodes = node_grid(eig_b.system, N)
    v = GridFunction(eig_b.system, np.exp(2j * np.pi * 3 * nodes))
    b = 7.0
    tw = apply_L(eig_b, b, v)
    absv = GridFunction(eig_b.system, np.abs(v.values))
    dom = apply_L(eig_b, 0.0, absv)
    assert np.all(np.abs(tw.values) <= dom.values.real + 1e-10)


def test_gridfunction_interp_reproduces_nodes(eig_b):
    nodes = node_grid(eig_b.system, 64)
    v = GridFunction(eig_b.system, np.sin(3 * nodes) + 0.5 * nodes ** 2)
    assert np.max(np.abs(v.eval(nodes.ravel()) - v.values.ravel())) < 1e-14


def test_gridfunction_csv_roundtrip(eig_b):
    nodes = node_grid(eig_b.system, 16)
    v = GridFunction(eig_b.system, np.exp(1j * nodes))
    v2 = GridFunction.from_csv(eig_b.system, v.to_csv())
    assert np.allclose(v2.values, v.values, atol=0)
    assert v.to_csv() == v2.to_csv()


def test_hoelder_seminorm_linear(eig_a):
    nodes = node_grid(eig_a.system, 256)
    v = GridFunction(eig_a.system, 3.0 * nodes)
    assert hoelder_seminorm(v, 1.0) == pytest.approx(3.0, rel=1e-10)
    # norm_(b) deflates the seminorm by 1 + |b|^alpha
    assert norm_b(v, 9.0, 1.0) == pytest.approx(3.0 / 10.0 + 3.0, rel=1e-9)


def test_indicator_like_seminorm_scaling(eig_a):
    # steep ramp: seminorm grows like slope, norm_(b) tames it
    nodes = node_grid(eig_a.system, 256)
    v = GridFunction(eig_a.system, np.tanh(200 * (nodes - 0.25)))
    s1 = hoelder_seminorm(v, 1.0)
    assert s1 > 100
    assert norm_b(v, 1000.0, 1.0) < 1.5


def test_c6_bound_sys_a(eig_a):
    assert c6_bound(eig_a, 2.0) == pytest.approx(1.0, rel=1e-8)


def test_c6_bound_dominates(eig_b):
    eig1 = eigendata(make_preset("SYS-B"), 0.5, N=256)
    c6 = c6_bound(eig1, 2.0)
    ratio = float(eig1.f.values.max() / eig1.f.values.min())
    assert c6 >= ratio - 1e-12
    assert c6 < 50


def test_lasota_yorke_audit_bounded(eig_b):
    rep = lasota_yorke_audit(eig_b, b=16.0, lam_expansion=2.0,
                             n_values=(1, 2, 3, 4), trials=8)
    q = rep["quotients"]
    assert rep["c8_hat"] < 50
    # no blow-up in n
    assert q[4] < 4 * max(q[1], 1.0)


def test_lasota_yorke_audit_rounding_does_not_depend_on_grid_size():
    # at N = 8192 the (m, N) complex array is 256 KiB, where numpy starts to
    # multiply into unnamed temporaries in place
    eig = eigendata(make_preset("SYS-B"), 0.0, N=8192)
    b, n_values, trials = 64.0, (1, 2), 3
    rep = lasota_yorke_audit(eig, b, 2.0, n_values=n_values, trials=trials,
                             seed=4)
    rng = np.random.default_rng(4)
    nodes = node_grid(eig.system, eig.N)
    worst = 0.0
    for _ in range(trials):
        deg = int(rng.integers(1, 7))
        coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        vals = np.zeros_like(nodes, dtype=complex)
        for q, c in enumerate(coef):
            mode = np.exp(2j * np.pi * q * nodes)
            vals += c * mode
        v = GridFunction(eig.system, vals)
        nv, sup = norm_b(v, b, 1.0), v.sup_norm()
        w, prev = v, 0
        for n in n_values:
            w = apply_L(eig, b, w, n - prev)
            prev = n
            worst = max(worst, float(norm_b(w, b, 1.0)
                                     / (2.0 ** (-n) * nv + sup)))
    assert rep["c8_hat"] == worst


def test_deep_apply_matches_matrix(eig_b):
    sys = eig_b.system
    xs = np.linspace(0.01, 0.99, 301)
    n = 4
    vfun = lambda z: np.exp(2j * np.pi * z)
    out = deep_apply(sys, eig_b, 0.0, n, xs, [
        {"name": "one", "fn": None, "twist": False},
        {"name": "v", "fn": vfun, "twist": False},
    ])
    assert np.max(np.abs(out["one"] - 1.0)) < 1e-14
    v = grid_function_from_callable(sys, vfun, N)
    ref = apply_L(eig_b, 0.0, v, n)
    assert np.max(np.abs(out["v"] - ref.eval(xs))) < 1e-5


def test_deep_apply_twist_phase_exact():
    # SYS-A roof 1: L_{ib}^n v = e^{-ibn} L_0^n v exactly
    eig = eigendata(make_preset("SYS-A"), 0.0, N=128)
    xs = np.linspace(0.0, 0.999, 57)
    b, n = 2 * np.pi, 3
    out = deep_apply(eig.system, eig, b, n, xs, [
        {"name": "v", "fn": None, "twist": True}])
    assert np.max(np.abs(out["v"] - np.exp(-1j * b * n))) < 1e-12


def _hoelder_one_function(v, a, random_pairs=10_000, seed=0):
    """The seminorm of a single function, as a scalar loop over elements."""
    best = 0.0
    rng = np.random.default_rng(seed)
    for e in range(v.system.m):
        xs, vs = v.nodes[e], v.values[e]
        d = np.abs(np.diff(vs)) / np.abs(np.diff(xs)) ** a
        best = max(best, float(d.max()))
        n = len(xs)
        i = rng.integers(0, n, random_pairs)
        j = rng.integers(0, n, random_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
        q = np.abs(vs[i] - vs[j]) / np.abs(xs[i] - xs[j]) ** a
        best = max(best, float(q.max()))
    return best


def test_norms_of_a_block_equal_the_column_norms(eig_b):
    sys = eig_b.system
    nodes = node_grid(sys, N)
    rng = np.random.default_rng(5)
    cols = [np.exp(2j * np.pi * q * nodes) * (1 + rng.normal(size=nodes.shape))
            for q in range(5)]
    block = GridFunction(sys, np.stack(cols, axis=-1))
    b = 300.0
    semis = hoelder_seminorm(block)
    norms = norm_b(block, b)
    images = apply_L(eig_b, b, block, 3)
    for k, vals in enumerate(cols):
        v = GridFunction(sys, vals)
        assert semis[k] == hoelder_seminorm(v) == _hoelder_one_function(
            v, sys.alpha)
        assert norms[k] == norm_b(v, b)
        assert np.array_equal(images.values[..., k],
                              apply_L(eig_b, b, v, 3).values)
    assert block.sup_norm().tolist() == [GridFunction(sys, c).sup_norm()
                                         for c in cols]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gridfunction_csv_bytes_match_csv_writer(eig_b, kind):
    import csv
    import io
    if kind == "real":
        v = eig_b.f
    else:
        nodes = node_grid(eig_b.system, 33)
        vals = np.exp(2j * np.pi * nodes)
        vals.imag[:, ::3] = -0.0
        v = GridFunction(eig_b.system, vals)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["element_index", "node_x", "re", "im"])
    vals = v.values.astype(complex)
    for e in range(v.system.m):
        for k in range(v.N):
            w.writerow([e, repr(float(v.nodes[e, k])),
                        repr(float(vals[e, k].real)),
                        repr(float(vals[e, k].imag))])
    assert v.to_csv() == buf.getvalue()
    if kind == "complex":
        assert ",-0.0\n" in buf.getvalue()


def test_l_matrix_cache_holds_the_latest_b():
    eig = eigendata(make_preset("SYS-B"), 0.0, N=64)
    eig.L_matrix(3.0)
    M = eig.L_matrix(5.0)
    assert list(eig._lmat_cache) == [5.0]
    assert eig.L_matrix(5.0) is M
