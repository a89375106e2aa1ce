import csv
import io
import json
import math

import numpy as np
import pytest

from conftest import element_sets, system
from gibbsflow.cli import _write_csv, run
from gibbsflow.operator import (
    BranchPlan, GridFunction, apply_L, c6_bound, deep_apply, eigendata, hoelder_seminorm,
    node_grid, norm_b, transfer_matrix,
)

N = 512


@pytest.fixture(scope="module")
def eig_a():
    return eigendata(system("SYS-A"), 0.0, N=N)


@pytest.fixture(scope="module")
def eig_b():
    return eigendata(system("SYS-B"), 0.0, N=N)


def test_sys_a_eigendata(eig_a):
    assert eig_a.lam == pytest.approx(2.0, abs=1e-11)
    assert np.max(np.abs(eig_a.f.values - 1.0)) < 1e-10
    # f = 1, so mu = nu is Lebesgue: integrates polynomials correctly
    nodes = node_grid(eig_a.system, N)
    assert float((eig_a.mu * nodes).sum()) == pytest.approx(0.5, abs=1e-6)
    assert float((eig_a.mu * np.cos(2 * np.pi * nodes)).sum()) == pytest.approx(
        0.0, abs=1e-6)
    assert eig_a.pressure == pytest.approx(math.log(2.0), abs=1e-11)


def test_sys_a_sigma_one():
    # r = 1 shifts the eigenvalue by e^{-sigma}
    eig = eigendata(system("SYS-A"), 1.0, N=256)
    assert eig.lam == pytest.approx(2.0 / math.e, rel=1e-11)
    assert np.max(np.abs(eig.f.values - 1.0)) < 1e-9


def test_bernoulli_eigenvalue():
    # potential log(p), log(1-p): P_0 1 = 1, so lambda = 1 and pressure 0
    eig = eigendata(system("SYS-A-BERNOULLI"), 0.0, N=256)
    assert eig.lam == pytest.approx(1.0, abs=1e-11)
    assert eig.pressure == pytest.approx(0.0, abs=1e-11)


def test_eigen_residual_at_nodes(eig_b):
    assert eig_b.residual < 1e-8


@pytest.mark.parametrize("preset", ["SYS-B", "SYS-C"])
def test_eigen_report_residual_is_that_of_a_fresh_transfer_matrix(
        tmp_path, preset):
    # max |P_sigma f - lam f| / sup f from eigen.json's lambda and f.npy,
    # with P_sigma built again after the run
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": preset, "experiment": "eigen",
                               "params": {"sigma": 0.5, "N": 1025}}),
                   encoding="utf-8")
    assert run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "eigen.json").read_text())
    f = np.load(tmp_path / "out" / "f.npy", allow_pickle=False).reshape(-1)
    P = transfer_matrix(system(preset), 0.5, 1025)
    assert rep["residual"] == float(
        np.max(np.abs(P @ f - rep["lambda"] * f)) / np.max(f))


def test_normalized_operator_fixes_one(eig_b):
    one = GridFunction(eig_b.system, np.ones((eig_b.system.m, N)))
    out = apply_L(eig_b, 0.0, one, 1)
    assert np.max(np.abs(out.values - 1.0)) < 1e-8


def test_duality_invariance(eig_b):
    # integral of L_sigma v against mu equals integral of v
    rng = np.random.default_rng(3)
    nodes = node_grid(eig_b.system, N)
    v = GridFunction(eig_b.system, np.sin(2 * np.pi * nodes) + rng.normal(size=nodes.shape) * 0.1)
    lhs = float((eig_b.mu * apply_L(eig_b, 0.0, v, 1).values.real).sum())
    rhs = float((eig_b.mu * v.values).sum())
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_positivity_and_modulus_bound(eig_b):
    # |L_s v| <= L_sigma |v| pointwise at the nodes
    nodes = node_grid(eig_b.system, N)
    v = GridFunction(eig_b.system, np.exp(2j * np.pi * 3 * nodes))
    b = 7.0
    tw = apply_L(eig_b, b, v, 1)
    absv = GridFunction(eig_b.system, np.abs(v.values))
    dom = apply_L(eig_b, 0.0, absv, 1)
    assert np.all(np.abs(tw.values) <= dom.values.real + 1e-10)


def test_gridfunction_interp_reproduces_nodes(eig_b):
    nodes = node_grid(eig_b.system, 64)
    v = GridFunction(eig_b.system, np.sin(3 * nodes) + 0.5 * nodes ** 2)
    assert np.max(np.abs(v.eval(nodes.ravel()) - v.values.ravel())) < 1e-14


def test_copies_share_one_read_only_node_grid(eig_b):
    m = eig_b.system.m
    v = GridFunction(eig_b.system, np.ones((m, N), dtype=complex))
    assert not v.nodes.flags.writeable
    with pytest.raises(ValueError):
        v.nodes[0, 1] = 0.5
    assert np.array_equal(v.nodes, node_grid(eig_b.system, N))
    assert v.copy_with(2.0 * v.values).nodes is v.nodes
    assert apply_L(eig_b, 256.0, v, 2).nodes is v.nodes
    with pytest.raises(ValueError):
        v.copy_with(np.ones((m, N + 1)))


@pytest.mark.parametrize("experiment,calls", [
    # 5 eigendata at N = 512, 4096, 8192, 16384 and 32768 (f and the
    # transfer matrix each) and per b of 2^8..2^12 one L matrix; the
    # sweep's start w and the Lasota-Yorke audit's test functions are
    # copies of the eigendata's f
    ("contraction", 5 * 2 + 5 * 1),
    # eigendata at N = 512, v's start, d's base nodes and mu's density
    ("cancellation", 2 + 1 + 1 + 1)])
def test_runs_build_a_node_grid_per_grid_function_not_per_copy(
        experiment, calls, monkeypatch, tmp_path):
    # apply_L, each v advance and each sweep step copy a GridFunction, and
    # a copy builds no grid (SYS-B at the CLI defaults)
    import gibbsflow.dolgopyat as dg
    import gibbsflow.operator as op
    count = [0]

    def counted(*args, _fn=op.node_grid):
        count[0] += 1
        return _fn(*args)

    for mod in (op, dg):
        monkeypatch.setattr(mod, "node_grid", counted)
    assert run({"experiment": experiment, "preset": "SYS-B"},
               out_dir=str(tmp_path / experiment)) == 0
    assert count[0] == calls


def test_contraction_reports_do_not_depend_on_shared_grids(monkeypatch,
                                                           tmp_path):
    # the same SYS-B contraction run with every GridFunction copy given a
    # grid of its own, as node_grid builds it, writes the same bytes
    import gibbsflow.operator as op
    cfg = {"experiment": "contraction", "preset": "SYS-B"}
    assert run(cfg, out_dir=str(tmp_path / "shared")) == 0
    monkeypatch.setattr(op.GridFunction, "copy_with",
                        lambda self, values: GridFunction(self.system, values))
    assert run(cfg, out_dir=str(tmp_path / "own")) == 0
    for name in ("contraction.json", "contraction.csv"):
        assert ((tmp_path / "shared" / name).read_bytes()
                == (tmp_path / "own" / name).read_bytes())


def test_eigen_f_npy_roundtrip(eig_b, tmp_path):
    # the eigen report's f.npy holds f's (m, N) values to the bit, and
    # eigen.json's partition and N rebuild the node grid to the bit
    out = tmp_path / "eigen"
    assert run({"experiment": "eigen", "preset": "SYS-B",
                "params": {"N": N}}, out_dir=str(out)) == 0
    f = np.load(out / "f.npy", allow_pickle=False)
    assert f.dtype == np.float64 and f.shape == (eig_b.system.m, N)
    assert f.tobytes() == eig_b.f.values.tobytes()
    rep = json.loads((out / "eigen.json").read_text(encoding="utf-8"))
    ends = rep["partition"]
    nodes = np.stack([np.linspace(a, b, rep["N"])
                      for a, b in zip(ends[:-1], ends[1:])])
    assert nodes.tobytes() == eig_b.f.nodes.tobytes()
    assert not (out / "f.csv").exists()


def test_hoelder_seminorm_linear(eig_a):
    nodes = node_grid(eig_a.system, 256)
    v = GridFunction(eig_a.system, 3.0 * nodes)
    assert hoelder_seminorm(v) == pytest.approx(3.0, rel=1e-10)
    # norm_(b) deflates the seminorm by 1 + |b|^alpha
    assert norm_b(v, 9.0) == pytest.approx(3.0 / 10.0 + 3.0, rel=1e-9)


def test_indicator_like_seminorm_scaling(eig_a):
    # steep ramp: seminorm grows like slope, norm_(b) tames it
    nodes = node_grid(eig_a.system, 256)
    v = GridFunction(eig_a.system, np.tanh(200 * (nodes - 0.25)))
    s1 = hoelder_seminorm(v)
    assert s1 > 100
    assert norm_b(v, 1000.0) < 1.5


def test_c6_bound_sys_a(eig_a):
    assert c6_bound(eig_a) == pytest.approx(1.0, rel=1e-8)


def test_c6_bound_dominates(eig_b):
    eig1 = eigendata(system("SYS-B"), 0.5, N=256)
    c6 = c6_bound(eig1)
    ratio = float(eig1.f.values.max() / eig1.f.values.min())
    assert c6 >= ratio - 1e-12
    assert c6 < 50


def _old_piecewise_seminorm(sys, fn, alpha, grid=2048):
    """The recipe c6_bound used before the shared seminorm helper: adjacent
    pairs plus all pairs of every 32nd point, per element."""
    best = 0.0
    for e in range(sys.m):
        xs = np.linspace(*sys.element_interval(e), grid)
        vs = fn(e, xs)
        d = np.abs(np.diff(vs)) / np.diff(xs) ** alpha
        best = max(best, float(np.max(d)))
        sub = np.arange(0, grid, max(1, grid // 64))
        q = np.abs(vs[sub][:, None] - vs[sub][None, :])
        dx = np.abs(xs[sub][:, None] - xs[sub][None, :]) ** alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(dx > 0, q / dx, 0.0)
        best = max(best, float(np.max(q)))
    return best


@pytest.mark.parametrize("sigma", [-1.0, 0.5])
def test_c6_bound_takes_the_seminorm_of_the_difference(nl_doubling, sigma):
    # |phi - sigma r|_alpha is sampled as one function: the triangle bound
    # |phi|_alpha + |sigma| |r|_alpha is 4.65 instead of 0.80 at sigma = -1
    sys = nl_doubling
    eig = eigendata(sys, sigma, N=256)
    lam, a = sys.constants.lam, sys.alpha
    semi = _old_piecewise_seminorm(
        sys, lambda e, xs: sys.phi[e].value(x=xs) - sigma * sys.r[e].value(x=xs),
        a)
    fmax, fmin = float(eig.f.values.max()), float(eig.f.values.min())
    want = float(np.exp(semi / (1.0 - lam ** (-a))) * fmax / fmin)
    assert c6_bound(eig) == want


def test_deep_apply_matches_matrix(eig_b):
    sys = eig_b.system
    xs = np.linspace(0.01, 0.99, 301)
    n = 4
    vfun = lambda z: np.exp(2j * np.pi * z)
    # at b = 0 the twist is 1
    out = deep_apply(sys, eig_b, 0.0, n, element_sets(sys, xs),
                     {"one": np.ones_like, "v": vfun})
    assert np.max(np.abs(out["one"] - 1.0)) < 1e-14
    nodes = node_grid(sys, N)
    v = GridFunction(sys, vfun(nodes))
    ref = apply_L(eig_b, 0.0, v, n)
    assert np.max(np.abs(out["v"] - ref.eval(xs))) < 1e-5


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "SYS-C-NLROOF",
                                  "NL-DOUBLING"])
def test_branch_plan_maps_one_to_exactly_one(name):
    # cone_iteration's d = 1 - u takes L_sigma 1 = 1 exactly: at b = 0 each
    # point's sum of J_w adds its terms as its normaliser does, and a real
    # quotient of equal numbers is 1.  Divided as complex numbers it was
    # 1.1e-16 off on each of these systems, and with a lone column summed
    # pairwise 2.3e-14 off on SYS-C-NLROOF's one-point sets at depth 10
    sys = system(name)
    ends = [sys.element_interval(e) for e in range(sys.m)]
    grids = [np.linspace(lo, hi, 33) for lo, hi in ends]
    points = [np.array([lo + 0.37 * (hi - lo)]) for lo, hi in ends]
    for sigma in (0.0, 0.5):
        eig = eigendata(sys, sigma, N=128)
        for n, sets in ((1, grids), (4, grids), (8, grids), (1, points),
                        (4, points), (8, points), (10, points)):
            if n == 10 and name != "SYS-C-NLROOF":
                continue
            plan = BranchPlan(sys, eig, 0.0, n, sets)
            for twist in (False, True):
                got = plan.apply(np.ones_like, twist)
                assert np.all(got == 1.0), (sigma, n, len(got), twist)


def test_deep_apply_twist_phase_exact():
    # SYS-A roof 1: L_{ib}^n v = e^{-ibn} L_0^n v exactly
    eig = eigendata(system("SYS-A"), 0.0, N=128)
    xs = np.linspace(0.0, 0.999, 57)
    b, n = 2 * np.pi, 3
    out = deep_apply(eig.system, eig, b, n, element_sets(eig.system, xs),
                     {"v": np.ones_like})
    assert np.max(np.abs(out["v"] - np.exp(-1j * b * n))) < 1e-12


def _hoelder_one_function(v, a):
    """The seminorm of a single function, as a loop over elements: adjacent
    nodes, and all pairs of 65 evenly spaced nodes, both ends included."""
    best = 0.0
    for e in range(v.system.m):
        xs, vs = v.nodes[e], v.values[e]
        d = np.abs(np.diff(vs)) / np.abs(np.diff(xs)) ** a
        best = max(best, float(d.max()))
        sub = [k * (len(xs) - 1) // 64 for k in range(65)]
        q = np.abs(vs[sub][:, None] - vs[sub][None, :])
        dx = np.abs(xs[sub][:, None] - xs[sub][None, :]) ** a
        best = max(best, float(np.max(q[dx > 0] / dx[dx > 0])))
    return best


def _hoelder_random_pairs(v, a, random_pairs=10_000, seed=0):
    """Adjacent nodes plus random pairs: the estimate before the shared
    seminorm helper."""
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


def test_hoelder_seminorm_matches_the_element_loop(eig_b):
    sys = eig_b.system
    nodes = node_grid(sys, N)
    rng = np.random.default_rng(5)
    for q in range(5):
        v = GridFunction(sys, np.exp(2j * np.pi * q * nodes)
                         * (1 + rng.normal(size=nodes.shape)))
        semi = hoelder_seminorm(v)
        assert semi == _hoelder_one_function(v, sys.alpha)
        # at alpha = 1 a random pair's quotient is a mean of adjacent ones
        assert sys.alpha == 1.0
        assert _hoelder_random_pairs(v, 1.0) <= np.nextafter(semi, np.inf)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gridfunction_csv_bytes_match_csv_writer(eig_b, tmp_path, kind):
    # a grid function through the report writer: the real f of eig_b, and
    # complex values with imaginary parts -0.0
    if kind == "real":
        v = eig_b.f
    else:
        nodes = node_grid(eig_b.system, 33)
        vals = np.exp(2j * np.pi * nodes)
        vals.imag[:, ::3] = -0.0
        v = GridFunction(eig_b.system, vals)
    vals = v.values.astype(complex).reshape(-1)
    _write_csv(tmp_path / "v.csv", ["element_index", "node_x", "re", "im"],
               [np.repeat(np.arange(v.system.m), v.values.shape[1]),
                v.nodes.reshape(-1), vals.real, vals.imag])
    text = (tmp_path / "v.csv").read_text(encoding="utf-8")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["element_index", "node_x", "re", "im"])
    vals = v.values.astype(complex)
    for e in range(v.system.m):
        for k in range(v.values.shape[1]):
            w.writerow([e, repr(float(v.nodes[e, k])),
                        repr(float(vals[e, k].real)),
                        repr(float(vals[e, k].imag))])
    assert text == buf.getvalue()
    if kind == "complex":
        assert ",-0.0\n" in buf.getvalue()


def test_csv_bytes_match_csv_writer_on_repeated_and_special_values(tmp_path):
    # 0.0 and -0.0, NaNs of other bit patterns and both infinities keep
    # their own text, over many rows of repeated values
    rng = np.random.default_rng(3)
    n = 10_000
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(float)
    special = np.array([0.0, -0.0, np.nan, *nans, np.inf, -np.inf, 0.1, 1.5])
    floats = special[rng.integers(0, special.size, n)]
    floats[::5] = rng.normal(size=len(floats[::5]))
    columns = [np.arange(n) % 3, floats, np.repeat([0.25, -0.0], n // 2),
               rng.integers(-4, 5, n), rng.normal(size=n), np.full(n, np.nan)]
    _write_csv(tmp_path / "t.csv", list("abcdef"), columns)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list("abcdef"))
    w.writerows(zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == buf.getvalue()
    assert ",-0.0," in buf.getvalue() and ",nan," in buf.getvalue()
    assert ",-inf," in buf.getvalue()


def test_l_matrix_cache_holds_the_latest_b():
    eig = eigendata(system("SYS-B"), 0.0, N=64)
    eig.L_matrix(3.0)
    M = eig.L_matrix(5.0)
    assert list(eig._lmat_cache) == [5.0]
    assert eig.L_matrix(5.0) is M
