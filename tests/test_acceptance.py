"""End-to-end acceptance checks: exact oracles where closed forms exist,
property-based bounds elsewhere, each with a wall-clock budget."""

import json
import math
import time

import numpy as np
import pytest

from conftest import cone_image, cylinder_masses, psi, transversal
from gibbsflow.cli import run
import gibbsflow.dolgopyat as dg
from gibbsflow.dolgopyat import (build_bump, bump_geometry,
                                 c0_constant, cancellation_check,
                                 cone_iteration, l1_contraction)
from gibbsflow.flow import correlation, sample_flow_measure
from gibbsflow.gibbs import adapted_partition, gibbs_audit, sample_mu
from gibbsflow.operator import GridFunction, apply_L, eigendata
from gibbsflow.presets import make_preset, preset_names
from gibbsflow.system import branch_chain, word_array
from gibbsflow.uni import a_sequence, b_sequence, coboundary_test

# runtime budgets are on CPU time: the sandboxed runner throttles wall clock
# by large, unpredictable factors
cpu_now = time.process_time


@pytest.fixture(scope="module")
def sys_a():
    return make_preset("SYS-A")


@pytest.fixture(scope="module")
def sys_b():
    return make_preset("SYS-B")


@pytest.fixture(scope="module")
def sys_c():
    return make_preset("SYS-C")


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=512)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=512)


def sibling_pairs(sys, n, y=0.5):
    """Pairs (w1, w2) of distinct depth-n words whose inverse branches are
    defined at y: h_w1(y) and h_w2(y) are distinct depth-n preimages of y."""
    ws = []
    for w in map(tuple, word_array(sys, n).tolist()):
        lo, hi = sys.image_interval(w[-1])
        if lo <= y <= hi:
            ws.append(w)
    return [(ws[i], ws[j]) for i in range(len(ws))
            for j in range(i + 1, len(ws))]


# -- 1: leading eigendata of the full shift, closed form ------------------------------


def test_rpf_exactness_full_shift(sys_a):
    t0 = cpu_now()
    eig = eigendata(sys_a, 0.0, N=1024)
    assert abs(eig.lam - 2.0) < 1e-9
    f = eig.f.values.real
    assert np.max(np.abs(f - 1.0)) < 1e-8
    ones = GridFunction(sys_a, np.ones((sys_a.m, 1024)))
    out = apply_L(eig, 0.0, ones, 1)
    assert np.max(np.abs(out.values - 1.0)) < 1e-8
    assert cpu_now() - t0 < 5.0


# -- 2: Gibbs property, exact on the full shift and for Bernoulli weights -------------


def test_gibbs_audit_full_shift_and_bernoulli(sys_a, eig_a):
    t0 = cpu_now()
    rep = gibbs_audit(sys_a, eig_a, 12)
    assert 1 - 1e-6 <= rep["C5_lower"] and rep["C5_upper"] <= 1 + 1e-6
    assert abs(rep["C5"] - 1.0) < 1e-6

    bern = make_preset("SYS-A-BERNOULLI")
    eig = eigendata(bern, 0.0, N=512)
    p = 0.3
    for depth in (1, 2, 3, 5):
        table = cylinder_masses(bern, eig, depth)
        for c, mass in zip(table.cylinders, table.masses):
            want = math.prod(p if s == 0 else 1 - p for s in c.word)
            assert abs(mass - want) < 1e-8
    assert cpu_now() - t0 < 30.0


# -- 3: adapted partition bounds ------------------------------------------------------


def test_adapted_partition_bounds(sys_a, sys_b, sys_c):
    t0 = cpu_now()
    Delta = 1.0
    for sys in (sys_a, sys_b, sys_c):
        rho = sys.constants.rho
        for b in [2.0 ** q for q in range(7, 13)]:
            part = adapted_partition(sys, b, Delta)
            diam = part.right - part.left
            assert np.all(2 * Delta / b <= diam)
            assert np.all(diam <= 2 * Delta * rho / b * (1 + 1e-12))
            assert len(diam) <= b / (2 * Delta)
    assert cpu_now() - t0 < 10.0


# -- 4: trichotomy between rigid and oscillating roofs --------------------------------


def test_trichotomy_rigid_side(sys_a):
    t0 = cpu_now()
    lin = make_preset("SYS-A-LINROOF")
    for sys in (sys_a, lin):
        assert coboundary_test(sys, J_trunc=40, tol=1e-6)["residual"] < 1e-6
        eig = eigendata(sys, 0.0, N=256)
        for v in (a_sequence(sys, eig, 8, grid=512)
                  + b_sequence(sys, eig, 8, grid=512)):
            assert abs(v - 1.0) < 1e-6
    assert cpu_now() - t0 < 180.0


def test_trichotomy_oscillating_side(sys_b):
    t0 = cpu_now()
    nl = make_preset("SYS-C-NLROOF")
    for sys in (sys_b, nl):
        assert coboundary_test(sys, J_trunc=40, tol=1e-6)["residual"] > 1e-5
        eig = eigendata(sys, 0.0, N=256)
        assert any(v < 1.0 - 1e-9 for v in a_sequence(sys, eig, 10, grid=512))
        found = False
        for n in (2, 3, 4):
            for w1, w2 in sibling_pairs(sys, n):
                if transversal(sys, w1, w2, 0.5):
                    found = True
                    break
            if found:
                break
        assert found
    assert cpu_now() - t0 < 180.0


# -- 5: a, b, psi, and cone bounds on oscillating systems -----------------------------


def test_sequence_and_cone_bounds(sys_b, sys_c, eig_b):
    t0 = cpu_now()
    eig_c = eigendata(sys_c, 0.0, N=256)
    for sys, eig in ((sys_b, eig_b), (sys_c, eig_c)):
        c7 = sys.constants.c7
        a = a_sequence(sys, eig, 8, grid=512)
        b = b_sequence(sys, eig, 8, grid=512)
        assert all(v <= 1 + 1e-9 for v in a + b)
        for m in range(1, 5):
            for n in range(1, 9 - m):
                assert b[m + n - 1] <= b[m - 1] * b[n - 1] + 1e-6

        for n in (1, 2, 3):
            pairs = sibling_pairs(sys, n)
            for w1, w2 in pairs[:20]:
                ps = psi(sys, w1, w2)
                ys = np.linspace(ps.domain[0] + 1e-9, ps.domain[1] - 1e-9, 64)
                assert np.max(np.abs(ps.deriv(ys))) <= c7 + 1e-9

        for n in range(1, 9):
            for word in map(tuple, word_array(sys, n).tolist()):
                dom = sys.image_interval(word[-1])
                ys = np.linspace(dom[0] + 1e-9, dom[1] - 1e-9, 16)
                ch = branch_chain(sys, word, ys)
                assert np.max(np.abs(ch["DSnr_h"])) <= 0.5 * c7 + 1e-9
                lo, hi = cone_image(sys, word, ys[0])
                assert -c7 - 1e-9 <= lo and hi <= c7 + 1e-9
    assert cpu_now() - t0 < 120.0


# -- 6: cancellation witnesses and cone iteration -------------------------------------


@pytest.mark.parametrize("b", [2.0 ** 8, 2.0 ** 10])
def test_cancellation_and_cone_iteration(sys_b, eig_b, b, monkeypatch):
    t0 = cpu_now()
    ones = lambda x: np.ones(np.asarray(x, dtype=float).shape)
    v = lambda x: ones(x).astype(complex)
    geom = bump_geometry(sys_b, b, 0.05, c0_constant(sys_b, eig_b), None)
    bump = build_bump(geom, ones, v)
    part = adapted_partition(sys_b, b, geom.Delta)
    assert len(bump.cases) == len(part.left)  # a witness in every element
    assert all(c in ("a", "b") for c in bump.cases)

    chk = cancellation_check(sys_b, eig_b, b, ones, v, bump)
    assert chk["margin"] >= -1e-9

    monkeypatch.setattr(dg, "_BASE_N", 2048)
    monkeypatch.setattr(dg, "_V_NODES_PER_B", 32)
    rep = cone_iteration(sys_b, eig_b, b, m_max=10, delta=0.05, Delta=None)
    assert rep["all_in_cone"]
    assert all(t < 1.0 for t in rep["tau_hats"])
    assert cpu_now() - t0 < 300.0


# -- 7: L1 contraction sweep with a rigid control --------------------------------------


def test_l1_contraction_sweep_and_control(sys_b, eig_b, sys_a):
    t0 = cpu_now()
    rep = l1_contraction(sys_b, eig_b, [2.0 ** q for q in range(8, 13)],
                         beta=1.0)
    for row in rep["rows"]:
        assert row["k"] == math.floor(math.log(row["b"]))
        assert row["ratio"] < 1.0
    assert rep["xi_hat"] > 0

    # rigid control: r = 1 makes the twist trivial at b = 2 pi, so the
    # operator fixes constants and the ratio is exactly 1
    eig = eigendata(sys_a, 0.0, N=512)
    ones = GridFunction(sys_a, np.ones((sys_a.m, 512), dtype=complex))
    out = apply_L(eig, 2.0 * math.pi, ones, n=1)
    l1 = float(np.sum(eig.mu * np.abs(out.values)))
    assert abs(l1 / ones.sup_norm() - 1.0) < 1e-6
    assert cpu_now() - t0 < 900.0


# -- 8: exponential mixing vs rigidity at the flow level --------------------------------


def test_rigid_flow_does_not_mix(sys_a, eig_a):
    t0 = cpu_now()
    series = correlation(sys_a, eig_a, "cos(2*pi*u)", "cos(2*pi*u)",
                         np.arange(0.0, 21.0), 200_000, seed=2)
    c0 = abs(series.estimates[0])
    assert all(abs(c) >= c0 / 2 for c in series.estimates)
    assert cpu_now() - t0 < 300.0


def test_oscillating_flow_mixes(sys_b, eig_b):
    t0 = cpu_now()
    series = correlation(sys_b, eig_b, "cos(2*pi*u)+x", "cos(2*pi*u)+x",
                         np.arange(0.0, 8.5, 0.5), 1_000_000, seed=5)
    assert series.rate > 0
    assert series.prefactor > 0
    for t, c, se in zip(series.times, series.estimates, series.stderrs):
        if t > series.t_star:
            assert abs(c) < 5 * se
    assert cpu_now() - t0 < 600.0


# -- 9: sampler frequencies against exact cylinder masses ------------------------------


def test_sampler_matches_cylinder_masses():
    t0 = cpu_now()
    count = 50_000
    for name in preset_names():
        sys = make_preset(name)
        eig = eigendata(sys, 0.0, N=256)
        xs = sample_mu(sys, eig, count, seed=17)
        table = cylinder_masses(sys, eig, 3)
        for c, mass in zip(table.cylinders, table.masses):
            freq = float(np.mean((xs >= c.left) & (xs < c.right)))
            se = math.sqrt(mass * (1 - mass) / count)
            assert abs(freq - mass) < 3 * se + 1e-12
    assert cpu_now() - t0 < 120.0


# -- 10: byte-identical reports under a fixed seed --------------------------------------


def test_deterministic_reports(tmp_path):
    cfgs = {
        "p.json": {"preset": "SYS-B", "experiment": "partition",
                   "params": {"b": 1024, "Delta": 1.0}},
        "c.json": {"preset": "SYS-A", "experiment": "correlate", "seed": 9,
                   "params": {"samples": 20_000, "t_max": 3.0,
                              "t_points": 7, "v": "cos(2*pi*u)",
                              "w": "cos(2*pi*u)"}},
    }
    blobs = {0: {}, 1: {}}
    for rep in (0, 1):
        for name, cfg in cfgs.items():
            p = tmp_path / f"{rep}-{name}"
            p.write_text(json.dumps(cfg), encoding="utf-8")
            out = tmp_path / f"out-{rep}-{name}"
            assert run(str(p), out_dir=str(out)) == 0
            for f in sorted(out.iterdir()):
                if f.suffix == ".csv":
                    blobs[rep][f"{name}/{f.name}"] = f.read_bytes()
    assert blobs[0] == blobs[1]
