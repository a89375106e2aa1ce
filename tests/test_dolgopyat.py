import math

import numpy as np
import pytest

from gibbsflow.dolgopyat import (ETA0, BumpFunction, ConeBPair,
                                 ConstraintViolationError,
                                 NoCancellationWitness, build_bump,
                                 c0_constant, cancellation_check,
                                 cone_iteration, constraint_gates, in_cone_b,
                                 l1_contraction, norm_contraction_sweep)
from gibbsflow.expr import parse
from gibbsflow.operator import eigendata, grid_function_from_callable
from gibbsflow.presets import make_preset
from gibbsflow.system import Branch, MarkovSystem


@pytest.fixture(scope="module")
def sys_a():
    return make_preset("SYS-A")


@pytest.fixture(scope="module")
def sys_b():
    return make_preset("SYS-B")


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=256)


def _ones_pair(sys, b, c0):
    u = grid_function_from_callable(sys, lambda x: np.ones_like(x), 256)
    v = grid_function_from_callable(sys, lambda x: np.ones_like(x) + 0j, 256)
    return ConeBPair(u=u, v=v, b=b, C0=c0)


# -- C0 and the gates --------------------------------------------------------------


def test_eta0_value():
    assert ETA0 == pytest.approx(0.5 * (math.sqrt(7) - 1))
    assert 2 / 3 < ETA0 < 1


def test_c0_constant_roof_floored(sys_a, eig_a):
    rep = c0_constant(sys_a, eig_a)
    assert rep["raw"] == pytest.approx(0.0, abs=1e-9)
    assert rep["floored"]
    assert rep["C0"] == 0.1


def test_c0_sys_b_closed_form(sys_b, eig_b):
    # f is constant, so C0 = 2 |r|_alpha (1 - 1/2) = sup|r'| = 2 pi / 3
    rep = c0_constant(sys_b, eig_b)
    assert rep["C0"] == pytest.approx(2 * np.pi / 3, rel=1e-6)
    div = c0_constant(sys_b, eig_b, variant="divide")
    assert div["C0"] == pytest.approx(8 * np.pi / 3, rel=1e-6)


def test_c0_monotone_in_roof_amplitude(eig_b):
    big = MarkovSystem(
        [0.0, 0.5, 1.0],
        [Branch(parse("2*x"), (0, 2)), Branch(parse("2*x-1"), (0, 2))],
        [parse("(2+2*cos(2*pi*x))/4")] * 2,
        [parse("0")] * 2,
    )
    eig = eigendata(big, 0.0, N=128)
    small = make_preset("SYS-B")
    eig_s = eigendata(small, 0.0, N=128)
    assert (c0_constant(big, eig)["C0"]
            >= c0_constant(small, eig_s)["C0"] * (1 - 1e-9))


def test_gates_pass_and_refuse(sys_b, eig_b):
    rep = constraint_gates(sys_b, eig_b, 0.05, b_list=[256, 4096])
    assert all(v["value"] < v["bound"] for v in rep.values())
    with pytest.raises(ConstraintViolationError):
        constraint_gates(sys_b, eig_b, 0.3)


# -- cone membership --------------------------------------------------------------


def test_in_cone_constant_pairs(sys_a, eig_a):
    c0 = c0_constant(sys_a, eig_a)["C0"]
    u = grid_function_from_callable(sys_a, lambda x: np.ones_like(x), 128)
    v0 = grid_function_from_callable(sys_a, lambda x: 0j * x, 128)
    v1 = grid_function_from_callable(sys_a, lambda x: np.ones_like(x) + 0j, 128)
    assert in_cone_b(ConeBPair(u, v0, 64.0, c0))["ok"]
    assert in_cone_b(ConeBPair(u, v1, 64.0, c0))["ok"]


def test_in_cone_rejects_dominating_v(sys_a, eig_a):
    c0 = c0_constant(sys_a, eig_a)["C0"]
    u = grid_function_from_callable(sys_a, lambda x: np.ones_like(x), 128)
    v = grid_function_from_callable(sys_a, lambda x: 2.0 * x + 0j, 128)
    rep = in_cone_b(ConeBPair(u, v, 64.0, c0))
    assert not rep["ok"]
    assert rep["margins"]["dominates_v"] < -0.5


# -- bump construction -------------------------------------------------------------


def test_build_bump_sys_b(sys_b, eig_b):
    c0 = c0_constant(sys_b, eig_b)["C0"]
    pair = _ones_pair(sys_b, 2.0 ** 10, c0)
    bump, winners = build_bump(sys_b, eig_b, pair, delta=0.05)
    assert len(winners) == len(bump.supports) > 0
    assert ETA0 <= bump.eta < 1.0
    assert all(c in ("a", "b") for c in bump.cases)
    xs = np.linspace(0.0, 1.0, 8192)
    chi = bump(xs)
    assert np.all(chi >= bump.eta - 1e-12)
    assert np.all(chi <= 1.0 + 1e-12)
    # plateau hits eta, off-support is 1
    plo, phi = bump.plateaus[0]
    assert bump(np.array([(plo + phi) / 2]))[0] == pytest.approx(bump.eta)
    assert bump(np.array([0.99]))[0] == 1.0
    # |chi'| <= |b| on a fine grid around each support
    for slo, shi in bump.supports:
        zs = np.linspace(slo - 1e-9, shi + 1e-9, 8192)
        sl = np.abs(np.diff(bump(zs))) / np.diff(zs)
        assert sl.max() <= abs(bump.b) * (1 + 1e-6)


def test_build_bump_constant_roof_fails(sys_a, eig_a):
    pair = _ones_pair(sys_a, 256.0, 0.1)
    with pytest.raises(NoCancellationWitness):
        build_bump(sys_a, eig_a, pair, delta=0.05, Delta=30.0)


# -- cancellation ------------------------------------------------------------------


def test_cancellation_holds_sys_b(sys_b, eig_b):
    c0 = c0_constant(sys_b, eig_b)["C0"]
    pair = _ones_pair(sys_b, 2.0 ** 10, c0)
    bump, _ = build_bump(sys_b, eig_b, pair, delta=0.05)
    rep = cancellation_check(sys_b, eig_b, pair, bump)
    assert rep["ok"]
    assert rep["margin"] >= -1e-9


def test_cancellation_checker_sign(sys_b, eig_b):
    # v = u real positive and b = 0: |L^n u| = L^n u > L^n(chi u) wherever a
    # synthetic bump dips, so the margin must come back negative
    c0 = c0_constant(sys_b, eig_b)["C0"]
    pair = _ones_pair(sys_b, 0.0, c0)
    bump = BumpFunction(b=0.0, eta=0.9, plateaus=[(0.45, 0.55)],
                        supports=[(0.40, 0.60)], balls=[(0.40, 0.60)],
                        winners=[(0, 0)], cases=["b"], n=2, delta=0.05,
                        Delta=30.0)
    rep = cancellation_check(sys_b, eig_b, pair, bump)
    assert not rep["ok"]
    assert rep["margin"] < -1e-3


# -- cone iteration ----------------------------------------------------------------


@pytest.mark.parametrize("b", [2.0 ** 8, 2.0 ** 10])
def test_cone_iteration_contracts(sys_b, eig_b, b):
    rep = cone_iteration(sys_b, eig_b, b, m_max=10, base_n=2048,
                         v_nodes_per_b=32)
    assert rep["all_in_cone"]
    assert rep["all_contracting"]
    taus = rep["tau_hats"]
    assert len(taus) == 10
    assert max(taus) < 1.0
    u2 = [s["int_u2"] for s in rep["steps"]]
    assert all(later < earlier for earlier, later in zip(u2, u2[1:]))
    assert all(s["I"] > 0 for s in rep["steps"])


def test_cone_iteration_aborts_on_constant_roof(sys_a, eig_a):
    with pytest.raises(NoCancellationWitness):
        cone_iteration(sys_a, eig_a, 256.0, m_max=2, Delta=30.0)


# -- L1 contraction ---------------------------------------------------------------


def test_l1_contraction_sys_b(sys_b, eig_b):
    rep = l1_contraction(sys_b, eig_b, [2.0 ** 8, 2.0 ** 10, 2.0 ** 12])
    for row in rep["rows"]:
        assert row["ratio"] < 1.0
        assert row["ratio"] <= rep["C6"] * (1 + 1e-9)
    assert rep["xi_hat"] > 0.0


def test_l1_contraction_constant_roof_control(sys_a, eig_a):
    # at b = 2 pi q the twist of the unit roof is exp(-2 pi i q) = 1, so the
    # constant test function is fixed and the best ratio is exactly 1
    rep = l1_contraction(sys_a, eig_a, [2 * math.pi * 100])
    assert rep["rows"][0]["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_l1_beta_gate_refuses(sys_a, eig_a):
    with pytest.raises(ConstraintViolationError):
        l1_contraction(sys_a, eig_a, [2.0])


# -- operator norm sweep ------------------------------------------------------------


def test_norm_sweep_sys_b(sys_b, eig_b):
    rep = norm_contraction_sweep(sys_b, eig_b, [2.0 ** 8, 2.0 ** 10, 2.0 ** 12],
                                 trials=30)
    assert rep["zeta_max"] < 1.0
    for row in rep["rows"]:
        assert row["zeta_hat"] <= row["envelope"] * (1 + 1e-9)


def test_norm_sweep_constant_roof_no_contraction(sys_a, eig_a):
    rep = norm_contraction_sweep(sys_a, eig_a, [2 * math.pi], trials=10)
    assert rep["rows"][0]["zeta_hat"] == pytest.approx(1.0, abs=1e-6)


def _sweep_one_trial_at_a_time(sys, eig, b_list, B=1.0, trials=200,
                               power_iters=4, seed=0):
    """The sweep by its definition: each trial built, mapped and normed alone.
    Returns the rows and, per b, the ratio of every trial.

    Each mode is bound to a name before it is scaled.  Written as
    ``c * np.exp(...)``, numpy reuses the unnamed temporary for the product
    once it reaches 256 KiB, and that in-place product rounds differently
    in the last bit; the sum would then depend on the array size.
    """
    from gibbsflow.dolgopyat import _lam_rho
    from gibbsflow.operator import (GridFunction, apply_L, c6_bound,
                                    lasota_yorke_audit, norm_b)
    rng = np.random.default_rng(seed)
    lam, _ = _lam_rho(sys)
    results, all_ratios = [], []
    for b in b_list:
        ell = int(math.ceil(B * math.log(abs(b))))
        N = int(min(32768, max(2048, 16 * abs(b))))
        eg = eigendata(sys, eig.sigma, N=N)
        nodes = np.stack([eg.f.nodes[e] for e in range(sys.m)])
        best = 0.0
        best_v = None
        all_ratios.append([])
        for t in range(trials):
            if t == 0:
                vals = np.ones_like(nodes, dtype=complex)
            else:
                vals = np.zeros_like(nodes, dtype=complex)
                for q in range(12):
                    c = (rng.normal() + 1j * rng.normal()) / (1.0 + q)
                    mode = np.exp(2j * np.pi * q * nodes)
                    vals += c * mode
            v = GridFunction(sys, vals)
            denom = norm_b(v, b)
            w = apply_L(eg, b, v, ell)
            ratio = norm_b(w, b) / denom
            all_ratios[-1].append(ratio)
            if ratio > best:
                best, best_v = ratio, v
        w = best_v
        for _ in range(power_iters):
            prev = norm_b(w, b)
            w = apply_L(eg, b, w, ell)
            cur = norm_b(w, b)
            best = max(best, cur / prev)
            w = w.copy_with(w.values / cur)
        envelope = (c6_bound(eg, lam)
                    + lasota_yorke_audit(eg, b, lam, n_values=(ell,),
                                         trials=4)["c8_hat"]) ** (1.0 / ell)
        results.append({"b": float(b), "ell": ell, "ratio": best,
                        "zeta_hat": best ** (1.0 / ell), "envelope": envelope})
    return results, all_ratios


@pytest.mark.parametrize("budget", [None, 3 * 8192])
def test_norm_sweep_blocks_match_one_trial_at_a_time(sys_b, eig_b, budget,
                                                     monkeypatch):
    # budget None: all 11 trials in one block; 3 * 8192: blocks of 3, 3, 3, 2
    # at b = 256 (m N = 8192) and of one trial at b = 512.  The constant
    # trial wins here, so the rows alone would not see the random trials:
    # every trial's ratio is compared too.
    import gibbsflow.dolgopyat as dg
    if budget is not None:
        monkeypatch.setattr(dg, "_TRIAL_BUDGET", budget)
    seen = []
    blocked = dg._trial_ratios
    monkeypatch.setattr(dg, "_trial_ratios",
                        lambda *args: seen.append(blocked(*args)) or seen[-1])
    b_list = [256.0, 512.0]
    rep = norm_contraction_sweep(sys_b, eig_b, b_list, trials=11, seed=3)
    rows, ratios = _sweep_one_trial_at_a_time(sys_b, eig_b, b_list,
                                              trials=11, seed=3)
    assert rep["rows"] == rows
    assert seen == ratios


def test_norm_sweep_refuses_no_trials(sys_b, eig_b):
    with pytest.raises(ValueError):
        norm_contraction_sweep(sys_b, eig_b, [256.0], trials=0)
