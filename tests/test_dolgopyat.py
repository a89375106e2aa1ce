import math

import numpy as np
import pytest

from conftest import branch_plan_loop, element_sets, system
from gibbsflow.dolgopyat import (ETA0, BumpFunction, ConstraintViolationError,
                                 NoCancellationWitness, _cone_test,
                                 build_bump, bump_geometry, c0_constant,
                                 cancellation_check,
                                 cone_iteration, constraint_gates,
                                 l1_contraction, norm_contraction_sweep)
import gibbsflow.dolgopyat as dg
from gibbsflow.expr import parse
from gibbsflow.gibbs import adapted_partition
from gibbsflow.operator import (BranchPlan, GridFunction, c6_bound, eigendata,
                               lagrange_step, node_grid)
from gibbsflow.system import MarkovSystem, Piece, branch_chain, word_array
from gibbsflow.uni import transversal_pair


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=256)


def _ones_pair(sys):
    """(u, v) = (1, 1) as grid functions' evaluations."""
    u = GridFunction(sys, np.ones((sys.m, 256)))
    v = GridFunction(sys, np.ones((sys.m, 256), dtype=complex))
    return u.eval, v.eval


@pytest.fixture
def small_grids(monkeypatch):
    """cone_iteration on 2048 base nodes per element; v keeps its grid."""
    monkeypatch.setattr(dg, "_BASE_N", 2048)


# -- C0 and the gates --------------------------------------------------------------


def test_eta0_value():
    assert ETA0 == pytest.approx(0.5 * (math.sqrt(7) - 1))
    assert 2 / 3 < ETA0 < 1


def test_c0_constant_roof_floored(sys_a, eig_a):
    # every seminorm vanishes on SYS-A, so C0 is the floor
    assert c0_constant(sys_a, eig_a) == 0.1


def test_c0_sys_b_closed_form(sys_b, eig_b):
    # f is constant, so C0 = 2 |r|_alpha (1 - 1/2) = sup|r'| = 2 pi / 3
    assert c0_constant(sys_b, eig_b) == pytest.approx(2 * np.pi / 3,
                                                      rel=1e-6)


def test_c0_monotone_in_roof_amplitude(sys_b):
    big = MarkovSystem(
        [0.0, 0.5, 1.0], [(0, 2), (0, 2)],
        [Piece(parse("2*x")), Piece(parse("2*x-1"))],
        [Piece(parse("(2+2*cos(2*pi*x))/4"))] * 2,
        [Piece(parse("0"))] * 2, 1.0)
    eig = eigendata(big, 0.0, N=128)
    eig_s = eigendata(sys_b, 0.0, N=128)
    assert (c0_constant(big, eig)
            >= c0_constant(sys_b, eig_s) * (1 - 1e-9))


def test_gates_pass_and_refuse(sys_b, eig_b):
    c0 = c0_constant(sys_b, eig_b)
    constraint_gates(sys_b, 0.05, c0)
    with pytest.raises(ConstraintViolationError):
        constraint_gates(sys_b, 0.3, c0)


# -- cone membership --------------------------------------------------------------


def _element_grids(sys, n=2048):
    """n equally spaced points per element, both ends included."""
    return [np.linspace(*sys.element_interval(e), n) for e in range(sys.m)]


def test_in_cone_constant_pairs(sys_a, eig_a):
    c0 = c0_constant(sys_a, eig_a)
    u = GridFunction(sys_a, np.ones((sys_a.m, 128)))
    v0 = GridFunction(sys_a, np.zeros((sys_a.m, 128), dtype=complex))
    v1 = GridFunction(sys_a, np.ones((sys_a.m, 128), dtype=complex))
    grids = _element_grids(sys_a)
    K = c0 * 64.0 ** sys_a.alpha
    assert _cone_test(sys_a, u.eval, v0.eval, K, grids)["ok"]
    assert _cone_test(sys_a, u.eval, v1.eval, K, grids)["ok"]


def test_in_cone_rejects_dominating_v(sys_a, eig_a):
    c0 = c0_constant(sys_a, eig_a)
    nodes = node_grid(sys_a, 128)
    u = GridFunction(sys_a, np.ones_like(nodes))
    v = GridFunction(sys_a, 2.0 * nodes + 0j)
    rep = _cone_test(sys_a, u.eval, v.eval, c0 * 64.0 ** sys_a.alpha,
                     _element_grids(sys_a))
    assert not rep["ok"]
    assert rep["margins"]["dominates_v"] < -0.5


@pytest.mark.parametrize("scale", [0.5, 4.0])
def test_cone_test_reads_v_hoelder(sys_b, eig_b, scale):
    # u = 1 and v = sin(M x)/2 with |v|_1 = M/2 = scale K: |v| <= u and
    # |log u| = 0 hold whatever M, so the v-Hoelder condition alone decides
    c0 = c0_constant(sys_b, eig_b)
    K = c0 * 64.0 ** sys_b.alpha
    M = 2.0 * scale * K
    rep = _cone_test(sys_b, lambda x: np.ones(np.shape(x)),
                     lambda x: 0.5 * np.sin(M * np.asarray(x)) + 0j, K,
                     _element_grids(sys_b))
    failed = [k for k, m in rep["margins"].items() if m < -1e-8]
    assert rep["ok"] == (scale < 1.0)
    assert failed == ([] if scale < 1.0 else ["v_hoelder"])


# -- bump construction -------------------------------------------------------------


def test_build_bump_sys_b(sys_b, eig_b):
    c0 = c0_constant(sys_b, eig_b)
    b = 2.0 ** 10
    geom = bump_geometry(sys_b, b, 0.05, c0, None)
    bump = build_bump(geom, *_ones_pair(sys_b))
    assert len(bump.supports) == len(geom.x) > 0
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
        assert sl.max() <= b * (1 + 1e-6)


def test_build_bump_constant_roof_fails(sys_a):
    # a constant roof has no transversal pairs: no bump geometry exists
    with pytest.raises(NoCancellationWitness):
        bump_geometry(sys_a, 256.0, 0.05, 0.1, 30.0)


def _bump_by_element(sys, b, u, v, delta, Delta):
    """The bump for (u, v) at b by a scan of each element on its own: the
    element's transversal pair, its 64 x 32 candidate sub-grid pulled back
    along both words, and the winner's plateau and support pulled back
    afresh."""
    n1 = int(math.floor(math.log(abs(b))))
    n2 = int(math.floor(math.log(1.0 / delta) / math.log(sys.constants.rho)))
    part = adapted_partition(sys, b, Delta)
    tails = word_array(sys, n2)
    rad = delta / abs(b)
    plateaus, supports, balls, cases = [], [], [], []
    for qlo, qhi in zip(part.left.tolist(), part.right.tolist()):
        (w, wbar), _ = transversal_pair(sys, tails, n1, 0.5 * (qlo + qhi))
        dlo = max(sys.image_interval(w[-1])[0],
                  sys.image_interval(wbar[-1])[0])
        dhi = min(sys.image_interval(w[-1])[1],
                  sys.image_interval(wbar[-1])[1])
        x1s = np.linspace(max(qlo, dlo) + rad, min(qhi, dhi) - rad, 64)
        zs = np.clip(x1s[:, None] + np.linspace(-rad, rad, 32)[None, :],
                     max(dlo, 0.0), min(dhi, 1.0)).reshape(-1)
        ch1, ch2 = branch_chain(sys, w, zs), branch_chain(sys, wbar, zs)
        v1, v2 = v(ch1["x"]), v(ch2["x"])
        u1, u2 = np.real(u(ch1["x"])), np.real(u(ch2["x"]))
        phase = (b * (ch1["Snr"] - ch2["Snr"])
                 + np.angle(v1 + 1e-300) - np.angle(v2 + 1e-300))
        dist = np.abs(np.mod(phase + np.pi, 2 * np.pi) - np.pi)
        scans = [
            (np.all(dist.reshape(64, 32) >= np.pi / 3.0, axis=1), "a", w),
            (np.all((np.abs(v1) <= 0.75 * u1).reshape(64, 32), axis=1),
             "b", w),
            (np.all((np.abs(v2) <= 0.75 * u2).reshape(64, 32), axis=1),
             "b", wbar)]
        held = [scan for scan in scans if np.any(scan[0])]
        if not held:
            raise NoCancellationWitness("no cancellation case holds",
                                        len(cases))
        ok, case, winner = held[0]
        x1 = float(x1s[int(np.argmax(ok))])
        ball = (x1 - rad / 2.0, x1 + rad / 2.0)
        pl = branch_chain(sys, winner, np.array([x1 - rad / 6,
                                                 x1 + rad / 6]))["x"]
        sp = branch_chain(sys, winner, np.array(ball))["x"]
        plateaus.append((float(min(pl)), float(max(pl))))
        supports.append((float(min(sp)), float(max(sp))))
        balls.append(ball)
        cases.append(case)
    gaps = [p[0] - q[0] for p, q in zip(plateaus, supports)]
    gaps += [q[1] - p[1] for p, q in zip(plateaus, supports)]
    eta = max(ETA0, 1.0 - abs(b) * min(gaps) / 1.5)
    return BumpFunction(eta=eta, plateaus=plateaus, supports=supports,
                        balls=balls, cases=cases, n=n1 + n2)


def _scrambled(modulus):
    """v = modulus(x) exp(10 i sin(1e9 x)): from one pulled-back sub-grid
    point to the next, 1e9 x moves by tens of radians, so the phase
    difference of two branches is scattered and no candidate keeps case
    (a)."""
    return lambda x: (modulus(np.asarray(x))
                      * np.exp(10j * np.sin(1e9 * np.asarray(x))))


def _odd_digit(k):
    """0.5 where the k-th binary digit of x is 1, else 0.9."""
    return lambda x: np.where(np.floor(2.0 ** k * x) % 2 == 1, 0.5, 0.9)


@pytest.mark.parametrize("b", [2.0 ** 8, 2.0 ** 10])
@pytest.mark.parametrize("v", ["one", "small", "digit7", "digit8", "none"])
def test_build_bump_equals_the_scan_of_each_element(sys_b, eig_b, b, v):
    # the geometry pulls every candidate of every element back once per
    # run; the bump picked from it must be the bump of a scan of each
    # element with its own pullbacks, to the bit, whichever case wins:
    # (a) for v = 1, (b) on w for |v| = 1/2, (b) on wbar in some elements
    # for digit7, and no case in one element for digit8 and |v| = 0.9
    c0 = c0_constant(sys_b, eig_b)
    vs = {"one": lambda x: np.ones(np.shape(x), dtype=complex),
          "small": _scrambled(lambda x: np.full(x.shape, 0.5)),
          "digit7": _scrambled(_odd_digit(7)),
          "digit8": _scrambled(_odd_digit(8)),
          "none": _scrambled(lambda x: np.full(x.shape, 0.9))}
    pair = (lambda x: np.ones(np.shape(x)), vs[v])
    geom = bump_geometry(sys_b, b, 0.05, c0, None)
    Delta = 4.0 * math.pi / (sys_b.constants.c7 * 0.05)
    if v in ("digit8", "none"):
        with pytest.raises(NoCancellationWitness) as got:
            build_bump(geom, *pair)
        with pytest.raises(NoCancellationWitness) as want:
            _bump_by_element(sys_b, b, *pair, 0.05, Delta)
        assert got.value.q_index == want.value.q_index
        return
    bump = build_bump(geom, *pair)
    assert bump == _bump_by_element(sys_b, b, *pair, 0.05, Delta)
    wbar = [list(s) in geom.ends[j, 1, :, 1].tolist()
            for j, s in enumerate(bump.supports)]
    assert any(wbar) == (v == "digit7")


# -- cancellation ------------------------------------------------------------------


def test_cancellation_holds_sys_b(sys_b, eig_b):
    c0 = c0_constant(sys_b, eig_b)
    u, v = _ones_pair(sys_b)
    bump = build_bump(bump_geometry(sys_b, 2.0 ** 10, 0.05, c0, None), u, v)
    rep = cancellation_check(sys_b, eig_b, 2.0 ** 10, u, v, bump)
    assert rep["ok"]
    assert rep["margin"] >= -1e-9


def test_cancellation_checker_sign(sys_b, eig_b):
    # v = u real positive and b = 0: |L^n u| = L^n u > L^n(chi u) wherever a
    # synthetic bump dips, so the margin must come back negative
    bump = BumpFunction(eta=0.9, plateaus=[(0.45, 0.55)],
                        supports=[(0.40, 0.60)], balls=[(0.40, 0.60)],
                        cases=["b"], n=2)
    rep = cancellation_check(sys_b, eig_b, 0.0, *_ones_pair(sys_b), bump)
    assert not rep["ok"]
    assert rep["margin"] < -1e-3


def test_cancellation_check_reads_each_point_in_the_element_of_element_of(
        monkeypatch):
    # the balls put 0, 1/3, 2/3 and 1 among the check points; SYS-C-NLROOF
    # takes different branch sums on either side of 1/3 and 2/3, and the
    # check reads each point in the element element_of names
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.0, N=64)
    p = sys.partition
    bump = BumpFunction(eta=0.9, plateaus=[(0.45, 0.55)],
                        supports=[(0.40, 0.60)],
                        balls=[(0.0, p[1]), (p[2], 1.0)], cases=["b"], n=2)
    xs = dg._check_points(bump)
    assert {0.0, p[1], p[2], 1.0} <= set(xs.tolist())
    u = lambda x: 1.0 + 0.5 * np.sin(5.0 * np.asarray(x))
    v = lambda x: 0.5 * np.exp(3j * np.asarray(x))
    seen = []

    class Recorded(BranchPlan):
        def __init__(self, *args):
            seen.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(dg, "BranchPlan", Recorded)
    rep = cancellation_check(sys, eig, 40.0, u, v, bump)
    want = element_sets(sys, xs)
    [got] = seen
    assert len(got) == len(want) == sys.m
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    plan = BranchPlan(sys, eig, 40.0, 2, want)
    margin = (np.real(plan.apply(lambda x: bump(x) * u(x), False))
              - np.abs(plan.apply(v, True)))
    assert rep["margin"] == float(margin.min())
    assert rep["argmin"] == float(xs[int(np.argmin(margin))])


# -- cone iteration ----------------------------------------------------------------


@pytest.mark.parametrize("b", [2.0 ** 8, 2.0 ** 10])
def test_cone_iteration_contracts(sys_b, eig_b, b, small_grids):
    rep = cone_iteration(sys_b, eig_b, b, m_max=10, delta=0.05, Delta=None)
    assert rep["all_in_cone"]
    assert rep["all_contracting"]
    taus = rep["tau_hats"]
    assert len(taus) == 10
    assert max(taus) < 1.0
    u2 = [s["int_u2"] for s in rep["steps"]]
    assert all(later < earlier for earlier, later in zip(u2, u2[1:]))
    assert all(s["I"] > 0 for s in rep["steps"])


def test_bump_geometry_and_uni_read_the_same_scales(sys_b, monkeypatch):
    # n2, Delta and each transversal pair's common domain come from the
    # helpers of uni, for the cancellation run and the UNI check alike
    import gibbsflow.uni as uni
    seen = {"scales": [], "domains": []}

    def scales(*args, _fn=uni.transversal_scales):
        out = _fn(*args)
        seen["scales"].append(out[:2])
        return out

    def pair(*args, _fn=uni.transversal_pair):
        found = _fn(*args)
        seen["domains"].append(found[1])
        return found

    for mod in (dg, uni):
        monkeypatch.setattr(mod, "transversal_scales", scales)
        monkeypatch.setattr(mod, "transversal_pair", pair)
    b, delta = 256.0, 0.05
    c0 = c0_constant(sys_b, eigendata(sys_b, 0.0, N=128))
    geom = bump_geometry(sys_b, b, delta, c0, None)
    rep = uni.uni_from_transversality(sys_b, delta, b, 1.0)
    n1 = int(math.floor(math.log(b)))
    assert seen["scales"] == [(geom.n - n1, geom.Delta)] * 2
    assert (rep["n2"], rep["Delta"]) == (geom.n - n1, geom.Delta)
    # both SYS-B branches are full, so every pair is defined on [0, 1]
    assert len(seen["domains"]) > 33
    assert set(seen["domains"]) == {(0.0, 1.0)}


@pytest.mark.parametrize("Delta", [0.01, 0.03])
def test_bump_geometry_refuses_an_element_narrower_than_a_ball(sys_b, eig_b,
                                                               Delta):
    # at b = 256 these Delta give elements shorter than 2 delta/|b|: the
    # candidate centres ran backwards past the element, and the run died
    # in inverse_branch with OutsideImageError
    with pytest.raises(ConstraintViolationError, match=r"Q_\d+ has width"):
        bump_geometry(sys_b, 256.0, 0.05, c0_constant(sys_b, eig_b), Delta)


def test_cone_iteration_builds_the_bump_geometry_once(sys_b, eig_b,
                                                      monkeypatch,
                                                      small_grids):
    # the partition, the transversal pairs and the candidate pullbacks are
    # built once per run, one branch_chain per transversal word; each
    # step's build_bump only reads u and v at them
    calls = {name: 0 for name in ("bump_geometry", "adapted_partition",
                                  "transversal_pair", "branch_chain")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(dg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dg, name, counted)
    build = dg.build_bump
    bumps = []

    def build_counted(geom, u, v):
        before = dict(calls)
        bumps.append(build(geom, u, v))
        assert calls == before
        return bumps[-1]

    monkeypatch.setattr(dg, "build_bump", build_counted)
    cone_iteration(sys_b, eig_b, 256.0, m_max=3, delta=0.05, Delta=None)
    assert len(bumps) == 3
    J = len(bumps[0].supports)
    assert calls == {"bump_geometry": 1, "adapted_partition": 1,
                     "transversal_pair": J, "branch_chain": 2 * J}


def _apply_once(sys, eig, g_eval, xs_list, b=0.0):
    """One application of the normalised operator at the node sets, by exact
    branch sums, with every preimage, weight and phase computed afresh.
    ``g_eval`` is a callable on the preimages, or a list of them, one per
    branch, each read at its own branch's preimages only.

    The phase is bound to a name before the product.  Written as ``term *
    np.exp(...)``, numpy reuses the unnamed temporary for the product once
    it reaches 256 KiB (16,384 complex nodes) and computes phase * term,
    which rounds differently in the last bit from the written order.
    """
    feval = eig.f.eval
    out = []
    for e in range(sys.m):
        xs = xs_list[e]
        acc = np.zeros(xs.shape, dtype=complex)
        norm = np.zeros(xs.shape)
        for i in range(sys.m):
            if not sys.transition[i, e]:
                continue
            hx = sys.inverse_branch(i, xs)
            r = sys.r[i].value(x=hx)
            raw = np.exp(sys.phi[i].value(x=hx) - eig.sigma * r)
            raw = raw * np.real(np.asarray(feval(hx)))
            norm += raw
            g = g_eval[i] if isinstance(g_eval, list) else g_eval
            term = raw * np.asarray(g(hx))
            if b != 0.0:
                phase = np.exp(-1j * b * r)
                term = term * phase
            acc += term
        out.append(acc / norm)
    return out


def _assert_close(got, want, tol=1e-13):
    """|got - want| <= tol max |want| at every point."""
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _lagrange_on(lo, hi, values):
    """4-point Lagrange interpolation of ``values`` on the uniform grid of
    [lo, hi], from the node coordinates: nodes j - 1 .. j + 2 about the
    interval of each point, j clipped to [1, N - 3]."""
    nodes = np.linspace(lo, hi, len(values))

    def interp(y):
        y = np.asarray(y, dtype=float)
        j = np.clip(np.searchsorted(nodes, y, side="right") - 1, 1,
                    len(nodes) - 3)
        out = np.zeros(y.shape, dtype=complex)
        for k in range(-1, 3):
            basis = np.ones(y.shape)
            for q in range(-1, 3):
                if q != k:
                    basis *= ((y - nodes[j + q])
                              / (nodes[j + k] - nodes[j + q]))
            out += basis * values[j + k]
        return out
    return interp


def test_cone_iteration_plans_match_fresh_applications(sys_b, eig_b,
                                                       monkeypatch):
    # d's base-node plan is built once per run, and every d advance adds a
    # plan of its window nodes alone; each advance must keep the bits of one
    # plan made afresh over its merged node sets, and agree with the
    # per-branch sums.  v's step matrix, built once per run, must agree with
    # per-branch sums of the Lagrange interpolant on each branch's own
    # element.  The applied function is read at the call: the bump factor's
    # closure moves on with the iteration.
    monkeypatch.setattr(dg, "_BASE_N", 2048)
    advance = dg._advance
    seen = []

    def checked(sys, eig, base, base_plan, windows, g_eval):
        nodes, vals = advance(sys, eig, base, base_plan, windows, g_eval)
        fresh = BranchPlan(sys_b, eig_b, 0.0, 1, nodes).apply(g_eval, False)
        assert not fresh.imag.any()
        assert np.array_equal(np.concatenate(vals), fresh.real)
        _assert_close(fresh, np.concatenate(
            _apply_once(sys_b, eig_b, g_eval, nodes)))
        seen.append("d")
        return nodes, vals

    def step_checked(sys, eig, b, nodes):
        M = lagrange_step(sys, eig, b, nodes)
        g = 2.0 + np.sin(7.0 * nodes) + 0.5j * nodes
        per_branch = [_lagrange_on(*sys.element_interval(i), g[i])
                      for i in range(sys.m)]
        _assert_close(M @ g.reshape(-1), np.concatenate(
            _apply_once(sys_b, eig_b, per_branch, nodes, 256.0)))
        seen.append("v")
        return M

    monkeypatch.setattr(dg, "_advance", checked)
    monkeypatch.setattr(dg, "lagrange_step", step_checked)
    rep = cone_iteration(sys_b, eig_b, 256.0, m_max=2, delta=0.05,
                         Delta=None)
    assert seen == ["v"] + ["d"] * (2 * rep["n"])


def _v_grid_advances(sys, eig, b, k):
    """v_k = k applications of cone_iteration's step matrix to v_0 = 1 on
    its grid at |b|, as (m, N) node values."""
    N = int(max(dg._BASE_N, dg._V_NODES_PER_B * abs(b)))
    M = lagrange_step(sys, eig, b, node_grid(sys, N))
    w = np.ones(M.shape[0], dtype=complex)
    for _ in range(k):
        w = M @ w
    return w.reshape(sys.m, N)


def _v_against_depth_k(name, k, picks):
    """|v_k - exact| and max |exact| at the nodes ``picks`` (per element,
    indices into v's grid at b = 256), exact being one depth-k branch sum
    from v_0 = 1 (``BranchPlan``)."""
    sys = system(name)
    eig = eigendata(sys, 0.0, N=512)
    vk = _v_grid_advances(sys, eig, 256.0, k)
    nodes = node_grid(sys, vk.shape[1])
    exact = BranchPlan(sys, eig, 256.0, k, [
        nodes[e, p] for e, p in enumerate(picks)]).apply(
        lambda x: np.ones(np.shape(x)), True)
    got = np.concatenate([vk[e, p] for e, p in enumerate(picks)])
    return np.abs(got - exact), np.max(np.abs(exact))


# f jumps at 1/3 and 2/3 on SYS-C-NLROOF, and the pullback engine reads f at
# a preimage on a partition point from the element on its right: the depth-1
# weights of x = 1 (h_0(1) = 1/3, h_1(1) = 2/3) and the depth-k sums at the
# right end of element 1 take a wrong f.  At k = 8 the two disagree within
# 94 and 188 nodes of the right ends of elements 1 and 2.  Those right ends
# are read by the strict xfail below, not here.
@pytest.mark.parametrize("name, k, f_jumps", [("SYS-B", 9, ()),
                                               ("SYS-C-NLROOF", 8, (1, 2))])
def test_v_advances_match_exact_depth_k_sums(name, k, f_jumps):
    # k steps of the matrix from v_0 = 1 against one depth-k branch sum, at
    # random nodes of v's grid and the ends of its elements: an interior
    # breakpoint is the right end of one element and the left end of the
    # next, and the two read different branches.  Relative to max |exact|,
    # the 4-point stencil is 5e-10 (SYS-B) and 3e-11 (SYS-C-NLROOF) off; a
    # 2-point linear one is 3e-5 and 1e-5 off, and the monotone cubic
    # advance it replaced 1e-6 and 1e-7.  The random nodes keep 256 nodes
    # from every right end.
    N = int(dg._V_NODES_PER_B * 256.0)
    rng = np.random.default_rng(3)
    picks = [np.unique(np.concatenate([
        [0], rng.integers(1, N - 256, 14),
        [] if e in f_jumps else [N - 1]]).astype(int))
        for e in range(system(name).m)]
    err, scale = _v_against_depth_k(name, k, picks)
    assert np.max(err) <= 1e-8 * scale


@pytest.mark.xfail(strict=True, reason="the pullback engine reads f at a "
                   "preimage on a partition point from the element on its "
                   "right, and f jumps there")
def test_v_advances_match_exact_sums_where_f_jumps():
    N = int(dg._V_NODES_PER_B * 256.0)
    picks = [np.array([N - 1]) for _ in range(3)]
    err, scale = _v_against_depth_k("SYS-C-NLROOF", 2, picks)
    assert np.max(err) <= 1e-8 * scale


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C-NLROOF", "NL-DOUBLING"])
def test_v_step_maps_one_to_one_at_b_zero(name):
    sys = system(name)
    v1 = _v_grid_advances(sys, eigendata(sys, 0.0, N=256), 0.0, 1)
    assert np.max(np.abs(v1 - 1.0)) <= 1e-15


def test_v_step_build_holds_the_matrix_and_one_branch_at_a_time(sys_b,
                                                                eig_b):
    # at b = 1024 v's grid has 65,536 nodes per element, each in the image
    # of both SYS-B branches.  The build holds the matrix as filled (20.5
    # MiB; the zeros dropped at the end leave their room in its buffers,
    # so these are counted, not the entries kept) and the depth-1
    # pullback: each block's columns, x, S r and J (32 B a (branch, node)
    # pair, 8 MiB) until its branch is written, and the normaliser (8 B a
    # node, 1 MiB); beyond those, the temporaries of one chunk of
    # rows (``operator._collocation``).  Filled a whole branch at a time, a
    # dozen float64 arrays of a branch's pairs, it peaked at 36.5 MiB; built
    # from a BranchPlan, whose blocks and complex copies of J lived while
    # the matrix was filled, at 49.5 MiB
    import tracemalloc
    b = 1024.0
    nodes = node_grid(sys_b, int(dg._V_NODES_PER_B * b))
    lagrange_step(sys_b, eig_b, b, node_grid(sys_b, 64))  # lazy caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        M = lagrange_step(sys_b, eig_b, b, nodes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    matrix = sum((a if a.base is None else a.base).nbytes
                 for a in (M.data, M.indices, M.indptr))
    pullback = (4 * 8 * sys_b.m + 8) * nodes.size
    assert peak <= matrix + pullback + (1 << 20), (peak, matrix)


def test_cone_iteration_pulls_the_base_nodes_back_once(sys_b, eig_b,
                                                       monkeypatch,
                                                       small_grids):
    # every interior base node lies in the image of both SYS-B branches, so
    # its engine columns over a whole run are one per symbol: the base plan
    # is built once, and no window node repeats a base node
    import gibbsflow.system as system_mod
    columns = []

    class Counted(system_mod._Run):
        def __init__(self, sys, levels, ys, fields, *rest):
            # the plans' runs carry J; the cylinder ends of the bump
            # geometry and the transversal pairs do not
            if "J" in fields:
                columns.append(np.array(ys))
            super().__init__(sys, levels, ys, fields, *rest)

    monkeypatch.setattr(system_mod, "_Run", Counted)
    base_n = dg._BASE_N
    rep = cone_iteration(sys_b, eig_b, 256.0, m_max=2, delta=0.05,
                         Delta=None)
    base = np.concatenate([np.linspace(*sys_b.element_interval(e),
                                       base_n)[1:-1] for e in range(sys_b.m)])
    values, counts = np.unique(np.concatenate(columns), return_counts=True)
    at = np.searchsorted(values, base)
    assert np.array_equal(values[at], base)
    assert np.all(counts[at] == sys_b.m)
    # one call per symbol for v's plan, the base plan and each of the
    # 2 n advances' window plans, and no more
    assert len(columns) <= sys_b.m * (2 + 2 * rep["n"])


@pytest.mark.parametrize("m_max", [1, 2])
def test_cone_iteration_builds_one_interpolant_per_advance(sys_b, eig_b,
                                                           m_max,
                                                           monkeypatch,
                                                           small_grids):
    # a monotone cubic is built once per function, never per evaluation:
    # v_0 and v after each of the m_max steps, which build_bump and
    # _cone_test read between nodes (v's advances are matrix products), the
    # result of each of d's n m_max advances, and mu's density
    import gibbsflow.operator as op
    eig_b.f.eval(0.5)  # f's interpolant, built once per eigendata
    init = op.ElementwisePchip.__init__
    builds = [0]

    def counted(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(op.ElementwisePchip, "__init__", counted)
    rep = cone_iteration(sys_b, eig_b, 256.0, m_max=m_max, delta=0.05,
                         Delta=None)
    n = rep["n"]
    assert builds[0] == (1 + m_max) + n * m_max + 1


@pytest.mark.parametrize("name", ["SYS-C", "SYS-C-NLROOF"])
@pytest.mark.parametrize("b", [0.0, 300.0])
def test_plan_with_explicit_elements_matches_per_branch_sums(name, b):
    # node sets closed at both ends hold 1/3 and 2/3 twice: as the right
    # end of the element below and as the left end of the one above, and
    # different branches map into the two
    sys = system(name)
    eig = eigendata(sys, 0.0, N=256)
    nodes = _element_grids(sys, 5000)
    g = lambda x: 2.0 + np.sin(7.0 * np.asarray(x)) + 0.5j * np.asarray(x)
    got = BranchPlan(sys, eig, b, 1, nodes).apply(g, True)
    want = np.concatenate(_apply_once(sys, eig, g, nodes, b))
    _assert_close(got, want)
    # the two copies of each interior breakpoint take different sums
    for k in (5000, 10000):
        assert abs(want[k - 1] - want[k]) > 1e-3


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "SYS-C-NLROOF",
                                  "NL-DOUBLING"])
def test_plan_equals_the_per_symbol_loop(name, sigma):
    # column_blocks gives the plan of one engine call per symbol, with its
    # normaliser, bit for bit
    sys = system(name)
    eig = eigendata(sys, sigma, N=128)
    nodes = _element_grids(sys, 129)
    for b in (0.0, 256.0):
        for n in (1, 3):
            plan = BranchPlan(sys, eig, b, n, nodes)
            blocks, norm = branch_plan_loop(sys, eig, b, n, nodes)
            assert np.array_equal(plan.norm, norm)
            assert len(plan.blocks) == len(blocks)
            for got, want in zip(plan.blocks, blocks):
                assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                           for g, w in zip(got, want))


def test_cone_iteration_aborts_on_constant_roof(sys_a, eig_a):
    with pytest.raises(NoCancellationWitness):
        cone_iteration(sys_a, eig_a, 256.0, m_max=2, delta=0.05, Delta=30.0)


# -- L1 contraction ---------------------------------------------------------------


def test_l1_contraction_sys_b(sys_b, eig_b):
    rep = l1_contraction(sys_b, eig_b, [2.0 ** 8, 2.0 ** 10, 2.0 ** 12], 1.0)
    c6 = c6_bound(eig_b)
    assert rep["C6"] == c6
    for row in rep["rows"]:
        assert row["ratio"] < 1.0
        assert row["ratio"] <= c6 * (1 + 1e-9)
    assert rep["xi_hat"] > 0.0


def test_l1_contraction_constant_roof_control(sys_a, eig_a):
    # at b = 2 pi q the twist of the unit roof is exp(-2 pi i q) = 1, so the
    # constant test function is fixed and the best ratio is exactly 1
    rep = l1_contraction(sys_a, eig_a, [2 * math.pi * 100], 1.0)
    assert rep["rows"][0]["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_l1_beta_gate_refuses(sys_a, eig_a):
    with pytest.raises(ConstraintViolationError):
        l1_contraction(sys_a, eig_a, [2.0], 1.0)


def test_l1_refuses_b_without_test_functions(sys_b, eig_b, monkeypatch):
    # b = 2 on SYS-B passes the beta gate at k = floor(log 2) = 0, where the
    # bound lam^0 = 1 admits no test function: no ratio, so no xi_b
    import gibbsflow.dolgopyat as dg
    calls = []
    monkeypatch.setattr(dg, "deep_apply",
                        lambda *args: calls.append(args) or {})
    with pytest.raises(ConstraintViolationError, match="b=2"):
        l1_contraction(sys_b, eig_b, [256.0, 2.0], 1.0)
    assert not calls


def _l1_one_pullback_per_q(sys, eig, b_list, beta=1.0):
    """l1_contraction's rows with one deep_apply per test function, and the
    number of test functions each b admits."""
    from gibbsflow.operator import deep_apply
    a, lam = sys.alpha, sys.constants.lam
    nodes = [eig.f.nodes[e] for e in range(sys.m)]
    wq = eig.mu.reshape(-1)
    rows, admitted = [], []
    for b in b_list:
        k = int(math.floor(beta * math.log(abs(b))))
        bound = lam ** (a * k / 16.0)
        worst, count = 0.0, 0
        for q in (0, 1, 2, 3, 5, 8):
            fn = lambda x, q=q: np.exp(2j * np.pi * q * np.asarray(x))
            semi = (2 * np.pi * q) ** a if q else 0.0
            if semi / (1.0 + abs(b) ** a) + 1.0 >= bound:
                continue
            out = deep_apply(sys, eig, b, k, nodes, {"Lv": fn})
            worst = max(worst, float(np.sum(wq * np.abs(out["Lv"]))))
            count += 1
        rows.append({"b": float(b), "k": k, "ratio": worst,
                     "xi_b": -math.log(worst) / (k * math.log(lam))})
        admitted.append(count)
    return rows, admitted


@pytest.mark.parametrize("name", ["SYS-B", "NL-DOUBLING"])
def test_l1_one_pullback_per_b_matches_one_per_q(name, sys_b, eig_b,
                                                 nl_doubling):
    s, eig = ((sys_b, eig_b) if name == "SYS-B"
              else (nl_doubling, eigendata(nl_doubling, 0.0, N=256)))
    b_list = [2.0 ** 6, 2.0 ** 8, 2.0 ** 10]
    rows, admitted = _l1_one_pullback_per_q(s, eig, b_list)
    # b = 64 skips some test functions (SYS-B admits q = 0, 1, NL-DOUBLING
    # only q = 0), and b = 1024 admits all six
    assert min(admitted) < 6 and max(admitted) > 1
    assert l1_contraction(s, eig, b_list, 1.0)["rows"] == rows


def test_l1_reads_each_node_in_the_element_of_its_row():
    # the nodes 1/3 and 2/3 end rows 0 and 1 of SYS-C-NLROOF, and
    # element_of puts each into the next element, whose branch set differs
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.0, N=64)
    xs = eig.f.nodes.reshape(-1)

    def worst(nodes):
        plan = BranchPlan(sys, eig, 256.0, 5, nodes)
        return max(float(np.sum(eig.mu.reshape(-1) * np.abs(plan.apply(
            lambda x, q=q: np.exp(2j * np.pi * q * np.asarray(x)), True))))
            for q in (0, 1, 2, 3, 5, 8))

    [row] = l1_contraction(sys, eig, [256.0], 1.0)["rows"]
    assert row["k"] == 5   # and b = 256 admits all six test functions
    assert row["ratio"] == worst(list(eig.f.nodes))
    assert worst(element_sets(sys, xs)) != row["ratio"]


def test_l1_matches_the_benchmark_reference(sys_b):
    # the CLI size (N = 512, b = 2^8..2^12, beta 1) of the contraction step
    # in perfbench/workloads.py, against perfbench/reference.json at the
    # 1e-12 tolerance of its correctness gate
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(path.read_text(encoding="utf-8"))["contraction:SYS-B:"]
    rep = l1_contraction(sys_b, eigendata(sys_b, 0.0, N=512),
                         [2.0 ** q for q in range(8, 13)], 1.0)
    assert [r["k"] for r in rep["rows"]] == want["k"]
    assert abs(rep["xi_hat"] - want["xi_hat"]) <= 1e-12


# -- operator norm sweep ------------------------------------------------------------


def test_norm_sweep_sys_b(sys_b, eig_b):
    rep = norm_contraction_sweep(sys_b, eig_b, [2.0 ** 8, 2.0 ** 10, 2.0 ** 12],
                                 1.0)
    assert rep["zeta_max"] < 1.0


def test_norm_sweep_rows_cost_four_powers_of_L_per_b(sys_b, eig_b,
                                                     monkeypatch):
    # each b runs the four power steps of L^ell and no other application of
    # L, wherever apply_L is looked up
    import gibbsflow.operator as op
    apply_L, depths = op.apply_L, {}

    def counted(eig, b, v, n):
        depths[b] = depths.get(b, 0) + n
        return apply_L(eig, b, v, n)

    monkeypatch.setattr(op, "apply_L", counted)
    monkeypatch.setattr(dg, "apply_L", counted)
    rep = norm_contraction_sweep(sys_b, eig_b, [64.0, 256.0], 1.0)
    assert [set(row) for row in rep["rows"]] == [
        {"b", "ell", "ratio", "zeta_hat"}] * 2
    assert depths == {row["b"]: 4 * row["ell"] for row in rep["rows"]}


def test_norm_sweep_constant_roof_no_contraction(sys_a, eig_a):
    rep = norm_contraction_sweep(sys_a, eig_a, [2 * math.pi], 1.0)
    assert rep["rows"][0]["zeta_hat"] == pytest.approx(1.0, abs=1e-6)


def _sweep_one_trial_at_a_time(sys, eig, b_list, B=1.0, trials=200,
                               power_iters=4, seed=0):
    """The sweep's earlier definition, a random search before the power
    steps: trial 0 is the constant 1, trial t > 0 is sum_{q < 12} c_q exp(2
    pi i q x) with c_q = (g + i g') / (1 + q), and the power steps start
    from the trial of largest ratio.  Each trial is built, mapped and normed
    alone.  Returns the rows and, per b, the ratio of every trial.

    Each mode is bound to a name before it is scaled.  Written as
    ``c * np.exp(...)``, numpy reuses the unnamed temporary for the product
    once it reaches 256 KiB, and that in-place product rounds differently
    in the last bit; the sum would then depend on the array size.
    """
    from gibbsflow.operator import GridFunction, apply_L, norm_b
    rng = np.random.default_rng(seed)
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
        results.append({"b": float(b), "ell": ell, "ratio": best,
                        "zeta_hat": best ** (1.0 / ell)})
    return results, all_ratios


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C-NLROOF", "NL-DOUBLING"])
def test_norm_sweep_from_one_matches_sixty_random_trials(name):
    # the old definition searched 59 random Fourier trials and the constant
    # 1 for the largest ratio before the power steps; the constant wins at
    # every b, so the power steps from 1 alone give the same rows
    sys = system(name)
    eig = eigendata(sys, 0.0, N=256)
    b_list = [64.0, 128.0, 256.0]
    rep = norm_contraction_sweep(sys, eig, b_list, 1.0)
    rows, ratios = _sweep_one_trial_at_a_time(sys, eig, b_list, trials=60)
    assert rep["rows"] == rows
    for per_b in ratios:
        assert per_b[0] == max(per_b)
