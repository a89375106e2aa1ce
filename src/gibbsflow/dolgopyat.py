"""Oscillatory-cancellation machinery for the twisted operators L_{sigma+ib}.

The chain audited here: a frequency-adapted cone of pairs (u, v), bump
functions chi built from transversal branch pairs, the cancellation
inequality |L^n_s v| <= L^n_sigma(chi u), its preservation under iteration
with contraction of int u^2 dmu, L^1 contraction over a b-sweep, and an
empirical operator-norm rate in the b-adapted norm: zeta_hat(b), the ell-th
root of the largest ratio ||L^ell w||_(b) / ||w||_(b) over four power steps
from w = 1, a lower bound on ||L^ell_s||^{1/ell}.

Numerical strategy: the bump supports have width ~ delta/(|b| rho^n), far
below any fixed grid.  All quantities that live on those scales are tracked
through the deviation d = 1 - u, on node sets refined inside a moving family
of windows (the forward images of the bump supports), so the contraction
signal, of order 1e-11 per step, is resolved as a small positive number with
only relative quadrature error.  Every application of the operator to d and
in the cancellation check is an exact branch sum of the pullback engine
through ``operator.BranchPlan`` at per-element node sets.  v lives on a fixed
uniform grid, so its step is one matrix per run: the exact depth-1 branch
weights composed with a 4-point cubic Lagrange stencil at the preimages
(``operator.lagrange_step``).  d keeps monotone cubics (PCHIP): it needs
interpolation that does not overshoot, and its node sets move with the
windows at every step.  One test of the four cone conditions (``_cone_test``)
decides cone membership.

The bumps of one run share their geometry: the adapted partition, each
element's transversal pair and the candidate balls pulled back along it
depend on (system, b, delta, Delta) alone, so ``bump_geometry`` builds them
once, and each step's ``build_bump`` only reads u and v there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import adapted_partition
from .operator import (BranchPlan, EigenData, ElementwisePchip, GridFunction,
                       apply_L, c6_bound, deep_apply, eigendata,
                       hoelder_seminorm, lagrange_step, node_grid, norm_b)
from .system import MarkovSystem, branch_chain, sampled_seminorm
from .uni import transversal_pair, transversal_scales

__all__ = [
    "BumpFunction", "BumpGeometry", "ConstraintViolationError",
    "NoCancellationWitness", "ETA0", "c0_constant", "constraint_gates",
    "bump_geometry", "build_bump", "cancellation_check", "cone_iteration",
    "l1_contraction", "norm_contraction_sweep",
]

ETA0 = 0.5 * (math.sqrt(7.0) - 1.0)

# cone_iteration's grids: d's base nodes and v's nodes per |b|, per element
_BASE_N = 4096
_V_NODES_PER_B = 64


class ConstraintViolationError(ValueError):
    """A delta/beta admissibility inequality fails; the run is refused."""


class NoCancellationWitness(RuntimeError):
    def __init__(self, message: str, q_index: int | None = None):
        super().__init__(message)
        self.q_index = q_index


# -- constants and gates -------------------------------------------------------


def c0_constant(sys: MarkovSystem, eig0: EigenData) -> float:
    """Cone-regularity constant

        C0 = 4 |1/f|_inf |f|_alpha + 2 (|phi|_alpha + |r|_alpha) * (1 - lam^-a)

    where |.|_alpha are Hoelder seminorms; a floor of 0.1 keeps the cone
    nondegenerate when all seminorms vanish.
    """
    a = sys.alpha
    c = sys.constants
    fmin = float(eig0.f.values.real.min())
    semi_f = hoelder_seminorm(eig0.f)
    tail = (c.semi_phi + c.semi_r) * (1.0 - c.lam ** (-a))
    return max(4.0 * (1.0 / fmin) * semi_f + 2.0 * tail, 0.1)


def constraint_gates(sys: MarkovSystem, delta: float, c0: float) -> None:
    """Admissibility inequalities for the cancellation construction; raises
    ConstraintViolationError when any fails:

        C0 delta^a < 1/6,  (2/3) e^{C0 delta^a} < eta0,  C7 delta < pi/6.

    ``c0`` is ``c0_constant``'s C0.  The beta gate of a swept b is
    ``l1_contraction``'s.
    """
    a = sys.alpha
    c7 = sys.constants.c7
    checks = {
        "c0_delta": (c0 * delta ** a, 1.0 / 6.0),
        "eta_gap": ((2.0 / 3.0) * math.exp(c0 * delta ** a), ETA0),
        "c7_delta": (c7 * delta, math.pi / 6.0),
    }
    bad = {k: v for k, v in checks.items() if not v[0] < v[1] * (1 + 1e-12)}
    if bad:
        raise ConstraintViolationError(f"constraint gate failed: {bad}")


# -- the cone ------------------------------------------------------------------


def _cone_test(sys: MarkovSystem, u, v, K: float, node_sets) -> dict:
    """Cone membership of (u, v), callables on points (u real, v complex),
    read at ``node_sets``, one array of points per element; returns the worst
    margin of each condition (>= 0 means satisfied) and whether all hold:

        u > 0,  |v| <= u,  |log u|_alpha <= K,
        |v(x) - v(y)| <= K u(y) d(x, y)^alpha,   K = C0 |b|^alpha.

    Both seminorms are ``sampled_seminorm`` of an element's samples, which
    at alpha < 1 can read low.  The last condition is read through
    |v|_alpha <= K inf u, which implies it.
    """
    a = sys.alpha
    margins = dict.fromkeys(
        ("positivity", "dominates_v", "log_u_hoelder", "v_hoelder"), np.inf)
    for xs in node_sets:
        ux = np.real(np.asarray(u(xs)))
        vx = np.asarray(v(xs))
        u_min = float(ux.min())
        here = {"positivity": u_min,
                "dominates_v": float(np.min(ux - np.abs(vx))),
                "log_u_hoelder": (K - sampled_seminorm(xs, np.log(ux), a)
                                  if u_min > 0 else -np.inf),
                "v_hoelder": K * u_min - sampled_seminorm(xs, vx, a)}
        margins = {k: min(margins[k], here[k]) for k in margins}
    return {"ok": all(m >= -1e-8 for m in margins.values()),
            "margins": margins}


# -- bump functions --------------------------------------------------------------


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class BumpFunction:
    """C^1 cutoff equal to 1 off the supports and eta on the plateaus, with
    cubic ramps; |chi'| <= |b| is enforced through the choice of eta."""
    eta: float
    plateaus: list
    supports: list
    balls: list                     # forward-image balls B(x_j, delta/2|b|)
    cases: list
    n: int

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for (slo, shi), (plo, phi) in zip(self.supports, self.plateaus):
            val = np.ones_like(x)
            left = (x >= slo) & (x < plo)
            val[left] = 1.0 - (1.0 - self.eta) * _smoothstep(
                (x[left] - slo) / (plo - slo))
            mid = (x >= plo) & (x <= phi)
            val[mid] = self.eta
            right = (x > phi) & (x <= shi)
            val[right] = 1.0 - (1.0 - self.eta) * _smoothstep(
                (shi - x[right]) / (shi - phi))
            out = np.minimum(out, val)
        return out


@dataclass
class BumpGeometry:
    """What the bumps of a run depend on besides u and v (``bump_geometry``):
    b and, per adapted-partition element, transversal word h (w, then wbar),
    candidate centre x1 and point z of its sub-grid of B(x1, delta/|b|),
    ``x`` = h(z), ``ends`` = the sorted ends of h(B(x1, delta/6|b|)) and
    h(B(x1, delta/2|b|)), ``bpsi`` = b (S_n r(h_w z) - S_n r(h_wbar z)) and
    ``balls`` = the ends of B(x1, delta/2|b|)."""
    b: float
    n: int
    Delta: float
    x: np.ndarray           # (elements, 2, candidates, sub-grid)
    ends: np.ndarray        # (elements, 2, candidates, 2, 2)
    bpsi: np.ndarray        # (elements, candidates, sub-grid)
    balls: np.ndarray       # (elements, candidates, 2)


def bump_geometry(sys: MarkovSystem, b: float, delta: float, c0: float,
                  Delta: float | None) -> BumpGeometry:
    """The geometry of every bump of one cancellation run.

    Checks the gates (``constraint_gates``) and takes n2, the depth-n2
    tails and, when Delta is None, Delta from ``transversal_scales``, n1 =
    floor(log |b|) and n = n1 + n2.  For each adapted-partition element
    Q_j: pick a transversal pair of depth-n2 tails at the centre, extended
    to depth-n words, with their common domain (``transversal_pair``), and
    place 64 candidates x1 across Q_j in that domain, each with a 32-point
    sub-grid of B(x1, delta/|b|); a Q_j whose part in the domain is
    shorter than 2 delta/|b| holds no candidate and is refused with
    ConstraintViolationError.  One ``branch_chain`` per word pulls back
    every sub-grid point and every candidate's plateau and support ends.
    """
    if sys.constants.c7 == 0.0:
        raise NoCancellationWitness(
            "constant roof: cone images are lines, no transversal pairs")
    constraint_gates(sys, delta, c0)
    n2, Delta_scale, tails = transversal_scales(sys, delta)
    if Delta is None:
        Delta = Delta_scale
    n1 = int(math.floor(math.log(abs(b))))
    part = adapted_partition(sys, b, Delta)
    rad = delta / abs(b)
    scan, sub_grid = 64, 32
    offsets = np.linspace(-rad, rad, sub_grid)
    xs, ends, bpsi, balls = [], [], [], []
    for j, (qlo, qhi) in enumerate(zip(part.left.tolist(),
                                       part.right.tolist())):
        found = transversal_pair(sys, tails, n1, 0.5 * (qlo + qhi))
        if found is None:
            raise NoCancellationWitness(
                f"Q_{j}: no transversal tail pair at depth {n2}", j)
        words, (dlo, dhi) = found
        lo, hi = max(qlo, dlo), min(qhi, dhi)
        if lo + rad > hi - rad:
            raise ConstraintViolationError(
                f"Q_{j} has width {hi - lo:.6g} in its pair's domain, below "
                f"2 delta/|b| = {2 * rad:.6g}: no candidate ball fits")
        x1s = np.linspace(lo + rad, hi - rad, scan)
        zs = np.clip(x1s[:, None] + offsets[None, :],
                     max(dlo, 0.0), min(dhi, 1.0))
        ball = np.stack([x1s - rad / 2.0, x1s + rad / 2.0], axis=1)
        ys = np.concatenate([zs.reshape(-1), x1s - rad / 6, x1s + rad / 6,
                             ball[:, 0], ball[:, 1]])
        chains = [branch_chain(sys, w, ys) for w in words]
        grid = zs.size
        xs.append([ch["x"][:grid].reshape(zs.shape) for ch in chains])
        ends.append([np.sort(ch["x"][grid:].reshape(2, 2, scan).transpose(
            2, 0, 1), axis=2) for ch in chains])
        bpsi.append((b * (chains[0]["Snr"][:grid] - chains[1]["Snr"][:grid])
                     ).reshape(zs.shape))
        balls.append(ball)
    return BumpGeometry(b=b, n=n1 + n2, Delta=Delta, x=np.array(xs),
                        ends=np.array(ends), bpsi=np.array(bpsi),
                        balls=np.array(balls))


def build_bump(geom: BumpGeometry, u, v) -> BumpFunction:
    """Pick each element's cancellation witness for (u, v), callables on
    points, on the run's geometry and assemble the bump.

    In each Q_j the first candidate x1 is taken whose sub-grid of B(x1,
    delta/|b|) either (a) keeps the phase difference b psi + arg v(h x) -
    arg v(hbar x) at distance >= pi/3 from 2 pi Z, or (b) has |v| <= (3/4)
    u at one branch's preimages; (a) on any candidate goes first, then (b)
    on w, then (b) on wbar.  The winner's images of B(x1, delta/6|b|) and
    B(x1, delta/2|b|) become plateau and support.
    """
    flat = geom.x.reshape(-1)
    u = np.real(np.asarray(u(flat))).reshape(geom.x.shape)
    v = np.asarray(v(flat)).reshape(geom.x.shape)
    phase = (geom.bpsi + np.angle(v[:, 0] + 1e-300)
             - np.angle(v[:, 1] + 1e-300))
    dist = np.abs(np.mod(phase + np.pi, 2 * np.pi) - np.pi)
    with np.errstate(invalid="ignore"):
        case_b = np.all(np.abs(v) <= 0.75 * u, axis=3)
    # per element and candidate: (a), (b) on w, (b) on wbar
    holds = np.concatenate(
        [np.all(dist >= np.pi / 3.0, axis=2)[:, None], case_b], axis=1)
    held = holds.any(axis=2)
    if not held.any(axis=1).all():
        j = int(np.argmin(held.any(axis=1)))
        raise NoCancellationWitness(f"Q_{j}: no cancellation case holds", j)
    first = np.argmax(held, axis=1)
    rows = np.arange(len(first))
    k = np.argmax(holds[rows, first], axis=1)
    plateaus, supports = geom.ends[rows, (first == 2).astype(int), k
                                   ].transpose(1, 0, 2)
    w_min = float(min((plateaus[:, 0] - supports[:, 0]).min(),
                      (supports[:, 1] - plateaus[:, 1]).min()))
    return BumpFunction(
        eta=max(ETA0, 1.0 - abs(geom.b) * w_min / 1.5),
        plateaus=list(map(tuple, plateaus.tolist())),
        supports=list(map(tuple, supports.tolist())),
        balls=list(map(tuple, geom.balls[rows, k].tolist())),
        cases=["a" if f == 0 else "b" for f in first.tolist()], n=geom.n)


def _check_points(bump: BumpFunction) -> np.ndarray:
    xs = [np.linspace(1e-9, 1 - 1e-9, 1024)]
    for lo, hi in bump.balls:
        xs.append(np.linspace(max(lo, 0.0), min(hi, 1.0), 64))
    return np.unique(np.concatenate(xs))


def cancellation_check(sys: MarkovSystem, eig: EigenData, b: float, u, v,
                       bump: BumpFunction) -> dict:
    """Verify |L^n_s v| <= L^n_sigma(chi u), s = sigma + i b, pointwise via
    exact depth-n branch sums at 1024 points of [0, 1] and 64 inside each
    forward-image ball, each in the element ``element_of`` names."""
    xs = _check_points(bump)
    plan = BranchPlan(sys, eig, b, bump.n,
                      np.split(xs, np.searchsorted(xs, sys.partition[1:-1])))
    margin = (np.real(plan.apply(lambda x: bump(x) * u(x), False))
              - np.abs(plan.apply(v, True)))
    worst = float(margin.min())
    return {"ok": bool(worst >= -1e-9), "margin": worst,
            "argmin": float(xs[int(np.argmin(margin))]), "points": len(xs)}


# -- windowed piecewise representation -------------------------------------------
# Functions on the windowed node sets are ``operator.ElementwisePchip``
# interpolants: one PPoly over all elements' non-uniform nodes.


def _window_nodes(sys: MarkovSystem, base, windows):
    """Per element, the refinement nodes of ``windows`` not in ``base``: 192
    over each window's part in the element, padded by a quarter of it."""
    sets = []
    for e in range(sys.m):
        lo, hi = sys.element_interval(e)
        pts = [np.empty(0)]
        for wlo, whi in windows:
            a, b = max(wlo, lo), min(whi, hi)
            if b > a:
                pad = 0.25 * (b - a)
                pts.append(np.linspace(max(a - pad, lo), min(b + pad, hi), 192))
        sets.append(np.setdiff1d(np.concatenate(pts), base[e]))
    return sets


def _map_windows(sys: MarkovSystem, windows):
    """Forward images under T of the refinement windows, merged and capped:
    images 0.05 wide or wider are dropped, and at most 256 are kept."""
    out = []
    for wlo, whi in windows:
        cuts = np.unique(np.concatenate(
            [[wlo, whi], sys.partition[(sys.partition > wlo)
                                       & (sys.partition < whi)]]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            e = int(sys.element_of(mid))
            ta = float(sys.T[e].value(x=a + (b - a) * 1e-12))
            tb = float(sys.T[e].value(x=b - (b - a) * 1e-12))
            lo, hi = (ta, tb) if ta <= tb else (tb, ta)
            if hi - lo < 0.05:
                out.append((max(lo, 0.0), min(hi, 1.0)))
    out.sort()
    merged = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged[:256]


def _advance(sys: MarkovSystem, eig: EigenData, base, base_plan, windows, fn):
    """One application of L_sigma to ``fn`` at the ``base`` nodes joined with
    the window nodes of ``windows`` (``_window_nodes``): per element, the
    nodes in increasing order and the real values there.  ``base_plan`` is
    the base nodes' plan; the window nodes get a plan of their own."""
    extra = _window_nodes(sys, base, windows)
    on_base = base_plan.apply(fn, False).real.reshape(base.shape)
    on_extra = np.split(BranchPlan(sys, eig, 0.0, 1, extra).apply(
        fn, False).real, np.cumsum([len(x) for x in extra])[:-1])
    nodes, vals = [], []
    for xb, xw, yb, yw in zip(base, extra, on_base, on_extra):
        xs = np.concatenate([xb, xw])
        order = np.argsort(xs, kind="stable")
        nodes.append(xs[order])
        vals.append(np.concatenate([yb, yw])[order])
    return nodes, vals


def _mu_density(eig: EigenData):
    """Density of mu with respect to Lebesgue, interpolated from the
    eigenvector quadrature weights."""
    h = np.diff(eig.f.nodes[:, :2])
    w = np.repeat(h, eig.N, axis=1)
    w[:, [0, -1]] = h / 2.0
    return GridFunction(eig.system, eig.mu / w)


def _integrate_mu(d_eval, node_sets, dens):
    """(int d dmu, int d^2 dmu) by the trapezoid rule on each node set."""
    I = J = 0.0
    for xs in node_sets:
        d = np.real(np.asarray(d_eval(xs)))
        rho = np.real(dens.eval(xs))
        I += float(np.trapezoid(d * rho, xs))
        J += float(np.trapezoid(d ** 2 * rho, xs))
    return I, J


# -- cone iteration ---------------------------------------------------------------


def cone_iteration(sys: MarkovSystem, eig: EigenData, b: float, m_max: int,
                   delta: float, Delta: float | None) -> dict:
    """Iterate u_{m+1} = L^n_sigma(chi_m u_m), v_{m+1} = L^n_s v_m from
    (u_0, v_0) = (1, 1), picking the bump chi_m from u_m and v_m each step
    (``build_bump``) on one ``bump_geometry`` built before the first.

    u is tracked through d = 1 - u: since the normalised operator fixes 1
    exactly, d_{m+1} = L^n(d_m + (1 - chi_m)(1 - d_m)) with the bump factor
    evaluated analytically, on node sets refined inside the forward images
    of the bump supports.  Records int u_m^2 dmu, the per-step ratio
    tau_hat_m, and the margins of the four cone conditions (``_cone_test``)
    on v's nodes joined with d's.  C0 is ``c0_constant``; n and Delta are
    the geometry's.

    d's applications are exact depth-1 branch sums of ``BranchPlan``s at
    per-element node sets closed at both ends: the plan of its _BASE_N fixed
    nodes per element is built once per run, and each of its n m_max
    advances (``_advance``) pulls back only the window nodes it joins to the
    base nodes, and is read between nodes as a monotone cubic, which does
    not overshoot.  v's step is one matrix, built once per run from the
    depth-1 pullback of its uniform grid (``lagrange_step``): exact branch
    weights times 4-point cubic Lagrange weights at the preimages, so each
    of its n m_max advances is one sparse product.  v is read between nodes
    (``build_bump``, ``_cone_test``) through ``GridFunction.eval``.
    """
    c0 = c0_constant(sys, eig)
    K = c0 * abs(b) ** sys.alpha
    geom = bump_geometry(sys, b, delta, c0, Delta)
    dens = _mu_density(eig)

    # v lives on a uniform grid resolving the 1/b oscillation scale
    nv = int(max(_BASE_N, _V_NODES_PER_B * abs(b)))
    v = GridFunction(sys, np.ones((sys.m, nv), dtype=complex))
    v_step = lagrange_step(sys, eig, b, v.nodes)
    base = node_grid(sys, _BASE_N)
    base_plan = BranchPlan(sys, eig, 0.0, 1, base)
    d_eval = lambda x: np.zeros(np.asarray(x, dtype=float).shape)
    u_eval = lambda x: 1.0 - np.real(np.asarray(d_eval(x)))
    windows: list = []
    trace = []
    int_u2 = 1.0
    for m in range(m_max):
        bump = build_bump(geom, u_eval, v.eval)

        # advance d through n exact depth-1 applications; the first maps
        # the bump factor, called only before d_eval and bump move on
        def cur_eval(x):
            d = np.real(np.asarray(d_eval(x)))
            return d + (1.0 - bump(x)) * (1.0 - d)

        windows = sorted(set(windows) | set(bump.supports))
        for _ in range(geom.n):
            windows = _map_windows(sys, windows)
            nodes, vals = _advance(sys, eig, base, base_plan, windows,
                                   cur_eval)
            cur_eval = ElementwisePchip(sys, nodes, vals).eval
        d_eval = cur_eval

        # advance v through n products with the run's one step matrix
        w = v.values.reshape(-1)
        for _ in range(geom.n):
            w = v_step @ w
        v = v.copy_with(w.reshape(v.values.shape))

        I_next, J_next = _integrate_mu(d_eval, nodes, dens)
        int_u2_next = 1.0 - 2.0 * I_next + J_next
        tau_hat = int_u2_next / int_u2

        cone = _cone_test(sys, u_eval, v.eval, K, [
            np.unique(np.concatenate([v.nodes[e], nodes[e]]))
            for e in range(sys.m)])
        trace.append({
            "m": m, "int_u2": int_u2_next, "tau_hat": tau_hat,
            "I": I_next, "J": J_next, "margins": cone["margins"],
            "cone_ok": cone["ok"], "cases": list(bump.cases),
            "eta": bump.eta, "partition_size": len(bump.supports),
        })
        int_u2 = int_u2_next

    return {"b": b, "n": geom.n, "delta": delta, "C0": c0,
            "Delta": geom.Delta, "steps": trace,
            "tau_hats": [t["tau_hat"] for t in trace],
            "all_contracting": bool(all(t["tau_hat"] < 1.0 for t in trace)),
            "all_in_cone": bool(all(t["cone_ok"] for t in trace))}


# -- L1 contraction sweep -----------------------------------------------------------


def l1_contraction(sys: MarkovSystem, eig: EigenData, b_list,
                   beta: float) -> dict:
    """For each b: k = floor(beta log |b|); over the test functions exp(2 pi
    i q x), q in (0, 1, 2, 3, 5, 8), that satisfy ||v||_(b) < lam^{a k/16}
    ||v||_inf, report max ||L^k_s v||_{L1(mu)} / ||v||_inf, and fit the decay
    exponent xi_hat from log-ratio against k log lam.

    Per b, one ``deep_apply`` pulls the eigendata's nodes, each row the node
    set of its element (an element's right end included), back along the
    depth-k words once and applies the twisted operator to every admissible
    test function, so each ratio has the bits of a pullback made for it
    alone.  The a priori bound C6 on every ratio is returned beside the
    rows, for the caller to check.  A b that fails
    the beta gate, or that admits no test function (k <= 0, where the bound
    is at most 1), is refused with ConstraintViolationError before any
    pullback runs.
    """
    a = sys.alpha
    lam = sys.constants.lam
    c0 = c0_constant(sys, eig)
    plans = []
    for b in b_list:
        k = int(math.floor(beta * math.log(abs(b))))
        bound = lam ** (a * k / 16.0)
        if not bound <= c0 * abs(b) ** a * (1 + 1e-12):
            raise ConstraintViolationError(
                f"beta gate fails at b={b}: lam^(a k/16) > C0 |b|^a")
        qs = [q for q in (0, 1, 2, 3, 5, 8)
              if ((2 * np.pi * q) ** a if q else 0.0) / (1.0 + abs(b) ** a)
              + 1.0 < bound]
        if not qs:
            raise ConstraintViolationError(
                f"no admissible test function at b={b}: k = {k}, and every "
                f"||v||_(b) is at least lam^(a k/16) = {bound:g} ||v||_inf")
        plans.append((b, k, qs))
    c6 = c6_bound(eig)
    wq = eig.mu.reshape(-1)
    rows = []
    for b, k, qs in plans:
        out = deep_apply(sys, eig, b, k, eig.f.nodes, {
            q: lambda x, q=q: np.exp(2j * np.pi * q * np.asarray(x))
            for q in qs})
        worst = max(float(np.sum(wq * np.abs(out[q]))) for q in qs)
        xi_b = -math.log(worst) / (k * math.log(lam)) if worst > 0 else math.inf
        rows.append({"b": float(b), "k": k, "ratio": worst, "xi_b": xi_b})
    ks = np.array([r["k"] for r in rows], dtype=float) * math.log(lam)
    ys = -np.log(np.array([max(r["ratio"], 1e-300) for r in rows]))
    xi_hat = float(ks @ ys / (ks @ ks)) if np.any(ks) else 0.0
    return {"rows": rows, "xi_hat": xi_hat, "C6": c6}


def norm_contraction_sweep(sys: MarkovSystem, eig: EigenData, b_list,
                           B: float) -> dict:
    """Empirical lower-bound estimate of the operator norm of L^ell_s on the
    b-adapted norm, ell = ceil(B log |b|).

    Four power steps of L^ell run from w = 1 on the eigendata's nodes, each
    renormalised; zeta_hat(b) is the ell-th root of the largest step ratio
    ||L^ell w||_(b) / ||w||_(b).  That ratio is a lower bound on ||L^ell||, so
    zeta_hat(b) is a lower bound on ||L^ell||^{1/ell}.  The eigendata lives on
    N = 16 |b| nodes per element, clipped to [2048, 32768]; consecutive b
    with the same N share it.
    """
    results = []
    eg = None
    for b in b_list:
        ell = int(math.ceil(B * math.log(abs(b))))
        N = int(min(32768, max(2048, 16 * abs(b))))
        if eg is None or eg.N != N:
            eg = None  # released before the next one is built
            eg = eigendata(sys, eig.sigma, N=N)
        w = eg.f.copy_with(np.ones(eg.f.nodes.shape, dtype=complex))
        best = 0.0
        for _ in range(4):
            prev = norm_b(w, b)
            w = apply_L(eg, b, w, ell)
            cur = norm_b(w, b)
            best = max(best, cur / prev)
            w = w.copy_with(w.values / cur)
        results.append({"b": float(b), "ell": ell, "ratio": best,
                        "zeta_hat": best ** (1.0 / ell)})
    return {"rows": results, "zeta_max": max(r["zeta_hat"] for r in results)}
