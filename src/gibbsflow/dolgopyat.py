"""Oscillatory-cancellation machinery for the twisted operators L_{sigma+ib}.

The chain audited here: a frequency-adapted cone of pairs (u, v), bump
functions chi built from transversal branch pairs, the cancellation
inequality |L^n_s v| <= L^n_sigma(chi u), its preservation under iteration
with contraction of int u^2 dmu, L^1 contraction over a b-sweep, and an
empirical operator-norm contraction estimate in the b-adapted norm.

Numerical strategy: the bump supports have width ~ delta/(|b| rho^n), far
below any fixed grid.  All quantities that live on those scales are tracked
through the deviation d = 1 - u with exact depth-1 branch sums evaluated on
node sets refined inside a moving family of windows (the forward images of
the bump supports), so the contraction signal, of order 1e-11 per step, is
resolved as a small positive number with only relative quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .gibbs import adapted_partition
from .operator import (EigenData, GridFunction, c6_bound, deep_apply,
                       hoelder_seminorm, norm_b)
from .system import MarkovSystem, branch_chain, word_array
from .uni import _lam_rho, c7_constant, transversal_pair

__all__ = [
    "ConeBPair", "BumpFunction", "ConstraintViolationError",
    "NoCancellationWitness", "ETA0", "c0_constant", "constraint_gates",
    "in_cone_b", "build_bump", "cancellation_check", "cone_iteration",
    "l1_contraction", "norm_contraction_sweep",
]

ETA0 = 0.5 * (math.sqrt(7.0) - 1.0)


class ConstraintViolationError(ValueError):
    """A delta/beta admissibility inequality fails; the run is refused."""


class NoCancellationWitness(RuntimeError):
    def __init__(self, message: str, q_index: int | None = None):
        super().__init__(message)
        self.q_index = q_index


# -- constants and gates -------------------------------------------------------


def _sup_and_semi(sys: MarkovSystem, fns, grid: int = 2048) -> tuple[float, float]:
    sup, semi = 0.0, 0.0
    for e in range(sys.m):
        xs = np.linspace(*sys.element_interval(e), grid)
        vs = fns[e](x=xs) + 0.0 * xs
        sup = max(sup, float(np.max(np.abs(vs))))
        semi = max(semi, float(np.max(
            np.abs(np.diff(vs)) / np.diff(xs) ** sys.alpha)))
    return sup, semi


def c0_constant(sys: MarkovSystem, eig0: EigenData, variant: str = "multiply",
                floor: float = 0.1) -> dict:
    """Cone-regularity constant

        C0 = 4 |1/f|_inf |f|_alpha + 2 (|phi|_alpha + |r|_alpha) * (1 - lam^-a)

    where |.|_alpha are Hoelder seminorms.  variant="divide" replaces the
    trailing factor by division (the two readings of the defining formula);
    a positive floor keeps the cone nondegenerate when all seminorms vanish.
    """
    if variant not in ("multiply", "divide"):
        raise ValueError("variant must be 'multiply' or 'divide'")
    a = sys.alpha
    lam, _ = _lam_rho(sys)
    fmin = float(eig0.f.values.real.min())
    semi_f = hoelder_seminorm(eig0.f)
    _, semi_phi = _sup_and_semi(sys, sys._phi)
    _, semi_r = _sup_and_semi(sys, sys._r)
    factor = 1.0 - lam ** (-a)
    tail = (semi_phi + semi_r) * factor if variant == "multiply" \
        else (semi_phi + semi_r) / factor
    raw = 4.0 * (1.0 / fmin) * semi_f + 2.0 * tail
    floored = raw < floor
    return {"C0": max(raw, floor), "raw": raw, "variant": variant,
            "floored": floored, "floor": floor}


def constraint_gates(sys: MarkovSystem, eig0: EigenData, delta: float,
                     b_list=(), beta: float = 1.0, c0: float | None = None,
                     c7: float | None = None) -> dict:
    """Admissibility inequalities for the cancellation construction; raises
    ConstraintViolationError when any fails:

        C0 delta^a < 1/6,  (2/3) e^{C0 delta^a} < eta0,  C7 delta < pi/6,
        lam^{a floor(beta log|b|)/16} <= C0 |b|^a  for every swept b.
    """
    a = sys.alpha
    lam, _ = _lam_rho(sys)
    if c0 is None:
        c0 = c0_constant(sys, eig0)["C0"]
    if c7 is None:
        c7 = c7_constant(sys)["C7"]
    checks = {
        "c0_delta": (c0 * delta ** a, 1.0 / 6.0),
        "eta_gap": ((2.0 / 3.0) * math.exp(c0 * delta ** a), ETA0),
        "c7_delta": (c7 * delta, math.pi / 6.0),
    }
    for b in b_list:
        k = int(math.floor(beta * math.log(abs(b))))
        checks[f"beta_b_{b:g}"] = (lam ** (a * k / 16.0), c0 * abs(b) ** a)
    bad = {k: v for k, v in checks.items() if not v[0] < v[1] * (1 + 1e-12)}
    if bad:
        raise ConstraintViolationError(f"constraint gate failed: {bad}")
    return {k: {"value": v[0], "bound": v[1]} for k, v in checks.items()}


# -- the cone ------------------------------------------------------------------


@dataclass
class ConeBPair:
    """Pair (u, v) tested against the frequency-adapted cone at parameter b.

    u and v only need an eval(x) method (GridFunction or any interpolant).
    """
    u: object
    v: object
    b: float
    C0: float


def in_cone_b(pair: ConeBPair, grid: int = 2048, samples: int = 4096,
              seed: int = 0, system: MarkovSystem | None = None) -> dict:
    """Check cone membership; returns worst margins (>= 0 means satisfied):

        u > 0,  |v| <= u,  |log u|_alpha <= C0|b|^a,
        |v(x) - v(y)| <= C0|b|^a u(y) d(x,y)^a  on sampled pairs.
    """
    sys = system if system is not None else pair.u.system
    a = sys.alpha
    K = pair.C0 * abs(pair.b) ** a
    rng = np.random.default_rng(seed)
    m_pos = np.inf
    m_dom = np.inf
    m_logu = np.inf
    m_vh = np.inf
    for e in range(sys.m):
        lo, hi = sys.element_interval(e)
        xs = np.linspace(lo, hi - (hi - lo) * 1e-12, grid)
        u = np.real(np.asarray(pair.u.eval(xs)))
        v = np.asarray(pair.v.eval(xs))
        m_pos = min(m_pos, float(u.min()))
        m_dom = min(m_dom, float(np.min(u - np.abs(v))))
        if u.min() > 0:
            lg = np.log(u)
            d = np.abs(np.diff(lg)) / np.diff(xs) ** a
            m_logu = min(m_logu, K - float(d.max()))
            i = rng.integers(0, grid, samples)
            j = rng.integers(0, grid, samples)
            keep = i != j
            i, j = i[keep], j[keep]
            q = np.abs(lg[i] - lg[j]) / np.abs(xs[i] - xs[j]) ** a
            m_logu = min(m_logu, K - float(q.max()))
            gap = K * u[j] * np.abs(xs[i] - xs[j]) ** a - np.abs(v[i] - v[j])
            adj = K * u[1:] * np.diff(xs) ** a - np.abs(np.diff(v))
            m_vh = min(m_vh, float(gap.min()), float(adj.min()))
        else:
            m_logu = -np.inf
    margins = {"positivity": m_pos, "dominates_v": m_dom,
               "log_u_hoelder": m_logu, "v_hoelder": m_vh}
    ok = all(m >= -1e-9 for m in margins.values())
    return {"ok": bool(ok), "margins": margins}


# -- bump functions --------------------------------------------------------------


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class BumpFunction:
    """C^1 cutoff equal to 1 off the supports and eta on the plateaus, with
    cubic ramps; |chi'| <= |b| is enforced through the choice of eta."""
    b: float
    eta: float
    plateaus: list
    supports: list
    balls: list                     # forward-image balls B(x_j, delta/2|b|)
    winners: list
    cases: list
    n: int
    delta: float
    Delta: float
    slope_max: float = 0.0

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


def _default_depths(sys: MarkovSystem, b: float, delta: float,
                    beta: float = 1.0) -> tuple[int, int]:
    _, rho = _lam_rho(sys)
    n2 = int(math.floor(math.log(1.0 / delta) / math.log(rho)))
    n1 = int(math.floor(beta * math.log(abs(b))))
    return n1, n2


def build_bump(sys: MarkovSystem, eig: EigenData, pair: ConeBPair,
               delta: float, Delta: float | None = None, n: int | None = None,
               scan: int = 64, sub_grid: int = 32) -> tuple[BumpFunction, list]:
    """Search each adapted-partition element for a cancellation witness and
    assemble the bump.

    For each Q_j: pick a transversal pair of depth-n2 tails at the center,
    extend to depth-n words, and scan candidates x1 across Q_j until on the
    32-point sub-grid of B(x1, delta/|b|) either (a) the phase difference
    b psi + arg v(h x) - arg v(hbar x) stays at distance >= pi/3 from 2 pi Z,
    or (b) |v| <= (3/4) u on one branch's preimages.  The winner's images of
    B(x1, delta/6|b|) and B(x1, delta/2|b|) become plateau and support.
    """
    b = pair.b
    cs = c7_constant(sys)
    c7, rho = cs["C7"], cs["rho"]
    if c7 == 0.0:
        raise NoCancellationWitness(
            "constant roof: cone images are lines, no transversal pairs")
    constraint_gates(sys, eig, delta, c0=pair.C0, c7=c7)
    if Delta is None:
        Delta = 4.0 * math.pi / (c7 * delta)
    n1, n2 = _default_depths(sys, b, delta)
    if n is None:
        n = n1 + n2
    part = adapted_partition(sys, b, Delta)
    tails = word_array(sys, n2)
    ueval, veval = pair.u.eval, pair.v.eval
    rad = delta / abs(b)

    plateaus, supports, balls, winners, cases = [], [], [], [], []
    for j, q in enumerate(part.elements):
        qlo, qhi = q.left, q.right
        x0 = 0.5 * (qlo + qhi)
        found = transversal_pair(sys, tails, n1, x0, c7)
        if found is None:
            raise NoCancellationWitness(
                f"Q_{j}: no transversal tail pair at depth {n2}", j)
        w, wbar = found
        dlo = max(sys.image_interval(w[-1])[0], sys.image_interval(wbar[-1])[0])
        dhi = min(sys.image_interval(w[-1])[1], sys.image_interval(wbar[-1])[1])

        x1s = np.linspace(max(qlo, dlo) + rad, min(qhi, dhi) - rad, scan)
        zs = x1s[:, None] + np.linspace(-rad, rad, sub_grid)[None, :]
        zs = np.clip(zs, max(dlo, 0.0), min(dhi, 1.0))
        flat = zs.reshape(-1)
        ch1 = branch_chain(sys, w, flat)
        ch2 = branch_chain(sys, wbar, flat)
        v1 = np.asarray(veval(ch1["x"]))
        v2 = np.asarray(veval(ch2["x"]))
        u1 = np.real(np.asarray(ueval(ch1["x"])))
        u2 = np.real(np.asarray(ueval(ch2["x"])))
        phase = (b * (ch1["Snr"] - ch2["Snr"])
                 + np.angle(v1 + 1e-300) - np.angle(v2 + 1e-300))
        dist = np.abs(np.mod(phase + np.pi, 2 * np.pi) - np.pi)
        case_a = np.all(dist.reshape(scan, sub_grid) >= np.pi / 3.0, axis=1)
        with np.errstate(invalid="ignore"):
            rb1 = np.all((np.abs(v1) <= 0.75 * u1).reshape(scan, sub_grid), axis=1)
            rb2 = np.all((np.abs(v2) <= 0.75 * u2).reshape(scan, sub_grid), axis=1)
        if np.any(case_a):
            k = int(np.argmax(case_a))
            case, winner = "a", w
        elif np.any(rb1):
            k = int(np.argmax(rb1))
            case, winner = "b", w
        elif np.any(rb2):
            k = int(np.argmax(rb2))
            case, winner = "b", wbar
        else:
            raise NoCancellationWitness(f"Q_{j}: no cancellation case holds", j)
        x1 = float(x1s[k])
        ball = (x1 - rad / 2.0, x1 + rad / 2.0)
        pl = branch_chain(sys, winner, np.array([x1 - rad / 6, x1 + rad / 6]))["x"]
        sp = branch_chain(sys, winner, np.array(ball))["x"]
        plateaus.append((float(min(pl)), float(max(pl))))
        supports.append((float(min(sp)), float(max(sp))))
        balls.append(ball)
        winners.append(winner)
        cases.append(case)

    gaps = [p[0] - s[0] for p, s in zip(plateaus, supports)]
    gaps += [s[1] - p[1] for p, s in zip(plateaus, supports)]
    w_min = min(gaps)
    eta = max(ETA0, 1.0 - abs(b) * w_min / 1.5)
    bump = BumpFunction(b=b, eta=eta, plateaus=plateaus, supports=supports,
                        balls=balls, winners=winners, cases=cases, n=n,
                        delta=delta, Delta=Delta,
                        slope_max=1.5 * (1.0 - eta) / w_min)
    return bump, winners


def _check_points(sys: MarkovSystem, bump: BumpFunction | None,
                  base: int = 1024, per_ball: int = 64) -> np.ndarray:
    xs = [np.linspace(1e-9, 1 - 1e-9, base)]
    if bump is not None:
        for lo, hi in bump.balls:
            xs.append(np.linspace(max(lo, 0.0), min(hi, 1.0), per_ball))
    return np.unique(np.concatenate(xs))


def cancellation_check(sys: MarkovSystem, eig: EigenData, pair: ConeBPair,
                       bump: BumpFunction, xs: np.ndarray | None = None) -> dict:
    """Verify |L^n_s v| <= L^n_sigma(chi u) pointwise via exact depth-n
    branch sums; check points are refined inside the forward-image balls."""
    if xs is None:
        xs = _check_points(sys, bump)
    out = deep_apply(sys, eig, pair.b, bump.n, xs, [
        {"name": "Lv", "fn": pair.v.eval, "twist": True},
        {"name": "Lchiu", "fn": pair.u.eval, "chi": bump},
    ])
    margin = np.real(out["Lchiu"]) - np.abs(out["Lv"])
    worst = float(margin.min())
    return {"ok": bool(worst >= -1e-9), "margin": worst,
            "argmin": float(xs[int(np.argmin(margin))]), "points": len(xs)}


# -- windowed piecewise representation -------------------------------------------


class _ElementwisePchip:
    """Monotone-cubic interpolant on per-element, possibly non-uniform nodes."""

    def __init__(self, sys: MarkovSystem, node_list, value_list):
        self.system = sys
        self.nodes = node_list
        self.values = value_list
        self._interp = [
            (PchipInterpolator(n, v.real, extrapolate=True),
             PchipInterpolator(n, v.imag, extrapolate=True)
             if np.iscomplexobj(v) else None)
            for n, v in zip(node_list, value_list)]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        cplx = any(im is not None for _, im in self._interp)
        out = np.zeros(x.shape, dtype=complex if cplx else float)
        idx = self.system.element_of(x)
        for e in range(self.system.m):
            mask = idx == e
            if not np.any(mask):
                continue
            lo, hi = self.nodes[e][0], self.nodes[e][-1]
            z = np.clip(x[mask], lo, hi)
            re, im = self._interp[e]
            out[mask] = re(z) + (1j * im(z) if im is not None else 0.0)
        return out

    def sup_norm(self):
        return max(float(np.max(np.abs(v))) for v in self.values)


def _node_sets(sys: MarkovSystem, base_n: int, windows, fine_n: int = 192):
    sets = []
    for e in range(sys.m):
        lo, hi = sys.element_interval(e)
        pts = [np.linspace(lo, hi, base_n)]
        for wlo, whi in windows:
            a, b = max(wlo, lo), min(whi, hi)
            if b > a:
                pad = 0.25 * (b - a)
                pts.append(np.linspace(max(a - pad, lo), min(b + pad, hi), fine_n))
        sets.append(np.unique(np.concatenate(pts)))
    return sets


def _map_windows(sys: MarkovSystem, windows, width_cap: float = 0.05,
                 max_windows: int = 256):
    """Forward images under T of the refinement windows, merged and capped."""
    out = []
    for wlo, whi in windows:
        cuts = np.unique(np.concatenate(
            [[wlo, whi], sys.partition[(sys.partition > wlo)
                                       & (sys.partition < whi)]]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            e = int(sys.element_of(mid))
            ta = float(sys._T[e](x=a + (b - a) * 1e-12) + 0.0)
            tb = float(sys._T[e](x=b - (b - a) * 1e-12) + 0.0)
            lo, hi = (ta, tb) if ta <= tb else (tb, ta)
            if hi - lo < width_cap:
                out.append((max(lo, 0.0), min(hi, 1.0)))
    out.sort()
    merged = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged[:max_windows]


def _apply_once(sys: MarkovSystem, eig: EigenData, g_eval, xs_list, b: float = 0.0):
    """One application of the normalised operator at the given node sets,
    evaluated by exact branch sums (the twist uses the exact roof)."""
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
            r = sys._r[i](x=hx) + 0.0 * hx
            raw = np.exp((sys._phi[i](x=hx) + 0.0 * hx) - eig.sigma * r)
            raw = raw * np.real(np.asarray(feval(hx)))
            norm += raw
            term = raw * np.asarray(g_eval(hx))
            if b != 0.0:
                term = term * np.exp(-1j * b * r)
            acc += term
        out.append(acc / norm)
    return out


def _mu_density(eig: EigenData):
    """Density of mu with respect to Lebesgue, interpolated from the
    eigenvector quadrature weights."""
    sys = eig.system
    nodes, dens = [], []
    for e in range(sys.m):
        xs = eig.f.nodes[e]
        h = xs[1] - xs[0]
        w = np.full(xs.shape, h)
        w[0] = w[-1] = h / 2.0
        nodes.append(xs)
        dens.append(eig.mu[e] / w)
    return _ElementwisePchip(sys, nodes, dens)


def _integrate_mu(fn_eval, node_sets, dens):
    total = 0.0
    for xs in node_sets:
        vals = np.real(np.asarray(fn_eval(xs))) * np.real(dens.eval(xs))
        total += float(np.trapezoid(vals, xs))
    return total


# -- cone iteration ---------------------------------------------------------------


def cone_iteration(sys: MarkovSystem, eig: EigenData, b: float, m_max: int = 10,
                   delta: float = 0.05, Delta: float | None = None,
                   n: int | None = None, c0: float | None = None,
                   base_n: int = 4096, v_nodes_per_b: int = 64) -> dict:
    """Iterate u_{m+1} = L^n_sigma(chi_m u_m), v_{m+1} = L^n_s v_m from
    (u_0, v_0) = (1, 1), rebuilding the bump each step.

    u is tracked through d = 1 - u: since the normalised operator fixes 1
    exactly, d_{m+1} = L^n(d_m + (1 - chi_m)(1 - d_m)) with the bump factor
    evaluated analytically, on node sets refined inside the forward images
    of the bump supports.  Records int u_m^2 dmu, the per-step ratio
    tau_hat_m, and cone-membership margins.
    """
    if c0 is None:
        c0 = c0_constant(sys, eig)["C0"]
    if n is None:
        n1, n2 = _default_depths(sys, b, delta)
        n = n1 + n2
    a = sys.alpha
    K = c0 * abs(b) ** a
    cs = c7_constant(sys)
    Delta_used = Delta if Delta is not None else (
        4.0 * math.pi / (cs["C7"] * delta) if cs["C7"] > 0 else math.inf)
    dens = _mu_density(eig)

    # v lives on a uniform grid resolving the 1/b oscillation scale
    nv = int(max(base_n, v_nodes_per_b * abs(b)))
    v_nodes = [np.linspace(*sys.element_interval(e), nv) for e in range(sys.m)]
    v = _ElementwisePchip(sys, v_nodes,
                          [np.ones(nv, dtype=complex) for _ in range(sys.m)])
    d_eval = lambda x: np.zeros(np.asarray(x, dtype=float).shape)
    d_windows: list = []

    def u_eval(x):
        return 1.0 - np.real(np.asarray(d_eval(x)))

    trace = []
    int_u2 = 1.0
    for m in range(m_max):
        pair = ConeBPair(u=_Evalable(u_eval), v=v, b=b, C0=c0)
        bump, winners = build_bump(sys, eig, pair, delta, Delta, n)

        # advance d through n exact depth-1 applications
        cur_eval = lambda x, de=d_eval, bp=bump: (
            np.real(np.asarray(de(x)))
            + (1.0 - bp(x)) * (1.0 - np.real(np.asarray(de(x)))))
        windows = sorted(set(d_windows) | set(bump.supports))
        for _ in range(n):
            windows = _map_windows(sys, windows)
            nodes = _node_sets(sys, base_n, windows)
            vals = [np.real(arr) for arr in
                    _apply_once(sys, eig, cur_eval, nodes, b=0.0)]
            dfun = _ElementwisePchip(sys, nodes, vals)
            cur_eval = dfun.eval
        d_eval = cur_eval
        d_windows = windows
        d_nodes = nodes

        # advance v
        for _ in range(n):
            v_vals = _apply_once(sys, eig, v.eval, v_nodes, b=b)
            v = _ElementwisePchip(sys, v_nodes, v_vals)

        I_next = _integrate_mu(d_eval, d_nodes, dens)
        J_next = _integrate_mu(lambda x: np.real(np.asarray(d_eval(x))) ** 2,
                               d_nodes, dens)
        int_u2_next = 1.0 - 2.0 * I_next + J_next
        tau_hat = int_u2_next / int_u2

        # cone margins on the v-grid augmented by the refinement windows
        margins = {"dominates_v": np.inf, "positivity": np.inf,
                   "log_u_hoelder": np.inf}
        for e in range(sys.m):
            xs = np.unique(np.concatenate([v_nodes[e], d_nodes[e]]))
            uu = u_eval(xs)
            vv = np.abs(np.asarray(v.eval(xs)))
            margins["positivity"] = min(margins["positivity"], float(uu.min()))
            margins["dominates_v"] = min(margins["dominates_v"],
                                         float(np.min(uu - vv)))
            lg = np.log(uu)
            sl = np.abs(np.diff(lg)) / np.diff(xs) ** a
            margins["log_u_hoelder"] = min(margins["log_u_hoelder"],
                                           K - float(sl.max()))
        trace.append({
            "m": m, "int_u2": int_u2_next, "tau_hat": tau_hat,
            "I": I_next, "J": J_next, "margins": margins,
            "cone_ok": bool(all(v_ >= -1e-8 for v_ in margins.values())),
            "cases": list(bump.cases), "eta": bump.eta,
            "partition_size": len(bump.supports),
        })
        int_u2 = int_u2_next

    return {"b": b, "n": n, "delta": delta, "C0": c0,
            "Delta": Delta_used, "steps": trace,
            "tau_hats": [t["tau_hat"] for t in trace],
            "all_contracting": bool(all(t["tau_hat"] < 1.0 for t in trace)),
            "all_in_cone": bool(all(t["cone_ok"] for t in trace))}


class _Evalable:
    def __init__(self, fn):
        self.eval = fn


# -- L1 contraction sweep -----------------------------------------------------------


def l1_contraction(sys: MarkovSystem, eig: EigenData, b_list, beta: float = 1.0,
                   freqs=(0, 1, 2, 3, 5, 8), c0: float | None = None) -> dict:
    """For each b: k = floor(beta log |b|); over a family of Hoelder test
    functions satisfying ||v||_(b) < lam^{a k/16} ||v||_inf, report
    max ||L^k_s v||_{L1(mu)} / ||v||_inf, and fit the decay exponent xi_hat
    from log-ratio against k log lam."""
    a = sys.alpha
    lam, _ = _lam_rho(sys)
    if c0 is None:
        c0 = c0_constant(sys, eig)["C0"]
    for b in b_list:
        k = int(math.floor(beta * math.log(abs(b))))
        if not lam ** (a * k / 16.0) <= c0 * abs(b) ** a * (1 + 1e-12):
            raise ConstraintViolationError(
                f"beta gate fails at b={b}: lam^(a k/16) > C0 |b|^a")
    c6 = c6_bound(eig, lam)
    xs = np.concatenate([eig.f.nodes[e] for e in range(sys.m)])
    wq = eig.mu.reshape(-1)
    rows = []
    for b in b_list:
        k = int(math.floor(beta * math.log(abs(b))))
        bound = lam ** (a * k / 16.0)
        worst = 0.0
        for q in freqs:
            fn = lambda x, q=q: np.exp(2j * np.pi * q * np.asarray(x))
            semi = (2 * np.pi * q) ** a if q else 0.0
            if semi / (1.0 + abs(b) ** a) + 1.0 >= bound:
                continue
            out = deep_apply(sys, eig, b, k, xs, [
                {"name": "Lv", "fn": fn, "twist": True}])
            ratio = float(np.sum(wq * np.abs(out["Lv"])))
            if ratio > c6 * (1 + 1e-9):
                raise AssertionError("ratio exceeds the a priori C6 bound")
            worst = max(worst, ratio)
        xi_b = -math.log(worst) / (k * math.log(lam)) if worst > 0 else math.inf
        rows.append({"b": float(b), "k": k, "ratio": worst, "xi_b": xi_b})
    ks = np.array([r["k"] for r in rows], dtype=float) * math.log(lam)
    ys = -np.log(np.array([max(r["ratio"], 1e-300) for r in rows]))
    xi_hat = float(ks @ ys / (ks @ ks)) if np.any(ks) else 0.0
    return {"beta": beta, "rows": rows, "xi_hat": xi_hat, "C6": c6}


def norm_contraction_sweep(sys: MarkovSystem, eig: EigenData, b_list,
                           B: float = 1.0, trials: int = 200,
                           power_iters: int = 4, seed: int = 0) -> dict:
    """Empirical lower-bound estimate of the operator norm of L^ell_s on the
    b-adapted norm, ell = ceil(B log |b|): randomized maximization over
    Hoelder test functions plus power-iteration refinement; reports
    zeta_hat(b) = ratio^{1/ell}."""
    from .operator import apply_L, eigendata, lasota_yorke_audit
    rng = np.random.default_rng(seed)
    lam, _ = _lam_rho(sys)
    results = []
    for b in b_list:
        ell = int(math.ceil(B * math.log(abs(b))))
        N = int(min(32768, max(2048, 16 * abs(b))))
        eg = eigendata(sys, eig.sigma, N=N)
        nodes = np.stack([eg.f.nodes[e] for e in range(sys.m)])
        best = 0.0
        best_v = None
        for t in range(trials):
            if t == 0:
                vals = np.ones_like(nodes, dtype=complex)
            else:
                vals = np.zeros_like(nodes, dtype=complex)
                for q in range(12):
                    c = (rng.normal() + 1j * rng.normal()) / (1.0 + q)
                    vals += c * np.exp(2j * np.pi * q * nodes)
            v = GridFunction(sys, vals)
            denom = norm_b(v, b)
            w = apply_L(eg, b, v, ell)
            ratio = norm_b(w, b) / denom
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
    return {"B": B, "rows": results,
            "zeta_max": max(r["zeta_hat"] for r in results)}
