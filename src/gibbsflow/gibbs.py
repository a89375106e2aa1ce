"""Gibbs measures on the base map: cylinder masses, Gibbs-property audits,
sampling, adapted partitions and the measure-comparison (Federer-type) audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Mul, Num, Sub
from .operator import EigenData, eigendata, node_grid
from .system import (Cylinder, MarkovSystem, NotCoveringError, birkhoff_sum,
                     branch_chain, cylinders, pullbacks, word_array)

__all__ = [
    "CylinderMeasureTable", "AdaptedPartition",
    "FrequencyTooSmallError", "BracketFailureError",
    "cylinder_masses", "gibbs_audit", "sample_mu", "measure_of_interval",
    "adapted_partition", "federer_audit", "normalize_flow_potential",
]


class FrequencyTooSmallError(ValueError):
    pass


class BracketFailureError(RuntimeError):
    pass


@dataclass
class CylinderMeasureTable:
    depth: int
    cylinders: list[Cylinder]
    masses: np.ndarray
    pressure: float

    def mass(self, word: tuple[int, ...]) -> float:
        for c, m in zip(self.cylinders, self.masses):
            if c.word == word:
                return float(m)
        raise KeyError(word)

    @property
    def total(self) -> float:
        return float(self.masses.sum())


@dataclass
class AdaptedPartition:
    b: float
    Delta: float
    elements: list[Cylinder]
    mixed_refinement: bool  # True if siblings straddled the diameter cutoff

    @property
    def count(self) -> int:
        return len(self.elements)


def _jacobian_weight(sys: MarkovSystem, eig: EigenData, word, xs):
    """1/J_{mu}T^n along the inverse branch h_word, evaluated at base points xs:

        lam^{-n} exp(S_n(phi - sigma r)(h x)) f(h x) / f(x)

    These weights over all admissible words sum to (L_sigma^n 1)(x) = 1.
    """
    n = len(word)
    ch = branch_chain(sys, word, xs)
    f = eig.f.eval
    w = (eig.lam ** (-n)
         * np.exp(ch["Snphi"] - eig.sigma * ch["Snr"])
         * f(ch["x"]).real / f(xs).real)
    return w, ch


def _mass_tables(sys: MarkovSystem, eig: EigenData, max_depth: int,
                 cap: int = 2_000_000):
    """Yield CylinderMeasureTable for every depth 1..max_depth.

    For each symbol s, one engine run pulls the nodes of the elements in the
    image of s back along the admissible words ending in s, depth by depth,
    and carries only the inverse Jacobians J_w (see ``Pullback``).  Their
    sum over all words is L_sigma^n 1 = 1 only up to interpolation error in
    f, so J is normalised pointwise before the quadrature against the node
    weights of mu gives the mass of each cylinder.
    """
    if not np.all(sys.transition.any(axis=0)):
        # the engine builds the lower depths as suffixes of the deepest words
        raise NotCoveringError("some symbol has no predecessor")
    nodes = node_grid(sys, eig.N)
    words = word_array(sys, max_depth, cap)
    symbols = [s for s in range(sys.m) if np.any(words[:, -1] == s)]
    images = [slice(*sys.branches[s].image) for s in symbols]
    engines = [pullbacks(sys, words[words[:, -1] == s],
                         nodes[img].reshape(-1), ("J",), eig)
               for s, img in zip(symbols, images)]
    for n, levels in enumerate(zip(*engines), start=1):
        cyls = cylinders(sys, n, cap=cap)
        norm = np.zeros((sys.m, eig.N))
        for img, pb in zip(images, levels):
            norm[img] += pb.J.sum(axis=0).reshape(-1, eig.N)
        row = {c.word: k for k, c in enumerate(cyls)}
        masses = np.zeros(len(cyls))
        for img, pb in zip(images, levels):
            per_word = pb.J @ (eig.mu[img] / norm[img]).reshape(-1)
            masses[[row[tuple(w)] for w in pb.words.tolist()]] = per_word
        yield CylinderMeasureTable(n, cyls, masses, eig.pressure)


def cylinder_masses(sys: MarkovSystem, eig: EigenData, n: int,
                    cap: int = 2_000_000) -> CylinderMeasureTable:
    """mu_sigma-mass of every depth-n cylinder via branchwise quadrature of
    the inverse Jacobian against the node weights of mu."""
    for table in _mass_tables(sys, eig, n, cap=cap):
        if table.depth == n:
            return table


def gibbs_audit(sys: MarkovSystem, eig: EigenData, max_depth: int,
                cap: int = 2_000_000) -> dict:
    """Two-sided empirical Gibbs constant: extremes over depth n <= max_depth
    of mass(omega) / exp(-P n + S_n(phi - sigma r)(midpoint))."""
    lo, hi = np.inf, 0.0
    per_depth = {}
    P = eig.pressure
    for table in _mass_tables(sys, eig, max_depth, cap=cap):
        n = table.depth
        mids = np.array([c.midpoint for c in table.cylinders])
        s = (np.atleast_1d(birkhoff_sum(sys, "potential", mids, n))
             - eig.sigma * np.atleast_1d(birkhoff_sum(sys, "roof", mids, n)))
        ratios = table.masses / np.exp(-P * n + s)
        per_depth[n] = (float(ratios.min()), float(ratios.max()))
        lo = min(lo, per_depth[n][0])
        hi = max(hi, per_depth[n][1])
    c5 = max(hi, 1.0 / lo)
    return {"C5_lower": lo, "C5_upper": hi, "C5": float(c5),
            "per_depth": per_depth}


def sample_mu(sys: MarkovSystem, eig: EigenData, count: int, seed: int,
              burn_in: int = 1000, thin: int = 10, x0: float = 0.5,
              chains: int | None = None) -> np.ndarray:
    """Backward-chain sampler whose stationary law is mu_sigma.

    From x0, repeatedly jump to a preimage y of x with probability
    proportional to exp((phi - sigma r)(y)) f(y); the proportionality
    constant is the exact normaliser, so weights sum to 1.  Burn-in states
    are dropped and every ``thin``-th state is emitted.  Large requests run
    that chain rule on many independent chains in parallel, one seed stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if chains is None:
        chains = int(min(max(1, count // 64), 4096))
    per = -(-count // chains)  # emits per chain
    rng = np.random.default_rng(seed)
    x = np.full(chains, x0)
    f = eig.f.eval

    def step(x):
        elem = sys.element_of(x)
        weights = np.zeros((sys.m, len(x)))
        ys = np.zeros((sys.m, len(x)))
        for i in range(sys.m):
            mask = sys.transition[i, elem]
            if not np.any(mask):
                continue
            y = sys.inverse_branch(i, x[mask])
            ys[i, mask] = y
            weights[i, mask] = (
                np.exp(sys._phi[i](x=y) - eig.sigma * sys._r[i](x=y))
                * f(y).real)
        weights /= weights.sum(axis=0)
        u = rng.random(len(x))
        choice = (np.cumsum(weights, axis=0) < u[None, :]).sum(axis=0)
        choice = np.minimum(choice, sys.m - 1)
        return ys[choice, np.arange(len(x))]

    for _ in range(burn_in):
        x = step(x)
    out = np.empty((per, chains))
    for k in range(per):
        for _ in range(thin):
            x = step(x)
        out[k] = x
    return out.reshape(-1)[:count]


def transition_weights(sys: MarkovSystem, eig: EigenData, x: float) -> dict:
    """Normalised backward transition probabilities at a single point."""
    f = eig.f.eval
    raw = {}
    fx = float(f(np.array([x])).real[0])
    for i in sys.admissible_branches(x):
        y = float(sys.inverse_branch(i, np.array([x]))[0])
        raw[i] = (math.exp(float(sys._phi[i](x=y)) - eig.sigma * float(sys._r[i](x=y)))
                  * float(f(np.array([y])).real[0]) / (eig.lam * fx))
    total = sum(raw.values())
    return {i: w / total for i, w in raw.items()}


# -- adapted partitions --------------------------------------------------------


def _sup_dT(sys: MarkovSystem, grid: int = 512) -> float:
    rho = 0.0
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), grid)
        rho = max(rho, float(np.max(np.abs(sys._dT[i](x=xs) + 0 * xs))))
    return rho


def _child_cylinders(sys: MarkovSystem, cyl: Cylinder) -> list[Cylinder]:
    out = []
    for j in range(sys.m):
        if not sys.transition[cyl.word[-1], j]:
            continue
        w = cyl.word + (j,)
        ends = branch_chain(sys, w, np.array(sys.image_interval(j)))["x"]
        out.append(Cylinder(w, float(min(ends)), float(max(ends))))
    return out


def adapted_partition(sys: MarkovSystem, b: float, Delta: float) -> AdaptedPartition:
    """Partition into cylinders Q = P^(l(x,b))(x) where l(x,b) is the largest
    depth whose cylinder still has diameter >= 2 Delta / |b|."""
    rho = _sup_dT(sys)
    min_diam = float(np.min(np.diff(sys.partition)))
    if abs(b) <= 2 * Delta * rho / min_diam:
        raise FrequencyTooSmallError(
            f"|b|={abs(b)} <= 2*Delta*rho/min_diam={2 * Delta * rho / min_diam}")
    t = 2.0 * Delta / abs(b)
    elements: list[Cylinder] = []
    mixed = False

    tol = t * 1e-9  # endpoints come out of a root solve; compare with slack
    levels: dict[int, dict] = {}

    def children(q):
        d = q.depth + 1
        if d not in levels:
            levels[d] = {c.word: c for c in cylinders(sys, d)}
        lv = levels[d]
        return [lv[q.word + (j,)] for j in range(sys.m)
                if sys.transition[q.word[-1], j]]

    stack = [c for c in cylinders(sys, 1)]
    while stack:
        q = stack.pop()
        kids = children(q)
        big = [k for k in kids if k.diam >= t - tol]
        if not big:
            elements.append(q)
        else:
            stack.extend(big)
            small = [k for k in kids if k.diam < t - tol]
            if small:
                # siblings straddle the cutoff; keep the small children as
                # their own elements so the family stays disjoint
                mixed = True
                elements.extend(small)
    elements.sort(key=lambda c: c.left)
    return AdaptedPartition(float(b), float(Delta), elements, mixed)


# -- measure of intervals and the Federer-type audit ----------------------------


def measure_of_interval(sys: MarkovSystem, eig: EigenData, lo: float, hi: float,
                        max_depth: int = 40, rel_width: float = 0.125,
                        cache: dict | None = None) -> float:
    """mu_sigma[lo, hi] by descending the cylinder tree: cylinders fully
    inside are added outright, boundary cylinders are refined until smaller
    than rel_width * (hi - lo), then counted proportionally to overlap."""
    if hi <= lo:
        return 0.0
    width_cut = max((hi - lo) * rel_width, 1e-14)
    total = 0.0
    nodes = node_grid(sys, eig.N)
    if cache is None:
        cache = {}

    def cyl_mass(c: Cylinder) -> float:
        if c.word in cache:
            return cache[c.word]
        dlo, dhi = sys.image_interval(c.word[-1])
        s = 0.0
        for e in range(sys.m):
            a, bnd = sys.element_interval(e)
            if a < dlo - 1e-12 or bnd > dhi + 1e-12:
                continue
            w, _ = _jacobian_weight(sys, eig, c.word, nodes[e])
            s += float(np.dot(eig.mu[e], w))
        cache[c.word] = s
        return s

    stack = list(cylinders(sys, 1))
    while stack:
        c = stack.pop()
        if c.right <= lo or c.left >= hi:
            continue
        if lo <= c.left and c.right <= hi:
            total += cyl_mass(c)
        elif c.diam > width_cut and c.depth < max_depth:
            stack.extend(_child_cylinders(sys, c))
        else:
            overlap = min(hi, c.right) - max(lo, c.left)
            total += cyl_mass(c) * overlap / c.diam
    return total


def federer_audit(sys: MarkovSystem, eig: EigenData, b: float, Delta: float,
                  delta: float, K: float | None = None) -> dict:
    """Worst ratio mu(J_i)/mu(Q_i) over the adapted partition, with J_i the
    centered subinterval of length 2 delta/|b|, plus the derived constant
    delta' = gamma * exp(-K') with K' = K (2 Delta rho)^alpha."""
    if not (0 < delta < Delta):
        raise ValueError("need 0 < delta < Delta")
    part = adapted_partition(sys, b, Delta)
    rho = _sup_dT(sys)
    half = delta / abs(b)
    gammas, gammas_left = [], []
    cache: dict = {}
    for q in part.elements:
        mid = q.midpoint
        jlo, jhi = max(q.left, mid - half), min(q.right, mid + half)
        mq = measure_of_interval(sys, eig, q.left, q.right, cache=cache)
        mj = measure_of_interval(sys, eig, jlo, jhi, cache=cache)
        gammas.append(mj / mq)
        mjl = measure_of_interval(sys, eig, q.left, min(q.right, q.left + 2 * half),
                                  cache=cache)
        gammas_left.append(mjl / mq)
    gamma = float(min(gammas))
    if K is None:
        from .dolgopyat import c0_constant
        K = c0_constant(sys, eig)["C0"]
    kprime = K * (2 * Delta * rho) ** sys.alpha
    return {
        "gamma": gamma,
        "gamma_left": float(min(gammas_left)),
        "delta_prime": float(gamma * math.exp(-kprime)),
        "K": float(K), "K_prime": float(kprime),
        "partition_size": part.count,
    }


# -- flow-potential normalisation ------------------------------------------------


def normalize_flow_potential(sys: MarkovSystem, N: int = 512,
                             tol: float = 1e-10,
                             bracket: tuple[float, float] = (-50.0, 50.0)
                             ) -> tuple[float, MarkovSystem]:
    """Find P* with leading eigenvalue of the operator for potential
    phi - P* r equal to 1, by bisection; returns P* and the shifted system."""

    def shifted(P: float) -> MarkovSystem:
        pots = [Sub(sys.potential[e], Mul(Num(P), sys.roof[e]))
                for e in range(sys.m)]
        return MarkovSystem(sys.partition, sys.branches, sys.roof, pots,
                            alpha=sys.alpha)

    def g(P: float) -> float:
        return math.log(eigendata(shifted(P), 0.0, N=N).lam)

    # expand from 0 rather than starting at the bracket edges: extreme
    # potentials make the eigenproblem badly balanced for no benefit
    lo_lim, hi_lim = bracket
    a, ga = 0.0, g(0.0)
    if ga == 0.0:
        return 0.0, shifted(0.0)
    step = 1.0 if ga > 0 else -1.0
    b, gb = a, ga
    while ga * gb > 0:
        a, ga = b, gb
        b += step
        if not (lo_lim <= b <= hi_lim):
            raise BracketFailureError(f"no sign change on [{lo_lim}, {hi_lim}]")
        gb = g(b)
    if a > b:
        a, b, ga, gb = b, a, gb, ga
    while b - a > tol:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if ga * gm <= 0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    p_star = 0.5 * (a + b)
    return p_star, shifted(p_star)
