"""Displacement functions, transversality of cone images, the a(n)/b(n)
sequences and the coboundary trichotomy test.

Projective convention: a 2d cone {(a, c) : |c| <= C7 |a|} is stored as the
slope interval [-C7, C7]; the image under the cocycle matrix

    D^n(x) = [[DT^n(x), 0], [-D S_n r(x), 1]]

is the slope interval with centre -D(S_n r o h)(y) and half-width
C7 / |DT^n(x)|.  Transversality of two preimages means their slope
intervals are disjoint as closed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import EigenData
from .system import (MarkovSystem, branch_chain, cylinders, itineraries,
                     pullback, word_array)

__all__ = [
    "PsiFunction", "EmptyDomainError", "NotSiblingsError",
    "c4_constant", "c7_constant", "c9_constant", "psi", "check_uni",
    "cone_image", "transversal", "a_sequence", "b_sequence",
    "coboundary_test", "uni_from_transversality",
]


class EmptyDomainError(ValueError):
    pass


class NotSiblingsError(ValueError):
    pass


def c4_constant(sys: MarkovSystem, grid: int = 2048) -> float:
    """sup over inverse branches h of |D(r o h)| = sup |r'| / |T'|."""
    best = 0.0
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), grid)
        dr = np.abs(sys._dr[i](x=xs) + 0 * xs)
        dt = np.abs(sys._dT[i](x=xs) + 0 * xs)
        best = max(best, float(np.max(dr / dt)))
    return best


def _lam_rho(sys: MarkovSystem, grid: int = 2048) -> tuple[float, float]:
    lam, rho = np.inf, 0.0
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), grid)
        dt = np.abs(sys._dT[i](x=xs) + 0 * xs)
        lam = min(lam, float(dt.min()))
        rho = max(rho, float(dt.max()))
    return lam, rho


def c7_constant(sys: MarkovSystem, grid: int = 2048) -> dict:
    """Closed-form bound with |D(S_n r o h)| <= C7 / 2 for all n."""
    c4 = c4_constant(sys, grid)
    lam, rho = _lam_rho(sys, grid)
    c7 = max(2.0 * c4 * rho / (1.0 - 1.0 / lam), (1.0 - 1.0 / lam) * c4)
    return {"C4": c4, "C7": c7, "lam": lam, "rho": rho}


def c9_constant(sys: MarkovSystem, c2: float, grid: int = 2048) -> float:
    """Hoelder bound for D psi: 2 max{C2, 1} ||Dr||_{C^alpha} / (1 - 1/lam)."""
    lam, _ = _lam_rho(sys, grid)
    sup_dr, semi_dr = 0.0, 0.0
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), grid)
        dr = sys._dr[i](x=xs) + 0 * xs
        sup_dr = max(sup_dr, float(np.max(np.abs(dr))))
        semi_dr = max(semi_dr, float(np.max(
            np.abs(np.diff(dr)) / np.diff(xs) ** sys.alpha)))
    return 2.0 * max(c2, 1.0) * (sup_dr + semi_dr) / (1.0 - 1.0 / lam)


@dataclass
class PsiFunction:
    """psi(x) = S_n r(h_w1 x) - S_n r(h_w2 x) on the common image domain."""
    system: MarkovSystem
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    domain: tuple[float, float]

    def __call__(self, y):
        c1 = branch_chain(self.system, self.w1, y)
        c2 = branch_chain(self.system, self.w2, y)
        return c1["Snr"] - c2["Snr"]

    def deriv(self, y):
        c1 = branch_chain(self.system, self.w1, y)
        c2 = branch_chain(self.system, self.w2, y)
        return c1["DSnr_h"] - c2["DSnr_h"]


def psi(sys: MarkovSystem, w1: tuple[int, ...], w2: tuple[int, ...]) -> PsiFunction:
    if len(w1) != len(w2):
        raise ValueError("cylinder depths differ")
    a1, b1 = sys.image_interval(w1[-1])
    a2, b2 = sys.image_interval(w2[-1])
    lo, hi = max(a1, a2), min(b1, b2)
    if hi <= lo:
        raise EmptyDomainError(f"T^n images of {w1} and {w2} do not intersect")
    return PsiFunction(sys, tuple(w1), tuple(w2), (lo, hi))


def cone_image(sys: MarkovSystem, x: float, n: int, c7: float | None = None
               ) -> tuple[float, float]:
    """Slope interval of D^n(x) applied to the base cone of half-slope C7."""
    if c7 is None:
        c7 = c7_constant(sys)["C7"]
    word = tuple(itineraries(sys, [x], n)[0])
    z = np.array([x])
    dTn = 1.0
    dTj = 1.0
    dsnr = 0.0
    for j in range(n):
        i = word[j]
        dsnr += float(sys._dr[i](x=z[0]) + 0.0) * dTj
        dt = float(sys._dT[i](x=z[0]) + 0.0)
        dTj *= dt
        dTn *= dt
        z = sys.apply_T(z)
    lo = (-c7 - dsnr) / dTn
    hi = (c7 - dsnr) / dTn
    return (min(lo, hi), max(lo, hi))


def transversal(sys: MarkovSystem, x1: float, x2: float, n: int,
                c7: float | None = None) -> bool:
    """Closed slope intervals of the two cone images are disjoint."""
    y1 = float(np.atleast_1d(_iterate(sys, x1, n))[0])
    y2 = float(np.atleast_1d(_iterate(sys, x2, n))[0])
    if abs(y1 - y2) > 1e-9:
        raise NotSiblingsError(f"T^{n} x1 = {y1} != {y2} = T^{n} x2")
    i1 = cone_image(sys, x1, n, c7)
    i2 = cone_image(sys, x2, n, c7)
    return i1[1] < i2[0] or i2[1] < i1[0]


def _iterate(sys: MarkovSystem, x: float, n: int):
    z = np.array([float(x)])
    for _ in range(n):
        z = sys.apply_T(z)
    return z


def check_uni(sys: MarkovSystem, n: int, R: float, grid: int = 512,
              pair_cap: int = 40_000) -> dict:
    """Full-branch and pointwise uniform-nonintegrability constants at depth n.

    D_full: max over pairs of depth-n branches with full image of the inf of
    |D psi| over the whole interval (0 when no full pair exists).
    D_point: min over grid y of the best pair through y of the inf of
    |D psi| over B(y, R) intersected with the pair's domain.
    """
    warr = word_array(sys, n)
    if len(warr) * len(warr) > pair_cap:
        raise ValueError("too many branch pairs at this depth")
    xs = np.linspace(0.0, 1.0, grid)
    dsnr = np.full((len(warr), grid), np.nan)
    for s in range(sys.m):
        ends = np.flatnonzero(warr[:, -1] == s)
        lo, hi = sys.image_interval(s)
        cols = np.flatnonzero((xs >= lo) & (xs <= hi))
        if len(ends):
            dsnr[np.ix_(ends, cols)] = pullback(
                sys, warr[ends], xs[cols], ("DSnr_h",)).DSnr_h
    words = [tuple(w) for w in warr.tolist()]
    rows = dict(zip(words, dsnr))
    doms = {w: sys.image_interval(w[-1]) for w in words}

    d_full = 0.0
    full = [w for w in words if doms[w][0] <= 1e-12 and doms[w][1] >= 1 - 1e-12]
    for i, w1 in enumerate(full):
        for w2 in full[i + 1:]:
            d_full = max(d_full, float(np.min(np.abs(rows[w1] - rows[w2]))))

    d_point = np.inf
    witness = []
    for y in np.linspace(0.0, 1.0, 65):
        best = 0.0
        best_pair = None
        win = (xs >= y - R) & (xs <= y + R)
        through = [w for w in words if doms[w][0] <= y <= doms[w][1]]
        for i, w1 in enumerate(through):
            for w2 in through[i + 1:]:
                vals = np.abs(rows[w1] - rows[w2])[win]
                vals = vals[~np.isnan(vals)]
                if len(vals) == 0:
                    continue
                v = float(np.min(vals))
                if v > best:
                    best, best_pair = v, (w1, w2)
        d_point = min(d_point, best)
        witness.append({"y": float(y), "D": best, "pair": best_pair})
    return {"n": n, "R": R, "D_full": d_full,
            "D_point": float(d_point if np.isfinite(d_point) else 0.0),
            "witnesses": witness}


# -- a(n) and b(n) ---------------------------------------------------------------


def _preimage_tableau(sys: MarkovSystem, eig: EigenData, n: int,
                      ys: np.ndarray, c7: float, cap: int = 2_000_000):
    """Interval and weight arrays over (word, y); NaN where inadmissible.

    Rows are the depth-n words in ``admissible_words`` order.  The words
    ending in each symbol s are pulled back in one engine call at the ys in
    the image of s; a row holds the slope interval -D(S_n r o h)(y) +- C7 /
    |DT^n| and the weight J_w(y), the inverse Jacobian of mu_sigma along h_w
    at the sigma of ``eig``, normalised per y so the weights sum to exactly 1
    over the admissible preimages.
    """
    words = word_array(sys, n, cap)
    k, g = len(words), len(ys)
    lo = np.full((k, g), np.nan)
    hi = np.full((k, g), np.nan)
    wgt = np.full((k, g), np.nan)
    for s in range(sys.m):
        rows = np.flatnonzero(words[:, -1] == s)
        dlo, dhi = sys.image_interval(s)
        cols = np.flatnonzero((ys >= dlo) & (ys <= dhi))
        if not (len(rows) and len(cols)):
            continue
        pb = pullback(sys, words[rows], ys[cols], ("dTn", "DSnr_h", "J"), eig)
        centre = -pb.DSnr_h
        half = c7 / np.abs(pb.dTn)
        cell = np.ix_(rows, cols)
        lo[cell] = centre - half
        hi[cell] = centre + half
        wgt[cell] = pb.J
    totals = np.nansum(wgt, axis=0)
    wgt = wgt / totals[None, :]
    return words, lo, hi, wgt


def _y_grid(sys: MarkovSystem, n: int, grid: int) -> np.ndarray:
    ys = list(np.linspace(1e-9, 1 - 1e-9, grid))
    ys += [c.midpoint for c in cylinders(sys, n)]
    return np.unique(np.asarray(ys))


def a_sequence(sys: MarkovSystem, eig: EigenData, n_max: int,
               grid: int = 512, cap: int = 2_000_000) -> list[float]:
    """a(n): worst total mu_sigma-Jacobian weight of preimages not
    transversal to some x0, at the sigma of ``eig``."""
    c7 = c7_constant(sys)["C7"]
    out = []
    for n in range(1, n_max + 1):
        word_array(sys, n, cap)  # enforce the cap before building the grid
        ys = _y_grid(sys, n, grid)
        _, lo, hi, wgt = _preimage_tableau(sys, eig, n, ys, c7, cap)
        worst = 0.0
        for col in range(lo.shape[1]):
            valid = ~np.isnan(wgt[:, col])
            if not np.any(valid):
                continue
            l, h, w = lo[valid, col], hi[valid, col], wgt[valid, col]
            order_l = np.argsort(l)
            order_h = np.argsort(h)
            ls, ws_l = l[order_l], np.concatenate([[0.0], np.cumsum(w[order_l])])
            hs, ws_h = h[order_h], np.concatenate([[0.0], np.cumsum(w[order_h])])
            total = float(np.sum(w))
            # for each candidate x0: drop intervals strictly left/right of its
            # own interval; what remains intersects it (closed intervals)
            left = ws_h[np.searchsorted(hs, l, side="left")]
            right = total - ws_l[np.searchsorted(ls, h, side="right")]
            worst = max(worst, float(np.max(total - left - right)))
        if worst > 1.0 + 1e-8:
            raise AssertionError(f"a({n}) = {worst} exceeds 1")
        out.append(min(worst, 1.0 + 1e-12))
    return out


def b_sequence(sys: MarkovSystem, eig: EigenData, n_max: int,
               grid: int = 512, cap: int = 2_000_000) -> list[float]:
    """b(n): worst stabbing number of the slope intervals, weighted by the
    inverse Jacobians of mu_sigma at the sigma of ``eig``."""
    c7 = c7_constant(sys)["C7"]
    out = []
    for n in range(1, n_max + 1):
        word_array(sys, n, cap)  # enforce the cap before building the grid
        ys = _y_grid(sys, n, grid)
        _, lo, hi, wgt = _preimage_tableau(sys, eig, n, ys, c7, cap)
        worst = 0.0
        for col in range(lo.shape[1]):
            valid = ~np.isnan(wgt[:, col])
            if not np.any(valid):
                continue
            l, h, w = lo[valid, col], hi[valid, col], wgt[valid, col]
            # sweep: all openings at a coordinate fire before any closing
            coords = np.concatenate([l, h])
            deltas = np.concatenate([w, -w])
            kind = np.concatenate([np.zeros(len(l)), np.ones(len(h))])
            order = np.lexsort((kind, coords))
            running = np.cumsum(deltas[order])
            worst = max(worst, float(np.max(running)))
        if worst > 1.0 + 1e-8:
            raise AssertionError(f"b({n}) = {worst} exceeds 1")
        out.append(min(worst, 1.0 + 1e-12))
    return out


# -- coboundary test ---------------------------------------------------------------


def _greedy_chain(sys: MarkovSystem, start_elem: int, length: int,
                  lowest: bool = True) -> list[int]:
    chain = []
    target = start_elem
    pick = min if lowest else max
    for _ in range(length):
        options = [i for i in range(sys.m) if sys.transition[i, target]]
        k = pick(options)
        chain.append(k)
        target = k
    return chain


def _theta_eval(sys: MarkovSystem, chains: dict[int, list[int]], y0: float,
                pts: np.ndarray, J: int) -> np.ndarray:
    """Truncated telescoping sum theta(y) = sum_j [r(h_j y) - r(h_j y0)]:
    S_J r along the word of the backward chain, at y minus at y0."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    elems = sys.element_of(pts)
    for e in np.unique(elems):
        mask = elems == e
        word = tuple(reversed(chains[int(e)][:J]))
        snr = branch_chain(sys, word, np.append(pts[mask], y0))["Snr"]
        out[mask] = snr[:-1] - snr[-1]
    return out


def coboundary_test(sys: MarkovSystem, J_trunc: int = 40, tol: float = 1e-6,
                    grid: int = 512) -> dict:
    """Test whether the roof is an automorphic coboundary: r = theta o T -
    theta + chi with chi constant on partition elements.

    theta is built by telescoping pullbacks along a fixed backward branch
    chain per element (greedy lowest admissible index); a second chain
    (greedy highest) provides an independent witness.
    """
    lam, _ = _lam_rho(sys)
    c4 = c4_constant(sys)
    chains_lo = {e: _greedy_chain(sys, e, J_trunc, lowest=True)
                 for e in range(sys.m)}
    chains_hi = {e: _greedy_chain(sys, e, J_trunc, lowest=False)
                 for e in range(sys.m)}
    y0 = 0.5

    residual = 0.0
    chi = []
    chain_dev = 0.0
    for e in range(sys.m):
        a, b = sys.element_interval(e)
        eps = (b - a) * 1e-9
        xs = np.linspace(a + eps, b - eps, grid)
        tx = sys.apply_T(xs)
        tx = np.clip(tx, 0.0, np.nextafter(1.0, 0.0))
        g = (sys._r[e](x=xs)
             - _theta_eval(sys, chains_lo, y0, tx, J_trunc)
             + _theta_eval(sys, chains_lo, y0, xs, J_trunc))
        residual = max(residual, float(g.max() - g.min()))
        chi.append(float(np.mean(g)))
        d = (_theta_eval(sys, chains_lo, y0, xs, J_trunc)
             - _theta_eval(sys, chains_hi, y0, xs, J_trunc))
        chain_dev = max(chain_dev, float(d.max() - d.min()))
    tail = c4 * lam ** (-float(J_trunc)) / (1.0 - 1.0 / lam)
    return {
        "residual": residual,
        "cohomologous": bool(residual < tol),
        "chi": chi,
        "tail_bound": tail,
        "chain_deviation": chain_dev,
        "J_trunc": J_trunc,
        "tol": tol,
    }


# -- transversality implies pointwise UNI -------------------------------------------


def uni_from_transversality(sys: MarkovSystem, delta: float, b: float,
                            beta: float = 1.0, n2_min: int = 1,
                            y_points: int = 33, z_points: int = 32) -> dict:
    """Verify the quantitative pointwise-UNI conclusion drawn from
    transversality: with n2 = floor(log(1/delta)/log rho), n1 = floor(beta
    log |b|), D = (C7/2) rho^{-n2} and Delta = 4 pi/(C7 delta), every y with
    a depth-n2 transversal tail pair satisfies |D psi(z)| >= D on
    B(y, Delta/|b|) intersected with the pair's domain."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0,1)")
    cs = c7_constant(sys)
    c7, rho = cs["C7"], cs["rho"]
    if c7 == 0.0:
        return {"D": 0.0, "Delta": math.inf, "pass_rate": 0.0,
                "no_pair_everywhere": True, "results": []}
    n2 = int(math.floor(math.log(1.0 / delta) / math.log(rho)))
    if n2 < n2_min:
        raise ValueError(f"n2 = {n2} below configured minimum {n2_min}")
    n1 = int(math.floor(beta * math.log(abs(b))))
    n = n1 + n2
    D = 0.5 * c7 * rho ** (-n2)
    Delta = 4.0 * math.pi / (c7 * delta)
    radius = Delta / abs(b)

    tails = word_array(sys, n2)
    results = []
    npass = 0
    nfail = 0
    for y in np.linspace(1e-6, 1 - 1e-6, y_points):
        pair = transversal_pair(sys, tails, n1, y, c7)
        if pair is None:
            results.append({"y": float(y), "status": "NoTransversalPair"})
            continue
        w1, w2 = pair
        p = psi(sys, w1, w2)
        zlo = max(p.domain[0], y - radius)
        zhi = min(p.domain[1], y + radius)
        zs = np.linspace(zlo, zhi, z_points)
        margin = float(np.min(np.abs(p.deriv(zs)))) - D
        ok = margin >= 0.0
        npass += ok
        nfail += not ok
        results.append({"y": float(y), "status": "ok" if ok else "fail",
                        "margin": margin, "pair": (w1, w2)})
    tested = npass + nfail
    return {
        "n1": n1, "n2": n2, "n": n, "D": D, "Delta": Delta,
        "pass_rate": (npass / tested) if tested else 0.0,
        "worst_margin": min((r["margin"] for r in results if "margin" in r),
                            default=math.nan),
        "no_pair_everywhere": tested == 0,
        "results": results,
    }


def _greedy_prefix(sys: MarkovSystem, first_tail_symbol: int, n1: int
                   ) -> tuple[int, ...]:
    """Lowest-index admissible word of length n1 that may precede the tail."""
    prefix: list[int] = []
    nxt = first_tail_symbol
    for _ in range(n1):
        k = min(i for i in range(sys.m) if sys.transition[i, nxt])
        prefix.insert(0, k)
        nxt = k
    return tuple(prefix)


def transversal_pair(sys: MarkovSystem, tails: np.ndarray, n1: int, y: float,
                     c7: float):
    """Depth-(n1 + n2) words (w1, w2) through y whose depth-n2 tails have the
    widest gap between their slope intervals at y, each tail extended by its
    greedy prefix; None when no two tails through y are transversal.

    ``tails`` is ``word_array(sys, n2)``; the tails whose domain holds y are
    pulled back in one engine call, and ties go to the first pair in
    lexicographic order.
    """
    through = [s for s in range(sys.m)
               if sys.image_interval(s)[0] <= y <= sys.image_interval(s)[1]]
    tails = tails[np.isin(tails[:, -1], through)]
    if len(tails) < 2:
        return None
    pb = pullback(sys, tails, np.array([y]), ("dTn", "DSnr_h"))
    centre = -pb.DSnr_h[:, 0]
    hw = c7 / np.abs(pb.dTn[:, 0])
    lo, hi = centre - hw, centre + hw
    gap = np.maximum(lo[None, :] - hi[:, None], lo[:, None] - hi[None, :])
    gap[np.tril_indices(len(tails))] = 0.0
    best = int(np.argmax(gap))
    if gap.flat[best] <= 0.0:
        return None
    t1, t2 = (tuple(tails[a].tolist()) for a in divmod(best, len(tails)))
    return (_greedy_prefix(sys, t1[0], n1) + t1,
            _greedy_prefix(sys, t2[0], n1) + t2)
