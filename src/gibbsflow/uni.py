"""The displacement derivative D psi, transversality of cone images, the
a(n)/b(n) sequences and the coboundary trichotomy test.

The constants (lam, rho, C4, C7) are read from ``MarkovSystem.constants``.

Projective convention: a 2d cone {(a, c) : |c| <= C7 |a|} is stored as the
slope interval [-C7, C7]; its image under the cocycle matrix

    D^n(x) = [[DT^n(x), 0], [-D S_n r(x), 1]]

at x = h_w(y), the preimage of y along a word w, is the slope interval with
centre -D(S_n r o h_w)(y) and half-width C7 / |DT^n(x)|, both read off the
pullback engine at y.  Transversality of two preimages h_w1(y), h_w2(y)
means their slope intervals are disjoint as closed intervals.  The
displacement psi = S_n r o h_w1 - S_n r o h_w2 enters through D psi alone,
a difference of two engine rows; ``check_uni`` indexes them by word row.

a(n) and b(n) come from the slope intervals and mu_sigma-Jacobian weights
of every depth-n preimage at every y of a grid, read straight off one
``column_blocks`` pass under the engine's one budget (``system._BUDGET``
values a depth, counted over its three fields dTn, DSnr_h and J; the
engine's x and log weight are held beside them): the shallow depths, whose
whole level fits half of it, once over every y, and the deeper ones a
column block of ys at a time, each block resuming from the last shared
depth.  Each block is cut into runs of ys held by one set of symbols, and
of at most _SWEEP_BLOCK cells; a run stacks those symbols' Pullback
columns in tree order, so every cell is a preimage, and divides J by the
normaliser the block carries, as every consumer of J does.  One endpoint
sweep per y reads both statistics off a run: a stable argsort of [lo | hi]
puts every opening before any closing at an equal coordinate (closed
intervals that touch meet), b(n) is the largest prefix sum of the signed
weights, and a(n) the largest weight of intervals meeting one interval.
``a_sequence`` and ``b_sequence`` share the sweep: the latest result is
kept in one slot on the EigenData, keyed by the system, n_max and grid, so
the CLI's call of both pulls each depth back once.
"""

from __future__ import annotations

import math

import numpy as np

from .gibbs import FrequencyTooSmallError
from .operator import EigenData
from .system import (MarkovSystem, branch_chain, column_blocks, count_words,
                     cylinders, pullback, symbol_trees, word_array)

__all__ = [
    "MAX_PAIRS", "check_uni", "a_sequence", "b_sequence",
    "coboundary_test", "transversal_scales", "uni_from_transversality",
]


# most ordered pairs of depth-n words check_uni compares
MAX_PAIRS = 40_000
# check_uni's equally spaced points of [0, 1]
_GRID = 512


def _closed_images(sys: MarkovSystem, ys: np.ndarray) -> np.ndarray:
    """(m, len(ys)) mask: ys[c] lies in the closed image of symbol s, the
    domain of every h_w with w ending in s."""
    return np.array([(ys >= a) & (ys <= b) for a, b in
                     (sys.image_interval(s) for s in range(sys.m))])


def _slope_interval(c7: float, dsnr_h: np.ndarray, dtn: np.ndarray):
    """(lo, hi): the slope interval of the cone image at y, with centre
    -D(S_n r o h_w)(y) and half-width C7 / |DT^n(h_w y)|, from the engine's
    DSnr_h and dTn."""
    centre = -dsnr_h
    half = c7 / np.abs(dtn)
    return centre - half, centre + half


def check_uni(sys: MarkovSystem, n: int, R: float) -> dict:
    """Full-branch and pointwise uniform-nonintegrability constants at depth n.

    D_full: max over pairs of depth-n branches with full image of the inf of
    |D psi| over the whole interval (0 when no full pair exists).
    D_point: min over grid y of the best pair through y of the inf of
    |D psi| over B(y, R) intersected with the pair's domain.  More than
    MAX_PAIRS ordered pairs of depth-n words are refused.
    """
    if count_words(sys, n) ** 2 > MAX_PAIRS:
        raise ValueError("too many branch pairs at this depth")
    words = word_array(sys, n)
    last = words[:, -1]
    xs = np.linspace(0.0, 1.0, _GRID)
    holds = _closed_images(sys, xs)
    inside = holds[last]
    # row a: D(S_n r o h_w)(x) of the word words[a] where its domain holds x
    d = np.zeros(inside.shape)
    for _, block, blocks, _ in column_blocks(
            sys, symbol_trees(sys, words), xs, holds, ("DSnr_h",)):
        for s, cols, pb in blocks:
            d[np.ix_(last == s, cols + block.start)] = pb.DSnr_h

    def best_pair(rows, where):
        """The largest over pairs of ``rows`` of the least |D psi| over the
        grid points in the mask ``where`` that both domains hold; 0.0 when
        no pair is positive.  One (rows x where) block is held."""
        dw, iw = d[np.ix_(rows, where)], inside[np.ix_(rows, where)]
        best = 0.0
        for a in range(len(rows) - 1):
            both = iw[a + 1:] & iw[a]
            least = np.abs(dw[a + 1:] - dw[a]).min(axis=1, where=both,
                                                   initial=np.inf)
            least[~both.any(axis=1)] = 0.0
            best = max(best, float(least.max()))
        return best

    ends = np.array([1e-12, 1 - 1e-12])
    full = np.flatnonzero(_closed_images(sys, ends)[last].all(axis=1))
    d_full = best_pair(full, np.ones(_GRID, dtype=bool))

    d_point = np.inf
    ys = np.linspace(0.0, 1.0, 65)
    for y, through in zip(ys, _closed_images(sys, ys)[last].T):
        d_point = min(d_point, best_pair(np.flatnonzero(through),
                                         (xs >= y - R) & (xs <= y + R)))
    return {"D_full": d_full,
            "D_point": float(d_point if np.isfinite(d_point) else 0.0)}


# -- a(n) and b(n) ---------------------------------------------------------------


def _y_grid(sys: MarkovSystem, n: int, grid: int) -> np.ndarray:
    _, left, right = cylinders(sys, n)
    return np.unique(np.concatenate(
        [np.linspace(1e-9, 1 - 1e-9, grid), 0.5 * (left + right)]))


# (preimage, y) cells per run of the a(n)/b(n) sweep, unless the run is one
# y wide: bounds the run and the sweep's temporaries, about 72 bytes a cell
_SWEEP_BLOCK = 1 << 15


def _sweep(lo: np.ndarray, hi: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Largest a- and b-statistic over the rows of (columns, k) blocks of
    closed intervals [lo, hi] with weights w, one row per y column.

    One stable argsort of [lo | hi] per row orders the endpoints so that
    every opening fires before any closing at an equal coordinate.  b is the
    largest prefix sum of the signed weights in that order (the heaviest
    point).  a is, for each interval j, the opening weight up to hi_j minus
    the closing weight before lo_j: the weight of the intervals meeting j.
    """
    c, k = lo.shape
    # flat index, in the (c, 2k) block, of each endpoint in sweep order
    flat = np.argsort(np.concatenate([lo, hi], axis=1), axis=1, kind="stable")
    flat += np.arange(0, 2 * k * c, 2 * k)[:, None]
    flat = flat.reshape(-1)
    zero = np.zeros_like(w)

    def running(opens, closes):
        swept = np.concatenate([opens, closes], axis=1).reshape(-1)[flat]
        swept = swept.reshape(c, 2 * k)
        return np.cumsum(swept, axis=1, out=swept)

    def unswept(x):
        out = np.empty(2 * k * c)
        out[flat] = x.reshape(-1)
        return out.reshape(c, 2 * k)

    b = running(w, -w).max()
    opened = unswept(running(w, zero))[:, k:]
    opened -= unswept(running(zero, w))[:, :k]
    return float(opened.max()), float(b)


def _tableau_runs(sys: MarkovSystem, eig: EigenData, words: np.ndarray,
                  ys: np.ndarray):
    """Yield (lo, hi, w), each (preimages x ys), for runs of the ys, sorted,
    each a stretch of ys held by one set of symbols: a row per word ending in
    one of them, in tree order (symbol after symbol, each symbol's words in
    order), the slope interval [lo, hi] of its cone image at y and the weight
    w = J_w(y), the inverse Jacobian of mu_sigma along h_w at the sigma of
    ``eig``, divided by the normaliser ``column_blocks`` yields.  Every cell
    is a preimage; a y that no symbol holds is in no run.  A run holds at
    most _SWEEP_BLOCK cells, or one y.

    The runs are read off one ``column_blocks`` pass as its blocks come: the
    shallow depths are pulled back once over every y, and the deeper ones
    one column block of ys at a time, each resuming from the last shared
    depth.  A cell and a normaliser have the same bits in any block, so
    a(n) and b(n) do not depend on the blocks.
    """
    c7 = sys.constants.c7
    holds = _closed_images(sys, ys)
    for _, block, blocks, norm in column_blocks(
            sys, symbol_trees(sys, words), ys, holds,
            ("dTn", "DSnr_h", "J"), eig):
        held = holds[:, block]
        cuts = np.flatnonzero((held[:, 1:] != held[:, :-1]).any(axis=0)) + 1
        for i, j in zip([0, *cuts], [*cuts, held.shape[1]]):
            # each holding symbol's Pullback, and the offset of the ys of
            # the block in its columns
            parts = [(pb, int(np.searchsorted(cols, i)) - i)
                     for s, cols, pb in blocks if held[s, i]]
            if not parts:
                continue
            step = max(1, _SWEEP_BLOCK // sum(len(pb.J) for pb, _ in parts))
            for c in range(i, j, step):
                e = min(c + step, j)
                lo, hi = _slope_interval(c7, *(
                    np.concatenate([getattr(pb, f)[:, c + o:e + o]
                                    for pb, o in parts])
                    for f in ("DSnr_h", "dTn")))
                w = np.concatenate([pb.J[:, c + o:e + o] for pb, o in parts])
                w /= norm[c:e]
                yield lo, hi, w
        del blocks, parts  # no block is held while the next is built


def _ab_depth(sys: MarkovSystem, eig: EigenData, n: int,
              grid: int) -> tuple[float, float]:
    """max over the ys of the grid of the a- and b-statistics at depth n,
    each run of ``_tableau_runs`` swept as it comes, one row per y; a y with
    no admissible preimage is in no run and reads 0."""
    words = word_array(sys, n)  # enforces the cap before the grid is built
    worst_a = worst_b = 0.0
    for lo, hi, w in _tableau_runs(sys, eig, words, _y_grid(sys, n, grid)):
        a, b = _sweep(lo.T, hi.T, w.T)
        worst_a, worst_b = max(worst_a, a), max(worst_b, b)
    return worst_a, worst_b


def _ab_sequences(sys: MarkovSystem, eig: EigenData, n_max: int,
                  grid: int) -> tuple[list[float], list[float]]:
    """(a(1..n_max), b(1..n_max)) from one sweep of the tableau per depth.

    The latest result is kept in one slot on ``eig``, keyed by ``sys``
    (identity), ``n_max`` and ``grid``.
    """
    slot = eig._ab_slot
    if slot is not None and slot[0] is sys and slot[1:3] == (n_max, grid):
        return slot[3], slot[4]
    depths = [_ab_depth(sys, eig, n, grid) for n in range(1, n_max + 1)]
    seqs = ([a for a, _ in depths], [b for _, b in depths])
    eig._ab_slot = (sys, n_max, grid, *seqs)
    return seqs


def a_sequence(sys: MarkovSystem, eig: EigenData, n_max: int,
               grid: int) -> list[float]:
    """a(n), n = 1..n_max: the worst total mu_sigma-Jacobian weight, at the
    sigma of ``eig``, of the preimages whose closed slope intervals meet that
    of one preimage x0 (touching intervals meet), over the y grid.

    Read with b(n) off one endpoint sweep of each depth's tableau; the
    result stays in one slot on ``eig``, so ``b_sequence`` with the same
    system, n_max and grid builds nothing again.
    """
    return list(_ab_sequences(sys, eig, n_max, grid)[0])


def b_sequence(sys: MarkovSystem, eig: EigenData, n_max: int,
               grid: int) -> list[float]:
    """b(n), n = 1..n_max: the worst weighted stabbing number of the closed
    slope intervals, each preimage weighted by its inverse Jacobian of
    mu_sigma at the sigma of ``eig``, over the y grid.

    The sweep fires every opening before any closing at an equal
    coordinate and takes the largest prefix sum of the signed weights.  It
    is shared with ``a_sequence`` through the one-slot memo on ``eig``.
    """
    return list(_ab_sequences(sys, eig, n_max, grid)[1])


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
    S_J r along the word of the backward chain, at y minus at y0.

    The points of every element whose chain gives the same word are pulled
    back in one ``branch_chain`` call, y0 with them; each point is solved
    on its own, so its value does not depend on what else the call holds.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    elems = sys.element_of(pts)
    words = [tuple(reversed(chains[e][:J])) for e in range(sys.m)]
    for word in dict.fromkeys(words):
        mask = np.isin(elems, [e for e in range(sys.m) if words[e] == word])
        if mask.any():
            snr = branch_chain(sys, word, np.append(pts[mask], y0))["Snr"]
            out[mask] = snr[:-1] - snr[-1]
    return out


def coboundary_test(sys: MarkovSystem, J_trunc: int, tol: float) -> dict:
    """Test whether the roof is an automorphic coboundary: r = theta o T -
    theta + chi with chi constant on partition elements.

    theta is built by telescoping pullbacks along a fixed backward branch
    chain per element (greedy lowest admissible index); a second chain
    (greedy highest) provides an independent witness.  The residual is
    read at 512 points per element.  theta is evaluated in one batch per
    chain family: at the points and their images under T for the lowest
    chains, at the points for the highest.
    """
    lam, c4 = sys.constants.lam, sys.constants.c4
    chains_lo = {e: _greedy_chain(sys, e, J_trunc, lowest=True)
                 for e in range(sys.m)}
    chains_hi = {e: _greedy_chain(sys, e, J_trunc, lowest=False)
                 for e in range(sys.m)}
    y0 = 0.5

    xs = np.stack([np.linspace(a + (b - a) * 1e-9, b - (b - a) * 1e-9, 512)
                   for a, b in map(sys.element_interval, range(sys.m))])
    tx = np.clip(sys.apply_T(xs), 0.0, np.nextafter(1.0, 0.0))
    theta, theta_tx = _theta_eval(sys, chains_lo, y0,
                                  np.stack([xs, tx]), J_trunc)
    theta_hi = _theta_eval(sys, chains_hi, y0, xs, J_trunc)
    residual = 0.0
    chi = []
    chain_dev = 0.0
    for e in range(sys.m):
        g = sys.r[e].value(x=xs[e]) - theta_tx[e] + theta[e]
        residual = max(residual, float(g.max() - g.min()))
        chi.append(float(np.mean(g)))
        d = theta[e] - theta_hi[e]
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


def transversal_scales(sys: MarkovSystem, delta: float):
    """(n2, Delta, tails) of the transversality construction at delta:
    n2 = floor(log(1/delta) / log rho), Delta = 4 pi / (C7 delta) and
    tails = ``word_array(sys, n2)``, the depth-n2 words ``transversal_pair``
    picks from.  n2 < 1 is refused; C7 must be positive."""
    c = sys.constants
    n2 = int(math.floor(math.log(1.0 / delta) / math.log(c.rho)))
    if n2 < 1:
        raise ValueError(f"n2 = {n2} below 1")
    return n2, 4.0 * math.pi / (c.c7 * delta), word_array(sys, n2)


def uni_from_transversality(sys: MarkovSystem, delta: float, b: float,
                            beta: float) -> dict:
    """Verify the quantitative pointwise-UNI conclusion drawn from
    transversality: with n2 and Delta from ``transversal_scales``, n1 =
    floor(beta log |b|) and D = (C7/2) rho^{-n2}, every y with a depth-n2
    transversal tail pair satisfies |D psi(z)| >= D on B(y, Delta/|b|)
    intersected with the pair's domain.  It is checked at 33 points y and,
    around each, at 32 points z."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0,1)")
    c7, rho = sys.constants.c7, sys.constants.rho
    if c7 == 0.0:
        return {"D": 0.0, "Delta": math.inf, "pass_rate": 0.0,
                "no_pair_everywhere": True, "results": []}
    n2, Delta, tails = transversal_scales(sys, delta)
    n1 = int(math.floor(beta * math.log(abs(b))))
    n = n1 + n2
    D = 0.5 * c7 * rho ** (-n2)
    radius = Delta / abs(b)

    results = []
    npass = 0
    nfail = 0
    for y in np.linspace(1e-6, 1 - 1e-6, 33):
        found = transversal_pair(sys, tails, n1, y)
        if found is None:
            results.append({"y": float(y), "status": "NoTransversalPair"})
            continue
        pair, (lo, hi) = found
        zs = np.linspace(max(lo, y - radius), min(hi, y + radius), 32)
        # |D psi| = |D(S_n r o h_w1) - D(S_n r o h_w2)|
        dsnr = pullback(sys, sorted(pair), zs, ("DSnr_h",)).DSnr_h
        margin = float(np.min(np.abs(dsnr[0] - dsnr[1]))) - D
        ok = margin >= 0.0
        npass += ok
        nfail += not ok
        results.append({"y": float(y), "status": "ok" if ok else "fail",
                        "margin": margin, "pair": pair})
    tested = npass + nfail
    return {
        "n1": n1, "n2": n2, "n": n, "D": D, "Delta": Delta,
        "pass_rate": (npass / tested) if tested else 0.0,
        "worst_margin": min((r["margin"] for r in results if "margin" in r),
                            default=math.nan),
        "no_pair_everywhere": tested == 0,
        "results": results,
    }


def transversal_pair(sys: MarkovSystem, tails: np.ndarray, n1: int, y: float):
    """((w1, w2), (lo, hi)): depth-(n1 + n2) words through y whose depth-n2
    tails have the widest gap between their slope intervals at y, each tail
    extended by its greedy prefix, the lowest-index admissible word of
    length n1 that may precede it, and the pair's domain, where both inverse
    branches are defined; None when no two tails through y are transversal.

    ``tails`` is ``word_array(sys, n2)``; the tails whose domain holds y are
    pulled back in one engine call, and ties go to the first pair in
    lexicographic order.  n1 < 0, from |b| < 1, is refused.
    """
    if n1 < 0:
        raise FrequencyTooSmallError(
            f"prefix length n1 = {n1} < 0: |b| is below 1")
    tails = tails[_closed_images(sys, np.array([y]))[tails[:, -1], 0]]
    if len(tails) < 2:
        return None
    pb = pullback(sys, tails, np.array([y]), ("dTn", "DSnr_h"))
    lo, hi = _slope_interval(sys.constants.c7, pb.DSnr_h[:, 0], pb.dTn[:, 0])
    gap = np.maximum(lo[None, :] - hi[:, None], lo[:, None] - hi[None, :])
    gap[np.tril_indices(len(tails))] = 0.0
    best = int(np.argmax(gap))
    if gap.flat[best] <= 0.0:
        return None
    t1, t2 = (tuple(tails[a].tolist()) for a in divmod(best, len(tails)))
    (lo1, hi1), (lo2, hi2) = (sys.image_interval(t[-1]) for t in (t1, t2))
    return ((tuple(reversed(_greedy_chain(sys, t1[0], n1))) + t1,
             tuple(reversed(_greedy_chain(sys, t2[0], n1))) + t2),
            (max(lo1, lo2), min(hi1, hi2)))
