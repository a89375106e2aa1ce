"""Gibbs measures on the base map: cylinder masses, the Gibbs-property
audit, sampling and adapted partitions.

The audit reads everything off ``symbol_pullbacks``: the inverse
Jacobians and their normaliser at the nodes for the masses, and the orbit
sums at the reference points.  Both are built on the same words, so at
every depth their rows are the same words in the same order, and the
audit divides them row by row as the engine lays them out.

The adapted partition is walked on arrays of words and cylinder ends, one
level at a time, through the children of the cylinders still too long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import EigenData
from .system import (MarkovSystem, NotCoveringError, NotExpandingError,
                     _cylinder_ends, check_word_cap, count_words,
                     symbol_pullbacks, word_array)

__all__ = [
    "AdaptedPartition", "FrequencyTooSmallError",
    "gibbs_audit", "sample_mu", "adapted_partition",
]


class FrequencyTooSmallError(ValueError):
    pass


@dataclass
class AdaptedPartition:
    """The elements of an adapted partition, as arrays sorted by ``left``:
    each element's cylinder ends."""
    left: np.ndarray
    right: np.ndarray


def _mass_tables(sys: MarkovSystem, eig: EigenData, words: np.ndarray):
    """Yield (words, masses) for every depth 1..n, from ``words``, the
    (K, n) ``word_array`` of all admissible depth-n words.

    ``symbol_pullbacks`` pulls the nodes of the elements in the image of
    each symbol s back along the admissible words ending in s, depth by
    depth, carrying only the inverse Jacobians J_w (see ``Pullback``).
    Their sum over all words, the normaliser, is L_sigma^n 1 = 1 only up to
    interpolation error in f, so J is normalised pointwise before the
    quadrature against the node weights of mu gives the mass of each
    cylinder.  The rows at a depth are the runs' rows, symbol after symbol:
    for s = 0..m-1, the words ending in s, in lexicographic order.
    """
    if not np.all(sys.transition.any(axis=0)):
        # the engine builds the lower depths as suffixes of the deepest words
        raise NotCoveringError("some symbol has no predecessor")
    elements = np.repeat(np.arange(sys.m), eig.N)
    runs = symbol_pullbacks(sys, words, eig.f.nodes.reshape(-1),
                            sys.transition[:, elements], ("J",), eig,
                            every_depth=True)
    del words  # the runs drop it too once each holds its own rows
    mu = eig.mu.reshape(-1)
    for blocks, norm in runs:
        table = (np.concatenate([pb.words for _, _, pb in blocks]),
                 np.concatenate([pb.J @ (mu[cols] / norm[cols])
                                 for _, cols, pb in blocks]))
        del blocks, norm  # this depth's J is gone before the next is built
        yield table


def gibbs_audit(sys: MarkovSystem, eig: EigenData, max_depth: int) -> dict:
    """Two-sided empirical Gibbs constant: extremes over depth n <= max_depth
    of mass(omega) / exp(-P n + S_n(phi - sigma r)(x_omega)).

    The reference point of a cylinder omega is x_omega = h_omega(y), y the
    midpoint of the domain of h_omega (the image of omega's last symbol); on
    affine branches it is the cylinder's midpoint.  The orbit sums come from
    ``symbol_pullbacks`` with symbol s holding the midpoint of its image
    alone, on the words of ``_mass_tables``, so row k of the sums and row k
    of the masses are the same cylinder.
    """
    lo, hi = np.inf, 0.0
    per_depth = {}
    P = eig.pressure
    words = word_array(sys, max_depth)
    mids = np.array([0.5 * sum(sys.image_interval(s)) for s in range(sys.m)])
    points = symbol_pullbacks(sys, words, mids, np.eye(sys.m, dtype=bool),
                              ("Snr", "Snphi"), every_depth=True)
    tables = _mass_tables(sys, eig, words)
    del words  # the runs drop it too once each holds its own rows
    for n, ((_, masses), (blocks, _)) in enumerate(zip(tables, points),
                                                   start=1):
        sn = np.concatenate([(pb.Snphi - eig.sigma * pb.Snr)[:, 0]
                             for _, _, pb in blocks])
        ratios = masses / np.exp(-P * n + sn)
        per_depth[n] = (float(ratios.min()), float(ratios.max()))
        lo = min(lo, per_depth[n][0])
        hi = max(hi, per_depth[n][1])
    c5 = max(hi, 1.0 / lo)
    return {"C5_lower": lo, "C5_upper": hi, "C5": float(c5),
            "per_depth": per_depth}


def _backward_step(sys: MarkovSystem, eig: EigenData, x: np.ndarray):
    """Preimages and backward transition probabilities at the points x.

    Returns ``(ys, weights)``, both (m, len(x)): ys[i] = h_i(x) and
    weights[i] proportional to exp((phi - sigma r)(ys[i])) f(ys[i]) where
    branch i is admissible at x, zeros elsewhere; each column of weights
    sums to 1.

    A branch whose image is the whole interval is admissible at every
    point: it is solved on x itself and writes its rows whole.  Any other
    branch is solved on the indices of its admissible points alone.  The
    exponent is ``MarkovSystem.log_weight``'s, which skips r at sigma = 0.

    f is evaluated once, on every preimage stacked, with the columns taken
    in the order of x.  Each h_i is monotone and the x where branch i is
    admissible form one interval, so each row is then one monotone run
    between runs of the zeros that stand for inadmissible points.  scipy's
    PPoly starts each point's interval search at the previous point's
    interval, so it mostly finds the point in the interval it already
    holds instead of bisecting all the breakpoints.  A point's value does
    not depend on the order, so the weights keep their bits, and the
    zeros of the weights stay zeros.
    """
    ys = np.zeros((sys.m, len(x)))
    weights = np.zeros((sys.m, len(x)))
    elem = None
    for i in range(sys.m):
        if sys.transition[i].all():
            k = slice(None)
        else:
            if elem is None:
                elem = sys.element_of(x)
            k = np.flatnonzero(sys.transition[i, elem])
            if not k.size:
                continue
        y = sys.inverse_branch(i, x[k])
        ys[i, k] = y
        g, _ = sys.log_weight(i, eig.sigma, y)
        weights[i, k] = np.exp(g)
    order = np.argsort(x)
    f_sorted = eig.f.eval(ys.take(order, axis=1)).real
    for w, fy in zip(weights, f_sorted):
        w[order] *= fy
    weights /= weights.sum(axis=0)
    return ys, weights


def _burn_in(sys: MarkovSystem) -> int:
    """k = ceil(53 / log2 lam) with lam = inf |T'| from ``sys.constants``:
    every depth-k cylinder is then at most 2^-53 long (see ``sample_mu``)."""
    lam = sys.constants.lam
    if lam <= 1.0:
        raise NotExpandingError(f"inf |T'| = {lam} <= 1")
    return math.ceil(53 / math.log2(lam))


def sample_mu(sys: MarkovSystem, eig: EigenData, count: int,
              seed: int) -> np.ndarray:
    """Backward-chain sampler whose stationary law is mu_sigma.

    One step jumps from x to the preimage y = h_i(x) with probability
    proportional to exp((phi - sigma r)(y)) f(y), normalised over the
    admissible branches: the transition operator of the chain is the
    normalised operator L_sigma, so E g(x_{j+1}) = E (L_sigma g)(x_j).

    Each chain starts from mu_N, the node weights ``eig.mu`` of the
    eigendata, and runs k = ceil(53 / log2 lam) steps of burn-in, lam =
    inf |T'| from ``sys.constants`` (53 on the doubling map).  Then E g(x_k)
    = mu_N(L^k g), while mu(L^k g) = mu(g) by invariance.  For A a union of
    depth-k cylinders, L^k 1_A = sum over words w inside A of J_w is smooth,
    so |P(x_k in A) - mu(A)| is the quadrature error of mu_N on a smooth
    function, the discretisation error the eigendata already has.  Every
    depth-k cylinder is at most lam^-k <= 2^-53 long, so every interval is
    such a union up to its two end cylinders.  From a fixed start x0 the
    depth-k word of x_k has law J_w(x0) instead, which differs from mu[w]
    whenever J_w depends on x: no number of steps certifies that start.

    A step draws one uniform u per chain and moves to the preimage of the
    first branch whose running sum of weights, over the m rows of
    ``_backward_step`` in branch order, reaches u; to the last branch's
    when none does (rounding can leave the total just below u).  The
    weights are >= 0, so the running sums never decrease and that branch
    is the one a cumulative sum of the weights picks.

    After burn-in every 10th state is emitted; ``count`` samples run on
    min(max(1, count // 64), 4096) independent chains in parallel, all from
    one seed stream (the start, then one uniform per chain per step).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    thin = 10
    chains = int(min(max(1, count // 64), 4096))
    per = -(-count // chains)  # emits per chain
    burn_in = _burn_in(sys)
    rng = np.random.default_rng(seed)
    x = rng.choice(eig.f.nodes.reshape(-1), size=chains, p=eig.mu.reshape(-1))

    def step(x):
        ys, weights = _backward_step(sys, eig, x)
        u = rng.random(chains)
        # the first row whose running sum of weights reaches u, else the last
        y, c = ys[0], weights[0]
        for row, w in zip(ys[1:], weights[1:]):
            y = np.where(c < u, row, y)
            c = c + w
        return y

    for _ in range(burn_in):
        x = step(x)
    out = np.empty((per, chains))
    for k in range(per):
        for _ in range(thin):
            x = step(x)
        out[k] = x
    return out.reshape(-1)[:count]


# -- adapted partitions --------------------------------------------------------


# open cylinders whose children one pass of adapted_partition pulls back
_CHUNK = 1 << 15


def adapted_partition(sys: MarkovSystem, b: float, Delta: float) -> AdaptedPartition:
    """Partition into cylinders Q = P^(l(x,b))(x) where l(x,b) is the largest
    depth whose cylinder still has diameter >= t = 2 Delta / |b|.

    Level by level, the open cylinders (all of depth 1, then those >= t)
    have their children's ends pulled back (``_cylinder_ends``).  An open
    cylinder with no child >= t is an element; otherwise its children >= t
    are open and the shorter ones are elements, so the family stays
    disjoint where siblings straddle the cutoff.

    A depth-d cylinder is at least min_diam rho^-(d-1) long, so every
    cylinder of depth d <= 1 + log(min_diam / t) / log rho is refined and
    every cylinder one level deeper is built.  When that level has more
    words than ``word_array``'s cap, CapExceededError is raised before any
    cylinder is built; so it is for any later level of children past the
    cap, before any child of that level is built.

    A level is walked in chunks of _CHUNK open cylinders, each chunk's
    children pulled back, classified and dropped before the next, so the
    memory a level takes is bounded by the chunk, not by the level.  The
    elements are sorted by ``left`` at the end, stably.  A cylinder's ends
    keep their bits whatever chunk pulls them back, unless a batched solve
    there falls back to Newton (SYS-C's branch 1 at 1/3): Newton steps
    every point of its block until the slowest converges, which can move
    an end by an ulp or two.
    """
    rho = sys.constants.rho
    min_diam = float(np.min(np.diff(sys.partition)))
    if abs(b) <= 2 * Delta * rho / min_diam:
        raise FrequencyTooSmallError(
            f"|b|={abs(b)} <= 2*Delta*rho/min_diam={2 * Delta * rho / min_diam}")
    t = 2.0 * Delta / abs(b)
    full = 2 + math.floor(math.log(min_diam / t) / math.log(rho))
    check_word_cap(count_words(sys, full), full)
    tol = t * 1e-9  # endpoints come out of a root solve; compare with slack

    words = np.arange(sys.m)[:, None]
    left, right = sys.partition[:-1], sys.partition[1:]
    fanout = sys.transition.sum(axis=1)
    found = []  # (left, right) of the elements found, chunk after chunk
    while len(words):
        check_word_cap(int(fanout[words[:, -1]].sum()), words.shape[1] + 1)
        opened = []  # (words, left, right) of the next level, chunk after chunk
        for c in range(0, len(words), _CHUNK):
            chunk = slice(c, c + _CHUNK)
            heads = words[chunk]
            parent, nxt = np.nonzero(sys.transition[heads[:, -1]])
            kids = np.column_stack([heads[parent], nxt])
            kid_left, kid_right = _cylinder_ends(sys, kids)
            big = kid_right - kid_left >= t - tol
            refined = np.zeros(len(heads), dtype=bool)
            refined[parent[big]] = True
            small = ~big & refined[parent]
            found += [(left[chunk][~refined], right[chunk][~refined]),
                      (kid_left[small], kid_right[small])]
            opened.append((kids[big], kid_left[big], kid_right[big]))
        words, left, right = (np.concatenate(column)
                              for column in zip(*opened))
    left, right = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(left, kind="stable")
    return AdaptedPartition(left[order], right[order])
