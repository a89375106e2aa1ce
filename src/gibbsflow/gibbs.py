"""Gibbs measures on the base map: cylinder masses, the Gibbs-property
audit, sampling and adapted partitions.

The audit reads everything off the pullback engine, in two
``column_blocks`` passes: the inverse Jacobians and their normaliser at
the nodes for the masses, and the orbit sums at the reference points.
Both are built on the same ``symbol_trees``, so at every depth their rows
are the same words in the same order, and the audit divides them row by
row as the engine lays them out.  The mass
tables pull the shallow depths back once over the whole node grid and the
deeper ones on column blocks of it, so the most they hold at once is about
two and a half arrays of at most ``system._BUDGET`` (word, node) pairs,
however deep the audit: its memory is set by one column block, not by the
depth.

The backward chain that samples mu holds its states in ascending order,
so that each branch is solved on one slice of them, and scipy's PPoly,
which starts each interval search at the previous point's interval,
evaluates f along monotone runs.  On the doubling presets (SYS-A, SYS-B,
SYS-A-LINROOF) f is 1 at every node at sigma = 0, and the sampler reads
it without PPoly (``operator._ConstantRead``).  Branch i lands in element
i, so grouping the new states by chosen branch keeps them ascending with
no float sort.  Each state is solved and weighed on its own, so no value
depends on the order.  A count runs on ceil(count / 32) chains, each
emitting at most 32 states, every 10th after a burn-in from mu_N long
enough that every cylinder of its depth is at most 2^-53 long: the least
k that some d = 1..4 certifies through the d-step expansion inf |(T^d)'|
of ``MarkovSystem.expansion`` (``_burn_in``).

The adapted partition is walked on arrays of words and cylinder ends, one
level at a time, through the children of the cylinders still too long.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operator import EigenData
from .system import (MarkovSystem, NotCoveringError, NotExpandingError,
                     _cylinder_ends, check_word_cap, column_blocks,
                     count_words, symbol_trees, word_array)

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


def _mass_tables(sys: MarkovSystem, eig: EigenData, trees: list):
    """Yield the masses of every depth 1..n, from ``trees``, the
    ``symbol_trees`` of the (K, n) ``word_array`` of all admissible depth-n
    words.

    ``column_blocks`` pulls the nodes of the elements in the image of each
    symbol s back along the admissible words ending in s, depth by depth,
    carrying only the inverse Jacobians J_w (see ``Pullback``).  Their sum
    over all words, the normaliser, is L_sigma^n 1 = 1 only up to
    interpolation error in f, so J is normalised pointwise before the
    quadrature against the node weights of mu gives the mass of each
    cylinder.  A depth's masses are in tree order: for s = 0..m-1, the
    depth's distinct words ending in s, in lexicographic order.

    The shared depths, whose whole level fits half the engine's budget
    (``system._BUDGET`` (word, node) pairs, counted for J alone, the one
    field asked for), are pulled back once over the whole node grid, and
    their masses are one J @ (mu / norm) each.  The deeper depths run on
    column blocks of the grid, all of them for one block before the next, each
    resuming from the last shared depth.  The normaliser at a node is a
    sum down its column, so a block holds the whole normaliser of its own
    columns, with the bits it has over the whole grid, and a deeper depth's
    masses add J @ (mu / norm) over the block's columns, block after block.
    A depth's J is dropped before the next depth is built.  So the most the
    tables hold at once is the last shared depth's x, at most _BUDGET / 2
    pairs, and, for a block, its last depth's J and previous x, each at
    most _BUDGET pairs; and the masses of every depth.  The engine's log
    weight adds a column per word when phi (and r at sigma != 0) is
    constant on each element, else as much as x again.
    """
    if not np.all(sys.transition.any(axis=0)):
        # the engine builds the lower depths as suffixes of the deepest words
        raise NotCoveringError("some symbol has no predecessor")
    nodes, mu = eig.f.nodes.reshape(-1), eig.mu.reshape(-1)
    holds = sys.transition[:, np.repeat(np.arange(sys.m), eig.N)]
    # per depth, the masses of each tree, in tree order
    tables = [{s: np.zeros(len(levels[k][0])) for s, levels in trees}
              for k in range(len(trees[0][1]))]
    for k, block, blocks, norm in column_blocks(
            sys, trees, nodes, holds, ("J",), eig, every_depth=True):
        weights = mu[block]
        for s, cols, pb in blocks:
            tables[k - 1][s] += pb.J @ (weights[cols] / norm[cols])
        del blocks, norm, pb  # no J of this depth while the next is built
    for depth in tables:
        yield np.concatenate(list(depth.values()))


def gibbs_audit(sys: MarkovSystem, eig: EigenData, max_depth: int) -> dict:
    """Two-sided empirical Gibbs constant: extremes over depth n <= max_depth
    of mass(omega) / exp(-P n + S_n(phi - sigma r)(x_omega)).

    The reference point of a cylinder omega is x_omega = h_omega(y), y the
    midpoint of the domain of h_omega (the image of omega's last symbol); on
    affine branches it is the cylinder's midpoint.  The orbit sums come from
    ``column_blocks`` with symbol s holding the midpoint of its image
    alone, on the trees of ``_mass_tables``, once the masses are done, and
    are kept by depth and tree, so row k of the sums and row k of the
    masses are the same cylinder.  The trees hold no words, so the words
    are held once, while the trees are built.
    """
    lo, hi = np.inf, 0.0
    per_depth = {}
    P = eig.pressure
    trees = symbol_trees(sys, word_array(sys, max_depth))
    tables = list(_mass_tables(sys, eig, trees))
    mids = np.array([0.5 * sum(sys.image_interval(s)) for s in range(sys.m)])
    sums = {}  # (depth, symbol): S_n(phi - sigma r) at the tree's rows
    for k, _, blocks, _ in column_blocks(
            sys, trees, mids, np.eye(sys.m, dtype=bool), ("Snr", "Snphi"),
            every_depth=True):
        for s, _, pb in blocks:
            sums[k, s] = (pb.Snphi - eig.sigma * pb.Snr)[:, 0]
    for n, masses in enumerate(tables, start=1):
        sn = np.concatenate([sums.pop((n, s)) for s, _ in trees])
        ratios = masses / np.exp(-P * n + sn)
        per_depth[n] = (float(ratios.min()), float(ratios.max()))
        lo = min(lo, per_depth[n][0])
        hi = max(hi, per_depth[n][1])
    c5 = max(hi, 1.0 / lo)
    return {"C5_lower": lo, "C5_upper": hi, "C5": float(c5),
            "per_depth": per_depth}


def _backward_step(sys: MarkovSystem, eig: EigenData, x: np.ndarray):
    """Preimages and backward transition probabilities at the points x,
    which must ascend.

    Returns ``(ys, weights)``, both (m, len(x)): ys[i] = h_i(x) and
    weights[i] proportional to exp((phi - sigma r)(ys[i])) f(ys[i]) where
    branch i is admissible at x, zeros elsewhere; each column of weights
    sums to 1.

    As x ascends, the points where branch i is admissible, those whose
    element (left-closed) lies in its image, are one run of x, whose ends
    are two of the ``searchsorted`` ends of the partition in x.  Branch i
    is solved on that run alone and writes its rows' slice in place; a
    branch whose image is the whole interval writes its rows whole.  The
    exponent is ``MarkovSystem.log_weight``'s, which skips r at sigma = 0.

    f is evaluated once, on every preimage stacked, in the order given.
    Each h_i is monotone, so each row is one monotone run between runs of
    the zeros that stand for inadmissible points, and scipy's PPoly, which
    starts each point's interval search at the previous point's interval,
    mostly finds the point in the interval it already holds instead of
    bisecting all the breakpoints; where f is one number at every node,
    the read skips PPoly and returns it.  Each point is solved and
    evaluated on its own, so no value depends on where its run starts, and
    the zeros of the weights stay zeros.
    """
    ys = np.zeros((sys.m, len(x)))
    weights = np.zeros((sys.m, len(x)))
    # x[ends[e]:ends[e + 1]] are the points of element e
    ends = np.concatenate([[0], np.searchsorted(x, sys.partition[1:-1]),
                           [len(x)]])
    for i, (lo, hi) in enumerate(sys.images):
        run = slice(ends[lo], ends[hi])
        if run.start < run.stop:
            sys.inverse_branch(i, x[run], out=ys[i, run])
            g, _ = sys.log_weight(i, eig.sigma, ys[i, run])
            np.exp(g, out=weights[i, run])
    weights *= eig.f.eval(ys).real
    weights /= weights.sum(axis=0)
    return ys, weights


def _burn_in(sys: MarkovSystem) -> int:
    """The least k with floor(k/d) log2 Lambda_d + (k mod d) log2 lam >= 53
    for some d = 1, 2, ..., where Lambda_d = inf |(T^d)'| is
    ``sys.expansion[d - 1]`` and lam = Lambda_1 = inf |T'|: every depth-k
    cylinder is then at most Lambda_d^-floor(k/d) lam^-(k mod d) <= 2^-53
    long (see ``sample_mu``).  d = 1 alone gives ceil(53 / log2 lam), so
    k is never above it; on NL-DOUBLING d = 4 gives 72 where d = 1 gives
    168.  A d with Lambda_d <= 1 certifies nothing and is skipped.  Each
    of the ceil(count / _EMITS) chains of ``sample_mu`` runs these k steps
    before its first emit."""
    blocks = sys.expansion
    if blocks[0] <= 1.0:
        raise NotExpandingError(f"inf |T'| = {blocks[0]} <= 1")
    step = math.log2(blocks[0])
    return next(k for k in itertools.count(1) if any(
        (k // d) * math.log2(big) + (k % d) * step >= 53
        for d, big in enumerate(blocks, start=1) if big > 1.0))


# the most states a chain of sample_mu emits.  A step costs about as much
# for a few hundred chains as for a few thousand (numpy's per-call overhead
# leads), so the steps a count takes, burn-in + 10 emits, fall with the
# emits per chain, while the burn-in's share of the chains' work grows:
# 32 emits take 373 steps on SYS-B and 392 on NL-DOUBLING, a burn-in share
# of 14 % and 18 %
_EMITS = 32


def sample_mu(sys: MarkovSystem, eig: EigenData, count: int,
              seed: int) -> np.ndarray:
    """Backward-chain sampler whose stationary law is mu_sigma.

    One step jumps from x to the preimage y = h_i(x) with probability
    proportional to exp((phi - sigma r)(y)) f(y), normalised over the
    admissible branches: the transition operator of the chain is the
    normalised operator L_sigma, so E g(x_{j+1}) = E (L_sigma g)(x_j).

    Each chain starts from mu_N, the node weights ``eig.mu`` of the
    eigendata, and runs the k steps of burn-in ``_burn_in`` certifies (53
    on the doubling map, 72 on NL-DOUBLING).  Then E g(x_k) = mu_N(L^k g),
    while mu(L^k g) = mu(g) by invariance.  For A a union of depth-k
    cylinders, L^k 1_A = sum over words w inside A of J_w is smooth, so
    |P(x_k in A) - mu(A)| is the quadrature error of mu_N on a smooth
    function, the discretisation error the eigendata already has.  A
    depth-k cylinder is mapped by T^k onto an interval of length <= 1, and
    (T^k)' splits into floor(k/d) runs of d steps and k mod d single steps,
    so for the d ``_burn_in`` found every depth-k cylinder is at most
    Lambda_d^-floor(k/d) lam^-(k mod d) <= 2^-53 long, Lambda_d = inf
    |(T^d)'| and lam = inf |T'| (``sys.expansion``); so every interval is
    such a union up to its two end cylinders.  From a fixed start x0 the
    depth-k word of x_k has law J_w(x0) instead, which differs from mu[w]
    whenever J_w depends on x: no number of steps certifies that start.

    A step draws one uniform u per chain and moves to the preimage of the
    first branch whose running sum of weights, over the m rows of
    ``_backward_step`` in branch order, reaches u; to the last branch's
    when none does (rounding can leave the total just below u).  The
    weights are >= 0, so the running sums never decrease and that branch
    is the one a cumulative sum of the weights picks.

    The states are held in ascending order, which ``_backward_step``
    requires, with ``perm`` mapping each position to its chain: the mu_N
    start is sorted once, each step reads the chains' uniforms through
    ``perm``, and each emit writes its states back to their chains.  Order
    is kept without sorting a float: branch i lands in element i, left of
    branch i + 1, and is monotone, so a stable sort of the chosen branches,
    with the group of a decreasing branch reversed, leaves the new states
    ascending.  Every state is solved and weighed on its own and meets its
    chain's uniform, so no sample depends on the order.

    After burn-in every 10th state is emitted; ``count`` samples run on
    ceil(count / _EMITS) independent chains in parallel, so each chain
    emits at most _EMITS states, all from one seed stream (the start, then
    one uniform per chain per step).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    thin = 10
    chains = -(-count // _EMITS)
    per = -(-count // chains)  # emits per chain, at most _EMITS
    burn_in = _burn_in(sys)
    rng = np.random.default_rng(seed)
    start = rng.choice(eig.f.nodes.reshape(-1), size=chains,
                       p=eig.mu.reshape(-1))
    perm = np.argsort(start, kind="stable")  # position -> chain
    x = start[perm]
    decreasing = np.flatnonzero(~sys.increasing)
    # the smallest type that holds a branch index, which numpy sorts
    # stably by radix
    index_type = np.min_scalar_type(sys.m - 1)

    def step(x, perm):
        ys, weights = _backward_step(sys, eig, x)
        u = rng.random(chains)[perm]
        # the first row whose running sum of weights reaches u, else the last
        branch = np.zeros(chains, dtype=index_type)
        c = weights[0]
        for w in weights[1:]:
            branch += c < u
            c = c + w
        order = np.argsort(branch, kind="stable")
        if decreasing.size:
            ends = np.cumsum(np.bincount(branch, minlength=sys.m))
            for i in decreasing:  # its preimages descend as x ascends
                group = slice(ends[i - 1] if i else 0, ends[i])
                order[group] = order[group][::-1]
        return ys[branch[order], order], perm[order]

    for _ in range(burn_in):
        x, perm = step(x, perm)
    out = np.empty((per, chains))
    for k in range(per):
        for _ in range(thin):
            x, perm = step(x, perm)
        out[k, perm] = x
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
    keep their bits whatever chunk pulls them back.
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
