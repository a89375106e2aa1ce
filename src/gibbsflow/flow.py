"""Suspension semiflow over the base map under the roof function: evolution,
sampling of the lifted invariant measure, and Monte-Carlo correlation
estimates with an exponential-rate fit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import compile_expr, parse
from .gibbs import sample_mu
from .operator import EigenData
from .system import MarkovSystem

__all__ = ["BATCHES", "FlowSample", "CorrelationSeries",
           "InsufficientSignalError", "evolve_many", "sample_flow_measure",
           "correlation"]


# batch means behind the standard errors of ``correlation``
BATCHES = 32
# standard deviations of the binomial count of kept points that a base
# batch of ``sample_flow_measure`` adds to its mean: a batch falls short,
# and draws again, with probability about 1e-12
_MARGIN = 7


class InsufficientSignalError(RuntimeError):
    """Fewer than four correlation points rise above the noise floor."""


def evolve_many(sys: MarkovSystem, xs, us, rs, t):
    """Flow the state (x, u, r(x)) for time t >= 0: advance through the base
    map whenever the accumulated height crosses the roof (Birkhoff-sum
    bracketing).  ``rs`` holds the roof values at xs; the roof is read only
    at the points where an orbit lands, and the returned ``rs`` are the
    roof values at the returned xs, so calls compose as
    ``evolve_many(sys, *evolve_many(sys, xs, us, rs, t1), t2)``."""
    xs = np.array(xs, dtype=float, copy=True)
    s = np.array(us, dtype=float, copy=True) + np.asarray(t, dtype=float)
    rs = np.array(rs, dtype=float, copy=True)
    if np.any(s < 0):
        raise ValueError("flow time must be nonnegative")
    x_flat, s_flat, r_flat = xs.reshape(-1), s.reshape(-1), rs.reshape(-1)
    # only the points still crossing a roof are moved and read again
    active = np.flatnonzero(s_flat >= r_flat)
    while active.size:
        s_flat[active] -= r_flat[active]
        landed = sys.apply_T(x_flat[active])
        r = sys.roof_at(landed)
        x_flat[active], r_flat[active] = landed, r
        active = active[s_flat[active] >= r]
    return xs, np.maximum(s, 0.0), rs


@dataclass
class FlowSample:
    """Sample of the lifted measure: base points, heights and the roof at
    each base point (the state ``evolve_many`` carries), plus the
    stationarity diagnostic for the slab {u < inf r / 2}."""
    xs: np.ndarray
    us: np.ndarray
    rs: np.ndarray
    mean_roof: float
    slab_mass: float
    slab_expected: float
    slab_se: float


def sample_flow_measure(sys: MarkovSystem, eig: EigenData, count: int,
                        seed: int) -> FlowSample:
    """Draw from the invariant measure of the semiflow: base points from the
    Gibbs measure accepted with probability r(x)/sup r (density proportional
    to the roof), then a uniform height below the roof, scaled by the roof
    values the acceptance test read.  Those values are kept as the
    sample's ``rs``, so the flow does not read the roof there again.

    Each base point is kept with probability p = int r dmu / sup r, so a
    batch of b points keeps Binomial(b, p) of them.  With n points still
    needed, a batch is ceil((n + _MARGIN sqrt(n (1 - p))) / p): its mean
    kept count is n plus _MARGIN standard deviations, about 1.3 % over n on
    SYS-B at n = 100k.  A batch that still falls short is followed by
    another for the points missing, from the next seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sup_r = sys.constants.roof_sup * 1.001
    # int r dmu, by mu_N: each node row read with its own element's roof, as
    # a row's right end is that element's, not the next one's
    r_nodes = np.concatenate([sys.r[e].value(x=eig.f.nodes[e])
                              for e in range(sys.m)])
    rbar = float(np.sum(eig.mu.reshape(-1) * r_nodes))
    accept_est = rbar / sup_r
    xs_out, us_out, rs_out = [], [], []
    have = 0
    attempt = 0
    while have < count:
        n = count - have
        batch = math.ceil(
            (n + _MARGIN * math.sqrt(n * (1 - accept_est))) / accept_est)
        base = sample_mu(sys, eig, batch, seed=seed + 7919 * attempt)
        r = sys.roof_at(base)
        keep = rng.random(batch) < r / sup_r
        xs = base[keep]
        rs = r[keep]
        us = rng.random(xs.shape) * rs
        xs_out.append(xs)
        us_out.append(us)
        rs_out.append(rs)
        have += len(xs)
        attempt += 1
    xs = np.concatenate(xs_out)[:count]
    us = np.concatenate(us_out)[:count]
    rs = np.concatenate(rs_out)[:count]

    inf_r = sys.constants.roof_inf
    slab = float(np.mean(us < inf_r / 2))
    expected = (inf_r / 2) / rbar
    se = math.sqrt(max(expected * (1 - expected), 1e-12) / count)
    return FlowSample(xs=xs, us=us, rs=rs, mean_roof=rbar, slab_mass=slab,
                      slab_expected=expected, slab_se=se)


@dataclass
class CorrelationSeries:
    times: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    used_in_fit: np.ndarray
    rate: float
    prefactor: float
    t_star: float
    window: tuple


def _batch_means(a: np.ndarray) -> np.ndarray:
    """The means of the BATCHES contiguous segments of a, in order: the
    first len(a) % BATCHES are one element longer than the rest.  The
    segments of each length are the rows of one reshape, and each row's
    mean is one pairwise sum over it, as ``np.mean`` of the segment takes,
    so every mean has that call's bits, in two reductions where a loop took
    BATCHES."""
    q, r = divmod(len(a), BATCHES)
    cut = r * (q + 1)
    return np.concatenate([a[:cut].reshape(r, q + 1).mean(1),
                           a[cut:].reshape(BATCHES - r, q).mean(1)])


def correlation(sys: MarkovSystem, eig: EigenData, v_expr: str, w_expr: str,
                t_grid, samples: int, seed: int) -> CorrelationSeries:
    """Monte-Carlo correlation C(t) = E[v (w o X_t)] - E[v] E[w] of two
    observables in (x, u), with standard errors from BATCHES batch means and
    a weighted log-linear rate fit over the window where |C| > 3 SE.  Fewer
    samples than batches are refused: a batch would be empty.  Each t
    takes its batch means of v (w o X_t) and of w o X_t in two reductions
    each (``_batch_means``), the bits of one ``np.mean`` per batch.  The
    sample is flowed from one t to the next with its roof values carried
    along, so each step reads the roof only where an orbit lands."""
    if samples < BATCHES:
        raise ValueError(
            f"{samples} samples are fewer than the {BATCHES} batches")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    vf = compile_expr(parse(v_expr, variables=("x", "u")))
    wf = compile_expr(parse(w_expr, variables=("x", "u")))
    sample = sample_flow_measure(sys, eig, samples, seed)
    # sample j belongs to batch j mod BATCHES: batch b is the strided slice
    # [b::BATCHES] of the sample, laid out as one contiguous segment, batch
    # after batch (``_batch_means``); only the laid-out copy is kept
    cx, cu, cr = (np.concatenate([a[b::BATCHES] for b in range(BATCHES)])
                  for a in (sample.xs, sample.us, sample.rs))
    del sample
    v0 = np.broadcast_to(vf(x=cx, u=cu), cx.shape)
    v0_means = _batch_means(v0)

    ests, ses = [], []
    prev_t = 0.0
    for t in t_grid:
        cx, cu, cr = evolve_many(sys, cx, cu, cr, t - prev_t)
        prev_t = t
        wt = np.broadcast_to(wf(x=cx, u=cu), cx.shape)
        batch_est = _batch_means(v0 * wt) - v0_means * _batch_means(wt)
        ests.append(float(np.mean(batch_est)))
        ses.append(float(np.std(batch_est, ddof=1) / math.sqrt(BATCHES)))
    ests = np.array(ests)
    ses = np.array(ses)

    used = np.abs(ests) > 3.0 * ses
    above5 = np.abs(ests) >= 5.0 * ses
    t_star = float(t_grid[-1])
    for i in range(len(t_grid)):
        if not np.any(above5[i:]):
            t_star = float(t_grid[i])
            break
    if int(used.sum()) < 4:
        raise InsufficientSignalError(
            f"only {int(used.sum())} correlation points exceed 3 SE")
    tt = t_grid[used]
    yy = np.log(np.abs(ests[used]))
    wts = (np.abs(ests[used]) / ses[used]) ** 2
    W = np.sum(wts)
    tm = np.sum(wts * tt) / W
    ym = np.sum(wts * yy) / W
    slope = float(np.sum(wts * (tt - tm) * (yy - ym))
                  / np.sum(wts * (tt - tm) ** 2))
    rate = -slope
    prefactor = float(math.exp(ym - slope * tm))
    return CorrelationSeries(times=t_grid, estimates=ests, stderrs=ses,
                             used_in_fit=used, rate=rate, prefactor=prefactor,
                             t_star=t_star,
                             window=(float(tt[0]), float(tt[-1])))
