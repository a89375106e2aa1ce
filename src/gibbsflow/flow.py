"""Suspension semiflow over the base map under the roof function: evolution,
sampling of the lifted invariant measure, and Monte-Carlo correlation
estimates with an exponential-rate fit."""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import compile_expr, parse
from .gibbs import sample_mu
from .operator import EigenData
from .system import MarkovSystem

__all__ = ["FlowPoint", "FlowSample", "CorrelationSeries",
           "InsufficientSignalError", "evolve", "evolve_many",
           "sample_flow_measure", "correlation"]


class InsufficientSignalError(RuntimeError):
    """Fewer than four correlation points rise above the noise floor."""


@dataclass
class FlowPoint:
    x: float
    u: float


def evolve_many(sys: MarkovSystem, xs, us, t):
    """Flow (x, u) for time t >= 0: advance through the base map whenever the
    accumulated height crosses the roof (Birkhoff-sum bracketing)."""
    xs = np.array(xs, dtype=float, copy=True)
    s = np.array(us, dtype=float, copy=True) + np.asarray(t, dtype=float)
    if np.any(s < 0):
        raise ValueError("flow time must be nonnegative")
    x_flat, s_flat = xs.reshape(-1), s.reshape(-1)
    # only the points still crossing a roof are evaluated and moved
    active = np.arange(x_flat.size)
    while active.size:
        r = sys.roof_at(x_flat[active])
        crossing = s_flat[active] >= r
        active = active[crossing]
        s_flat[active] -= r[crossing]
        x_flat[active] = sys.apply_T(x_flat[active])
    return xs, np.maximum(s, 0.0)


def evolve(sys: MarkovSystem, p: FlowPoint, t: float) -> FlowPoint:
    x, u = evolve_many(sys, [p.x], [p.u], t)
    return FlowPoint(float(x[0]), float(u[0]))


@dataclass
class FlowSample:
    """Sample of the lifted measure: base points and heights, plus the
    stationarity diagnostic for the slab {u < inf r / 2}."""
    xs: np.ndarray
    us: np.ndarray
    mean_roof: float
    slab_mass: float
    slab_expected: float
    slab_se: float

    def __len__(self):
        return len(self.xs)

    def __getitem__(self, i) -> FlowPoint:
        return FlowPoint(float(self.xs[i]), float(self.us[i]))


def _sup_roof(sys: MarkovSystem, grid: int = 8192) -> float:
    best = 0.0
    for e in range(sys.m):
        zs = np.linspace(*sys.element_interval(e), grid)
        best = max(best, float(np.max(sys._r[e](x=zs) + 0 * zs)))
    return best * 1.001


def sample_flow_measure(sys: MarkovSystem, eig: EigenData, count: int,
                        seed: int) -> FlowSample:
    """Draw from the invariant measure of the semiflow: base points from the
    Gibbs measure accepted with probability r(x)/sup r (density proportional
    to the roof), then a uniform height below the roof."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sup_r = _sup_roof(sys)
    r_nodes = sys.roof_at(eig.f.nodes.reshape(-1))
    rbar = float(np.sum(eig.mu.reshape(-1) * r_nodes))  # int r dmu, by mu_N
    accept_est = rbar / sup_r
    xs_out, us_out = [], []
    have = 0
    attempt = 0
    while have < count:
        batch = int(1.1 * (count - have) / accept_est) + 64
        base = sample_mu(sys, eig, batch, seed=seed + 7919 * attempt)
        r = sys.roof_at(base)
        keep = rng.random(batch) < r / sup_r
        xs = base[keep]
        us = rng.random(xs.shape) * sys.roof_at(xs)
        xs_out.append(xs)
        us_out.append(us)
        have += len(xs)
        attempt += 1
    xs = np.concatenate(xs_out)[:count]
    us = np.concatenate(us_out)[:count]

    inf_r = float(np.min(r_nodes))
    slab = float(np.mean(us < inf_r / 2))
    expected = (inf_r / 2) / rbar
    se = math.sqrt(max(expected * (1 - expected), 1e-12) / count)
    return FlowSample(xs=xs, us=us, mean_roof=rbar, slab_mass=slab,
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
    window: tuple = field(default=(0.0, 0.0))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "C_hat", "stderr", "used_in_fit"])
        for t, c, s, u in zip(self.times, self.estimates, self.stderrs,
                              self.used_in_fit):
            w.writerow([repr(float(t)), repr(float(c)), repr(float(s)),
                        int(u)])
        return buf.getvalue()


def correlation(sys: MarkovSystem, eig: EigenData, v_expr: str, w_expr: str,
                t_grid, samples: int, seed: int,
                batches: int = 32) -> CorrelationSeries:
    """Monte-Carlo correlation C(t) = E[v (w o X_t)] - E[v] E[w] of two
    observables in (x, u), with batch-means standard errors and a weighted
    log-linear rate fit over the window where |C| > 3 SE."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    vf = compile_expr(parse(v_expr, variables=("x", "u")))
    wf = compile_expr(parse(w_expr, variables=("x", "u")))
    sample = sample_flow_measure(sys, eig, samples, seed)
    # sample j belongs to batch j mod batches; sorted by batch once (stably),
    # each batch is a contiguous segment in the order of the sample
    batch_of = np.arange(samples) % batches
    order = np.argsort(batch_of, kind="stable")
    ends = np.cumsum(np.bincount(batch_of, minlength=batches))
    segments = [slice(a, b) for a, b in zip(np.r_[0, ends[:-1]], ends)]
    cx, cu = sample.xs[order], sample.us[order]
    v0 = vf(x=cx, u=cu) + 0.0 * cx
    v0_means = [np.mean(v0[seg]) for seg in segments]

    ests, ses = [], []
    prev_t = 0.0
    for t in t_grid:
        cx, cu = evolve_many(sys, cx, cu, t - prev_t)
        prev_t = t
        wt = wf(x=cx, u=cu) + 0.0 * cx
        vw = v0 * wt
        batch_est = np.array([
            np.mean(vw[seg]) - vm * np.mean(wt[seg])
            for seg, vm in zip(segments, v0_means)])
        ests.append(float(np.mean(batch_est)))
        ses.append(float(np.std(batch_est, ddof=1) / math.sqrt(batches)))
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
