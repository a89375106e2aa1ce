"""Twisted transfer operators on grid functions.

The base operator for the complex parameter s = sigma + i b is

    (P_s v)(x) = sum over inverse branches y of x of exp((phi - s r)(y)) v(y)

discretised by collocation on N equally spaced nodes per partition
element.  Off-grid preimages are filled in by interpolation: linear
inside operator matrices (so the discrete eigenproblem is exactly
linear), monotone cubic in GridFunction.eval for function evaluation.
Every monotone cubic is one ``_ElementwisePchip``: Fritsch-Carlson
coefficients for all elements built in one numpy pass, bit for bit those
of scipy's per-element ``PchipInterpolator``, held by a single scipy PPoly
over all elements' nodes, so an evaluation is one clip and one interval
search.

The normalised operator at the leading real eigendata (lam, f) is

    L_s v = (lam f)^{-1} P_s (f v),   so  L_sigma 1 = 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import PPoly

from .system import (MarkovSystem, NoConvergenceError, potential_seminorm,
                     sampled_seminorm, symbol_pullbacks, word_array)

__all__ = [
    "GridFunction", "EigenData", "NoConvergenceError",
    "node_grid", "transfer_matrix",
    "eigendata", "apply_L", "hoelder_seminorm", "norm_b",
    "c6_bound", "lasota_yorke_audit", "BranchPlan", "deep_apply",
]


def node_grid(sys: MarkovSystem, N: int) -> np.ndarray:
    """(m, N) array of nodes, N equally spaced points per element (inclusive)."""
    return np.stack([
        np.linspace(*sys.element_interval(i), N) for i in range(sys.m)
    ])


def _edge_slopes(h0, h1, m0, m1):
    """``PchipInterpolator._edge_case``: the one-sided three-point slope at
    an element end, set to 0 where its sign differs from the end chord's
    and to 3 m0 where the chords change sign and it exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    mask = np.sign(d) != np.sign(m0)
    mask2 = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(mask, 0., np.where(~mask & mask2, 3. * m0, d))


def _pchip_part(h, w, y, firsts, lasts, pair, out):
    """Write into ``out`` (4, K) the PCHIP coefficients of one real part y
    on the concatenated element nodes x, h = diff(x).

    Element e's nodes run from index firsts[e] to lasts[e]; ``pair`` marks
    the 2-node elements.  Each operation is the one scipy's
    ``PchipInterpolator`` and ``CubicHermiteSpline`` apply to one element's
    data, so a step inside an element gets their bits.  The zero-width
    steps between elements give non-finite slopes, at those steps and at
    the nodes beside them; the end slopes overwrite the latter, and the
    former are not written to ``out``.  w holds the inner slopes' weights
    2 h[1:] + h[:-1], h[1:] + 2 h[:-1] and their sum, shared by all parts.
    """
    w1, w2, w12 = w
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.diff(y)
        m /= h
        buf = np.sign(m)  # one scratch array, reused below
        flat = buf[1:] != buf[:-1]
        flat |= m[1:] == 0
        flat |= m[:-1] == 0
        d = np.empty(len(y))
        inner = np.divide(w1, m[:-1], out=d[1:-1])
        inner += np.divide(w2, m[1:], out=buf[1:])
        inner /= w12
        np.divide(1.0, inner, out=inner)
        inner[flat] = 0.
        first, last = firsts[~pair], lasts[~pair]
        d[first] = _edge_slopes(h[first], h[first + 1],
                                m[first], m[first + 1])
        d[last] = _edge_slopes(h[last - 1], h[last - 2],
                               m[last - 1], m[last - 2])
        first = firsts[pair]
        d[first] = d[first + 1] = m[first]
        t = d[:-1] + d[1:]
        t -= np.multiply(2, m, out=buf)
        t /= h
        dm = np.subtract(m, d[:-1], out=buf)
        dm /= h
    # element e's steps, shifted left past the e steps between elements
    for e, (i, j) in enumerate(zip(firsts, lasts)):
        k = slice(i - e, j - e)
        np.divide(t[i:j], h[i:j], out=out[0, k])
        np.subtract(dm[i:j], t[i:j], out=out[1, k])
        out[2, k] = d[i:j]
        out[3, k] = y[i:j]


class _ElementwisePchip:
    """Monotone cubic (PCHIP, Fritsch-Carlson) interpolant on per-element
    nodes, evaluated as one scipy ``PPoly`` over all elements.

    Element e's nodes must start at partition[e] and end at partition[e+1],
    strictly increasing and at least 2 of them; they may be non-uniform
    and differ in number between elements.  Nodes and values must be
    finite, one value per node; anything else is refused with ValueError,
    as scipy's ``PchipInterpolator`` refuses it.

    The coefficients of all elements are built in one numpy pass per real
    part (``_pchip_part``), to the bit those of one ``PchipInterpolator``
    per element and part, side by side in one C-contiguous array.  The
    breakpoints are all elements' nodes, concatenated, with the partition
    point that adjacent elements share taken once.  So a point runs the
    same polynomial on the same interval as under a per-element
    interpolator, and PPoly's search x[i] <= x < x[i+1] sends a point on an
    interior breakpoint to the right-hand element (the left-closed element
    convention).  Real and imaginary parts are a trailing axis of the
    coefficients, evaluated by one call and read in place as complex
    values: the bits of re + 1j * im wherever im is finite.  Points outside
    [0, 1] are clamped to the end nodes; NaN stays NaN.
    """

    def __init__(self, sys: MarkovSystem, node_list, value_list):
        if not len(node_list) == len(value_list) == sys.m:
            raise ValueError(f"{len(node_list)} node sets and "
                             f"{len(value_list)} value sets for {sys.m} "
                             f"elements")
        self._complex = any(np.iscomplexobj(v) for v in value_list)
        for e, (xs, vs) in enumerate(zip(node_list, value_list)):
            lo, hi = sys.element_interval(e)
            if np.ndim(xs) != 1 or len(xs) < 2 or np.shape(vs) != np.shape(xs):
                raise ValueError(f"element {e} needs at least 2 nodes in a "
                                 f"1-D array and one value per node")
            if xs[0] != lo or xs[-1] != hi:
                # the shared breakpoint is taken once: across a gap or an
                # overlap a point would run the wrong element's cubic
                raise ValueError(f"nodes of element {e} do not run from "
                                 f"{lo!r} to {hi!r}")
        x = np.concatenate(node_list).astype(float, copy=False)
        vals = np.concatenate(value_list)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(vals))):
            raise ValueError("nodes and values must be finite")
        sizes = np.array([len(xs) for xs in node_list])
        lasts = np.cumsum(sizes) - 1
        firsts = lasts - (sizes - 1)
        h = np.diff(x)
        wide = h > 0
        wide[lasts[:-1]] = True  # the zero-width steps between elements
        if not np.all(wide):
            raise ValueError("nodes of an element must strictly increase")
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        w = (w1, w2, w1 + w2)
        parts = [vals.real, vals.imag] if self._complex else [vals]
        c = np.empty((4, len(h) + 1 - sys.m, len(parts)))
        for p, y in enumerate(parts):
            _pchip_part(h, w, y.astype(float, copy=False), firsts, lasts,
                        sizes == 2, c[..., p])
        breaks = np.delete(x, firsts[1:])
        self._pp = PPoly.construct_fast(c if self._complex else c[..., 0],
                                        breaks)
        self._lo, self._hi = breaks[0], breaks[-1]

    def eval(self, x):
        res = self._pp(np.clip(np.asarray(x, dtype=float), self._lo, self._hi))
        return res.view(complex)[..., 0] if self._complex else res


class GridFunction:
    """Function sampled on the element node grid ``node_grid(sys, N)``, N
    values per element; complex values allowed.

    Evaluation between nodes uses monotone cubic interpolation per element,
    which reproduces node values exactly and does not overshoot the data
    range of either real part.  It is one ``_ElementwisePchip``, built on
    the first evaluation: one clip and one PPoly call, with real and
    imaginary parts as one trailing axis.  The node grid is read-only, and
    ``copy_with`` shares it.
    """

    def __init__(self, sys: MarkovSystem, values: np.ndarray):
        self.system = sys
        self.values = np.asarray(values)
        self.nodes = node_grid(sys, self.values.shape[1])
        self.nodes.flags.writeable = False
        if self.values.shape != self.nodes.shape:
            raise ValueError("values are not one row per element")
        self._pchip = None

    @property
    def N(self) -> int:
        return self.values.shape[1]

    def eval(self, x):
        if self._pchip is None:
            self._pchip = _ElementwisePchip(self.system, self.nodes, self.values)
        return self._pchip.eval(np.atleast_1d(x))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        """The function with these node values, on this one's grid."""
        out = copy.copy(self)
        out.values, out._pchip = np.asarray(values), None
        if out.values.shape != self.values.shape:
            raise ValueError("values are not one row per element")
        return out


# -- operator matrix ----------------------------------------------------------


def transfer_matrix(sys: MarkovSystem, s: complex, N: int) -> sp.csr_matrix:
    """Collocation matrix of P_s on the node grid (linear interpolation)."""
    nodes = node_grid(sys, N)
    rows, cols, vals = [], [], []
    for e in range(sys.m):
        xs = nodes[e]
        for i in range(sys.m):
            if not sys.transition[i, e]:
                continue
            y = sys.inverse_branch(i, xs)
            a, bnd = sys.element_interval(i)
            h = (bnd - a) / (N - 1)
            t = (y - a) / h
            j = np.clip(np.floor(t).astype(int), 0, N - 2)
            frac = t - j
            g, _ = sys.log_weight(i, s, y)
            wgt = np.exp(g)
            base = e * N + np.arange(N)
            rows.extend([base, base])
            cols.extend([i * N + j, i * N + j + 1])
            vals.extend([wgt * (1.0 - frac), wgt * frac])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(sys.m * N, sys.m * N))


@dataclass
class EigenData:
    """Leading eigendata of P_sigma: eigenvalue, right eigenfunction f (with
    integral 1 against the left probability weights nu), and mu = f nu."""
    system: MarkovSystem
    sigma: float
    N: int
    lam: float
    f: GridFunction
    mu: np.ndarray          # (m, N) nonnegative, sums to 1
    iterations: int
    matrix: sp.csr_matrix = field(repr=False)
    _lmat_cache: dict = field(init=False, default_factory=dict, repr=False)
    # the latest (sys, n_max, grid, a, b) of uni's a(n)/b(n) sweep
    _ab_slot: tuple | None = field(init=False, default=None, repr=False)

    @property
    def pressure(self) -> float:
        return float(np.log(self.lam))

    def L_matrix(self, b: float) -> sp.csr_matrix:
        """Matrix of the normalised twisted operator L_{sigma + i b}.

        Only the matrix of the latest b is cached, so a sweep over b holds
        one at a time.
        """
        key = float(b)
        if key not in self._lmat_cache:
            self._lmat_cache.clear()
            if key == 0.0:
                P = self.matrix
            else:
                P = transfer_matrix(self.system, self.sigma + 1j * key, self.N)
            fflat = self.f.values.reshape(-1)
            D = sp.diags(fflat)
            Dinv = sp.diags(1.0 / (self.lam * fflat))
            self._lmat_cache[key] = (Dinv @ P @ D).tocsr()
        return self._lmat_cache[key]


def _power_iteration(M: sp.csr_matrix):
    n = M.shape[0]
    v = np.ones(n)
    maxit = 100_000
    for it in range(1, maxit + 1):
        w = M @ v
        lam = float(w @ v) / float(v @ v)
        resid = np.max(np.abs(w - lam * v))
        nrm = np.max(np.abs(w))
        v = w / nrm
        if resid <= 1e-12 * abs(lam):
            return lam, v, it
    raise NoConvergenceError(f"power iteration did not converge in {maxit} steps")


def eigendata(sys: MarkovSystem, sigma: float, N: int) -> EigenData:
    """Leading eigendata of P_sigma by two-sided power iteration, each side
    to a residual of 1e-12 |lam| within 100,000 steps."""
    M = transfer_matrix(sys, float(sigma), N)
    lam, f, it1 = _power_iteration(M)
    _, nu, it2 = _power_iteration(M.T.tocsr())
    f = np.abs(f)
    nu = np.abs(nu)
    nu = nu / nu.sum()
    f = f / float(nu @ f)
    mu = nu * f
    mu = mu / mu.sum()
    fgrid = GridFunction(sys, f.reshape(sys.m, N))
    return EigenData(sys, float(sigma), N, lam, fgrid, mu.reshape(sys.m, N),
                     iterations=it1 + it2, matrix=M)


def apply_L(eig: EigenData, b: float, v: GridFunction, n: int) -> GridFunction:
    """n-fold application of the normalised twisted operator L_{sigma+ib}."""
    M = eig.L_matrix(b)
    w = v.values.reshape(-1).astype(complex if b != 0 else v.values.dtype,
                                    copy=False)
    for _ in range(n):
        w = M @ w
    return v.copy_with(w.reshape(v.values.shape))


# -- norms ---------------------------------------------------------------------


def hoelder_seminorm(v: GridFunction) -> float:
    """C^alpha seminorm within partition elements, alpha of the system: the
    largest ``sampled_seminorm`` of an element's node values, which at
    alpha < 1 can read low."""
    a = v.system.alpha
    return float(np.max([sampled_seminorm(v.nodes[e], v.values[e], a)
                         for e in range(v.system.m)]))


def norm_b(v: GridFunction, b: float) -> float:
    """Frequency-adapted norm: |v|_alpha / (1 + |b|^alpha) + sup |v|, alpha
    of the system."""
    a = v.system.alpha
    return hoelder_seminorm(v) / (1.0 + abs(b) ** a) + v.sup_norm()


def c6_bound(eig: EigenData) -> float:
    """A priori bound on sup f / inf f products used by the Gibbs estimates:

        exp(|phi - sigma r|_alpha / (1 - lam^-alpha)) * sup f * sup 1/f

    with |phi - sigma r|_alpha the system's ``potential_seminorm`` and lam =
    inf |T'| from its constants.
    """
    sys = eig.system
    a, lam = sys.alpha, sys.constants.lam
    semi = potential_seminorm(sys, eig.sigma)
    diam = 1.0  # the interval J = [0, 1]
    fmax = float(eig.f.values.max())
    fmin = float(eig.f.values.min())
    return float(np.exp(semi * diam ** a / (1.0 - lam ** (-a))) * fmax / fmin)


# -- Lasota-Yorke audit --------------------------------------------------------


def lasota_yorke_audit(eig: EigenData, b: float, n: int) -> float:
    """Empirical constant C8_hat for the two-norm inequality

        ||L^n_s v||_(b) <= C8 lam^{-alpha n} ||v||_(b) + C8 ||v||_inf

    at one n: the worst quotient ||L^n_s v||_(b) / (lam^{-alpha n}
    ||v||_(b) + ||v||_inf) over 4 random smooth test functions, drawn from
    seed 0, with lam = inf |T'| from the system's constants.
    """
    sys = eig.system
    a, lam = sys.alpha, sys.constants.lam
    rng = np.random.default_rng(0)
    nodes = eig.f.nodes
    # exp(2 pi i q x) at the nodes for q = 0..6, the modes of every test
    # function (degree 1..6)
    modes = [np.exp(2j * np.pi * q * nodes) for q in range(7)]
    c8_hat = 0.0
    for _ in range(4):
        deg = int(rng.integers(1, 7))
        coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        vals = np.zeros_like(nodes, dtype=complex)
        for c, mode in zip(coef, modes):
            # named, so numpy cannot multiply a large unnamed temporary in
            # place, array first: the product rounds by operand order
            vals += c * mode
        v = eig.f.copy_with(vals)
        lhs = norm_b(apply_L(eig, b, v, n), b)
        quot = lhs / (lam ** (-a * n) * norm_b(v, b) + v.sup_norm())
        c8_hat = max(c8_hat, float(quot))
    return c8_hat


# -- exact depth-n application -------------------------------------------------


class BranchPlan:
    """The depth-n inverse branches of the normalised operator at per-element
    node sets, kept to apply to any number of functions (``apply``).

    ``nodes[e]`` is a 1-D float array of points in element e.  A set closed
    at both ends holds the element's right end, which ``element_of`` would
    put into the next element, whose branches differ.  ``symbol_pullbacks``
    pulls the points whose element is in the image of a symbol s back along
    every admissible depth-n word ending in s; the plan keeps each run's
    (columns, h_w(x), J_w, J_w exp(-i b S_n r)) and the normaliser, the sum
    of J_w at each point, over the sets concatenated.
    """

    def __init__(self, sys: MarkovSystem, eig: EigenData, b: float, n: int,
                 nodes):
        elements = np.repeat(np.arange(sys.m), [len(xs) for xs in nodes])
        [(runs, self.norm)] = symbol_pullbacks(
            sys, word_array(sys, n), np.concatenate(nodes),
            sys.transition[:, elements], ("x", "Snr", "J"), eig)
        self.blocks = []
        for _, cols, pb in runs:
            J = pb.J.astype(complex)
            twisted = J
            if b != 0.0:
                # named: numpy may compute J * temporary as temporary * J,
                # in place, which rounds differently
                phase = np.exp(-1j * b * pb.Snr)
                twisted = J * phase
            self.blocks.append((cols, pb.x.reshape(-1), J, twisted))

    def apply(self, fn, twist: bool) -> np.ndarray:
        """sum_w J_w [exp(-i b S_n r) if ``twist``] fn at h_w(x) over the
        normaliser, a complex array over the node sets concatenated; fn is
        a callable on the preimages."""
        acc = np.zeros(self.norm.shape, dtype=complex)
        for cols, hx, J, twisted in self.blocks:
            val = twisted if twist else J
            acc[cols] += (val * np.reshape(fn(hx), val.shape)).sum(axis=0)
        return acc / self.norm


def deep_apply(sys: MarkovSystem, eig: EigenData, b: float, n: int,
               nodes, fns: dict) -> dict:
    """Depth-n branch-sum application of the twisted normalised operator at
    the per-element node sets ``nodes`` (see ``BranchPlan``) to each
    function of ``fns``, {name: callable on the preimages}; returns {name:
    complex array over the sets concatenated}.

    One ``BranchPlan`` at the sets, then one application per function.
    Twisting phases exp(-i b S_n r) are exact and no intermediate iterate
    is ever interpolated.  Each branch h_w enters with its inverse Jacobian
    J_w (see ``Pullback``); the sums are divided per point by the sum of
    the J_w, so at b = 0 the operator maps 1 to exactly 1.
    """
    plan = BranchPlan(sys, eig, b, n, nodes)
    return {name: plan.apply(fn, True) for name, fn in fns.items()}
