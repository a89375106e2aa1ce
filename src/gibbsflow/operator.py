"""Twisted transfer operators on grid functions.

The base operator for the complex parameter s = sigma + i b is

    (P_s v)(x) = sum over inverse branches y of x of exp((phi - s r)(y)) v(y)

discretised by collocation on N equally spaced nodes per partition
element.  Off-grid preimages are filled in by interpolation: linear
inside operator matrices (so the discrete eigenproblem is exactly
linear), monotone cubic in GridFunction.eval for function evaluation.
Every monotone cubic is one ``_ElementwisePchip``: a single scipy PPoly
over all elements' nodes, so an evaluation is one clip and one interval
search.

The normalised operator at the leading real eigendata (lam, f) is

    L_s v = (lam f)^{-1} P_s (f v),   so  L_sigma 1 = 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import PchipInterpolator, PPoly

from .system import MarkovSystem, NoConvergenceError, pullback, word_array

__all__ = [
    "GridFunction", "EigenData", "NoConvergenceError",
    "node_grid", "grid_function_from_callable", "transfer_matrix",
    "eigendata", "apply_P", "apply_L", "hoelder_seminorm", "norm_b",
    "c6_bound", "lasota_yorke_audit", "deep_apply",
]


def node_grid(sys: MarkovSystem, N: int) -> np.ndarray:
    """(m, N) array of nodes, N equally spaced points per element (inclusive)."""
    return np.stack([
        np.linspace(*sys.element_interval(i), N) for i in range(sys.m)
    ])


class _ElementwisePchip:
    """Monotone cubic (PCHIP, Fritsch-Carlson) interpolant on per-element
    nodes, evaluated as one scipy ``PPoly`` over all elements.

    Element e's nodes must start at partition[e] and end at partition[e+1];
    they may be non-uniform and differ in number between elements.  The
    coefficients are each element's ``PchipInterpolator`` coefficients side
    by side, and the breakpoints are all elements' nodes, concatenated, with
    the partition point that adjacent elements share taken once.  So a point
    runs the same polynomial on the same interval as under a per-element
    interpolator, to the bit, and PPoly's search x[i] <= x < x[i+1] sends a
    point on an interior breakpoint to the right-hand element (the
    left-closed element convention).  Real and imaginary parts are a
    trailing axis of the coefficients, evaluated by one call and read in
    place as complex values: the bits of re + 1j * im wherever im is
    finite.  Points outside [0, 1] are clamped to the end nodes; NaN stays
    NaN.
    """

    def __init__(self, sys: MarkovSystem, node_list, value_list):
        if len(node_list) != sys.m:
            raise ValueError(f"{len(node_list)} node sets for {sys.m} elements")
        self._complex = any(np.iscomplexobj(v) for v in value_list)
        coefs = []
        for e, (xs, vs) in enumerate(zip(node_list, value_list)):
            lo, hi = sys.element_interval(e)
            if xs[0] != lo or xs[-1] != hi:
                # the shared breakpoint is taken once: across a gap or an
                # overlap a point would run the wrong element's cubic
                raise ValueError(f"nodes of element {e} do not run from "
                                 f"{lo!r} to {hi!r}")
            ys = np.stack([vs.real, vs.imag], axis=-1) if self._complex else vs
            coefs.append(PchipInterpolator(xs, ys).c)
        breaks = np.concatenate([node_list[0]] + [xs[1:] for xs in node_list[1:]])
        self._pp = PPoly(np.concatenate(coefs, axis=1), breaks)
        self._lo, self._hi = breaks[0], breaks[-1]

    def eval(self, x):
        res = self._pp(np.clip(np.asarray(x, dtype=float), self._lo, self._hi))
        return res.view(complex)[..., 0] if self._complex else res


class GridFunction:
    """Function sampled on the element node grid; complex values allowed.

    Evaluation between nodes uses monotone cubic interpolation per element,
    which reproduces node values exactly and does not overshoot the data
    range of either real part.  It is one ``_ElementwisePchip``, built on
    the first evaluation: one clip and one PPoly call, with real and
    imaginary parts as one trailing axis.

    Values of shape (m, N, k) hold a block of k functions on the same nodes,
    one per trailing column.  A block goes through ``apply_L``,
    ``hoelder_seminorm``, ``norm_b`` and ``sup_norm``, which then return
    one result per column; it is not evaluated or written out.
    """

    def __init__(self, sys: MarkovSystem, values: np.ndarray, nodes=None):
        self.system = sys
        self.values = np.asarray(values)
        self.nodes = node_grid(sys, self.values.shape[1]) if nodes is None else nodes
        if self.values.shape[:2] != self.nodes.shape:
            raise ValueError("values and nodes shapes differ")
        self._pchip = None

    @property
    def N(self) -> int:
        return self.values.shape[1]

    def eval(self, x):
        if self._pchip is None:
            self._pchip = _ElementwisePchip(self.system, self.nodes, self.values)
        return self._pchip.eval(np.atleast_1d(x))

    def sup_norm(self):
        """sup |v|; for a block, the array of the column sups."""
        sup = np.max(np.abs(self.values), axis=(0, 1))
        return float(sup) if self.values.ndim == 2 else sup

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.system, values, self.nodes)

    # CSV round-trip: element_index,node_x,re,im
    def to_csv(self) -> str:
        vals = self.values.astype(complex)
        chunks = ["element_index,node_x,re,im\n"]
        # rows are formatted 4096 at a time, so few row strings are alive
        for e in range(self.system.m):
            for a in range(0, self.N, 4096):
                part = slice(a, a + 4096)
                chunks.append("".join([
                    f"{e},{x!r},{re!r},{im!r}\n" for x, re, im in zip(
                        self.nodes[e, part].tolist(),
                        vals[e, part].real.tolist(),
                        vals[e, part].imag.tolist())]))
        return "".join(chunks)

    @staticmethod
    def from_csv(sys: MarkovSystem, text: str) -> "GridFunction":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        m = max(int(r[0]) for r in rows) + 1
        N = len(rows) // m
        vals = np.zeros((m, N), dtype=complex)
        counts = [0] * m
        for r in rows:
            e = int(r[0])
            vals[e, counts[e]] = float(r[2]) + 1j * float(r[3])
            counts[e] += 1
        if np.all(vals.imag == 0):
            vals = vals.real
        return GridFunction(sys, vals)


def grid_function_from_callable(sys: MarkovSystem, fn, N: int) -> GridFunction:
    nodes = node_grid(sys, N)
    return GridFunction(sys, np.asarray(fn(nodes)), nodes)


# -- operator matrix ----------------------------------------------------------


def transfer_matrix(sys: MarkovSystem, s: complex, N: int) -> sp.csr_matrix:
    """Collocation matrix of P_s on the node grid (linear interpolation)."""
    nodes = node_grid(sys, N)
    dtype = complex if (isinstance(s, complex) and s.imag != 0) else float
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
            wgt = np.exp(sys._phi[i](x=y) - s * sys._r[i](x=y)) + np.zeros(len(xs), dtype=dtype)
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
    integral 1 against nu), left probability weights nu, and mu = f nu."""
    system: MarkovSystem
    sigma: float
    N: int
    lam: float
    f: GridFunction
    nu: np.ndarray          # (m, N) nonnegative, sums to 1
    mu: np.ndarray          # (m, N) nonnegative, sums to 1
    iterations: int
    matrix: sp.csr_matrix = field(repr=False, default=None)
    _lmat_cache: dict = field(default_factory=dict, repr=False)

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


def _power_iteration(M: sp.csr_matrix, tol: float, maxit: int):
    n = M.shape[0]
    v = np.ones(n)
    for it in range(1, maxit + 1):
        w = M @ v
        lam = float(w @ v) / float(v @ v)
        resid = np.max(np.abs(w - lam * v))
        nrm = np.max(np.abs(w))
        v = w / nrm
        if resid <= tol * abs(lam):
            return lam, v, it
    raise NoConvergenceError(f"power iteration did not converge in {maxit} steps")


def eigendata(sys: MarkovSystem, sigma: float, N: int = 1024,
              tol: float = 1e-12, maxit: int = 100_000) -> EigenData:
    """Leading eigendata of P_sigma by two-sided power iteration."""
    M = transfer_matrix(sys, float(sigma), N)
    lam, f, it1 = _power_iteration(M, tol, maxit)
    _, nu, it2 = _power_iteration(M.T.tocsr(), tol, maxit)
    f = np.abs(f)
    nu = np.abs(nu)
    nu = nu / nu.sum()
    f = f / float(nu @ f)
    mu = nu * f
    mu = mu / mu.sum()
    fgrid = GridFunction(sys, f.reshape(sys.m, N))
    return EigenData(sys, float(sigma), N, lam, fgrid,
                     nu.reshape(sys.m, N), mu.reshape(sys.m, N),
                     iterations=it1 + it2, matrix=M)


def apply_P(sys: MarkovSystem, s: complex, v: GridFunction) -> GridFunction:
    """One application of P_s; same linear-interpolation rule as the matrix."""
    M = transfer_matrix(sys, s, v.N)
    out = (M @ v.values.reshape(-1)).reshape(sys.m, v.N)
    return v.copy_with(out)


def apply_L(eig: EigenData, b: float, v: GridFunction, n: int = 1) -> GridFunction:
    """n-fold application of the normalised twisted operator L_{sigma+ib}.

    A block of functions takes one sparse product per step for all its
    columns; each column comes out with the same bits as alone.
    """
    M = eig.L_matrix(b)
    shape = v.values.shape
    w = v.values.reshape((-1,) + shape[2:]).astype(
        complex if b != 0 else v.values.dtype, copy=False)
    for _ in range(n):
        w = M @ w
    return v.copy_with(w.reshape(shape))


# -- norms ---------------------------------------------------------------------


def hoelder_seminorm(v: GridFunction, alpha: float | None = None,
                     random_pairs: int = 10_000, seed: int = 0):
    """C^alpha seminorm within partition elements (adjacent + random pairs).

    For a block, the array of the column seminorms: every column sees the
    same random pairs, so each equals the seminorm of that column alone.
    """
    sys = v.system
    a = sys.alpha if alpha is None else alpha
    vals = v.values.reshape(v.values.shape[:2] + (-1,))
    best = np.zeros(vals.shape[2])
    rng = np.random.default_rng(seed)
    for e in range(sys.m):
        xs, vs = v.nodes[e], vals[e]
        d = np.abs(np.diff(vs, axis=0)) / (np.abs(np.diff(xs)) ** a)[:, None]
        best = np.maximum(best, d.max(axis=0))
        n = len(xs)
        i = rng.integers(0, n, random_pairs)
        j = rng.integers(0, n, random_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
        q = np.abs(vs[i] - vs[j]) / (np.abs(xs[i] - xs[j]) ** a)[:, None]
        best = np.maximum(best, q.max(axis=0))
    return float(best[0]) if v.values.ndim == 2 else best


def norm_b(v: GridFunction, b: float, alpha: float | None = None):
    """Frequency-adapted norm: |v|_alpha / (1 + |b|^alpha) + sup |v|; for a
    block, the array of the column norms."""
    a = v.system.alpha if alpha is None else alpha
    return hoelder_seminorm(v, a) / (1.0 + abs(b) ** a) + v.sup_norm()


def _piecewise_seminorm(sys: MarkovSystem, fn, alpha: float, grid: int = 2048) -> float:
    best = 0.0
    for e in range(sys.m):
        xs = np.linspace(*sys.element_interval(e), grid)
        vs = fn(e, xs)
        d = np.abs(np.diff(vs)) / np.diff(xs) ** alpha
        best = max(best, float(np.max(d)))
        # coarse long-range pairs
        step = max(1, grid // 64)
        sub = np.arange(0, grid, step)
        q = np.abs(vs[sub][:, None] - vs[sub][None, :])
        dx = np.abs(xs[sub][:, None] - xs[sub][None, :]) ** alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(dx > 0, q / dx, 0.0)
        best = max(best, float(np.max(q)))
    return best


def c6_bound(eig: EigenData, lam_expansion: float) -> float:
    """A priori bound on sup f / inf f products used by the Gibbs estimates:

        exp(|phi - sigma r|_alpha / (1 - lam^-alpha)) * sup f * sup 1/f
    """
    sys = eig.system
    a = sys.alpha
    semi = _piecewise_seminorm(
        sys, lambda e, xs: sys._phi[e](x=xs) - eig.sigma * sys._r[e](x=xs) + 0 * xs, a)
    diam = 1.0  # the interval J = [0, 1]
    fmax = float(eig.f.values.max())
    fmin = float(eig.f.values.min())
    return float(np.exp(semi * diam ** a / (1.0 - lam_expansion ** (-a))) * fmax / fmin)


# -- Lasota-Yorke audit --------------------------------------------------------


def lasota_yorke_audit(eig: EigenData, b: float, lam_expansion: float,
                       n_values=(1, 2, 3, 4, 5, 6), trials: int = 20,
                       seed: int = 0) -> dict:
    """Empirical constant for the two-norm inequality

        ||L^n_s v||_(b) <= C8 lam^{-alpha n} ||v||_(b) + C8 ||v||_inf.

    Returns per-n worst quotients over a family of random smooth test
    functions; the audit passes when the quotients stay bounded in n.
    """
    sys = eig.system
    a = sys.alpha
    rng = np.random.default_rng(seed)
    nodes = node_grid(sys, eig.N)
    quotients = {int(n): 0.0 for n in n_values}
    for _ in range(trials):
        deg = int(rng.integers(1, 7))
        coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        vals = np.zeros_like(nodes, dtype=complex)
        for q, c in enumerate(coef):
            # named, so numpy cannot multiply a large unnamed temporary in
            # place, array first: the product rounds by operand order
            mode = np.exp(2j * np.pi * q * nodes)
            vals += c * mode
        v = GridFunction(sys, vals)
        nv = norm_b(v, b, a)
        sup = v.sup_norm()
        w = v
        prev_n = 0
        for n in sorted(quotients):
            w = apply_L(eig, b, w, n - prev_n)
            prev_n = n
            lhs = norm_b(w, b, a)
            quot = lhs / (lam_expansion ** (-a * n) * nv + sup)
            quotients[n] = max(quotients[n], float(quot))
    c8_hat = max(quotients.values())
    return {"b": float(b), "quotients": quotients, "c8_hat": float(c8_hat)}


# -- exact depth-n application -------------------------------------------------


def deep_apply(sys: MarkovSystem, eig: EigenData, b: float, n: int,
               xs: np.ndarray, terms: list[dict]) -> dict:
    """Depth-n branch-sum application of the normalised operator at points xs.

    For each symbol s, one engine call pulls the xs in the image of s back
    along every admissible depth-n word ending in s, so twisting phases
    exp(-i b S_n r) are exact and no intermediate iterate is ever
    interpolated.  Each branch h_w enters with its inverse Jacobian J_w (see
    ``Pullback``); the sums are divided per point by the sum of the J_w, so
    the untwisted operator maps 1 to exactly 1.

    Each term is a dict with keys:
        name   output key
        fn     callable evaluated at the preimages h_w(xs) (may be None for 1)
        twist  bool, multiply by exp(-i b S_n r(h_w xs))
        chi    optional extra factor evaluated at the preimages

    Returns {name: array over xs} plus 'weight_sum', the sum of the J_w
    before that division: (L_sigma^n 1)(x) up to interpolation error in f.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.reshape(-1)
    idx = sys.element_of(flat)
    words = word_array(sys, n)
    sums = {t["name"]: np.zeros(flat.shape, dtype=complex) for t in terms}
    norm = np.zeros(flat.shape)
    for s in range(sys.m):
        lo, hi = sys.branches[s].image
        cols = np.flatnonzero((idx >= lo) & (idx < hi))
        ends = words[:, -1] == s
        if not (len(cols) and np.any(ends)):
            continue
        pb = pullback(sys, words[ends], flat[cols], ("x", "Snr", "J"), eig)
        hx = pb.x.reshape(-1)
        norm[cols] += pb.J.sum(axis=0)
        phase = np.exp(-1j * b * pb.Snr) if b != 0.0 else 1.0
        for t in terms:
            val = pb.J.astype(complex)
            if t.get("twist"):
                val = val * phase
            if t.get("chi") is not None:
                val = val * np.reshape(t["chi"](hx), val.shape)
            if t.get("fn") is not None:
                val = val * np.reshape(t["fn"](hx), val.shape)
            sums[t["name"]][cols] += val.sum(axis=0)
    out = {name: (acc / norm).reshape(xs.shape) for name, acc in sums.items()}
    out["weight_sum"] = norm.reshape(xs.shape)
    return out
