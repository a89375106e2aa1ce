"""Twisted transfer operators on grid functions.

The base operator for the complex parameter s = sigma + i b is

    (P_s v)(x) = sum over inverse branches y of x of exp((phi - s r)(y)) v(y)

discretised by collocation on N equally spaced nodes per partition
element.  Off-grid preimages are filled in by interpolation: linear
inside operator matrices (so the discrete eigenproblem is exactly
linear), monotone cubic in GridFunction.eval for function evaluation.
Both collocation matrices are built here, each filled straight into CSR by
one assembler (``_collocation``), a chunk of rows at a time: the linear hat
of ``transfer_matrix``, and the 4-point cubic of ``_lagrange`` in
``lagrange_step``, ``dolgopyat``'s step of v.  No collocation matrix stores
an explicit 0: the assembler drops zero weights once its fill is done.
Every monotone cubic is one ``ElementwisePchip``: Fritsch-Carlson
coefficients for all elements built in one numpy pass, bit for bit those of
scipy's per-element ``PchipInterpolator``, held by a single scipy PPoly over
all elements' nodes, so an evaluation is one clip and one interval search.
The pullback engine reads f on rows of preimages, each monotone, through
``eval_rows``: a row whose two ends share an interval is summed in numpy
with that interval's coefficients, and only the rows across a breakpoint
go to PPoly, with the bits of ``eval`` either way.  A GridFunction whose
real node values are all one number reads them through ``_ConstantRead``
instead, with the same bits and no PPoly.

The normalised operator at the leading real eigendata (lam, f) is

    L_s v = (lam f)^{-1} P_s (f v),   so  L_sigma 1 = 1,

whose matrix is that of a fresh P_s scaled in place (``EigenData.L_matrix``),
for every s.  The left eigenvector nu is read through the CSC view of
P_sigma's transpose, and P_sigma is freed once ``eigendata`` returns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import PPoly

from .system import (MarkovSystem, NoConvergenceError, column_blocks,
                     column_sums, potential_seminorm, sampled_seminorm,
                     symbol_trees, word_array)

__all__ = [
    "GridFunction", "ElementwisePchip", "EigenData", "NoConvergenceError",
    "node_grid", "transfer_matrix", "lagrange_step",
    "eigendata", "apply_L", "hoelder_seminorm", "norm_b",
    "c6_bound", "BranchPlan", "deep_apply",
]


def node_grid(sys: MarkovSystem, N: int) -> np.ndarray:
    """(m, N) array of nodes, N equally spaced points per element (inclusive),
    so N >= 2; a smaller N is refused with ValueError."""
    if N < 2:
        raise ValueError(f"a node grid needs N >= 2 nodes per element, got {N}")
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


class ElementwisePchip:
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

    ``eval_rows`` reads a real interpolant on a 2-D array of monotone rows,
    such as the pullback engine's h_w of ascending points, into a given
    array: one search per row end in place of one per point, and PPoly's
    power sum in numpy where a row lies in one interval.  Its bits are
    those of ``eval``; PPoly serves every other read.
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
        # eval_rows reads the real coefficients, the array PPoly holds
        self._breaks, self._c = breaks, c[..., 0]

    def eval(self, x):
        res = self._pp(np.clip(np.asarray(x, dtype=float), self._lo, self._hi))
        return res.view(complex)[..., 0] if self._complex else res

    def eval_rows(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the bits of ``eval(z)`` into ``out`` and return it, for a
        real interpolant and a (K, P) z whose rows each run monotone inside
        [0, 1], as the pullback engine's rows do; complex values are
        refused with ValueError.

        Each row's interval is that of its two ends, by PPoly's search: the
        last breakpoint at or below the end, capped at the last interval,
        so a row that ends on an interior breakpoint reads the right-hand
        element.  A row whose two ends share an interval gets PPoly's own
        power sum, c3 + c2 s + c1 (s s) + c0 ((s s) s) with s = z - break,
        in numpy, the interval's coefficients broadcast along the row
        (``_power_sum``, two temporaries shaped like z).  The other rows,
        those that straddle a breakpoint or end outside [0, 1], are then
        read by one ``eval``; when no row lies in one interval, that call
        reads z whole and the power sum is skipped.
        """
        if self._complex:
            raise ValueError("eval_rows reads a real interpolant")
        ends = z[:, [0, -1]]
        at = np.minimum(np.searchsorted(self._breaks, ends, side="right") - 1,
                        len(self._breaks) - 2)
        i = at[:, 0]
        one = i == at[:, 1]
        one &= i >= 0
        one &= np.all(ends <= self._hi, axis=1)
        if not one.any():
            out[...] = self.eval(z)
            return out
        c = self._c[:, i]
        c[3] += 0.0  # PPoly's sum starts at 0.0 + c3: -0.0 turns into 0.0
        _power_sum(z, self._breaks[i], c, out)
        if not one.all():
            rest = ~one
            out[rest] = self.eval(z[rest])
        return out


def _power_sum(z, left, c, out):
    """Write into ``out`` PPoly's sum ((c3 + c2 s) + c1 (s s)) + c0 ((s s)
    s) at s = z - left, row k of z read with left[k] and c[:, k]; each
    product and sum is PPoly's, operands swapped, so it has PPoly's bits.
    Two temporaries shaped like z are held, and freed on return."""
    c0, c1, c2, c3 = c[..., None]
    s = np.subtract(z, left[:, None])
    np.multiply(s, c2, out=out)
    out += c3
    ss = s * s
    s *= ss
    ss *= c1
    out += ss
    s *= c0
    out += s


class _ConstantRead:
    """``ElementwisePchip``'s read of real node values that are all one
    finite number c, without PPoly: c at every point but NaN.

    The Fritsch-Carlson coefficients of constant data are c0 = c1 = c2 = 0
    and c3 = c, and PPoly sums c3 + c2 s + c1 s^2 + c0 s^3 at the offset s
    >= 0 of the clipped point in its interval, which is c exactly.  So a
    read is ``clip(x) * 0.0 + c``, one new array shaped like x: NaN stays
    NaN and +-inf clamps to an end node, as under the PCHIP.
    """

    def __init__(self, nodes: np.ndarray, c: float):
        self.value = c
        self._lo, self._hi = nodes[0, 0], nodes[-1, -1]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_rows(x, np.empty_like(x))

    def eval_rows(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The read of z, of any shape, written into ``out`` in place."""
        np.clip(z, self._lo, self._hi, out=out)
        out *= 0.0
        out += self.value
        return out


class GridFunction:
    """Function sampled on the element node grid ``node_grid(sys, N)``, N
    values per element; complex values allowed.

    Evaluation between nodes uses monotone cubic interpolation per element,
    which reproduces node values exactly and does not overshoot the data
    range of either real part.  It is one ``ElementwisePchip``, built on
    the first evaluation: one clip and one PPoly call, with real and
    imaginary parts as one trailing axis.  Real node values that are all
    one finite number c, as f is at sigma = 0 on the doubling presets, are
    read by ``_ConstantRead`` instead, which returns the PCHIP's bits
    without building or calling PPoly; that is decided from the values at
    the first evaluation.  The node grid is read-only, and ``copy_with``
    shares it.
    """

    def __init__(self, sys: MarkovSystem, values: np.ndarray):
        self.system = sys
        self.values = np.asarray(values)
        self.nodes = node_grid(sys, self.values.shape[1])
        self.nodes.flags.writeable = False
        if self.values.shape != self.nodes.shape:
            raise ValueError("values are not one row per element")
        self._pchip = None

    def _read(self):
        if self._pchip is None:
            v = self.values
            c = v.flat[0]
            self._pchip = (
                _ConstantRead(self.nodes, float(c))
                if not np.iscomplexobj(v) and np.isfinite(c) and np.all(v == c)
                else ElementwisePchip(self.system, self.nodes, v))
        return self._pchip

    def eval(self, x):
        return self._read().eval(np.atleast_1d(x))

    def eval_rows(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``eval(z)``'s bits written into ``out``, for real values and a
        (K, P) z of rows each monotone inside [0, 1]: the row read of
        ``ElementwisePchip.eval_rows``, or of ``_ConstantRead``."""
        return self._read().eval_rows(z, out)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        """The function with these node values, on this one's grid; its
        interpolant (or constant read) is decided anew at its first
        evaluation."""
        out = copy.copy(self)
        out.values, out._pchip = np.asarray(values), None
        if out.values.shape != self.values.shape:
            raise ValueError("values are not one row per element")
        return out


# -- operator matrix ----------------------------------------------------------

# rows per chunk of a collocation matrix's build: bounds its temporaries
_ROWS = 1 << 12


def _row_chunks(n: int):
    """range(n) as slices of at most _ROWS, in order."""
    return (slice(a, min(a + _ROWS, n)) for a in range(0, n, _ROWS))


def _hat(s):
    """The linear hat weights of nodes j, j + 1 of a uniform grid at the
    points j + s."""
    return 1.0 - s, s


def _lagrange(s):
    """The 4-point cubic Lagrange weights of nodes j - 1 .. j + 2 of a
    uniform grid at the points j + s."""
    return (-s * (s - 1) * (s - 2) / 6, (s + 1) * (s - 1) * (s - 2) / 2,
            -(s + 1) * s * (s - 2) / 2, (s + 1) * s * (s - 1) / 6)


def _collocation(sys: MarkovSystem, N: int, stencil, chunks) -> sp.csr_matrix:
    """The collocation matrix on ``node_grid(sys, N)``, filled straight into
    CSR: row r is node x_r, and each branch i whose image holds x_r adds
    coef times the p weights ``stencil(s)`` of element i's nodes
    j - p/2 + 1 .. j + p/2, where t = j + s is the preimage h_i(x_r) in
    units of element i's grid step from its left end and
    j = clip(floor(t), p/2 - 1, N - 1 - p/2), so the end intervals take
    one-sided stencils.  An N below p is refused with ValueError.  Weights
    of exactly 0 (a preimage on a node) are dropped once the fill is done,
    so the matrix stores no explicit 0.

    ``chunks`` yields (i, row, t, coef), branch i's entries at rows row,
    row + 1, ... of its image, in chunks of any length, a row's branch
    after branch: so its columns ascend.  data, indices and indptr are
    sized from ``sys.transition`` before the first chunk and written in
    place, the indices int32 when they fit (the type scipy picks, so it
    keeps the arrays as given), the data of the first coef's type; no
    entry is copied or sorted.
    """
    p = len(stencil(0.0))
    half = p // 2
    if N < p:
        raise ValueError(f"a {p}-point stencil needs N >= {p}, got {N}")
    per_row = p * sys.transition.sum(axis=0)  # entries of a row, by element
    nnz = N * int(per_row.sum())
    # indptr[r + 1] is row r's next free entry while rows are filled, and
    # row r's end once all are
    indptr = np.empty(sys.m * N + 1, dtype=np.int32 if nnz < 2 ** 31
                      else np.int64)
    indptr[0] = start = 0
    for e, c in enumerate(per_row):
        indptr[1 + e * N:1 + (e + 1) * N] = start + c * np.arange(N)
        start += c * N
    indices = np.empty(nnz, dtype=indptr.dtype)
    data = None
    for i, row, t, coef in chunks:
        if data is None:
            data = np.empty(nnz, dtype=coef.dtype)
        at = indptr[row + 1:row + 1 + len(t)]
        j = np.clip(np.floor(t).astype(np.intp), half - 1, N - 1 - half)
        col = j + (i * N + 1 - half)
        for k, w in enumerate(stencil(t - j)):
            data[at + k] = coef * w
            indices[at + k] = col + k
        at += p
    M = sp.csr_matrix((data, indices, indptr), shape=(sys.m * N,) * 2)
    M.eliminate_zeros()
    return M


def transfer_matrix(sys: MarkovSystem, s: complex, N: int) -> sp.csr_matrix:
    """Collocation matrix of P_s on the node grid, N >= 2 nodes per element:
    row r holds, for each branch i whose image holds x_r, the weight
    exp((phi_i - s r_i)(y)) at y = h_i(x_r) times the linear hat weights of
    element i's nodes about y (``_collocation``), a chunk of _ROWS rows at
    a time."""
    x = node_grid(sys, N).reshape(-1)

    def chunks():
        for i in range(sys.m):
            a, bnd = sys.element_interval(i)
            h = (bnd - a) / (N - 1)
            lo, hi = sys.images[i]
            image = x[lo * N:hi * N]
            for part in _row_chunks(len(image)):
                y = sys.inverse_branch(i, image[part])
                g, _ = sys.log_weight(i, s, y)
                yield i, lo * N + part.start, (y - a) / h, np.exp(g)

    return _collocation(sys, N, _hat, chunks())


def lagrange_step(sys: MarkovSystem, eig: EigenData, b: float,
                  nodes: np.ndarray) -> sp.csr_matrix:
    """The depth-1 twisted operator on the uniform grid ``nodes``, the (m, N)
    ``node_grid``, as one CSR matrix: row k is node k, and branch i adds its
    exact weight J_i exp(-i b r) / norm (``_twisted`` of the depth-1
    pullback of the grid) times the 4-point cubic Lagrange weights
    (``_lagrange``) of element i's grid at the preimage h_i(x_k).

    The preimage lies in element i, so its stencil is element i's nodes j -
    1 .. j + 2, j = clip(floor(t), 1, N - 3) for t the preimage in units of
    the grid step: the end intervals take one-sided stencils, and a preimage
    on a partition point reads its own element's end value.  The blocks of
    one ``column_blocks`` pass, each a run of rows, are all collected
    before the matrix is allocated, once the engine's copies of the points
    are gone; ``_collocation`` writes each a chunk of _ROWS rows at a time
    and drops it.
    """
    N = nodes.shape[1]
    blocks = [(i, block.start + cols[0], pb, norm[cols[0]:cols[-1] + 1])
              for _, block, runs, norm in column_blocks(
                  sys, symbol_trees(sys, word_array(sys, 1)),
                  nodes.reshape(-1),
                  sys.transition[:, np.repeat(np.arange(sys.m), N)],
                  ("x", "Snr", "J"), eig)
              for i, cols, pb in runs]

    def chunks():
        while blocks:
            i, first, pb, norm = blocks.pop(0)
            lo, hi = sys.element_interval(i)
            for part in _row_chunks(len(norm)):
                # complex at b = 0 too: a complex quotient has other bits
                coef = _twisted(pb.J[0, part], pb.Snr[0, part], b).astype(
                    complex, copy=False)
                coef /= norm[part]
                yield (i, first + part.start,
                       (pb.x[0, part] - lo) * ((N - 1) / (hi - lo)), coef)

    return _collocation(sys, N, _lagrange, chunks())


@dataclass
class EigenData:
    """Leading eigendata of P_sigma: eigenvalue, right eigenfunction f (with
    integral 1 against the left probability weights nu), mu = f nu, and the
    residual max |P_sigma f - lam f| / sup f at the nodes.  P_sigma itself
    is not kept; ``L_matrix`` builds each operator it needs afresh."""
    system: MarkovSystem
    sigma: float
    N: int
    lam: float
    f: GridFunction
    mu: np.ndarray          # (m, N) nonnegative, sums to 1
    iterations: int
    residual: float
    # results kept for later calls: "L" holds {b: L_matrix(b)} of the
    # latest b, "ab" uni's latest (sys, n_max, grid, a, b) a(n)/b(n) sweep
    memo: dict = field(init=False, default_factory=dict, repr=False)

    @property
    def pressure(self) -> float:
        return float(np.log(self.lam))

    def L_matrix(self, b: float) -> sp.csr_matrix:
        """Matrix of the normalised twisted operator L_{sigma + i b}.

        It is P_s, s = sigma + i b (real at b = 0), built by
        ``transfer_matrix`` and scaled in place, a chunk of _ROWS rows at a
        time: each entry by 1 / (lam f) at its row, then by f at its column,
        the products of the diagonal matrices D^-1 P D.  P_s stores no 0,
        and scaling by the positive 1 / (lam f) and f leaves every entry
        nonzero short of underflow, so the matrix holds the entries of those
        products, in their order.

        Only the matrix of the latest b is cached, so a sweep over b holds
        one at a time.
        """
        key = float(b)
        cache = self.memo.setdefault("L", {})
        if key not in cache:
            cache.clear()
            s = self.sigma + 1j * key if key != 0.0 else self.sigma
            P = transfer_matrix(self.system, s, self.N)
            f = self.f.values.reshape(-1)
            scale = 1.0 / (self.lam * f)
            for rows in _row_chunks(P.shape[0]):
                ends = P.indptr[rows.start:rows.stop + 1]
                data = P.data[ends[0]:ends[-1]]
                data *= np.repeat(scale[rows], np.diff(ends))
                data *= f[P.indices[ends[0]:ends[-1]]]
            cache[key] = P
        return cache[key]


def _power_iteration(M: sp.spmatrix):
    v = np.ones(M.shape[0])
    maxit = 100_000
    for it in range(1, maxit + 1):
        w = M @ v
        # numpy's sums: BLAS ddot's depend on the number of BLAS threads
        lam = float((w * v).sum()) / float((v * v).sum())
        resid = np.max(np.abs(w - lam * v))
        nrm = np.max(np.abs(w))
        v = w / nrm
        if resid <= 1e-12 * abs(lam):
            return lam, v, it
    raise NoConvergenceError(f"power iteration did not converge in {maxit} steps")


def eigendata(sys: MarkovSystem, sigma: float, N: int) -> EigenData:
    """Leading eigendata of P_sigma by two-sided power iteration, each side
    to a residual of 1e-12 |lam| within 100,000 steps, on N >= 2 nodes per
    element.  The left side reads the transpose as the CSC view of the
    matrix, not a copy: its product adds each output's terms in ascending
    order, as a sorted CSR copy would.  The matrix, which stores no 0, is
    read once more for the residual of the normalised f and then freed."""
    M = transfer_matrix(sys, float(sigma), N)
    lam, f, it1 = _power_iteration(M)
    _, nu, it2 = _power_iteration(M.T)
    f = np.abs(f)
    nu = np.abs(nu)
    nu = nu / nu.sum()
    f = f / float((nu * f).sum())
    mu = nu * f
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(M @ f - lam * f)) / f.max())
    fgrid = GridFunction(sys, f.reshape(sys.m, N))
    return EigenData(sys, float(sigma), N, lam, fgrid, mu.reshape(sys.m, N),
                     iterations=it1 + it2, residual=residual)


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
    fmax = float(eig.f.values.max())
    fmin = float(eig.f.values.min())
    return float(np.exp(semi / (1.0 - lam ** (-a))) * fmax / fmin)


# -- exact depth-n application -------------------------------------------------


def _twisted(J: np.ndarray, Snr: np.ndarray, b: float) -> np.ndarray:
    """J_w exp(-i b S_n r) from a Pullback's J and S_n r: one complex array,
    the phase, exponentiated in place, times J; at b = 0, J itself, real.
    J is real, so its product with the phase has the bits of J's complex
    copy times the phase, in either order."""
    if b == 0.0:
        return J
    out = -1j * b * Snr
    np.exp(out, out=out)
    out *= J
    return out


class BranchPlan:
    """The depth-n inverse branches of the normalised operator at per-element
    node sets, kept to apply to any number of functions (``apply``).

    ``nodes[e]`` is a 1-D float array of points in element e, ascending, so
    that the sets concatenated ascend as ``column_blocks`` needs.  A set
    closed at both ends holds the element's right end, which ``element_of``
    would put into the next element, whose branches differ.  ``column_blocks``
    pulls the points whose element is in the image of a symbol s back along
    every admissible depth-n word ending in s; the plan keeps each block's
    (columns, h_w(x), J_w, J_w exp(-i b S_n r)) (``_twisted``), columns
    into the sets concatenated, and the normaliser, the sum of J_w at each
    point.  J_w is kept real, and at b = 0 it is its own twisted weight;
    ``apply`` multiplies in complex, so its products have the bits they
    have with a complex copy of J_w.
    """

    def __init__(self, sys: MarkovSystem, eig: EigenData, b: float, n: int,
                 nodes):
        elements = np.repeat(np.arange(sys.m), [len(xs) for xs in nodes])
        self.norm = np.empty(len(elements))
        self.blocks = []
        for _, block, runs, norm in column_blocks(
                sys, symbol_trees(sys, word_array(sys, n)),
                np.concatenate(nodes), sys.transition[:, elements],
                ("x", "Snr", "J"), eig):
            self.norm[block] = norm
            self.blocks += [(cols + block.start, pb.x.reshape(-1), pb.J,
                             _twisted(pb.J, pb.Snr, b))
                            for _, cols, pb in runs]

    def apply(self, fn, twist: bool) -> np.ndarray:
        """sum_w J_w [exp(-i b S_n r) if ``twist``] fn at h_w(x) over the
        normaliser, a complex array over the node sets concatenated; fn is
        a callable on the preimages.  A point's terms add as its
        normaliser's do, and each part is divided by it apart (a complex
        quotient is an ulp off), so 1 maps to exactly 1 at b = 0."""
        acc = np.zeros(self.norm.shape, dtype=complex)
        for cols, hx, J, twisted in self.blocks:
            val = twisted if twist else J
            acc[cols] += column_sums(np.multiply(
                val, np.reshape(fn(hx), val.shape), dtype=complex))
        acc.real /= self.norm
        acc.imag /= self.norm
        return acc


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
