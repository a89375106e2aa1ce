"""Piecewise expanding Markov interval maps with roof and potential data.

A system is a finite partition 0 = a_0 < ... < a_m = 1 of the unit
interval, one monotone expanding branch per element mapping it onto a
union of consecutive elements, and per-element roof and potential
expressions.  Elements are taken left-closed: [a_i, a_{i+1}).

Config layout (JSON), as read by ``system_from_config``:

    {"partition": [a_0, ..., a_m],
     "branches": [{"expr": "2*x", "image": [lo, hi]}, ...],   # one per element
     "roof": ["(2+cos(2*pi*x))/3", ...],                       # one per element
     "potential": ["0", ...],                                  # one per element
     "alpha": 1.0}                                             # optional

Expressions use the variable x (see ``expr``); ``image`` is the half-open
range of element indices that the branch maps onto (keys: ``SYSTEM_KEYS``).

A ``MarkovSystem`` is built from the partition, the image ranges and one
``Piece`` per element for the branch, the roof and the potential
(``MarkovSystem.T``, ``.r``, ``.phi``); it never sees an expression.  A
piece's value and derivative return arrays shaped like x, and an affine
piece carries its slope.  ``system_from_config`` compiles each expression
of the config into its piece, whose ``expr`` is the one copy of it kept;
another source of pieces, a tabulated or reduced roof say, needs no change
to ``MarkovSystem``.  phi - s r is formed only by
``MarkovSystem.log_weight``, which skips the roof at s = 0.  No other module
reads a private name of ``MarkovSystem``: ``_T`` and ``_r`` exist only for
the benchmark harness in perfbench/.

The constants every estimate runs on (lam = inf|T'|, rho = sup|T'|, C4,
C7, the roof range and the Hoelder seminorms of phi and r) come from
one scan of the system, cached as ``MarkovSystem.constants``; no other
module scans the expressions for them.  Every Hoelder seminorm of sampled
values, there and in the other modules, is one ``sampled_seminorm``.

Inverse branches of every depth are computed by one engine, ``pullbacks``:
words are built by prepending symbols, h_{iw} = h_i o h_w, and each depth
carries (words x points) arrays of the pulled-back points and the orbit
sums along them.  Other modules reach it through ``pullback`` (the last
depth) and ``symbol_pullbacks`` (one run per last symbol, and the one
normaliser sum of J_w).  Cylinders are arrays too: a words array and the
ends of each word's cylinder, pulled back by that engine (``cylinders``);
no module builds an object per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Expr, compile_expr, differentiate, is_constant, parse

__all__ = [
    "Piece", "MarkovSystem", "SystemConstants", "SYSTEM_KEYS",
    "ValidationReport", "Pullback", "NotMarkovError", "NotExpandingError",
    "NotCoveringError", "CapExceededError",
    "OutsideImageError", "NoConvergenceError", "system_from_config",
    "validate", "cylinders", "count_words", "check_word_cap", "word_array",
    "pullbacks", "pullback", "symbol_pullbacks", "branch_chain",
    "sampled_seminorm", "potential_seminorm",
]


# nodes of the tabulated inverse that starts Newton in inverse_branch
_INVERSE_NODES = 8193
# equally spaced points per element of the scan behind MarkovSystem.constants
_SCAN = 2048
# evenly spaced sample indices, ends included, whose pairs sampled_seminorm
# takes all of
_COARSE = 65
# the keys of a system config block; each but the last, "alpha", is required
SYSTEM_KEYS = ("partition", "branches", "roof", "potential", "alpha")


class NotMarkovError(ValueError):
    pass


class NotExpandingError(ValueError):
    pass


class NotCoveringError(ValueError):
    pass


class CapExceededError(RuntimeError):
    pass


class OutsideImageError(ValueError):
    """A point to pull back lies outside the image of the branch."""


class NoConvergenceError(RuntimeError):
    """An iterative solve stopped without meeting its tolerance."""


class Piece:
    """One element's branch, roof or potential, compiled from its Expr:
    ``value(x=...)`` and ``deriv(x=...)`` return arrays shaped like x, a
    constant as an ``np.broadcast_to`` view of its one number, and
    ``slope`` is the derivative of an affine piece (0.0 for a constant
    one), else None.  The derivative is compiled on first use."""

    def __init__(self, expr: Expr):
        self.expr, self._dexpr = expr, differentiate(expr)
        self.value = _shaped(expr)

    @cached_property
    def deriv(self):
        return _shaped(self._dexpr)

    @cached_property
    def slope(self) -> float | None:
        return float(self.deriv(x=0.0)) if is_constant(self._dexpr) else None


def _shaped(e: Expr):
    """e compiled, its one number broadcast to x's shape if e is constant."""
    fn = compile_expr(e)
    if not is_constant(e):
        return fn
    return lambda x: np.broadcast_to(fn(x=x), np.shape(x))


@dataclass(frozen=True)
class SystemConstants:
    """Constants of a system, from one scan of _SCAN equally spaced points
    per element, ends included:

        lam, rho            inf |T'| and sup |T'|
        c4                  sup |D(r o h)| = sup |r'| / |T'| over the
                            inverse branches h
        roof_inf, roof_sup  inf r and sup r
        semi_phi, semi_r    alpha-Hoelder seminorms of phi and r within
                            an element (``sampled_seminorm``)
        monotone            per branch: T' never takes both signs
    """
    lam: float
    rho: float
    c4: float
    roof_inf: float
    roof_sup: float
    semi_phi: float
    semi_r: float
    monotone: tuple[bool, ...]

    @property
    def c7(self) -> float:
        """Closed-form bound with |D(S_n r o h)| <= C7 / 2 for all n."""
        q = 1.0 - 1.0 / self.lam
        return max(2.0 * self.c4 * self.rho / q, q * self.c4)


@dataclass
class ValidationReport:
    expansion: float          # lam: inf |T'|
    rho: float                # sup |T'|
    c2: float                 # distortion constant of inverse branch derivatives
    c4: float                 # sup |D(r o h)| over inverse branches h
    roof_inf: float
    roof_sup: float
    markov_residual: float    # worst endpoint mismatch of branch images
    covering_power: int       # least k with all-positive transition matrix power
    ok: bool
    messages: list[str]       # one per failed check


class MarkovSystem:
    """Markov map with roof and potential, held as one ``Piece`` per element
    each: ``T[i]``, ``r[i]`` and ``phi[i]``; ``images[i]`` is the half-open
    range of element indices that branch i maps onto."""

    def __init__(self, partition, images, T, r, phi, alpha):
        self.partition = np.asarray(partition, dtype=float)
        if self.partition.ndim != 1 or len(self.partition) < 2:
            raise NotMarkovError("partition needs at least two breakpoints")
        if abs(self.partition[0]) > 1e-12 or abs(self.partition[-1] - 1.0) > 1e-12:
            raise NotMarkovError("partition must span [0, 1]")
        if np.any(np.diff(self.partition) <= 0):
            raise NotMarkovError("partition breakpoints must be strictly increasing")
        self.m = len(self.partition) - 1
        if not len(images) == len(T) == len(r) == len(phi) == self.m:
            raise NotMarkovError("need one branch, roof and potential per element")
        self.images = [(int(lo), int(hi)) for lo, hi in images]
        self.T, self.r, self.phi = list(T), list(r), list(phi)
        self.alpha = float(alpha)
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

        # transition[i, j]: symbol j may follow symbol i
        self.transition = np.zeros((self.m, self.m), dtype=bool)
        for i, (lo, hi) in enumerate(self.images):
            if not (0 <= lo < hi <= self.m):
                raise NotMarkovError(f"branch image range {(lo, hi)} out of bounds")
            self.transition[i, lo:hi] = True

        # orientation of each branch, from the derivative at the midpoint
        mids = 0.5 * (self.partition[:-1] + self.partition[1:])
        self.increasing = np.array(
            [float(self.T[i].deriv(x=mids[i])) > 0 for i in range(self.m)])
        # per branch, what starts its inverse: T_i at the midpoint if it is
        # affine; else the cubic Hermite table of h_i on _INVERSE_NODES points
        # of its image (``_tabulated_inverse``), built by its first call
        self._inverse_starts: list[float | tuple | None] = [
            float(T.value(x=mid)) if T.slope else None
            for T, mid in zip(self.T, mids)]

    @cached_property
    def constants(self) -> SystemConstants:
        """The system's constants, scanned on first use (SystemConstants)."""
        return _scan_constants(self)

    # the compiled T_i and r_i, for perfbench/ alone (tracer and probes)
    _T = property(lambda self: [p.value for p in self.T])
    _r = property(lambda self: [p.value for p in self.r])

    def log_weight(self, i: int, s, y):
        """((phi_i - s r_i)(y), r_i(y)) at points y of element i: the log of
        branch i's weight in P_s, and the roof values read for it; None at
        s = 0, where the roof is not read, as phi - 0 r is phi to the bit."""
        phi = self.phi[i].value(x=y)
        if s == 0:
            return phi, None
        r = self.r[i].value(x=y)
        return phi - s * r, r

    # -- pointwise structure ------------------------------------------------

    def element_of(self, x):
        """Index of the partition element containing x (left-closed), shaped
        like x: (m - 1) minus the number of interior breakpoints above x.

        x < 0 gives 0, and x >= 1 and NaN, which is below no breakpoint,
        give m - 1.  A scalar x gives a numpy integer.

        One comparison pass over x per interior breakpoint makes the cost
        linear in m (O(m n), against O(n log m) for a binary search); it is
        the cheaper way for the few elements of the presets.
        """
        x = np.asarray(x)
        idx = np.full(x.shape, self.m - 1, dtype=np.intp)
        for p in self.partition[1:-1]:
            idx -= x < p
        return idx[()]

    def element_interval(self, i: int) -> tuple[float, float]:
        return float(self.partition[i]), float(self.partition[i + 1])

    def image_interval(self, i: int) -> tuple[float, float]:
        lo, hi = self.images[i]
        return float(self.partition[lo]), float(self.partition[hi])

    def _piecewise(self, pieces, x):
        """pieces[element_of(x)].value at x, a new array shaped like x.

        Each element's expression runs on the points of that element,
        gathered by integer index.  A ufunc gives a value the same bits
        wherever it sits in its array, so this gives the bits of a
        per-point evaluation.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = np.empty(flat.shape)
        idx = self.element_of(flat)
        for i in range(self.m):
            k = np.flatnonzero(idx == i)
            if k.size:
                out[k] = pieces[i].value(x=flat[k])
        return out.reshape(x.shape)

    def apply_T(self, x):
        return self._piecewise(self.T, x)

    def roof_at(self, x):
        return self._piecewise(self.r, x)

    # -- inverse branches ---------------------------------------------------

    def inverse_branch(self, i: int, y):
        """Solve T_i(z) = y on element i; safeguarded Newton, |residual| tol 1e-13.

        Raises OutsideImageError when some y is NaN or lies outside the
        closed image of branch i by more than 1e-12 times the element width,
        and NoConvergenceError when Newton has not converged after 200 steps.
        A y within that slack outside the image is clamped to the image, so
        it returns the element end.
        For an affine branch (``Piece.slope``) the first Newton step from
        the midpoint is the root up to rounding; it is kept when it passes
        the bracket and residual tests that Newton applies to it, and Newton
        runs from the midpoint otherwise.

        A nonlinear branch starts Newton from a tabulated inverse
        (``_tabulated_inverse``): a cubic Hermite interpolant of h_i on
        _INVERSE_NODES equally spaced points of its image, clipped to the
        element.  On a branch whose inverse has four bounded derivatives
        the start is within spacing^4 sup |h_i^(4)| / 384 of the root, below
        rounding on NL-DOUBLING, so the first residual test passes and a
        solve costs one evaluation of T_i.  Where the start misses the
        tolerance (a branch that is only C^{1+alpha}, say), Newton runs on
        from it.
        """
        a, b = self.element_interval(i)
        y = np.asarray(y, dtype=float)
        lo_img, hi_img = self.image_interval(i)
        slack = 1e-12 * (b - a)
        if y.size:
            y_lo, y_hi = y.min(), y.max()
            # written so that NaN, which fails every comparison, fails it
            if not (y_lo >= lo_img - slack and y_hi <= hi_img + slack):
                raise OutsideImageError(
                    f"points outside the image [{lo_img}, {hi_img}] of branch {i}")
            if y_lo < lo_img or y_hi > hi_img:
                # no z in the element may meet the residual test out there
                y = np.clip(y, lo_img, hi_img)
        mid = 0.5 * (a + b)
        T = self.T[i]
        if T.slope:
            z = mid - (self._inverse_starts[i] - y) / T.slope
            # the step lands on the side of mid that holds the root, so
            # Newton's bracket test reduces to staying inside the element
            if (np.all((z >= a) & (z <= b))
                    and np.all(np.abs(T.value(x=z) - y) < 1e-13)):
                return z
            del z  # Newton's arrays need not sit beside the rejected step
            return self._newton(i, y, np.full(y.shape, mid))
        return self._newton(i, y, self._tabulated_inverse(i, y))

    def _tabulated_inverse(self, i: int, y):
        """Cubic Hermite interpolant at y of h_i on _INVERSE_NODES equally
        spaced points y_k of the image, with y clipped to the table's ends
        and the result clipped to the element.

        The table, built on the first call, is (values, slopes, c2, c3):
        z_k = h_i(y_k) (Newton from the midpoint, then one more step to
        reach rounding level), the slopes m_k = H / T_i'(z_k) = H h_i'(y_k),
        H the node spacing, so they are in the unit of the table's index,
        and per interval k the coefficients c2 = 3 d - 2 m_k - m_{k+1} and
        c3 = m_k + m_{k+1} - 2 d, d = z_{k+1} - z_k, of the cubic
        z_k + s (m_k + s (c2 + s c3)) in s = index - k.  The table interval
        of y comes from arithmetic on the uniform grid, not from a search.
        """
        lo_img, hi_img = self.image_interval(i)
        a, b = self.element_interval(i)
        last = _INVERSE_NODES - 1
        if self._inverse_starts[i] is None:
            T = self.T[i]
            nodes = np.linspace(lo_img, hi_img, _INVERSE_NODES)
            z = self._newton(i, nodes, np.full(nodes.shape, 0.5 * (a + b)))
            # one more step takes the nodes from the tolerance to rounding
            z = np.clip(z - (T.value(x=z) - nodes) / T.deriv(x=z), a, b)
            m = ((hi_img - lo_img) / last) / T.deriv(x=z)
            d = np.diff(z)
            self._inverse_starts[i] = (z, m, 3.0 * d - 2.0 * m[:-1] - m[1:],
                                       m[:-1] + m[1:] - 2.0 * d)
        values, slopes, c2, c3 = self._inverse_starts[i]
        t = np.clip((y - lo_img) * (last / (hi_img - lo_img)), 0.0, last)
        j = np.minimum(t.astype(np.intp), last - 1)
        s = t - j
        z = c3[j]
        for c in (c2, slopes, values):
            z *= s
            z += c[j]
        return np.clip(z, a, b)

    def _newton(self, i: int, y, z):
        """Safeguarded Newton for T_i = y on element i, started at z; a start
        that meets the tolerance costs one evaluation of T_i and nothing
        else."""
        a, b = self.element_interval(i)
        lo, hi = a, b  # the bracket; the first step makes it arrays
        T = self.T[i]
        sign = 1.0 if self.increasing[i] else -1.0
        for _ in range(200):
            f = T.value(x=z) - y
            if np.all(np.abs(f) < 1e-13):
                return np.clip(z, a, b)
            fs = f * sign
            lo = np.where(fs <= 0, z, lo)
            hi = np.where(fs > 0, z, hi)
            zn = z - f / T.deriv(x=z)
            zn = np.where((zn < lo) | (zn > hi), 0.5 * (lo + hi), zn)
            z = zn
        raise NoConvergenceError(
            f"inverse of branch {i}: Newton residual {float(np.max(np.abs(f)))!r}"
            " after 200 steps")


def system_from_config(cfg: dict) -> MarkovSystem:
    """Build a system from the JSON config layout in the module docstring,
    each expression compiled into its ``Piece``."""
    extra = set(cfg) - set(SYSTEM_KEYS)
    if extra:
        raise NotMarkovError(f"unknown system config keys: {sorted(extra)}")

    def pieces(texts):
        return [Piece(parse(t)) for t in texts]

    branches = cfg["branches"]
    return MarkovSystem(cfg["partition"], [b["image"] for b in branches],
                        pieces(b["expr"] for b in branches),
                        pieces(cfg["roof"]), pieces(cfg["potential"]),
                        cfg.get("alpha", 1.0))


# -- constants and validation -------------------------------------------------


def sampled_seminorm(xs, vals, alpha: float):
    """alpha-Hoelder seminorm of the samples vals at the points xs of one
    element: the largest |v_i - v_j| / |x_i - x_j|^alpha over adjacent
    pairs and over all pairs of _COARSE evenly spaced indices, both ends
    included.

    At alpha = 1 the adjacent pairs give the exact seminorm of the samples,
    since a longer difference quotient is a weighted mean of adjacent ones;
    at alpha < 1 the coarse pairs catch the long-range quotients, but a
    worst pair between the adjacent scale and the coarse spacing is missed,
    so there it can read below an estimate over many random pairs: 6 %
    below on sin(32 pi x) at 2049 points of [0, 1/2] at alpha = 1/2.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals)
    n = len(xs)
    k = min(n, _COARSE)
    sub = np.arange(k) * (n - 1) // (k - 1)
    i, j = (sub[p] for p in np.triu_indices(k, 1))
    adj = np.abs(np.diff(vals)) / np.abs(np.diff(xs)) ** alpha
    far = np.abs(vals[j] - vals[i]) / np.abs(xs[j] - xs[i]) ** alpha
    return float(np.maximum(adj.max(), far.max()))


def potential_seminorm(sys: MarkovSystem, sigma: float) -> float:
    """|phi - sigma r|_alpha: the largest ``sampled_seminorm`` of
    phi - sigma r (``MarkovSystem.log_weight``) over the elements, on the
    grid of the constants' scan."""
    semi = 0.0
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), _SCAN)
        g, _ = sys.log_weight(i, sigma, xs)
        semi = max(semi, sampled_seminorm(xs, g, sys.alpha))
    return semi


def _scan_constants(sys: MarkovSystem) -> SystemConstants:
    """The one scan behind ``MarkovSystem.constants``."""
    lam, rho, c4 = np.inf, 0.0, 0.0
    r_inf, r_sup = np.inf, -np.inf
    semi_r = 0.0
    monotone = []
    for i in range(sys.m):
        xs = np.linspace(*sys.element_interval(i), _SCAN)
        dT, dr, r = sys.T[i].deriv(x=xs), sys.r[i].deriv(x=xs), sys.r[i].value(x=xs)
        monotone.append(not (np.any(dT > 0) and np.any(dT < 0)))
        absdT = np.abs(dT)
        lam = min(lam, float(absdT.min()))
        rho = max(rho, float(absdT.max()))
        with np.errstate(divide="ignore", invalid="ignore"):
            c4 = max(c4, float(np.max(np.abs(dr) / absdT)))
        r_inf = min(r_inf, float(r.min()))
        r_sup = max(r_sup, float(r.max()))
        semi_r = max(semi_r, sampled_seminorm(xs, r, sys.alpha))
    return SystemConstants(lam=lam, rho=rho, c4=c4, roof_inf=r_inf,
                           roof_sup=r_sup, semi_r=semi_r,
                           semi_phi=potential_seminorm(sys, 0.0),
                           monotone=tuple(monotone))


def validate(sys: MarkovSystem) -> ValidationReport:
    """Check the standing hypotheses.

    Verifies: expansion inf|T'| > 1, branch monotonicity, Markov property
    (branch endpoints land on breakpoints of the declared image), covering
    (some power of the transition matrix is strictly positive), roof bounds
    0 < inf r <= sup r <= 1, and estimates the distortion constant C2 of
    inverse-branch derivatives (NaN when some branch is not monotone or
    misses its declared breakpoints, so that its inverse is not defined on
    the image).  lam, rho, C4 and the roof range are read from
    ``sys.constants``.  Each failed check is reported in ``messages``, and
    ``ok`` is False.
    """
    c = sys.constants
    msgs: list[str] = []
    markov_res = 0.0
    for i in range(sys.m):
        # Markov endpoints: closure of T(element) must be the closure of the
        # declared image interval
        a, b = sys.element_interval(i)
        lo, hi = sys.image_interval(i)
        ta, tb = float(sys.T[i].value(x=a)), float(sys.T[i].value(x=b))
        t0, t1 = min(ta, tb), max(ta, tb)
        markov_res = max(markov_res, abs(t0 - lo), abs(t1 - hi))

    monotone = all(c.monotone)
    if not monotone:
        msgs.append(f"branch {c.monotone.index(False)} is not monotone")
    if c.lam <= 1.0:
        msgs.append(f"inf |T'| = {c.lam} <= 1")
    if markov_res > 1e-9:
        msgs.append(
            f"branch images miss declared breakpoints by {markov_res:.3e}")
    if not (c.roof_inf > 0 and c.roof_sup <= 1.0 + 1e-12):
        msgs.append(f"roof range [{c.roof_inf}, {c.roof_sup}] outside (0, 1]")

    # covering: some power of the transition matrix is strictly positive
    power = 0
    A = np.eye(sys.m, dtype=bool)
    for k in range(1, 2 * sys.m * sys.m + 1):
        A = (A.astype(int) @ sys.transition.astype(int)) > 0
        if A.all():
            power = k
            break
    if power == 0:
        msgs.append("transition matrix has no strictly positive power")

    # distortion of inverse-branch derivatives at small depths:
    # sup |Dh_n(x) - Dh_n(y)| / (|Dh_n(x)| d(x,y)^alpha); NaN where some
    # inverse branch is undefined
    inverts = monotone and markov_res <= 1e-9
    c2 = 0.0 if inverts else np.nan
    for depth in (1, 2, 3) if inverts else ():
        for word in word_array(sys, depth).tolist():
            dom = sys.image_interval(word[-1])  # the domain of h_word
            ys = np.linspace(dom[0], dom[1], 64)
            ch = branch_chain(sys, tuple(word), ys)
            dh = 1.0 / ch["dTn"]
            d = np.abs(dh[:, None] - dh[None, :])
            scale = np.abs(dh)[:, None] * np.abs(ys[:, None] - ys[None, :]) ** sys.alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(scale > 0, d / scale, 0.0)
            c2 = max(c2, float(np.nanmax(q)))

    return ValidationReport(
        expansion=c.lam, rho=c.rho, c2=c2, c4=c.c4,
        roof_inf=c.roof_inf, roof_sup=c.roof_sup,
        markov_residual=markov_res, covering_power=power,
        ok=not msgs, messages=msgs,
    )


# -- words, the pullback engine, cylinders ------------------------------------


def count_words(sys: MarkovSystem, n: int) -> int:
    """Number of admissible depth-n words, counted without building them."""
    counts = np.ones(sys.m, dtype=np.int64)
    for _ in range(n - 1):
        counts = sys.transition.astype(np.int64) @ counts
    return int(counts.sum())


def check_word_cap(total: int, n: int) -> None:
    """Raise CapExceededError when ``total`` depth-n words exceed 2,000,000,
    the most one array of words holds."""
    cap = 2_000_000
    if total > cap:
        raise CapExceededError(f"{total} depth-{n} cylinders exceed cap {cap}")


def word_array(sys: MarkovSystem, n: int) -> np.ndarray:
    """(K, n) array of all admissible depth-n words, in lexicographic order;
    more than 2,000,000 words raise CapExceededError."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    check_word_cap(count_words(sys, n), n)
    words = np.arange(sys.m, dtype=np.intp)[:, None]
    for _ in range(n - 1):
        rows, nxt = np.nonzero(sys.transition[words[:, -1]])
        words = np.column_stack([words[rows], nxt])
    return words


FIELDS = ("x", "dTn", "Snr", "Snphi", "DSnr_h")
_BLOCK = 1 << 16  # (word, point) pairs per batched solve; bounds temporaries


@dataclass
class Pullback:
    """One depth k of the pullback engine: row a is the word ``words[a]``,
    column b the point y_b, and each field is a (words, points) array:

        x       h_w(y)
        dTn     DT^k(x)
        Snr     S_k r(x)
        Snphi   S_k phi(x)
        DSnr_h  D(S_k r o h_w)(y) = D(S_k r)(x) / DT^k(x)
        J       lam^-k exp(S_k(phi - sigma r)(x)) f(x) / f(y), the inverse
                Jacobian of mu_sigma along h_w

    Fields that were not asked for are None.
    """
    words: np.ndarray
    x: np.ndarray | None = None
    dTn: np.ndarray | None = None
    Snr: np.ndarray | None = None
    Snphi: np.ndarray | None = None
    DSnr_h: np.ndarray | None = None
    J: np.ndarray | None = None


def _suffix_tree(words: np.ndarray) -> list[tuple]:
    """Per depth k = 1..n, over the distinct length-k suffixes of ``words`` in
    lexicographic order: their first symbols, the row of each one's own
    suffix at depth k - 1, and a row of ``words`` that ends in it."""
    K, n = words.shape
    rank = np.zeros(K, dtype=np.intp)
    count = 1
    levels = []
    for k in range(1, n + 1):
        uniq, first, rank = np.unique(words[:, n - k] * count + rank,
                                      return_index=True, return_inverse=True)
        sym, parent = np.divmod(uniq, count)
        levels.append((sym, parent, first))
        count = len(uniq)
    if count != K or np.any(rank != np.arange(K)):
        raise ValueError("words must be distinct and in lexicographic order")
    return levels


def _prepend(sys: MarkovSystem, i: int, prev: dict, rows, need: set, k: int,
             eig, fy) -> dict:
    """Depth-k fields of the words i + w from the depth-(k-1) rows of w."""
    z = sys.inverse_branch(i, prev["x"][rows])
    out = {"x": z}
    if "dTn" in need:
        out["dTn"] = sys.T[i].deriv(x=z) * prev["dTn"][rows]
    if "DSnr_h" in need:
        out["DSnr_h"] = sys.r[i].deriv(x=z) / out["dTn"] + prev["DSnr_h"][rows]
    r = None
    if "lw" in need:
        g, r = sys.log_weight(i, eig.sigma, z)
        out["lw"] = g + prev["lw"][rows]
    if "Snr" in need:
        out["Snr"] = (sys.r[i].value(x=z) if r is None else r) + prev["Snr"][rows]
    if "Snphi" in need:
        out["Snphi"] = sys.phi[i].value(x=z) + prev["Snphi"][rows]
    if "J" in need:
        out["J"] = (eig.lam ** (-k) * np.exp(out["lw"])
                    * eig.f.eval(z).real / fy)
    return out


def pullbacks(sys: MarkovSystem, words, ys, fields, eig, every_depth: bool):
    """Pull the points ys back along every suffix of ``words``, depth by depth.

    ``words`` is a (K, n) array of distinct words in lexicographic order;
    every y must lie in the image of the last symbol of every word.  Depth k
    comes from depth k - 1 by prepending a symbol, h_{iw} = h_i o h_w, with
    one batched ``inverse_branch`` per symbol over row blocks of at most
    2^16 (word, point) pairs.  Yields one Pullback per depth k = 1..n, with
    rows the distinct length-k suffixes in lexicographic order (at depth n,
    ``words`` itself), carrying ``fields``; "J" needs the EigenData ``eig``,
    and no other field reads it (None will do).  Only the previous depth is
    held while the next is built, and the last depth keeps nothing but
    ``fields``.  With ``every_depth`` False only depth n is yielded, and J,
    which no deeper depth needs, is computed there alone.
    """
    words = np.asarray(words, dtype=np.intp)
    ys = np.asarray(ys, dtype=float)
    n = words.shape[1]
    if n < 1:
        raise ValueError("depth must be >= 1")
    levels = _suffix_tree(words)
    want = set(fields)
    need = want | {"x"}
    if "DSnr_h" in need:
        need.add("dTn")
    fy = None
    if "J" in need:
        need.add("lw")
        fy = eig.f.eval(ys).real
    P = len(ys)
    # depth 0: the empty word, h = identity
    state = {f: np.full((1, P), 1.0 if f == "dTn" else 0.0) for f in need}
    state["x"] = ys[None, :]
    step = max(1, _BLOCK // max(P, 1))
    for k, (sym, parent, first) in enumerate(levels, start=1):
        yields = every_depth or k == n
        step_need = need if yields else need - {"J"}
        keep = step_need if k < n else want
        new = {f: np.empty((len(sym), P)) for f in keep}
        bounds = np.searchsorted(sym, np.arange(sys.m + 1))
        for i in range(sys.m):
            for a in range(bounds[i], bounds[i + 1], step):
                rows = slice(a, min(a + step, bounds[i + 1]))
                block = _prepend(sys, i, state, parent[rows], step_need, k,
                                 eig, fy)
                for f in keep:
                    new[f][rows] = block[f]
        state = new
        if yields:
            yield Pullback(words[first, n - k:],
                           **{f: state[f] for f in want})


def pullback(sys: MarkovSystem, words, ys, fields=FIELDS) -> Pullback:
    """The last depth of ``pullbacks``: one row per word of ``words``."""
    for level in pullbacks(sys, words, ys, fields, None, False):
        pass
    return level


def symbol_pullbacks(sys: MarkovSystem, words, ys, holds, fields, eig=None,
                     every_depth: bool = False):
    """One ``pullbacks`` run per last symbol s, of the words ending in s at
    the ys that the boolean row holds[s] marks, zipped depth by depth.

    Yields (blocks, norm) per depth, at the depths ``pullbacks`` yields:
    one (s, cols, Pullback) block per symbol that ends some word and holds
    some y, in symbol order, cols indexing ys; and the sum of J_w over all
    rows at each y, added symbol after symbol, when "J" is in ``fields``,
    else None.  The full ``words`` array is dropped once each run holds its
    rows.
    """
    depths = words.shape[1] if every_depth else 1
    runs = []
    for s in range(sys.m):
        cols = np.flatnonzero(holds[s])
        ends = words[:, -1] == s
        if len(cols) and ends.any():
            runs.append((s, cols, pullbacks(sys, words[ends], ys[cols], fields,
                                             eig, every_depth)))
    del words  # each run holds its own rows
    for _ in range(depths):
        blocks = [(s, cols, next(run)) for s, cols, run in runs]
        norm = None
        if "J" in fields:
            norm = np.zeros(len(ys))
            for _, cols, pb in blocks:
                norm[cols] += pb.J.sum(axis=0)
        yield blocks, norm


def branch_chain(sys: MarkovSystem, word: tuple[int, ...], y) -> dict:
    """Pull y back along the inverse branch of ``word`` (the engine on one word).

    Returns x = h_word(y) and the orbit data along it: DT^n(x), S_n r,
    S_n phi and D(S_n r o h)(y) = D(S_n r)(x) / DT^n(x), each shaped like y.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    level = pullback(sys, [word], y.reshape(-1))
    return {f: getattr(level, f)[0].reshape(y.shape) for f in FIELDS}


def _cylinder_ends(sys: MarkovSystem, words: np.ndarray):
    """(left, right) arrays of the cylinders of the (K, n) ``words``, rows
    distinct and in lexicographic order.

    [w e] = h_w(element e): for each last symbol e, one engine run pulls the
    ends of element e back along the heads w of the words ending in e.
    """
    last = words[:, -1]
    if words.shape[1] == 1:
        return sys.partition[last], sys.partition[last + 1]
    left, right = np.empty(len(words)), np.empty(len(words))
    for e in range(sys.m):
        k = np.flatnonzero(last == e)
        if k.size:
            x = pullback(sys, words[k, :-1], np.array(sys.element_interval(e)),
                         ("x",)).x
            left[k] = np.minimum(x[:, 0], x[:, 1])
            right[k] = np.maximum(x[:, 0], x[:, 1])
    return left, right


def cylinders(sys: MarkovSystem, n: int):
    """All depth-n cylinders as arrays (words, left, right): the (K, n)
    ``word_array`` and each word's cylinder ends, in word (lexicographic)
    order; more than 2,000,000 words raise CapExceededError."""
    words = word_array(sys, n)
    return (words, *_cylinder_ends(sys, words))
