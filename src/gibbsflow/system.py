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
``MarkovSystem.log_weight``, which skips the roof at s = 0.  No module of
gibbsflow imports or reads another module's underscore name (checked by
tests/test_callers.py), so ``MarkovSystem``'s ``_T`` and ``_r`` exist only
for the benchmark harness in perfbench/.

The constants every estimate runs on (lam = inf|T'|, rho = sup|T'|, C4,
C7, the roof range and the Hoelder seminorms of phi and r) come from
one scan of the system, cached as ``MarkovSystem.constants``; no other
module scans the expressions for them.  The d-step expansions
inf |(T^d)'| that certify the sampler's burn-in come from a second scan,
cached as ``MarkovSystem.expansion``.  Every Hoelder seminorm of sampled
values, there and in the other modules, is one ``sampled_seminorm``.

Inverse branches of every depth are computed by one engine, ``_Run``:
words are built by prepending symbols, h_{iw} = h_i o h_w, along the
words' suffix tree, and each depth carries (words x points) arrays of the
pulled-back points and the orbit sums along them.  Other modules reach it
through one entry per contract: ``pullback`` (the last depth of one tree,
at points every word reaches) and ``column_blocks`` (one run per last
symbol, at the points its image holds, with the normaliser sum of J_w,
under one budget of values a depth: the shallow depths once over every
point, the deeper ones on column blocks of the points that resume from
the last shared depth).  ``column_blocks`` reads the trees of
``symbol_trees``, built once and holding no words, so a caller pulls the
same words back at several sets of points without building them again.
Every sum down the columns of a block is one ``column_sums``, so no sum
depends on the block its column lands in.  Every consumer of J divides it
by the normaliser ``column_blocks`` yields beside it, and sums none of its
own.  The log weight S_k(phi - sigma r) behind J is held as a (words x 1)
column when every piece it reads (phi, and r at sigma != 0) is a constant
on its element, as on every preset at sigma = 0: it is then one number per
word.  J is (words x points) either way, with the same bits.  Cylinders
are arrays too: a words array and the ends of each word's cylinder, pulled
back by that engine (``cylinders``); no module builds an object per word.
"""

from __future__ import annotations

import copy
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
    "pullback", "symbol_trees", "column_blocks", "column_sums",
    "branch_chain", "cylinder_ends",
    "sampled_seminorm", "potential_seminorm",
]


# nodes of the tabulated inverse that starts Newton in inverse_branch
_INVERSE_NODES = 8193
# equally spaced points per element of the scan behind MarkovSystem.constants
_SCAN = 2048
# the most steps of T whose joint expansion MarkovSystem.expansion scans:
# on NL-DOUBLING, whose |T'| is least where it is large one step later, the
# sampler's burn-in certified by 1, 2, 4 and 5 steps is 168, 73, 72 and 70
_EXPANSION_STEPS = 4
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
    constant as a read-only ``np.broadcast_to`` view of its one number,
    built once per shape and handed to every read at that shape, and
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
    """e compiled, its one number broadcast to x's shape if e is constant:
    one view per shape, kept on first read (a view is a few hundred bytes,
    and the engine reads a few hundred shapes a run)."""
    fn = compile_expr(e)
    if not is_constant(e):
        return fn
    views = {}

    def value(x):
        shape = np.shape(x)
        view = views.get(shape)
        if view is None:
            view = views[shape] = np.broadcast_to(fn(x=x), shape)
        return view
    return value


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
    c2: float                 # distortion constant of inverse branch derivatives
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
        # affine, else the Hermite table ``_tabulated_inverse`` builds
        self._inverse_starts: list[float | tuple | None] = [
            float(T.value(x=mid)) if T.slope else None
            for T, mid in zip(self.T, mids)]

    @cached_property
    def constants(self) -> SystemConstants:
        """The system's constants, scanned on first use (SystemConstants)."""
        return _scan_constants(self)

    @cached_property
    def expansion(self) -> tuple[float, ...]:
        """Lambda_d = inf |(T^d)'| for d = 1.._EXPANSION_STEPS, over the
        constants' scan points each carried d steps forward
        (``_scan_expansion``), scanned on first use.  Only the sampler's
        burn-in reads it, so it is kept apart from ``constants``, which
        many runs that never sample read."""
        return _scan_expansion(self)

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

    def inverse_branch(self, i: int, y, out=None):
        """Solve T_i(z) = y on element i, each point on its own: a start,
        one residual test, and safeguarded Newton (``_newton``) on the
        points whose |residual| is not below 1e-13.  So
        ``inverse_branch(i, y)[k]`` has the bits of
        ``inverse_branch(i, y[k:k+1])``, and a scalar y gives a 0-d array.

        Raises OutsideImageError when some y is NaN or lies outside the
        closed image of branch i by more than 1e-12 times the element width,
        and NoConvergenceError when Newton has not converged after 200 steps.
        A y within that slack outside the image is clamped to the image, so
        it returns the element end.  The root is written into ``out`` when
        it is given, an array shaped like y that does not overlap it, and
        returned.

        An affine branch (``Piece.slope``) starts from one Newton step from
        the midpoint, clipped to the element: the step lands on the root's
        side of the midpoint, so only rounding can take it out.

        A nonlinear branch starts from its Hermite table
        (``_tabulated_inverse``).  Where h_i has four bounded derivatives
        the start is within spacing^4 sup |h_i^(4)| / 384 of the root, below
        rounding on NL-DOUBLING, so a solve costs one evaluation of T_i;
        where it misses the tolerance (a branch that is only C^{1+alpha},
        say), Newton runs on from it.
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
        z = np.empty(y.shape) if out is None else out
        T = self.T[i]
        if T.slope:
            np.subtract(self._inverse_starts[i], y, out=z)
            z /= T.slope
            np.subtract(0.5 * (a + b), z, out=z)
            np.clip(z, a, b, out=z)
        else:
            self._tabulated_inverse(i, y, z)
        return self._newton(i, y, z)

    def _tabulated_inverse(self, i: int, y, out):
        """Cubic Hermite interpolant at y of h_i on _INVERSE_NODES equally
        spaced points y_k of the image, with y clipped to the table's ends
        and the result clipped to the element, written into ``out``.

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
        return np.clip(z, a, b, out=out)

    def _newton(self, i: int, y, z):
        """Safeguarded Newton for T_i = y on element i, started at the array
        z (inside the element) and written into it.  Each point stops at its
        first |residual| below 1e-13, so its root depends on its own y and
        start alone; a start that meets the tolerance costs one evaluation
        of T_i and nothing else."""
        T = self.T[i]
        f = T.value(x=z) - y
        r = np.abs(f)
        # NaN fails the test, so it stays in Newton until the refusal
        if r.max(initial=0.0) < 1e-13:
            return z
        k = np.flatnonzero(~(r < 1e-13))
        y, x, f = np.ravel(y)[k], np.ravel(z)[k], np.ravel(f)[k]
        lo, hi = self.element_interval(i)  # the brackets hold every iterate
        sign = 1.0 if self.increasing[i] else -1.0
        for _ in range(200):
            fs = f * sign
            lo = np.where(fs <= 0, x, lo)
            hi = np.where(fs > 0, x, hi)
            xn = x - f / T.deriv(x=x)
            x = np.where((xn < lo) | (xn > hi), 0.5 * (lo + hi), xn)
            f = T.value(x=x) - y
            done = np.abs(f) < 1e-13
            z.flat[k[done]] = x[done]
            if done.all():
                return z
            k, y, x, f, lo, hi = (v[~done] for v in (k, y, x, f, lo, hi))
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


def _scan_expansion(sys: MarkovSystem) -> tuple[float, ...]:
    """The scan behind ``MarkovSystem.expansion``: each point x of the
    constants' scan of element i is carried forward, through T_i and then
    through the branch of the element each image lies in (left-closed), and
    Lambda_d is the least of |T'(x)| |T'(Tx)| ... |T'(T^{d-1} x)| over the
    points.  Lambda_1 is the scan's inf |T'|, ``constants.lam``, to the
    bit."""
    x = np.concatenate([np.linspace(*sys.element_interval(i), _SCAN)
                        for i in range(sys.m)])
    elem = np.repeat(np.arange(sys.m), _SCAN)
    jacobian = np.ones_like(x)
    least = []
    for _ in range(_EXPANSION_STEPS):
        nxt = np.empty_like(x)
        for i in range(sys.m):
            k = np.flatnonzero(elem == i)
            if k.size:
                jacobian[k] *= np.abs(sys.T[i].deriv(x=x[k]))
                nxt[k] = sys.T[i].value(x=x[k])
        least.append(float(jacobian.min()))
        x, elem = nxt, sys.element_of(nxt)
    return tuple(least)


def validate(sys: MarkovSystem) -> ValidationReport:
    """Check the standing hypotheses.

    Verifies: expansion inf|T'| > 1, branch monotonicity, Markov property
    (branch endpoints land on breakpoints of the declared image), covering
    (some power of the transition matrix is strictly positive), roof bounds
    0 < inf r <= sup r <= 1, and estimates the distortion constant C2 of
    inverse-branch derivatives (NaN when some branch is not monotone or
    misses its declared breakpoints, so that its inverse is not defined on
    the image).  lam and the roof range are read from ``sys.constants``,
    which the report does not copy.  Each failed check is reported in
    ``messages``, and ``ok`` is False.
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
    # inverse branch is undefined.  The 64 points of a word depend on its
    # last symbol s alone (the domain of h_word is the image of s), so the
    # words ending in s are pulled back in one engine pass, a row each
    inverts = monotone and markov_res <= 1e-9
    c2 = 0.0 if inverts else np.nan
    for depth in (1, 2, 3) if inverts else ():
        words = word_array(sys, depth)
        for s in range(sys.m):
            ending = words[words[:, -1] == s]
            if not len(ending):
                continue
            ys = np.linspace(*sys.image_interval(s), 64)
            dh = 1.0 / pullback(sys, ending, ys, ("dTn",)).dTn
            d = np.abs(dh[:, :, None] - dh[:, None, :])
            scale = (np.abs(dh)[:, :, None]
                     * np.abs(ys[:, None] - ys[None, :]) ** sys.alpha)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(scale > 0, d / scale, 0.0)
            c2 = max(c2, float(np.nanmax(q)))

    return ValidationReport(c2=c2, markov_residual=markov_res,
                            covering_power=power, ok=not msgs, messages=msgs)


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
# values the requested fields of one depth of ``column_blocks`` hold in all:
# 4 MiB of float64.  The engine's own x and log weight, and the previous
# depth's state, are held beside them, not counted in it
_BUDGET = 1 << 19


@dataclass
class Pullback:
    """One depth k of the pullback engine: row a is the a-th of the distinct
    length-k suffixes of the run's words in lexicographic order (at the
    last depth, the words themselves), column b the point y_b, and each
    field is a (rows, points) array:

        x       h_w(y)
        dTn     DT^k(x)
        Snr     S_k r(x)
        Snphi   S_k phi(x)
        DSnr_h  D(S_k r o h_w)(y) = D(S_k r)(x) / DT^k(x)
        J       lam^-k exp(S_k(phi - sigma r)(x)) f(x) / f(y), the inverse
                Jacobian of mu_sigma along h_w

    Fields that were not asked for are None.  The log weight
    S_k(phi - sigma r) is not a field: the engine holds it only to build J,
    as one column when it is constant along each row (see ``_Run``).
    """
    x: np.ndarray | None = None
    dTn: np.ndarray | None = None
    Snr: np.ndarray | None = None
    Snphi: np.ndarray | None = None
    DSnr_h: np.ndarray | None = None
    J: np.ndarray | None = None


def _suffix_tree(words: np.ndarray) -> list[tuple]:
    """Per depth k = 1..n, over the distinct length-k suffixes of ``words`` in
    lexicographic order: their first symbols, and the row of each one's own
    suffix at depth k - 1."""
    K, n = words.shape
    rank = np.zeros(K, dtype=np.intp)
    count = 1
    levels = []
    for k in range(1, n + 1):
        uniq, rank = np.unique(words[:, n - k] * count + rank,
                               return_inverse=True)
        levels.append(np.divmod(uniq, count))
        count = len(uniq)
    if count != K or np.any(rank != np.arange(K)):
        raise ValueError("words must be distinct and in lexicographic order")
    return levels


def _prepend(sys: MarkovSystem, i: int, prev: dict, rows, out: dict, k: int,
             eig, fy) -> None:
    """Write the depth-k fields of the words i + w, from the depth-(k-1)
    rows ``rows`` of w (a slice or an index array), into ``out``: one array
    per field to compute, the block's rows of that depth.  Each field is
    written once, by ``out=`` ufuncs in the order of the plain expressions
    (J = (exp(lw) lam^-k) f(z) / f(y)), so it has their bits.

    The log weight lw is read on as many columns of z as ``out["lw"]``
    has: all of them, or one when ``_Run`` holds lw as a column.  Then
    exp(lw) lam^-k is one number per word, broadcast along its row of J;
    a product of the same two doubles has the same bits wherever it is
    taken, so J does not depend on lw's width."""
    z = sys.inverse_branch(i, prev["x"][rows], out=out["x"])
    if "dTn" in out:
        np.multiply(sys.T[i].deriv(x=z), prev["dTn"][rows], out=out["dTn"])
    if "DSnr_h" in out:
        d = np.divide(sys.r[i].deriv(x=z), out["dTn"], out=out["DSnr_h"])
        d += prev["DSnr_h"][rows]
    r = None
    if "lw" in out:
        g, r = sys.log_weight(i, eig.sigma, z[:, :out["lw"].shape[1]])
        np.add(g, prev["lw"][rows], out=out["lw"])
    if "Snr" in out:
        np.add(sys.r[i].value(x=z) if r is None else r, prev["Snr"][rows],
               out=out["Snr"])
    if "Snphi" in out:
        np.add(sys.phi[i].value(x=z), prev["Snphi"][rows], out=out["Snphi"])
    if "J" in out:
        w = np.exp(out["lw"])
        w *= eig.lam ** (-k)
        J = np.multiply(w, eig.f.eval(z).real, out=out["J"])
        J /= fy


class _Run:
    """The pullback engine: the points ys pulled back along every suffix of
    a set of words, one depth at a time.

    ``levels`` is the ``_suffix_tree`` of a (K, n) array of distinct words
    in lexicographic order, which a caller that pulls the same words back
    at several sets of points builds once; every y must lie in the image of
    the last symbol of every word.  ``step`` builds depth k = 1..n in turn,
    with rows the distinct length-k suffixes in lexicographic order (at
    depth n, the words themselves), and returns its Pullback, carrying
    ``fields``, at a depth the caller asks it returned; "J" needs the
    EigenData ``eig``, and no other field reads it (None will do).  J is
    computed at a returned depth alone.

    Depth k comes from depth k - 1 by prepending a symbol, h_{iw} = h_i o
    h_w, with one batched ``inverse_branch`` per symbol over row blocks of
    at most 2^16 (word, point) pairs.  Each (word, point) pair is written
    once, straight into its depth's array.  While depth k is built the run
    holds the previous depth's x and running sums (dTn, DSnr_h, Snr, Snphi
    and the log weight, as ``fields`` need them); a returned J goes to the
    caller, so it lives only as long as the caller keeps it, and once the
    last depth is built the run holds nothing.  ``columns`` resumes a copy
    at the same depth on a run of the points.

    The log weight lw = S_k(phi - sigma r) is one column, a number per
    word, when every phi piece is a constant (``expr.is_constant``), and so
    is every r piece at sigma != 0: it then takes one value along each row.
    A piece whose derivative is 0 is not enough, since x + 0.1 - x rounds
    to different values at different x.  Otherwise lw is (words x points).
    J is (exp(lw) lam^-k) f(x) / f(y) in that order either way, the column
    broadcast along its row, so it has the same bits.
    A block whose parents form one run of rows (every block, for the words
    of ``word_array``) reads the previous depth through a slice, others
    through an index array.
    """

    def __init__(self, sys: MarkovSystem, levels: list, ys, fields, eig):
        ys = np.asarray(ys, dtype=float)
        self.sys, self.levels, self.eig, self.k = sys, levels, eig, 0
        self.want = set(fields)
        self.need = self.want | {"x"}
        if "DSnr_h" in self.need:
            self.need.add("dTn")
        P = len(ys)
        self.width = dict.fromkeys(self.need, P)  # columns of each array
        self.fy = None
        if "J" in self.need:
            self.need.add("lw")
            self.fy = eig.f.eval(ys).real
            # lw is a column when every piece it reads is a constant (no
            # column at all when there are no points)
            read = sys.phi + (sys.r if eig.sigma else [])
            self.width["lw"] = min(P, 1) if all(is_constant(p.expr)
                                                for p in read) else P
        # depth 0: the empty word, h = identity
        self.state = {f: np.full((1, self.width[f]), 1.0 if f == "dTn"
                                 else 0.0) for f in self.need - {"J"}}
        self.state["x"] = ys[None, :]

    def columns(self, i: int, j: int) -> _Run:
        """A copy of this run at its depth on its points i..j-1 alone: their
        columns of the state and of f(y), and the log weight whole where it
        is one column."""
        P = self.width["x"]
        run = copy.copy(self)
        run.width = {f: j - i if w == P else w for f, w in self.width.items()}
        run.state = {f: a[:, i:j] if self.width[f] == P else a
                     for f, a in self.state.items()}
        if self.fy is not None:
            run.fy = self.fy[i:j]
        return run

    def step(self, returned: bool) -> Pullback | None:
        """Build the next depth k from the one held, which it replaces, and
        return its Pullback when ``returned``, else None.  J is computed at
        a returned depth alone and goes to the caller, so the run does not
        hold it."""
        sys, n = self.sys, len(self.levels)
        self.k += 1
        k = self.k
        sym, parent = self.levels[k - 1]
        step_need = self.need if returned else self.need - {"J"}
        keep = step_need if k < n else self.want
        new = {f: np.empty((len(sym), self.width[f])) for f in keep}
        step = max(1, _BLOCK // max(self.width["x"], 1))
        bounds = np.searchsorted(sym, np.arange(sys.m + 1))
        for i in range(sys.m):
            for a in range(bounds[i], bounds[i + 1], step):
                rows = slice(a, min(a + step, bounds[i + 1]))
                up = parent[rows]  # strictly increasing within a symbol
                if up[-1] - up[0] == len(up) - 1:
                    up = slice(up[0], up[-1] + 1)
                # a field the last depth does not keep lives for the block
                _prepend(sys, i, self.state, up,
                         {f: new[f][rows] if f in new
                          else np.empty((rows.stop - a, self.width[f]))
                          for f in step_need}, k, self.eig, self.fy)
        # the last depth goes to the caller alone: no deeper depth reads it
        self.state = new if k < n else {}
        if not returned:
            return None
        return Pullback(**{f: new.pop(f) if f == "J" else new[f]
                           for f in self.want})


def pullback(sys: MarkovSystem, words, ys, fields=FIELDS) -> Pullback:
    """The last depth of the engine (``_Run``) on the ``_suffix_tree`` of
    ``words``: one row per word of ``words``."""
    words = np.asarray(words, dtype=np.intp)
    if words.shape[1] < 1:
        raise ValueError("depth must be >= 1")
    run = _Run(sys, _suffix_tree(words), ys, fields, None)
    for _ in range(words.shape[1] - 1):
        run.step(False)
    return run.step(True)


def symbol_trees(sys: MarkovSystem, words) -> list[tuple]:
    """The (K, n) ``words``, distinct and in lexicographic order, by last
    symbol: (s, the ``_suffix_tree`` of the words ending in s) for each
    symbol s that ends some word, in symbol order.  A tree holds no words,
    only its index arrays, so ``words`` is the one copy of them, and the
    caller may drop it; ``column_blocks`` reads the trees, as often as the
    caller needs."""
    words = np.asarray(words, dtype=np.intp)
    trees = []
    for s in range(sys.m):
        ends = words[:, -1] == s
        if ends.any():
            trees.append((s, _suffix_tree(words[ends])))
    return trees


def column_sums(a: np.ndarray) -> np.ndarray:
    """The sum down each column of the 2-D ``a``, row after row, as numpy
    adds the rows of a wider array; a lone column, which numpy would sum
    pairwise, by ``cumsum``.  So a column's sum has the same bits whatever
    columns stand beside it."""
    return a.sum(axis=0) if a.shape[1] != 1 else np.cumsum(a[:, 0])[-1:]


def column_blocks(sys: MarkovSystem, trees, ys, holds, fields, eig=None,
                  every_depth: bool = False):
    """One run of the engine per tree of ``trees`` (``symbol_trees``), the
    words ending in s at the ys that the boolean row holds[s] marks, under
    one budget: the arrays of ``fields`` at a depth hold at most _BUDGET
    values in all, _BUDGET // len(fields) (word, y) pairs each, however
    deep the words and however many the ys.  "J" needs the EigenData
    ``eig``.  The budget counts the requested fields alone: beside them the
    engine holds its x and log weight, which are not fields unless asked
    for, and the previous depth's state (see ``_Run``), so a run of J
    alone holds up to about twice the budget at a depth.

    Yields (k, block, blocks, norm) at every depth k with ``every_depth``,
    else at the last alone: ``block`` a slice of ys; ``blocks`` one (s,
    cols, Pullback) per symbol that ends some word and holds some y of the
    block, in symbol order, cols indexing ys[block]; and ``norm`` the sum
    of J_w at each y of the block, added symbol after symbol, each
    symbol's by ``column_sums`` (None without "J").

    The shared depths, each whose whole level over every y its symbols
    hold is at most half that many pairs, are pulled back once over all of
    ys, one block each, and come first; when every depth is shared, that
    is all.  The deeper depths run on column blocks, every deeper depth of
    a block before the next block: each the widest run of ys from where
    the last ended whose last depth fits, a y holding the words of every
    symbol whose row of ``holds`` marks it, and one y at least.  Each block
    resumes from its columns of the last shared depth's x and running
    sums, which stay held while the blocks run (so at most half a block
    beside each), and no block repeats a shared depth's engine steps.  A
    (word, y) pair is pulled back on its own wherever it falls, and a
    column is summed the same way in any block, so every field and norm
    has the bits it has in one block over all of ys.  A depth's blocks are
    dropped once the next is asked for.
    """
    P = len(ys)
    n = len(trees[0][1])
    runs = []  # (s, cols, _Run): cols the ys that holds[s] marks
    for s, levels in trees:
        cols = np.flatnonzero(holds[s])
        if len(cols):
            runs.append((s, cols, _Run(sys, levels, ys[cols], fields, eig)))
    pairs = _BUDGET // len(fields)  # per field
    # the last shared depth's state is held beside every block: half one
    shared = 0
    while shared < n and sum(len(run.levels[shared][0]) * len(cols)
                             for _, cols, run in runs) <= pairs // 2:
        shared += 1
    yield from _advance(runs, 0, shared, slice(0, P), fields, every_depth, n)
    if shared == n:
        return
    # the last depth's pairs over ys[:c + 1]: each y holds the words of
    # every run that holds it
    weight = np.zeros(P, dtype=np.int64)
    for _, cols, run in runs:
        weight[cols] += len(run.levels[-1][0])
    level = np.cumsum(weight)
    c = 0
    while c < P:
        # the widest block from c whose last depth fits, one y at least
        stop = max(c + 1, int(np.searchsorted(level, level[c] - weight[c]
                                              + pairs, side="right")))
        part = []
        for s, cols, run in runs:
            i, j = np.searchsorted(cols, [c, stop])
            if i < j:
                part.append((s, cols[i:j] - c, run.columns(i, j)))
        yield from _advance(part, shared, n, slice(c, stop), fields,
                            every_depth, n)
        del part  # a block's runs are dropped before the next is built
        c = stop


def _advance(runs, start: int, stop: int, block: slice, fields,
             every_depth: bool, n: int):
    """Step the (s, cols, _Run) ``runs``, all at depth ``start`` of n,
    together to depth ``stop``, and yield (k, block, blocks, norm) at each
    depth k they return (see ``column_blocks``): every depth, or only n."""
    for k in range(start + 1, stop + 1):
        returned = every_depth or k == n
        blocks = [(s, cols, run.step(returned)) for s, cols, run in runs]
        if returned:
            yield (k, block, blocks,
                   _normaliser(blocks, block.stop - block.start)
                   if "J" in fields else None)
        del blocks  # no J of this depth is held while the next is built


def _normaliser(blocks, P: int):
    """The sum of J_w over the rows of ``blocks`` at each of P points, added
    symbol after symbol, each symbol's by ``column_sums``."""
    norm = np.zeros(P)
    for _, cols, pb in blocks:
        norm[cols] += column_sums(pb.J)
    return norm


def branch_chain(sys: MarkovSystem, word: tuple[int, ...], y) -> dict:
    """Pull y back along the inverse branch of ``word`` (the engine on one word).

    Returns x = h_word(y) and the orbit data along it: DT^n(x), S_n r,
    S_n phi and D(S_n r o h)(y) = D(S_n r)(x) / DT^n(x), each shaped like y.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    level = pullback(sys, [word], y.reshape(-1))
    return {f: getattr(level, f)[0].reshape(y.shape) for f in FIELDS}


def cylinder_ends(sys: MarkovSystem, words: np.ndarray):
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
    return (words, *cylinder_ends(sys, words))
