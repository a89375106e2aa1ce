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
range of element indices that the branch maps onto.

Inverse branches of every depth are computed by one engine, ``pullbacks``:
words are built by prepending symbols, h_{iw} = h_i o h_w, and each depth
carries (words x points) arrays of the pulled-back points and the orbit
sums along them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, Num, compile_expr, differentiate, parse

__all__ = [
    "Branch", "MarkovSystem", "Cylinder", "ValidationReport", "Pullback",
    "NotMarkovError", "NotExpandingError", "NotCoveringError",
    "RoofBoundsError", "CapExceededError", "OutsideImageError",
    "NoConvergenceError", "system_from_config", "validate", "cylinders",
    "admissible_words", "word_array", "pullbacks", "pullback", "branch_chain",
    "birkhoff_sum",
]


# nodes of the tabulated inverse that starts Newton in inverse_branch
_INVERSE_NODES = 4097


class NotMarkovError(ValueError):
    pass


class NotExpandingError(ValueError):
    pass


class NotCoveringError(ValueError):
    pass


class RoofBoundsError(ValueError):
    pass


class CapExceededError(RuntimeError):
    pass


class OutsideImageError(ValueError):
    """A point to pull back lies outside the image of the branch."""


class NoConvergenceError(RuntimeError):
    """An iterative solve stopped without meeting its tolerance."""


@dataclass(frozen=True)
class Branch:
    expr: Expr
    image: tuple[int, int]  # half-open range of partition element indices


@dataclass(frozen=True)
class Cylinder:
    """Depth-n cylinder: the set of x whose first n symbols match ``word``."""
    word: tuple[int, ...]
    left: float
    right: float

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def diam(self) -> float:
        return self.right - self.left

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.left + self.right)


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
    ok: bool = True
    messages: list[str] = field(default_factory=list)


class MarkovSystem:
    """Markov map with roof and potential; all pieces given as expressions."""

    def __init__(self, partition, branches, roof, potential, alpha=1.0):
        self.partition = np.asarray(partition, dtype=float)
        if self.partition.ndim != 1 or len(self.partition) < 2:
            raise NotMarkovError("partition needs at least two breakpoints")
        if abs(self.partition[0]) > 1e-12 or abs(self.partition[-1] - 1.0) > 1e-12:
            raise NotMarkovError("partition must span [0, 1]")
        if np.any(np.diff(self.partition) <= 0):
            raise NotMarkovError("partition breakpoints must be strictly increasing")
        self.m = len(self.partition) - 1
        if len(branches) != self.m or len(roof) != self.m or len(potential) != self.m:
            raise NotMarkovError("need one branch, roof and potential per element")
        self.branches = list(branches)
        self.roof = list(roof)
        self.potential = list(potential)
        self.alpha = float(alpha)
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

        for b in self.branches:
            lo, hi = b.image
            if not (0 <= lo < hi <= self.m):
                raise NotMarkovError(f"branch image range {b.image} out of bounds")

        # compiled branch maps and derivatives
        slopes = [differentiate(b.expr) for b in self.branches]
        self._T = [compile_expr(b.expr) for b in self.branches]
        self._dT = [compile_expr(d) for d in slopes]
        self._r = [compile_expr(e) for e in self.roof]
        self._dr = [compile_expr(differentiate(e)) for e in self.roof]
        self._phi = [compile_expr(e) for e in self.potential]

        # transition[i, j]: symbol j may follow symbol i
        self.transition = np.zeros((self.m, self.m), dtype=bool)
        for i, b in enumerate(self.branches):
            self.transition[i, b.image[0]:b.image[1]] = True

        # orientation of each branch, from the derivative at the midpoint
        mids = 0.5 * (self.partition[:-1] + self.partition[1:])
        self.increasing = np.array(
            [float(self._dT[i](x=mids[i])) > 0 for i in range(self.m)])
        # affine branches: (T(midpoint), slope), for a one-step inverse
        self._affine = [
            (float(self._T[i](x=mids[i])), d.value)
            if isinstance(d, Num) and d.value != 0 else None
            for i, d in enumerate(slopes)]
        # per nonlinear branch, h_i at _INVERSE_NODES points of its image;
        # built by the branch's first inverse_branch call
        self._inverse_tables: list[np.ndarray | None] = [None] * self.m

    # -- pointwise structure ------------------------------------------------

    def element_of(self, x):
        """Index of the partition element containing x (left-closed)."""
        idx = np.searchsorted(self.partition, x, side="right") - 1
        return np.clip(idx, 0, self.m - 1)

    def element_interval(self, i: int) -> tuple[float, float]:
        return float(self.partition[i]), float(self.partition[i + 1])

    def image_interval(self, i: int) -> tuple[float, float]:
        lo, hi = self.branches[i].image
        return float(self.partition[lo]), float(self.partition[hi])

    def _piecewise(self, fns, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        idx = self.element_of(x)
        for i in range(self.m):
            mask = idx == i
            if np.any(mask):
                out[mask] = fns[i](x=x[mask])
        return out

    def apply_T(self, x):
        return self._piecewise(self._T, x)

    def d_T(self, x):
        return self._piecewise(self._dT, x)

    def roof_at(self, x):
        return self._piecewise(self._r, x)

    def d_roof_at(self, x):
        return self._piecewise(self._dr, x)

    def potential_at(self, x):
        return self._piecewise(self._phi, x)

    # -- inverse branches ---------------------------------------------------

    def inverse_branch(self, i: int, y):
        """Solve T_i(z) = y on element i; safeguarded Newton, |residual| tol 1e-13.

        Raises OutsideImageError when some y lies outside the closed image of
        branch i by more than 1e-12 times the element width, and
        NoConvergenceError when Newton has not converged after 200 steps.
        A y within that slack outside the image is clamped to the image, so
        it returns the element end.
        For an affine branch the first Newton step from the midpoint is the
        root up to rounding; it is kept when it passes the bracket and
        residual tests that Newton applies to it, and Newton runs from the
        midpoint otherwise.

        A nonlinear branch starts Newton from a tabulated inverse.  Its first
        solve tabulates h_i at _INVERSE_NODES equally spaced points of its
        image (Newton from the midpoint, then one more step to reach
        rounding level).  Every solve then starts from the table's
        piecewise-linear interpolant at y, with y clipped to the table's
        ends, so the start lies in the element.  On a C^2 branch the start
        is within O(node spacing^2) of the root, about 1e-8 on NL-DOUBLING,
        and one Newton step meets the tolerance.  The table interval comes
        from arithmetic on the uniform grid, not from a search.
        """
        a, b = self.element_interval(i)
        y = np.asarray(y, dtype=float)
        lo_img, hi_img = self.image_interval(i)
        slack = 1e-12 * (b - a)
        if y.size:
            y_lo, y_hi = y.min(), y.max()
            if y_lo < lo_img - slack or y_hi > hi_img + slack:
                raise OutsideImageError(
                    f"points outside the image [{lo_img}, {hi_img}] of branch {i}")
            if y_lo < lo_img or y_hi > hi_img:
                # no z in the element may meet the residual test out there
                y = np.clip(y, lo_img, hi_img)
        mid = 0.5 * (a + b)
        T = self._T[i]
        if self._affine[i] is not None:
            t_mid, slope = self._affine[i]
            z = mid - (t_mid - y) / slope
            # the step lands on the side of mid that holds the root, so
            # Newton's bracket test reduces to staying inside the element
            if np.all((z >= a) & (z <= b)) and np.all(np.abs(T(x=z) - y) < 1e-13):
                return z
            del z  # Newton's arrays need not sit beside the rejected step
            return self._newton(i, y, np.full(y.shape, mid))
        return self._newton(i, y, self._tabulated_inverse(i, y))

    def _tabulated_inverse(self, i: int, y):
        """Piecewise-linear interpolant at y of h_i on _INVERSE_NODES equally
        spaced points of the image, tabulated on the first call."""
        lo_img, hi_img = self.image_interval(i)
        table = self._inverse_tables[i]
        if table is None:
            a, b = self.element_interval(i)
            nodes = np.linspace(lo_img, hi_img, _INVERSE_NODES)
            z = self._newton(i, nodes, np.full(nodes.shape, 0.5 * (a + b)))
            # one more step takes the nodes from the tolerance to rounding
            table = np.clip(z - (self._T[i](x=z) - nodes) / self._dT[i](x=z),
                            a, b)
            self._inverse_tables[i] = table
        last = _INVERSE_NODES - 1
        t = np.clip((y - lo_img) * (last / (hi_img - lo_img)), 0.0, last)
        j = np.minimum(t.astype(np.intp), last - 1)
        return table[j] + (t - j) * (table[j + 1] - table[j])

    def _newton(self, i: int, y, z):
        """Safeguarded Newton for T_i = y on element i, started at z."""
        a, b = self.element_interval(i)
        lo = np.full(y.shape, a)
        hi = np.full(y.shape, b)
        T, dT = self._T[i], self._dT[i]
        sign = 1.0 if self.increasing[i] else -1.0
        for _ in range(200):
            f = T(x=z) - y
            if np.all(np.abs(f) < 1e-13):
                return np.clip(z, a, b)
            fs = f * sign
            lo = np.where(fs <= 0, z, lo)
            hi = np.where(fs > 0, z, hi)
            zn = z - f / (dT(x=z) + 0.0 * z)
            zn = np.where((zn < lo) | (zn > hi), 0.5 * (lo + hi), zn)
            z = zn
        raise NoConvergenceError(
            f"inverse of branch {i}: Newton residual {float(np.max(np.abs(f)))!r}"
            " after 200 steps")

    def admissible_branches(self, x):
        """Branch indices i with element_of(x) in the image range of branch i."""
        e = int(self.element_of(float(x)))
        return [i for i in range(self.m) if self.transition[i, e]]

    # -- serialization ------------------------------------------------------

    def to_config(self) -> dict:
        return {
            "partition": [float(a) for a in self.partition],
            "branches": [
                {"expr": str(b.expr), "image": [b.image[0], b.image[1]]}
                for b in self.branches
            ],
            "roof": [str(e) for e in self.roof],
            "potential": [str(e) for e in self.potential],
            "alpha": self.alpha,
        }


def system_from_config(cfg: dict) -> MarkovSystem:
    """Build a system from the JSON config layout in the module docstring."""
    if isinstance(cfg, str):
        cfg = json.loads(cfg)
    known = {"partition", "branches", "roof", "potential", "alpha"}
    extra = set(cfg) - known
    if extra:
        raise NotMarkovError(f"unknown system config keys: {sorted(extra)}")
    branches = [
        Branch(parse(b["expr"]), (int(b["image"][0]), int(b["image"][1])))
        for b in cfg["branches"]
    ]
    roof = [parse(s) for s in cfg["roof"]]
    potential = [parse(s) for s in cfg["potential"]]
    return MarkovSystem(cfg["partition"], branches, roof, potential,
                        alpha=cfg.get("alpha", 1.0))


# -- validation ---------------------------------------------------------------


def validate(sys: MarkovSystem, grid: int = 2048, raise_on_fail: bool = True
             ) -> ValidationReport:
    """Check the standing hypotheses on a per-element grid.

    Verifies: expansion inf|T'| > 1, branch monotonicity, Markov property
    (branch endpoints land on breakpoints of the declared image), covering
    (some power of the transition matrix is strictly positive), roof bounds
    0 < inf r <= sup r <= 1, and estimates the distortion constant of
    inverse-branch derivatives and sup |D(r o h)|.
    """
    msgs: list[str] = []
    lam = np.inf
    rho = 0.0
    c4 = 0.0
    r_inf, r_sup = np.inf, -np.inf
    markov_res = 0.0

    for i in range(sys.m):
        a, b = sys.element_interval(i)
        xs = np.linspace(a, b, grid)
        dT = sys._dT[i](x=xs) + np.zeros_like(xs)
        if np.any(dT > 0) and np.any(dT < 0):
            raise NotExpandingError(f"branch {i} is not monotone")
        absdT = np.abs(dT)
        lam = min(lam, float(absdT.min()))
        rho = max(rho, float(absdT.max()))
        dr = sys._dr[i](x=xs) + np.zeros_like(xs)
        c4 = max(c4, float(np.max(np.abs(dr) / absdT)))
        r = sys._r[i](x=xs) + np.zeros_like(xs)
        r_inf = min(r_inf, float(r.min()))
        r_sup = max(r_sup, float(r.max()))
        # Markov endpoints: closure of T(element) must be the closure of the
        # declared image interval
        lo, hi = sys.image_interval(i)
        ta, tb = float(sys._T[i](x=a)), float(sys._T[i](x=b))
        t0, t1 = min(ta, tb), max(ta, tb)
        markov_res = max(markov_res, abs(t0 - lo), abs(t1 - hi))

    def fail(exc, msg):
        if raise_on_fail:
            raise exc(msg)
        msgs.append(msg)

    if lam <= 1.0:
        fail(NotExpandingError, f"inf |T'| = {lam} <= 1")
    if markov_res > 1e-9:
        fail(NotMarkovError,
             f"branch images miss declared breakpoints by {markov_res:.3e}")
    if not (r_inf > 0 and r_sup <= 1.0 + 1e-12):
        fail(RoofBoundsError, f"roof range [{r_inf}, {r_sup}] outside (0, 1]")

    # covering: some power of the transition matrix is strictly positive
    power = 0
    A = np.eye(sys.m, dtype=bool)
    for k in range(1, 2 * sys.m * sys.m + 1):
        A = (A.astype(int) @ sys.transition.astype(int)) > 0
        if A.all():
            power = k
            break
    if power == 0:
        fail(NotCoveringError,
             "transition matrix has no strictly positive power")

    # distortion of inverse-branch derivatives at small depths:
    # sup |Dh_n(x) - Dh_n(y)| / (|Dh_n(x)| d(x,y)^alpha)
    c2 = 0.0
    for depth in (1, 2, 3):
        for cyl in cylinders(sys, depth):
            dom = _domain_interval(sys, cyl.word)
            ys = np.linspace(dom[0], dom[1], 64)
            ch = branch_chain(sys, cyl.word, ys)
            dh = 1.0 / ch["dTn"]
            d = np.abs(dh[:, None] - dh[None, :])
            scale = np.abs(dh)[:, None] * np.abs(ys[:, None] - ys[None, :]) ** sys.alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(scale > 0, d / scale, 0.0)
            c2 = max(c2, float(np.nanmax(q)))

    return ValidationReport(
        expansion=lam, rho=rho, c2=c2, c4=c4,
        roof_inf=r_inf, roof_sup=r_sup,
        markov_residual=markov_res, covering_power=power,
        ok=not msgs, messages=msgs,
    )


# -- words, the pullback engine, cylinders ------------------------------------


def _count_words(sys: MarkovSystem, n: int) -> int:
    counts = np.ones(sys.m, dtype=np.int64)
    for _ in range(n - 1):
        counts = sys.transition.astype(np.int64) @ counts
    return int(counts.sum())


def word_array(sys: MarkovSystem, n: int, cap: int = 2_000_000) -> np.ndarray:
    """(K, n) array of all admissible depth-n words, in lexicographic order."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    total = _count_words(sys, n)
    if total > cap:
        raise CapExceededError(f"{total} depth-{n} cylinders exceed cap {cap}")
    words = np.arange(sys.m, dtype=np.intp)[:, None]
    for _ in range(n - 1):
        rows, nxt = np.nonzero(sys.transition[words[:, -1]])
        words = np.column_stack([words[rows], nxt])
    return words


def admissible_words(sys: MarkovSystem, n: int, cap: int = 2_000_000
                     ) -> list[tuple[int, ...]]:
    return [tuple(w) for w in word_array(sys, n, cap).tolist()]


def _domain_interval(sys: MarkovSystem, word: tuple[int, ...]) -> tuple[float, float]:
    """Domain of the inverse branch h_word, i.e. closure of T^n(cylinder)."""
    return sys.image_interval(word[-1])


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
        out["dTn"] = sys._dT[i](x=z) * prev["dTn"][rows]
    if "DSnr_h" in need:
        out["DSnr_h"] = sys._dr[i](x=z) / out["dTn"] + prev["DSnr_h"][rows]
    if "Snr" in need or ("lw" in need and eig.sigma != 0.0):
        r = sys._r[i](x=z)
    if "Snr" in need:
        out["Snr"] = r + prev["Snr"][rows]
    if "Snphi" in need or "lw" in need:
        phi = sys._phi[i](x=z)
    if "Snphi" in need:
        out["Snphi"] = phi + prev["Snphi"][rows]
    if "lw" in need:
        g = phi if eig.sigma == 0.0 else phi - eig.sigma * r
        out["lw"] = g + prev["lw"][rows]
    if "J" in need:
        out["J"] = (eig.lam ** (-k) * np.exp(out["lw"])
                    * eig.f.eval(z).real / fy)
    return out


def pullbacks(sys: MarkovSystem, words, ys, fields=FIELDS, eig=None,
              every_depth: bool = True):
    """Pull the points ys back along every suffix of ``words``, depth by depth.

    ``words`` is a (K, n) array of distinct words in lexicographic order;
    every y must lie in the image of the last symbol of every word.  Depth k
    comes from depth k - 1 by prepending a symbol, h_{iw} = h_i o h_w, with
    one batched ``inverse_branch`` per symbol over row blocks of at most
    2^16 (word, point) pairs.  Yields one Pullback per depth k = 1..n, with
    rows the distinct length-k suffixes in lexicographic order (at depth n,
    ``words`` itself), carrying ``fields``; "J" needs the EigenData ``eig``.
    Only the previous depth is held while the next is built, and the last
    depth keeps nothing but ``fields``.  With ``every_depth`` False only
    depth n is yielded, and J, which no deeper depth needs, is computed
    there alone.
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


def pullback(sys: MarkovSystem, words, ys, fields=FIELDS, eig=None) -> Pullback:
    """The last depth of ``pullbacks``: one row per word of ``words``."""
    for level in pullbacks(sys, words, ys, fields, eig, every_depth=False):
        pass
    return level


def branch_chain(sys: MarkovSystem, word: tuple[int, ...], y) -> dict:
    """Pull y back along the inverse branch of ``word`` (the engine on one word).

    Returns x = h_word(y) and the orbit data along it: DT^n(x), S_n r,
    S_n phi and D(S_n r o h)(y) = D(S_n r)(x) / DT^n(x), each shaped like y.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    level = pullback(sys, [word], y.reshape(-1))
    return {f: getattr(level, f)[0].reshape(y.shape) for f in FIELDS}


def cylinders(sys: MarkovSystem, n: int, cap: int = 2_000_000) -> list[Cylinder]:
    """All depth-n cylinders, sorted by left endpoint.

    [w e] = h_w(element e): the engine pulls the endpoints of each element e
    back along all depth-(n-1) words that may precede it.
    """
    words = word_array(sys, n, cap)
    if n == 1:
        return [Cylinder((i,), *sys.element_interval(i)) for i in range(sys.m)]
    out = []
    for e in range(sys.m):
        heads = words[words[:, -1] == e, :-1]
        if not len(heads):
            continue
        x = pullback(sys, heads, np.array(sys.element_interval(e)), ("x",)).x
        lo = np.minimum(x[:, 0], x[:, 1]).tolist()
        hi = np.maximum(x[:, 0], x[:, 1]).tolist()
        out += [Cylinder(tuple(w) + (e,), l, h)
                for w, l, h in zip(heads.tolist(), lo, hi)]
    out.sort(key=lambda c: (c.left, c.word))
    return out


def itineraries(sys: MarkovSystem, x, n: int) -> np.ndarray:
    """(len(x), n) array of symbol sequences along forward orbits."""
    z = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    out = np.empty((len(z), n), dtype=int)
    for j in range(n):
        out[:, j] = sys.element_of(z)
        if j < n - 1:
            z = sys.apply_T(z)
            z = np.where(z >= 1.0, np.nextafter(1.0, 0.0), np.maximum(z, 0.0))
    return out


def birkhoff_sum(sys: MarkovSystem, which: str, x, n: int):
    """S_n g(x) for g the roof or the potential, along the forward orbit.

    Orbit points landing within 1e-13 of a breakpoint are nudged into the
    element interior to keep the itinerary well defined.
    """
    fns = sys._r if which == "roof" else sys._phi
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros_like(x)
    z = x.copy()
    for _ in range(n):
        near = np.abs(z[:, None] - sys.partition[None, :]).min(axis=1) < 1e-13
        z = np.where(near, z + 1e-12, z)
        total = total + sys._piecewise(fns, z)
        z = sys.apply_T(z)
        z = np.where(z >= 1.0, np.nextafter(1.0, 0.0), np.maximum(z, 0.0))
    return total if total.size > 1 else float(total[0])
