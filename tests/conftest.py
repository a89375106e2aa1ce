import copy
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import gibbsflow.system as system
from gibbsflow.gibbs import _mass_tables
from gibbsflow.operator import node_grid
from gibbsflow.presets import PRESETS
from gibbsflow.system import (OutsideImageError, Pullback, _suffix_tree,
                              branch_chain, pullback, pullbacks,
                              system_from_config, word_array)

# T(x) = 2x + 0.12 sin(2 pi x) mod 1: Markov on {0, 1/2, 1} with nonlinear
# branches, roof (2 + cos 2 pi x)/3 and potential -log T', so J_w depends on x
NL_DOUBLING = {
    "partition": [0.0, 0.5, 1.0],
    "branches": [{"expr": "2*x+0.12*sin(2*pi*x)", "image": [0, 2]},
                 {"expr": "2*x-1+0.12*sin(2*pi*x)", "image": [0, 2]}],
    "roof": ["(2+cos(2*pi*x))/3"] * 2,
    "potential": ["-log(2+0.24*pi*cos(2*pi*x))"] * 2,
}


@pytest.fixture(scope="session")
def nl_doubling():
    return system_from_config(NL_DOUBLING)


class ExprCalls:
    """Calls of compiled expressions, counted per Expr object."""

    def __init__(self, compile_expr):
        self._compile = compile_expr
        self._calls: dict[int, int] = {}

    def compile(self, e):
        fn = self._compile(e)

        def counted(**env):
            self._calls[id(e)] = self._calls.get(id(e), 0) + 1
            return fn(**env)

        return counted

    def of(self, exprs) -> int:
        """Calls of the expressions compiled from the objects ``exprs``."""
        return sum(self._calls.get(k, 0) for k in {id(e) for e in exprs})

    def clear(self) -> None:
        self._calls.clear()


@pytest.fixture
def expr_calls(monkeypatch):
    """Counts the calls of every expression ``system.compile_expr`` compiles
    while the test runs, the hook the benchmark's tracer wraps: request it
    before building the systems whose reads are counted."""
    import gibbsflow.system as system
    calls = ExprCalls(system.compile_expr)
    monkeypatch.setattr(system, "compile_expr", calls.compile)
    return calls


def itineraries(sys, x, n: int) -> np.ndarray:
    """(len(x), n) array of symbol sequences along forward orbits."""
    z = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    out = np.empty((len(z), n), dtype=int)
    for j in range(n):
        out[:, j] = sys.element_of(z)
        if j < n - 1:
            z = sys.apply_T(z)
            z = np.where(z >= 1.0, np.nextafter(1.0, 0.0), np.maximum(z, 0.0))
    return out


def preset_config(name: str) -> dict:
    """A copy of preset ``name``'s config block, free to edit."""
    return copy.deepcopy(PRESETS[name])


def jacobian_weight(sys, eig, word, xs):
    """1/J_mu T^n along the inverse branch h_word, one word at a time, at the
    base points xs, with the branch chain it comes from:

        lam^{-n} exp(S_n(phi - sigma r)(h x)) f(h x) / f(x)

    These weights over all admissible words sum to (L_sigma^n 1)(x) = 1.
    """
    ch = branch_chain(sys, word, xs)
    f = eig.f.eval
    w = (eig.lam ** (-len(word))
         * np.exp(ch["Snphi"] - eig.sigma * ch["Snr"])
         * f(ch["x"]).real / f(xs).real)
    return w, ch


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


def cylinder_list(sys, n: int) -> list[Cylinder]:
    """All depth-n cylinders as objects sorted by left end, one engine run
    per last symbol e pulling the ends of element e back along every
    depth-(n-1) word that may precede it: the oracle of
    ``system.cylinders``."""
    words = word_array(sys, n)
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


def partition_walk(sys, b: float, Delta: float) -> list[Cylinder]:
    """The adapted partition by a depth-first walk over whole levels of
    ``cylinder_list``, sorted by left end: the oracle of
    ``gibbs.adapted_partition`` (no precondition or cap checks).  A popped
    cylinder with no child of length >= t - tol is an element; otherwise
    its long children are walked and its short ones are elements."""
    t = 2.0 * Delta / abs(b)
    tol = t * 1e-9
    levels = {}

    def children(q):
        d = q.depth + 1
        if d not in levels:
            levels[d] = {c.word: c for c in cylinder_list(sys, d)}
        return [levels[d][q.word + (j,)] for j in range(sys.m)
                if sys.transition[q.word[-1], j]]

    elements = []
    stack = cylinder_list(sys, 1)
    while stack:
        q = stack.pop()
        kids = children(q)
        big = [k for k in kids if k.diam >= t - tol]
        if not big:
            elements.append(q)
        else:
            stack.extend(big)
            elements.extend(k for k in kids if k.diam < t - tol)
    elements.sort(key=lambda c: c.left)
    return elements


def cylinder_masses(sys, eig, n: int):
    """The mu_sigma masses of the depth-n cylinders, as the Gibbs audit
    computes them, with ``cylinders`` = ``cylinder_list(sys, n)`` and
    ``masses`` their masses in that order."""
    for words, masses in _mass_tables(sys, eig, word_array(sys, n)):
        pass
    cyls = cylinder_list(sys, n)
    row = {tuple(w): k for k, w in enumerate(words.tolist())}
    return SimpleNamespace(cylinders=cyls,
                           masses=masses[[row[c.word] for c in cyls]])


def cone_image(sys, word, y: float) -> tuple[float, float]:
    """Slope interval of D^n(h_w(y)) applied to the base cone of half-slope
    C7, n = len(word): centre -D(S_n r o h_w)(y), half-width C7 / |DT^n|."""
    ch = branch_chain(sys, word, y)
    centre = -float(ch["DSnr_h"][0])
    half = sys.constants.c7 / abs(float(ch["dTn"][0]))
    return (centre - half, centre + half)


def transversal(sys, w1, w2, y: float) -> bool:
    """The closed slope intervals of the cone images at h_w1(y) and h_w2(y)
    are disjoint; y must lie in the domain of both inverse branches."""
    i1 = cone_image(sys, w1, y)
    i2 = cone_image(sys, w2, y)
    return i1[1] < i2[0] or i2[1] < i1[0]


@dataclass
class PsiFunction:
    """psi(x) = S_n r(h_w1 x) - S_n r(h_w2 x) on the common image domain."""
    system: object
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    domain: tuple[float, float]

    def __call__(self, y):
        c1 = branch_chain(self.system, self.w1, y)
        c2 = branch_chain(self.system, self.w2, y)
        return c1["Snr"] - c2["Snr"]

    def deriv(self, y):
        c1 = branch_chain(self.system, self.w1, y)
        c2 = branch_chain(self.system, self.w2, y)
        return c1["DSnr_h"] - c2["DSnr_h"]


def psi(sys, w1, w2) -> PsiFunction:
    """The displacement function of two depth-n words, one branch chain per
    word: the oracle of the D psi that ``uni`` reads off engine rows."""
    if len(w1) != len(w2):
        raise ValueError("cylinder depths differ")
    a1, b1 = sys.image_interval(w1[-1])
    a2, b2 = sys.image_interval(w2[-1])
    return PsiFunction(sys, tuple(w1), tuple(w2), (max(a1, a2), min(b1, b2)))


def rounds_out_at_an_image_end(sys, i: int) -> bool:
    """Whether affine branch i's one-step inverse at an end of its image
    leaves element i, so that a batched solve holding that end falls back
    to Newton from the midpoint (SYS-C's branch 1 at 1/3)."""
    T = sys.T[i]
    a, b = sys.element_interval(i)
    y = np.array(sys.image_interval(i))
    mid = 0.5 * (a + b)
    z = mid - (float(T.value(x=mid)) - y) / T.slope
    return bool(np.any((z < a) | (z > b)))


# -- the pullback engine before it wrote each depth in place ------------------


def inverse_branch_oracle(sys, i: int, y):
    """``MarkovSystem.inverse_branch`` as it was before its checks ran in
    place, copied verbatim bar ``self``."""
    a, b = sys.element_interval(i)
    y = np.asarray(y, dtype=float)
    lo_img, hi_img = sys.image_interval(i)
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
    T = sys.T[i]
    if T.slope:
        z = mid - (sys._inverse_starts[i] - y) / T.slope
        # the step lands on the side of mid that holds the root, so
        # Newton's bracket test reduces to staying inside the element
        if (np.all((z >= a) & (z <= b))
                and np.all(np.abs(T.value(x=z) - y) < 1e-13)):
            return z
        del z  # Newton's arrays need not sit beside the rejected step
        return sys._newton(i, y, np.full(y.shape, mid))
    return sys._newton(i, y, sys._tabulated_inverse(i, y))


def prepend_oracle(sys, i: int, prev: dict, rows, need: set, k: int,
                   eig, fy) -> dict:
    """Depth-k fields of the words i + w from the depth-(k-1) rows of w
    (``pullbacks_oracle``'s step)."""
    z = inverse_branch_oracle(sys, i, prev["x"][rows])
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


def pullbacks_oracle(sys, words, ys, fields, eig, every_depth: bool):
    """``system.pullbacks`` as it was before it wrote each depth in place,
    with ``prepend_oracle`` and ``inverse_branch_oracle`` as its steps:
    copied verbatim bar the names.  It reads ``system._BLOCK`` as the
    engine does, so both split a depth into the same blocks: an affine
    step rejected at one point sends its whole block through Newton, which
    moves the other points' last bits, so a block's bits depend on what
    else it holds."""
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
    step = max(1, system._BLOCK // max(P, 1))
    for k, (sym, parent, first) in enumerate(levels, start=1):
        yields = every_depth or k == n
        step_need = need if yields else need - {"J"}
        keep = step_need if k < n else want
        new = {f: np.empty((len(sym), P)) for f in keep}
        bounds = np.searchsorted(sym, np.arange(sys.m + 1))
        for i in range(sys.m):
            for a in range(bounds[i], bounds[i + 1], step):
                rows = slice(a, min(a + step, bounds[i + 1]))
                block = prepend_oracle(sys, i, state, parent[rows], step_need,
                                       k, eig, fy)
                for f in keep:
                    new[f][rows] = block[f]
        state = new
        if yields:
            yield Pullback(words[first, n - k:],
                           **{f: state[f] for f in want})


# -- the per-symbol engine loops, as each caller kept its own -----------------


def last_depth(sys, words, ys, fields, eig):
    """The last depth of the engine with the EigenData ``eig``."""
    for level in pullbacks(sys, words, ys, fields, eig, every_depth=False):
        pass
    return level


def element_sets(sys, xs):
    """The points of xs in each element, as ``element_of`` assigns them:
    per-element node sets whose concatenation is xs when xs is sorted."""
    idx = sys.element_of(xs)
    return [xs[idx == e] for e in range(sys.m)]


def branch_plan_loop(sys, eig, b, n, nodes):
    """(blocks, norm) of ``operator.BranchPlan`` by its own loop: one engine
    call per symbol s at the points of the node sets ``nodes`` whose element
    is in the image of s, and the normaliser summed symbol after symbol."""
    xs = np.concatenate(nodes)
    elements = np.repeat(np.arange(sys.m), [len(x) for x in nodes])
    words = word_array(sys, n)
    blocks = []
    norm = np.zeros(xs.shape)
    for s in range(sys.m):
        lo, hi = sys.images[s]
        cols = np.flatnonzero((elements >= lo) & (elements < hi))
        ends = words[:, -1] == s
        if not (len(cols) and np.any(ends)):
            continue
        pb = last_depth(sys, words[ends], xs[cols], ("x", "Snr", "J"), eig)
        norm[cols] += pb.J.sum(axis=0)
        J = pb.J.astype(complex)
        twisted = J
        if b != 0.0:
            phase = np.exp(-1j * b * pb.Snr)
            twisted = J * phase
        blocks.append((cols, pb.x.reshape(-1), J, twisted))
    return blocks, norm


def mass_tables_loop(sys, eig, words):
    """(words, masses, norm) per depth of ``gibbs._mass_tables`` by its own
    loop: one engine per symbol on the nodes of its image, zipped by depth,
    and the normaliser, an (m, N) array, summed symbol after symbol."""
    nodes = node_grid(sys, eig.N)
    images = [slice(*image) for image in sys.images]
    engines = [pullbacks(sys, words[words[:, -1] == s],
                         nodes[img].reshape(-1), ("J",), eig, True)
               for s, img in enumerate(images)]
    for levels in zip(*engines):
        norm = np.zeros((sys.m, eig.N))
        for img, pb in zip(images, levels):
            norm[img] += pb.J.sum(axis=0).reshape(-1, eig.N)
        yield (np.concatenate([pb.words for pb in levels]),
               np.concatenate([pb.J @ (eig.mu[img] / norm[img]).reshape(-1)
                               for img, pb in zip(images, levels)]),
               norm)


def check_uni_loop(sys, n, R, grid):
    """``uni.check_uni`` by a loop over word-tuple pairs, one engine call per
    symbol and a dict from word to its row of D(S_n r o h_w)."""
    warr = word_array(sys, n)
    xs = np.linspace(0.0, 1.0, grid)
    inside = []
    rows = {}
    for s in range(sys.m):
        lo, hi = sys.image_interval(s)
        inside.append((xs >= lo) & (xs <= hi))
        ends = warr[warr[:, -1] == s]
        if len(ends):
            dsnr = pullback(sys, ends, xs[inside[s]], ("DSnr_h",)).DSnr_h
            rows.update(zip(map(tuple, ends.tolist()), dsnr))
    words = [tuple(w) for w in warr.tolist()]
    doms = {w: sys.image_interval(w[-1]) for w in words}

    def gaps(w1, w2, where):
        both = where & inside[w1[-1]] & inside[w2[-1]]
        return np.abs(rows[w1][both[inside[w1[-1]]]]
                      - rows[w2][both[inside[w2[-1]]]])

    d_full = 0.0
    full = [w for w in words if doms[w][0] <= 1e-12 and doms[w][1] >= 1 - 1e-12]
    for i, w1 in enumerate(full):
        for w2 in full[i + 1:]:
            d_full = max(d_full, float(np.min(gaps(w1, w2, True))))
    d_point = np.inf
    for y in np.linspace(0.0, 1.0, 65):
        best = 0.0
        win = (xs >= y - R) & (xs <= y + R)
        through = [w for w in words if doms[w][0] <= y <= doms[w][1]]
        for i, w1 in enumerate(through):
            for w2 in through[i + 1:]:
                vals = gaps(w1, w2, win)
                if len(vals):
                    best = max(best, float(np.min(vals)))
        d_point = min(d_point, best)
    return {"D_full": d_full,
            "D_point": float(d_point if np.isfinite(d_point) else 0.0)}
