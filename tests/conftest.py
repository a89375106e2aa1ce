from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from gibbsflow.gibbs import _mass_tables
from gibbsflow.system import (branch_chain, pullback, system_from_config,
                              word_array)

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


def to_config(sys) -> dict:
    """The JSON config layout of ``system_from_config`` for a system."""
    return {
        "partition": [float(a) for a in sys.partition],
        "branches": [{"expr": str(b.expr), "image": [b.image[0], b.image[1]]}
                     for b in sys.branches],
        "roof": [str(e) for e in sys.roof],
        "potential": [str(e) for e in sys.potential],
        "alpha": sys.alpha,
    }


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
