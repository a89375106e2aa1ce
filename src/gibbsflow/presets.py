"""Built-in test systems.

SYS-A  doubling map, constant roof 1, zero potential.
SYS-B  doubling map, roof (2 + cos(2 pi x))/3, zero potential.
SYS-C  three-element Markov map that is not full-branch, roof 1.

Variants used by experiments:
SYS-A-BERNOULLI  doubling with branchwise-constant potential (log p, log(1-p)),
                 p = 0.3.
SYS-A-LINROOF    doubling with roof 1 - x/2, a coboundary plus constants.
SYS-C-NLROOF     SYS-C with the nonlinear SYS-B roof.
"""

from __future__ import annotations

from .expr import parse
from .system import Branch, MarkovSystem

__all__ = ["PRESETS", "make_preset", "preset_names"]


def _doubling(roof: list[str], potential: list[str]) -> MarkovSystem:
    return MarkovSystem(
        [0.0, 0.5, 1.0],
        [Branch(parse("2*x"), (0, 2)), Branch(parse("2*x-1"), (0, 2))],
        [parse(r) for r in roof],
        [parse(p) for p in potential],
    )


def _sys_a() -> MarkovSystem:
    return _doubling(["1", "1"], ["0", "0"])


def _sys_b() -> MarkovSystem:
    r = "(2+cos(2*pi*x))/3"
    return _doubling([r, r], ["0", "0"])


def _sys_a_bernoulli() -> MarkovSystem:
    return _doubling(["1", "1"], ["log(0.3)", "log(0.7)"])


def _sys_a_linroof() -> MarkovSystem:
    # roof 1 - x/2 = theta o T - theta + chi with theta = -x/2,
    # chi = 1 on the first element and 1/2 on the second
    return _doubling(["1-x/2", "1-x/2"], ["0", "0"])


def _sys_c_branches() -> list[Branch]:
    return [
        Branch(parse("3*x"), (0, 3)),        # [0,1/3)   -> [0,1)
        Branch(parse("2*x-1/3"), (1, 3)),    # [1/3,2/3) -> [1/3,1)
        Branch(parse("2*x-4/3"), (0, 2)),    # [2/3,1)   -> [0,2/3)
    ]


def _sys_c() -> MarkovSystem:
    third = 1.0 / 3.0
    return MarkovSystem(
        [0.0, third, 2 * third, 1.0],
        _sys_c_branches(),
        [parse("1")] * 3,
        [parse("0")] * 3,
    )


def _sys_c_nlroof() -> MarkovSystem:
    third = 1.0 / 3.0
    r = parse("(2+cos(2*pi*x))/3")
    return MarkovSystem(
        [0.0, third, 2 * third, 1.0],
        _sys_c_branches(),
        [r] * 3,
        [parse("0")] * 3,
    )


PRESETS = {
    "SYS-A": _sys_a,
    "SYS-B": _sys_b,
    "SYS-C": _sys_c,
    "SYS-A-BERNOULLI": _sys_a_bernoulli,
    "SYS-A-LINROOF": _sys_a_linroof,
    "SYS-C-NLROOF": _sys_c_nlroof,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def make_preset(name: str) -> MarkovSystem:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {preset_names()}") from None
