"""Built-in test systems.  Each preset is a config block in the layout of
``system_from_config`` (see ``system``), the same block a config file may
give as its ``system``; ``make_preset`` builds it.

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

from .system import MarkovSystem, system_from_config

__all__ = ["PRESETS", "make_preset", "preset_names"]

_DOUBLING = {
    "partition": [0.0, 0.5, 1.0],
    "branches": [{"expr": "2*x", "image": [0, 2]},
                 {"expr": "2*x-1", "image": [0, 2]}],
}

_SYS_C = {
    "partition": [0.0, 1 / 3, 2 / 3, 1.0],
    "branches": [{"expr": "3*x", "image": [0, 3]},       # [0,1/3)   -> [0,1)
                 {"expr": "2*x-1/3", "image": [1, 3]},   # [1/3,2/3) -> [1/3,1)
                 {"expr": "2*x-4/3", "image": [0, 2]}],  # [2/3,1)   -> [0,2/3)
}

_NLROOF = "(2+cos(2*pi*x))/3"

PRESETS = {
    "SYS-A": {**_DOUBLING, "roof": ["1"] * 2, "potential": ["0"] * 2},
    "SYS-B": {**_DOUBLING, "roof": [_NLROOF] * 2, "potential": ["0"] * 2},
    "SYS-C": {**_SYS_C, "roof": ["1"] * 3, "potential": ["0"] * 3},
    "SYS-A-BERNOULLI": {**_DOUBLING, "roof": ["1"] * 2,
                        "potential": ["log(0.3)", "log(0.7)"]},
    # roof 1 - x/2 = theta o T - theta + chi with theta = -x/2,
    # chi = 1 on the first element and 1/2 on the second
    "SYS-A-LINROOF": {**_DOUBLING, "roof": ["1-x/2"] * 2,
                      "potential": ["0"] * 2},
    "SYS-C-NLROOF": {**_SYS_C, "roof": [_NLROOF] * 3, "potential": ["0"] * 3},
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def make_preset(name: str) -> MarkovSystem:
    try:
        block = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {preset_names()}") from None
    return system_from_config(block)
