"""Workload definitions: the CLI experiment list each workload runs.

A workload is a list of ``Step``s.  Each step is one ``gibbsflow`` CLI
experiment on one system, written out as a config file and run through
``gibbsflow.cli.run`` exactly as ``gibbsflow <experiment> --config`` would.
The workload seed goes into every config's ``seed``.

Full sizes are the ones the CLI experiments are run at: ``uni`` n_max = 8,
``gibbs-audit`` depth 11, and the CLI defaults of ``contraction`` (b =
2^8..2^12) and ``correlate`` (100k samples, t_max = 10).  ``scale="tiny"``
shrinks every size so that the smoke test finishes in
seconds; the experiment list and the systems stay the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# T(x) = 2x + 0.12 sin(2 pi x) mod 1, Markov on {0, 1/2, 1}, nonlinear
# branches, roof (2 + cos 2 pi x)/3 and potential -log T'.  The pressure of
# -log|T'| is 0 for every expanding Markov map, so lambda = 1 exactly.
NL_DOUBLING = {
    "partition": [0.0, 0.5, 1.0],
    "branches": [{"expr": "2*x+0.12*sin(2*pi*x)", "image": [0, 2]},
                 {"expr": "2*x-1+0.12*sin(2*pi*x)", "image": [0, 2]}],
    "roof": ["(2+cos(2*pi*x))/3"] * 2,
    "potential": ["-log(2+0.24*pi*cos(2*pi*x))"] * 2,
}

PRESETS = ["SYS-A", "SYS-B", "SYS-C", "SYS-A-BERNOULLI", "SYS-A-LINROOF",
           "SYS-C-NLROOF"]


@dataclass(frozen=True)
class Step:
    experiment: str
    system: str            # a preset name or "NL-DOUBLING"
    params: tuple = ()     # sorted (key, value) pairs

    @property
    def key(self) -> str:
        """Stable name of the step, used for report dirs and references."""
        args = ",".join(f"{k}={json.dumps(v)}" for k, v in self.params)
        return f"{self.experiment}:{self.system}:{args}"

    def config(self, seed: int) -> dict:
        cfg = {"experiment": self.experiment, "params": dict(self.params),
               "seed": seed}
        if self.system == "NL-DOUBLING":
            cfg["system"] = NL_DOUBLING
        else:
            cfg["preset"] = self.system
        return cfg


def _step(experiment: str, system: str, **params) -> Step:
    return Step(experiment, system, tuple(sorted(params.items())))


def _deep_words(tiny: bool) -> list[Step]:
    n_max, depth = (3, 4) if tiny else (8, 11)
    return [
        _step("uni", "SYS-C-NLROOF", n_max=n_max),
        _step("uni", "NL-DOUBLING", n_max=n_max),
        _step("gibbs-audit", "SYS-C-NLROOF", depth=depth),
        _step("gibbs-audit", "SYS-A", depth=depth),
        _step("cohomology", "SYS-B"),
        _step("cohomology", "SYS-A-LINROOF"),
        _step("transversality", "SYS-B"),
        *[_step("validate", name) for name in PRESETS + ["NL-DOUBLING"]],
        # the eigendata uni uses (N = 256), so lambda = 1 has an oracle here
        _step("eigen", "NL-DOUBLING", N=256),
    ]


def _wide_grid(tiny: bool) -> list[Step]:
    N = 1024 if tiny else 32768
    contraction = {"b_list": [256.0]} if tiny else {}
    cancellation = ({"m_max": 2} if tiny else {})
    return [
        *[_step("eigen", name, N=N)
          for name in ("SYS-A", "SYS-B", "SYS-C", "NL-DOUBLING")],
        _step("contraction", "SYS-B", **contraction),
        _step("cancellation", "SYS-B", **cancellation),
    ]


def _flow_mixing(tiny: bool) -> list[Step]:
    params = {"samples": 20_000} if tiny else {}
    return [
        _step("correlate", "SYS-B", **params),
        _step("correlate", "NL-DOUBLING", **params),
        # the eigendata correlate uses (N = 256), for the lambda = 1 oracle
        _step("eigen", "NL-DOUBLING", N=256),
    ]


# Corrected CPU seconds (cpumeter.py) of one full-size pass on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, scipy 1.17); the benchmark runs
# round(--seconds / PASS_SECONDS) passes, at least one, so a run's pass
# count never depends on how busy the host is.
PASS_SECONDS = {"deep-words": 10.8, "wide-grid": 11.3, "flow-mixing": 7.5}

WORKLOADS = {
    "deep-words": _deep_words,
    "wide-grid": _wide_grid,
    "flow-mixing": _flow_mixing,
}


def steps(workload: str, scale: str = "full") -> list[Step]:
    return WORKLOADS[workload](scale == "tiny")


def write_configs(steps_: list[Step], seed: int, directory: Path) -> list[Path]:
    """One config file per step; returns their paths in step order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, st in enumerate(steps_):
        path = directory / f"{i:02d}-{st.experiment}.json"
        path.write_text(json.dumps(st.config(seed), sort_keys=True),
                        encoding="utf-8")
        paths.append(path)
    return paths
