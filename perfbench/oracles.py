"""Correctness gate: checks each experiment's report files against
closed-form oracles and against reference values recorded from the code.

``check(step, out_dir, tiny)`` returns ``(errors, oracle_err)``: a list of
failed checks (empty when the run is correct) and the worst absolute error
against a closed-form oracle (0.0 when the step has none).

Closed-form oracles:
  * lambda = 2 on SYS-A and SYS-B at sigma = 0 (two full branches, zero
    potential), lambda = spectral radius of the 0/1 transition matrix on
    SYS-C, lambda = 1 on NL-DOUBLING (potential -log T', pressure 0);
  * C5 = 1 on SYS-A (all depth-n cylinders have mass exactly 2^-n);
  * the roof of SYS-A-LINROOF is cohomologous to a locally constant
    function, the roof of SYS-B is not;
  * a(n), b(n) <= 1.

Reference values (``reference.json``) are the seed-independent numbers the
full-size workloads report: a(n), b(n), C5, lambda, xi_hat and the integer
depths and counts.  Regenerate them with ``python3 perfbench/oracles.py``
only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

LAMBDA_TOL = 1e-8      # second-order collocation error at N = 256 is ~2e-9
C5_TOL = 1e-6
AB_TOL = 1e-8          # the slack the CLI itself allows on a(n), b(n) <= 1
REFERENCE_TOL = 1e-12  # what ROADMAP item 2 promises to keep a(n), b(n), C5 to

# symbol j may follow symbol i on SYS-C: branch images [0,1), [1/3,1), [0,2/3)
_SYS_C_TRANSITION = np.array([[1, 1, 1], [0, 1, 1], [1, 1, 0]], dtype=float)

LAMBDA_ORACLE = {
    "SYS-A": 2.0,
    "SYS-B": 2.0,
    "SYS-C": float(max(abs(np.linalg.eigvals(_SYS_C_TRANSITION)))),
    "NL-DOUBLING": 1.0,
}

COHOMOLOGOUS = {"SYS-A-LINROOF": True, "SYS-B": False}


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def reference_values(step, out: Path) -> dict:
    """The seed-independent numbers of one step's reports."""
    exp = step.experiment
    if exp == "uni":
        rep = _load(out, "uni.json")
        return {"a": rep["a"], "b": rep["b"]}
    if exp == "gibbs-audit":
        rep = _load(out, "gibbs_audit.json")
        return {k: rep[k] for k in ("C5", "C5_lower", "C5_upper")}
    if exp == "eigen":
        return {"lambda": _load(out, "eigen.json")["lambda"]}
    if exp == "contraction":
        rep = _load(out, "contraction.json")
        return {"xi_hat": rep["xi_hat"],
                "k": [r["k"] for r in rep["l1_rows"]],
                "ell": [r["ell"] for r in rep["sweep_rows"]]}
    if exp == "cancellation":
        rep = _load(out, "cancellation.json")
        return {"n": rep["n"], "steps": len(rep["tau_hats"])}
    if exp == "transversality":
        rep = _load(out, "transversality.json")
        return {"n": rep["n"], "n1": rep["n1"], "n2": rep["n2"],
                "points": len(rep["statuses"])}
    return {}


def _compare(expected, got, path: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return [f"{path}: expected keys {sorted(expected)}, got {got!r}"]
        errs = []
        for k in sorted(expected):
            errs += _compare(expected[k], got[k], f"{path}.{k}")
        return errs
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{path}: expected {len(expected)} values, got {got!r}"]
        errs = []
        for i, (e, g) in enumerate(zip(expected, got)):
            errs += _compare(e, g, f"{path}[{i}]")
        return errs
    if isinstance(expected, int):
        return [] if got == expected else [f"{path}: {got!r} != {expected!r}"]
    if abs(got - expected) <= REFERENCE_TOL:
        return []
    return [f"{path}: {got!r} differs from reference {expected!r}"]


def _oracles(step, out: Path) -> tuple[list[str], float]:
    exp, name = step.experiment, step.system
    errs: list[str] = []
    worst = 0.0
    if exp == "validate":
        if not _load(out, "validate.json")["ok"]:
            errs.append("validate: system reported not ok")
    elif exp == "eigen":
        lam = _load(out, "eigen.json")["lambda"]
        worst = abs(lam - LAMBDA_ORACLE[name])
        if not worst <= LAMBDA_TOL:
            errs.append(f"eigen: lambda {lam!r} vs oracle "
                        f"{LAMBDA_ORACLE[name]!r}")
    elif exp == "gibbs-audit" and name == "SYS-A":
        c5 = _load(out, "gibbs_audit.json")["C5"]
        worst = abs(c5 - 1.0)
        if not worst <= C5_TOL:
            errs.append(f"gibbs-audit: C5 {c5!r} vs oracle 1")
    elif exp == "cohomology":
        got = _load(out, "cohomology.json")["cohomologous"]
        if got is not COHOMOLOGOUS[name]:
            errs.append(f"cohomology: cohomologous={got} on {name}")
    elif exp == "uni":
        rep = _load(out, "uni.json")
        if not all(v <= 1.0 + AB_TOL for v in rep["a"] + rep["b"]):
            errs.append("uni: a(n) or b(n) exceeds 1")
    elif exp == "correlate":
        rep = _load(out, "correlate_fit.json")
        if not (math.isfinite(rep["rate"]) and rep["rate"] > 0):
            errs.append(f"correlate: rate {rep['rate']!r} is not positive")
    return errs, worst


def check(step, out: Path, tiny: bool, reference: dict) -> tuple[list[str], float]:
    try:
        errs, worst = _oracles(step, out)
        if not tiny:
            got = reference_values(step, out)
            if got:
                if step.key not in reference:
                    errs.append(f"no reference recorded for {step.key}")
                else:
                    errs += _compare(reference[step.key], got, step.key)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return [f"{step.key}: unreadable report: {type(e).__name__}: {e}"], 0.0
    return errs, worst


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def record_reference(seed: int = 0) -> dict:
    """Run every full-size workload once and store its reference values."""
    import tempfile
    from run import run_steps, setup
    from workloads import WORKLOADS, steps
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in WORKLOADS:
            steps_ = steps(workload)
            configs = setup(steps_, seed, Path(tmp) / workload)
            results = run_steps(steps_, configs, Path(tmp) / workload / "out")
            for st, (out, code, exc, _, _) in zip(steps_, results):
                if code != 0:
                    raise RuntimeError(f"{st.key}: exit {code}, {exc}")
                vals = reference_values(st, out)
                if vals:
                    ref[st.key] = vals
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return ref


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from run import _cap_threads
    _cap_threads()
    record_reference()
