"""Command-line front end: configuration ingestion, experiment orchestration,
and report emission.

    gibbsflow <experiment> [--config <path>] [--out DIR]
              [--preset SYS-A|SYS-B|SYS-C|SYS-A-BERNOULLI|SYS-A-LINROOF|
                        SYS-C-NLROOF]

Without ``--config``, ``--preset`` runs the config ``{"experiment":
<experiment>}``: every parameter at its default.  Without ``--out`` the
reports go to ``gibbsflow-out/<experiment>``, ``bundle``'s too.

Each experiment is declared once, in ``_EXPERIMENTS``: its handler, the JSON
report its summary goes to, and its parameters (name, kind: integer, float,
list of floats or expression string, default and bounds).  ``run`` checks
a config against that table once (``load_config`` reads a file and checks
it the same way) and the handlers read their typed values from it.  A
handler writes its data files and returns ``(passed, summary)``; ``run``
alone writes the summary to the entry's report, maps ``passed`` to the
exit code and writes the run manifest.

Every report is text (a CSV by ``_write_csv`` or a JSON) but ``eigen``'s
``f.npy``: the (m, N) float64 values of f on its node grid, written by
``np.save`` without pickling, exact to the bit.  The grid is not written:
it is ``operator.node_grid``, N equally spaced points per element, ends
included, so element e's row is ``np.linspace(a[e], a[e + 1], N)`` with
the element ends ``a`` from ``eigen.json``'s ``partition`` and ``N`` from
its ``N``.  A JSON report is strict: ``_write_json`` refuses NaN and
infinity, so a handler writes such a value as null.

A config is refused with ``ConfigError`` (exit 1), naming the JSON pointer
of the offending value, before a system is built or any work starts, when
it has an unknown key or parameter, an experiment other than the one on the
command line, a number that is not finite, outside its bounds or (for an
integer) fractional, an expression that does not parse, a seed that is not
an integer >= 0, or a ``system`` block with a key missing or unknown, a
value of the wrong type or a per-element list of the wrong length.  A
bound that depends on the system (``uni``'s word pairs, ``correlate``'s
53-bit ``t_max`` cap) is checked by the handler before its eigendata.

Exit codes: 0 success, 1 operational error, 2 a numerically audited
inequality failed beyond tolerance.  GIBBSFLOW_SEED overrides the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dolgopyat import cone_iteration, l1_contraction, norm_contraction_sweep
from .expr import ParseError, parse
from .flow import BATCHES, correlation
from .gibbs import adapted_partition, gibbs_audit
from .operator import eigendata
from .presets import PRESETS, make_preset
from .system import SYSTEM_KEYS, count_words, system_from_config, validate
from .uni import (MAX_PAIRS, a_sequence, b_sequence, check_uni,
                  coboundary_test, uni_from_transversality)

__all__ = ["ConfigError", "MissingManifestError", "run", "report_bundle",
           "main"]

AUDIT_FAILED = 2


class ConfigError(ValueError):
    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class MissingManifestError(FileNotFoundError):
    pass


# -- configuration ----------------------------------------------------------------

_TOP_KEYS = {"system", "preset", "experiment", "params", "seed"}


@dataclass(frozen=True)
class _Param:
    """One experiment parameter: its kind, its default and the bounds a
    value must lie in.  Kinds: "int" (an integer, written as an integral
    float or not), "float", "floats" (a nonempty list of floats, each in the
    bounds) and "expr" (an expression string in x and u).  Every number
    must be finite.  A default of None leaves the value to the experiment."""
    kind: str
    default: object
    low: float = -math.inf
    high: float = math.inf
    above_low: bool = False   # low itself is refused: the value is > low

    def value(self, name: str, raw, pointer: str):
        """``raw`` as this kind, or ConfigError at ``pointer``."""
        if self.kind == "expr":
            return _expression(name, raw, pointer, ("x", "u"))
        if self.kind == "floats":
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"{name} must be a nonempty list", pointer)
            return [self._number(f"{name} entry", r, pointer) for r in raw]
        return self._number(name, raw, pointer)

    def _number(self, name, raw, pointer):
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ConfigError(f"{name} must be numeric", pointer)
        try:
            x = float(raw)
        except OverflowError:   # an integer past the largest double
            x = math.inf
        # JSON admits NaN and +-Infinity, and NaN passes every bound below
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be finite", pointer)
        if self.above_low and not x > self.low:
            raise ConfigError(f"{name} must be > {self.low}", pointer)
        if x < self.low:
            raise ConfigError(f"{name} must be >= {self.low}", pointer)
        if x > self.high:
            raise ConfigError(f"{name} must be <= {self.high}", pointer)
        if self.kind == "float":
            return x
        if not x.is_integer():
            raise ConfigError(f"{name} must be an integer", pointer)
        return int(raw)


def _expression(name: str, raw, pointer: str, variables: tuple) -> str:
    """``raw`` if it is an expression in ``variables``, else ConfigError."""
    if not isinstance(raw, str):
        raise ConfigError(f"{name} must be an expression string", pointer)
    try:
        parse(raw, variables)
    except ParseError as e:
        raise ConfigError(f"{name} {raw!r}: {e}", pointer) from None
    return raw


def _positive(default):
    return _Param("float", default, 0, above_low=True)


_SIGMA = _Param("float", 0.0, -50, 50)

_SEED = _Param("int", 0, 0)

# the values of a system block (see ``system.system_from_config``)
_NUMBER = _Param("float", None)
_INDEX = _Param("int", None)
_ALPHA = _Param("float", 1.0, 0, 1, above_low=True)


def _check_system(block) -> None:
    """Refuse with ConfigError, at /system/<key>, a system block that is not
    in the layout of ``system_from_config``: a key missing or unknown, a
    value of the wrong type, an expression that does not parse in x, or a
    per-element list whose length is not the number of elements.  What the
    layout admits but the map does not (breakpoints out of order, an image
    out of range) is refused when the system is built."""
    if not isinstance(block, dict):
        raise ConfigError("system must be an object", "/system")
    for key in block:
        if key not in SYSTEM_KEYS:
            raise ConfigError(f"unknown system key {key!r}", f"/system/{key}")
    for key in SYSTEM_KEYS[:-1]:   # all but "alpha" are required
        if key not in block:
            raise ConfigError(f"system needs {key!r}", f"/system/{key}")
    partition = block["partition"]
    if not isinstance(partition, list) or len(partition) < 2:
        raise ConfigError("partition must be a list of at least two numbers",
                          "/system/partition")
    for k, a in enumerate(partition):
        _NUMBER.value("breakpoint", a, f"/system/partition/{k}")
    m = len(partition) - 1
    for key in SYSTEM_KEYS[1:-1]:   # one entry per element
        if not isinstance(block[key], list) or len(block[key]) != m:
            raise ConfigError(f"{key} must be a list of {m}, one per element",
                              f"/system/{key}")
    for k, branch in enumerate(block["branches"]):
        pointer = f"/system/branches/{k}"
        if not isinstance(branch, dict) or set(branch) != {"expr", "image"}:
            raise ConfigError('a branch must be an object with keys "expr" '
                              'and "image"', pointer)
        _expression("expr", branch["expr"], pointer + "/expr", ("x",))
        image = branch["image"]
        if not isinstance(image, list) or len(image) != 2:
            raise ConfigError("image must be a list of two element indices",
                              pointer + "/image")
        for j, e in enumerate(image):
            _INDEX.value("image entry", e, f"{pointer}/image/{j}")
    for key in ("roof", "potential"):
        for k, e in enumerate(block[key]):
            _expression(f"{key} entry", e, f"/system/{key}/{k}", ("x",))
    if "alpha" in block:
        _ALPHA.value("alpha", block["alpha"], "/system/alpha")


def load_config(path: str) -> dict:
    """The config in the JSON file ``path``, as written, once the parameter
    table admits it."""
    cfg = _read_config(path)
    _parameters(cfg)
    return cfg


def _read_config(path: str) -> dict:
    """The JSON object in the file ``path``, as written and not yet checked
    against the parameter table (``_parameters``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file is not UTF-8: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _parameters(cfg: dict) -> dict:
    """Every parameter of the config's experiment, typed: the value the
    config gives, checked against the table, or the default.  Refuses with
    ConfigError a config that the table and the top-level keys do not
    admit."""
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}", f"/{key}")
    exp = cfg.get("experiment")
    if exp not in _EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {sorted(_EXPERIMENTS)}", "/experiment")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "/params")
    table = _EXPERIMENTS[exp].params
    for key in params:
        if key not in table:
            raise ConfigError(f"unknown parameter {key!r} for {exp}",
                              f"/params/{key}")
    if "seed" in cfg:
        _SEED.value("seed", cfg["seed"], "/seed")
    if "system" in cfg:
        _check_system(cfg["system"])
    return {name: (spec.value(name, params[name], f"/params/{name}")
                   if name in params else spec.default)
            for name, spec in table.items()}


def _resolve_system(cfg: dict, preset: str | None):
    name = preset if preset is not None else cfg.get("preset")
    if name is None:
        if "system" not in cfg:
            raise ConfigError("either a system or a preset is required",
                              "/system")
        return system_from_config(cfg["system"]), "custom"
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}", "/preset")
    return make_preset(name), name


def _seed(cfg: dict) -> int:
    """GIBBSFLOW_SEED when it is set, else the config's seed (0 when absent);
    each must be an integer >= 0, written as an integral float or not."""
    env = os.environ.get("GIBBSFLOW_SEED")
    if env is None:
        return int(cfg.get("seed", _SEED.default))
    try:
        value = int(env)
    except ValueError:
        try:
            value = float(env)
        except ValueError:
            raise ConfigError(f"GIBBSFLOW_SEED must be numeric, not {env!r}",
                              "/seed") from None
    return _SEED.value("GIBBSFLOW_SEED", value, "/seed")


# -- report helpers ----------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=float,
                               allow_nan=False)
                    + "\n", encoding="utf-8")


def _write_csv(path: Path, header, columns) -> None:
    """One row per index of the equal-length numeric ``columns`` (a table
    of rows ``rows`` is ``zip(*rows)``), each value written as its repr, so
    a float is written to the bit."""
    columns = [np.asarray(c).tolist() for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in zip(*columns))


# -- experiment handlers -------------------------------------------------------------
# each takes its typed parameters and returns (passed, summary)


def _run_validate(sys_, p, out, seed):
    rep, c = validate(sys_), sys_.constants
    summary = {
        "lambda": c.lam, "rho": c.rho, "C4": c.c4,
        "C2": None if math.isnan(rep.c2) else rep.c2,  # NaN is not JSON
        "roof_inf": c.roof_inf, "roof_sup": c.roof_sup,
        "markov_residual": rep.markov_residual,
        "covering_power": rep.covering_power,
        "ok": rep.ok, "messages": rep.messages,
    }
    return rep.ok, summary


def _run_eigen(sys_, p, out, seed):
    eig = eigendata(sys_, p["sigma"], N=p["N"])
    np.save(out / "f.npy", eig.f.values, allow_pickle=False)
    summary = {"sigma": p["sigma"], "N": p["N"],
               "partition": sys_.partition.tolist(), "lambda": eig.lam,
               "pressure": eig.pressure, "residual": eig.residual}
    return eig.residual <= 1e-8, summary


def _run_gibbs_audit(sys_, p, out, seed):
    eig = eigendata(sys_, p["sigma"], N=512)
    rep = gibbs_audit(sys_, eig, p["depth"])
    _write_csv(out / "gibbs_audit.csv", ["depth", "C5_lower", "C5_upper"],
               zip(*[(n, lo, hi) for n, (lo, hi)
                     in sorted(rep["per_depth"].items())]))
    summary = {"sigma": p["sigma"], "depth": p["depth"], "C5": rep["C5"],
               "C5_lower": rep["C5_lower"], "C5_upper": rep["C5_upper"]}
    ok = rep["C5_lower"] <= 1.0 + 1e-9 <= rep["C5_upper"] * (1 + 1e-9) \
        and math.isfinite(rep["C5"])
    return ok, summary


def _run_partition(sys_, p, out, seed):
    b, Delta = p["b"], p["Delta"]
    part = adapted_partition(sys_, b, Delta)
    diams = part.right - part.left
    _write_csv(out / "partition.csv", ["left", "right", "diam"],
               [part.left, part.right, diams])
    lo_bound = 2 * Delta / abs(b)
    hi_bound = 2 * Delta * sys_.constants.rho / abs(b)
    ok = bool(np.all(diams >= lo_bound)
              and np.all(diams <= hi_bound * (1 + 1e-12))
              and len(diams) <= abs(b) / (2 * Delta))
    summary = {"b": b, "Delta": Delta, "count": len(diams),
               "diam_min": float(diams.min()),
               "diam_max": float(diams.max()), "bounds_ok": ok}
    return ok, summary


def _run_uni(sys_, p, out, seed):
    n, n_max = p["n"], p["n_max"]
    pairs = count_words(sys_, n) ** 2
    if pairs > MAX_PAIRS:
        raise ConfigError(f"n = {n} gives {pairs} ordered word pairs, more "
                          f"than check_uni's {MAX_PAIRS}", "/params/n")
    eig = eigendata(sys_, p["sigma"], N=256)
    a = a_sequence(sys_, eig, n_max, grid=p["grid"])
    bseq = b_sequence(sys_, eig, n_max, grid=p["grid"])
    cu = check_uni(sys_, n, p["R"])
    _write_csv(out / "ab_sequences.csv", ["n", "a", "b"],
               [range(1, n_max + 1), a, bseq])
    summary = {"a": a, "b": bseq, "D_full": cu["D_full"],
               "D_point": cu["D_point"], "n": n, "R": p["R"]}
    return all(v <= 1 + 1e-8 for v in a + bseq), summary


def _run_transversality(sys_, p, out, seed):
    rep = uni_from_transversality(sys_, p["delta"], p["b"], beta=p["beta"])
    summary = {k: rep[k] for k in rep if k != "results"}
    for k in ("Delta", "worst_margin"):  # inf (C7 = 0) and NaN are not JSON
        if not math.isfinite(summary.get(k, 0.0)):
            summary[k] = None
    summary["statuses"] = [r["status"] for r in rep["results"]]
    return rep["no_pair_everywhere"] or rep["pass_rate"] == 1.0, summary


def _run_cohomology(sys_, p, out, seed):
    return True, coboundary_test(sys_, J_trunc=p["J_trunc"], tol=p["tol"])


def _constant_roof(sys_):
    """The summary of a run stopped by a roof cohomologous to a locally
    constant one, by the test of the cohomology experiment at its defaults;
    None when the roof is not."""
    p = _parameters({"experiment": "cohomology"})
    coh = coboundary_test(sys_, J_trunc=p["J_trunc"], tol=p["tol"])
    if not coh["cohomologous"]:
        return None
    return {"no_contraction": "roof_cohomologous_to_locally_constant",
            "residual": coh["residual"]}


def _run_cancellation(sys_, p, out, seed):
    summary = _constant_roof(sys_)
    if summary is not None:
        return True, summary
    eig = eigendata(sys_, p["sigma"], N=512)
    rep = cone_iteration(sys_, eig, p["b"], m_max=p["m_max"],
                         delta=p["delta"], Delta=p["Delta"])
    _write_csv(out / "cancellation_trace.csv",
               ["m", "int_u2", "tau_hat", "cone_ok"],
               zip(*[(s["m"], s["int_u2"], s["tau_hat"], int(s["cone_ok"]))
                     for s in rep["steps"]]))
    summary = {k: rep[k] for k in
               ("b", "n", "delta", "C0", "Delta", "tau_hats",
                "all_contracting", "all_in_cone")}
    return rep["all_contracting"] and rep["all_in_cone"], summary


def _run_contraction(sys_, p, out, seed):
    summary = _constant_roof(sys_)
    if summary is not None:
        return True, summary
    eig = eigendata(sys_, p["sigma"], N=512)
    l1 = l1_contraction(sys_, eig, p["b_list"], beta=p["beta"])
    sweep = norm_contraction_sweep(sys_, eig, p["b_list"], B=p["B"])
    _write_csv(out / "contraction.csv",
               ["b", "k_or_ell", "ratio", "zeta_hat", "xi_hat"],
               zip(*[(r1["b"], r1["k"], r1["ratio"], r2["zeta_hat"],
                      l1["xi_hat"])
                     for r1, r2 in zip(l1["rows"], sweep["rows"])]))
    summary = {"xi_hat": l1["xi_hat"], "C6": l1["C6"],
               "zeta_max": sweep["zeta_max"], "l1_rows": l1["rows"],
               "sweep_rows": sweep["rows"]}
    ok = (all(r["ratio"] < 1.0 and r["ratio"] <= l1["C6"] * (1 + 1e-9)
              for r in l1["rows"])
          and l1["xi_hat"] > 0 and sweep["zeta_max"] < 1.0)
    return ok, summary


def _run_correlate(sys_, p, out, seed):
    v, t_max = p["v"], p["t_max"]
    w = v if p["w"] is None else p["w"]
    # evolve_many applies T in doubles, losing up to log2 sup|T'| bits per
    # roof crossing, and a time t makes at most t / inf r crossings; past
    # this worst case an orbit can have lost all 53 bits (a typical one
    # crosses fewer roofs and loses fewer bits)
    c = sys_.constants
    bits = math.log2(c.rho)
    t_cap = 53 * c.roof_inf / bits if bits > 0 else math.inf
    if t_max > t_cap:
        raise ConfigError(
            f"t_max = {t_max} is past {t_cap:.4g}, where forward orbits in "
            "doubles can have lost all 53 bits (worst case: "
            "t_max log2 sup|T'| / inf r > 53)",
            "/params/t_max")
    eig = eigendata(sys_, p["sigma"], N=256)
    series = correlation(sys_, eig, v, w,
                         np.linspace(0.0, t_max, p["t_points"]),
                         p["samples"], seed=seed)
    _write_csv(out / "correlate.csv", ["t", "C_hat", "stderr", "used_in_fit"],
               [series.times, series.estimates, series.stderrs,
                series.used_in_fit.astype(int)])
    summary = {"rate": series.rate, "prefactor": series.prefactor,
               "t_star": series.t_star, "window": list(series.window),
               "samples": p["samples"], "v": v, "w": w}
    return True, summary


class _Experiment(NamedTuple):
    """One experiment: its handler, the JSON report of the summary the
    handler returns, and its parameters, {name: _Param}."""
    handler: Callable
    report: str
    params: dict


# Every experiment.  The least value of an integer parameter is the least
# the experiment can run on: eigendata needs two nodes per element,
# the fit of correlate four points above the noise, and each of its
# batches at least one sample.  The least b of transversality and
# cancellation is 1: below it the prefix length floor(beta log b) is < 0.
_EXPERIMENTS = {
    "validate": _Experiment(_run_validate, "validate.json", {}),
    "eigen": _Experiment(_run_eigen, "eigen.json",
                         {"sigma": _SIGMA, "N": _Param("int", 1024, 2)}),
    "gibbs-audit": _Experiment(
        _run_gibbs_audit, "gibbs_audit.json",
        {"sigma": _SIGMA, "depth": _Param("int", 8, 1, 30)}),
    "partition": _Experiment(
        _run_partition, "partition.json",
        {"b": _Param("float", 2.0 ** 10, 1e-9), "Delta": _positive(1.0)}),
    "uni": _Experiment(
        _run_uni, "uni.json",
        {"n": _Param("int", 2, 1), "R": _positive(0.1),
         "n_max": _Param("int", 6, 1), "grid": _Param("int", 128, 1),
         "sigma": _SIGMA}),
    "transversality": _Experiment(
        _run_transversality, "transversality.json",
        {"delta": _Param("float", 0.05, 1e-9, 1 - 1e-9),
         "b": _Param("float", 2.0 ** 10, 1), "beta": _positive(1.0)}),
    "cohomology": _Experiment(
        _run_cohomology, "cohomology.json",
        {"J_trunc": _Param("int", 40, 1), "tol": _positive(1e-6)}),
    # Delta None: cone_iteration derives it from the system
    "cancellation": _Experiment(
        _run_cancellation, "cancellation.json",
        {"b": _Param("float", 2.0 ** 8, 1),
         "delta": _Param("float", 0.05, 1e-9, 1 - 1e-9),
         "Delta": _positive(None), "m_max": _Param("int", 10, 1),
         "sigma": _SIGMA}),
    "contraction": _Experiment(
        _run_contraction, "contraction.json",
        {"b_list": _Param("floats", [2.0 ** q for q in range(8, 13)], 1e-9),
         "beta": _positive(1.0), "B": _positive(1.0), "sigma": _SIGMA}),
    # w None: w is v
    "correlate": _Experiment(
        _run_correlate, "correlate_fit.json",
        {"v": _Param("expr", "cos(2*pi*u)+x"), "w": _Param("expr", None),
         "t_max": _positive(10.0), "t_points": _Param("int", 21, 4),
         "samples": _Param("int", 100_000, BATCHES), "sigma": _SIGMA}),
}


# -- orchestration -----------------------------------------------------------------


def run(config_path: str | dict, out_dir: str | None = None,
        preset: str | None = None) -> int:
    """Execute one experiment; returns the exit code.  Into the output
    directory go the handler's data files, the summary it returns (the
    entry's report) and a run manifest.  ``config_path`` is a JSON config
    file, or a config already read (a dict), as ``main`` passes it; either
    is checked here, once."""
    t0 = time.time()
    cfg = (config_path if isinstance(config_path, dict)
           else _read_config(config_path))
    params = _parameters(cfg)
    sys_, system_name = _resolve_system(cfg, preset)
    seed = _seed(cfg)
    exp = cfg["experiment"]
    out = Path(out_dir) if out_dir else Path("gibbsflow-out") / exp
    out.mkdir(parents=True, exist_ok=True)
    entry = _EXPERIMENTS[exp]
    passed, summary = entry.handler(sys_, params, out, seed)
    _write_json(out / entry.report, summary)
    code = 0 if passed else AUDIT_FAILED
    blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "experiment": exp,
        "system": system_name,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "version": __version__,
        "numpy": np.__version__,
        "seed": seed,
        "exit_code": code,
        "wall_time_s": time.time() - t0,
        "outputs": sorted(p.name for p in out.iterdir() if p.is_file()),
    }
    _write_json(out / "run_manifest.json", manifest)
    return code


def report_bundle(run_dirs, out_dir) -> None:
    """Merge completed runs into a cross-experiment summary (the trichotomy
    table): cohomologous? / a(n) trend / xi_hat / c_hat, written into the
    directory ``out_dir`` as bundle.json and bundle.dat."""
    if not run_dirs:
        raise MissingManifestError("no run directories given")
    row = {"cohomologous": None, "a_trend": None, "xi_hat": None,
           "c_hat": None, "tau_contracting": None, "systems": []}
    runs = []
    for d in run_dirs:
        d = Path(d)
        mpath = d / "run_manifest.json"
        if not mpath.exists():
            raise MissingManifestError(f"no run manifest in {d}")
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        runs.append(manifest)
        row["systems"].append(manifest.get("system"))
        exp = manifest["experiment"]
        report = d / _EXPERIMENTS[exp].report
        if not report.exists():
            continue
        rep = json.loads(report.read_text(encoding="utf-8"))
        if exp == "cohomology":
            row["cohomologous"] = rep["cohomologous"]
        elif exp == "uni":
            a = rep["a"]
            row["a_trend"] = ("constant_one"
                              if all(abs(v - 1) < 1e-6 for v in a)
                              else "decreasing")
        elif exp == "contraction":
            row["xi_hat"] = rep.get("xi_hat")
            if "no_contraction" in rep:
                row["xi_hat"] = None
                row["no_contraction"] = rep["no_contraction"]
        elif exp == "cancellation":
            row["tau_contracting"] = rep.get("all_contracting")
        elif exp == "correlate":
            row["c_hat"] = rep.get("rate")
    bundle = {"runs": [m["experiment"] for m in runs], "table": row}
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    _write_json(outp / "bundle.json", bundle)
    lines = ["# experiment value"]
    for key in ("xi_hat", "c_hat"):
        if row[key] is not None:
            lines.append(f"{key} {row[key]!r}")
    (outp / "bundle.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbsflow",
        description="Audit suite for Gibbs measures, transfer-operator "
                    "contraction, and suspension-flow mixing.")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["bundle"])
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--out", default=None)
    parser.add_argument("--preset", default=None,
                        help="named system overriding the config")
    parser.add_argument("--runs", nargs="*", default=[],
                        help="completed run directories (bundle only)")
    args = parser.parse_args(argv)
    try:
        if args.experiment == "bundle":
            report_bundle(args.runs,
                          args.out or Path("gibbsflow-out") / "bundle")
            return 0
        if args.config is not None:
            cfg = _read_config(args.config)  # run checks it
        elif args.preset is not None:
            cfg = {"experiment": args.experiment}
        else:
            raise ConfigError("--config is required")
        if cfg.get("experiment") != args.experiment:
            raise ConfigError(
                f"the config's experiment {cfg.get('experiment')!r} is not "
                f"{args.experiment!r}", "/experiment")
        return run(cfg, out_dir=args.out, preset=args.preset)
    except (ConfigError, MissingManifestError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001  - operational failure, not audit
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
