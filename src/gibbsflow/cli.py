"""Command-line front end: configuration ingestion, experiment orchestration,
and report emission.

    gibbsflow <experiment> --config <path> [--out DIR]
              [--preset SYS-A|SYS-B|SYS-C|SYS-A-BERNOULLI|SYS-A-LINROOF|
                        SYS-C-NLROOF]

Exit codes: 0 success, 1 operational error, 2 a numerically audited
inequality failed beyond tolerance.  GIBBSFLOW_SEED overrides the seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dolgopyat import (ConstraintViolationError, NoCancellationWitness,
                        c0_constant, cone_iteration, l1_contraction,
                        norm_contraction_sweep)
from .flow import InsufficientSignalError, correlation
from .gibbs import adapted_partition, gibbs_audit
from .operator import apply_P, eigendata
from .presets import PRESETS, make_preset
from .system import system_from_config, validate
from .uni import (a_sequence, b_sequence, check_uni, coboundary_test,
                  uni_from_transversality)

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

_PARAM_SCHEMA = {
    "validate": set(),
    "eigen": {"sigma", "N"},
    "gibbs-audit": {"sigma", "depth"},
    "partition": {"b", "Delta"},
    "uni": {"n", "R", "n_max", "grid", "sigma"},
    "transversality": {"delta", "b", "beta"},
    "cohomology": {"J_trunc", "tol"},
    "cancellation": {"b", "delta", "Delta", "m_max", "sigma"},
    "contraction": {"b_list", "beta", "B", "sigma"},
    "correlate": {"v", "w", "t_max", "t_points", "samples", "sigma"},
}


def _check_range(name: str, value, low=None, high=None, pointer=""):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be numeric", pointer)
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}", pointer)
    if high is not None and value > high:
        raise ConfigError(f"{name} must be <= {high}", pointer)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}", f"/{key}")
    exp = cfg.get("experiment")
    if exp not in _PARAM_SCHEMA:
        raise ConfigError(
            f"experiment must be one of {sorted(_PARAM_SCHEMA)}", "/experiment")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "/params")
    for key in params:
        if key not in _PARAM_SCHEMA[exp]:
            raise ConfigError(f"unknown parameter {key!r} for {exp}",
                              f"/params/{key}")
    p = "/params/"
    if "sigma" in params:
        _check_range("sigma", params["sigma"], -50, 50, p + "sigma")
    if "b" in params:
        _check_range("b", params["b"], low=1e-9, pointer=p + "b")
    if "N" in params:
        _check_range("N", params["N"], 2, pointer=p + "N")
        if not float(params["N"]).is_integer():
            raise ConfigError("N must be an integer", p + "N")
    if "depth" in params:
        _check_range("depth", params["depth"], 1, 30, p + "depth")
    if "samples" in params:
        _check_range("samples", params["samples"], low=1, pointer=p + "samples")
    if "delta" in params:
        _check_range("delta", params["delta"], 1e-9, 1 - 1e-9, p + "delta")
    if "b_list" in params:
        if not isinstance(params["b_list"], list) or not params["b_list"]:
            raise ConfigError("b_list must be a nonempty list", p + "b_list")
        for b in params["b_list"]:
            _check_range("b_list entry", b, low=1e-9, pointer=p + "b_list")
    return cfg


def _resolve_system(cfg: dict, preset: str | None):
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}", "/preset")
        return make_preset(preset), preset
    if "preset" in cfg:
        if cfg["preset"] not in PRESETS:
            raise ConfigError(f"unknown preset {cfg['preset']!r}", "/preset")
        return make_preset(cfg["preset"]), cfg["preset"]
    if "system" in cfg:
        return system_from_config(cfg["system"]), "custom"
    raise ConfigError("either a system or a preset is required", "/system")


def _seed(cfg: dict) -> int:
    env = os.environ.get("GIBBSFLOW_SEED")
    if env is not None:
        return int(env)
    return int(cfg.get("seed", 0))


# -- report helpers ----------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=float)
                    + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(c)) if isinstance(c, float) else c
                    for c in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


# -- experiment handlers -------------------------------------------------------------
# each returns (exit_code, summary-dict)


def _run_validate(sys_, params, out, seed):
    rep = validate(sys_, raise_on_fail=False)
    summary = {
        "lambda": rep.expansion, "rho": rep.rho, "C2": rep.c2, "C4": rep.c4,
        "roof_inf": rep.roof_inf, "roof_sup": rep.roof_sup,
        "markov_residual": rep.markov_residual,
        "covering_power": rep.covering_power,
        "ok": rep.ok, "messages": rep.messages,
    }
    _write_json(out / "validate.json", summary)
    return (0 if rep.ok else AUDIT_FAILED), summary


def _run_eigen(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    N = int(params.get("N", 1024))
    eig = eigendata(sys_, sigma, N=N)
    Pf = apply_P(sys_, sigma, eig.f)
    residual = float(np.max(np.abs(Pf.values - eig.lam * eig.f.values))
                     / eig.f.sup_norm())
    (out / "f.csv").write_text(eig.f.to_csv(), encoding="utf-8")
    summary = {"sigma": sigma, "N": N, "lambda": eig.lam,
               "pressure": eig.pressure, "residual": residual}
    _write_json(out / "eigen.json", summary)
    return (0 if residual <= 1e-8 else AUDIT_FAILED), summary


def _run_gibbs_audit(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    depth = int(params.get("depth", 8))
    eig = eigendata(sys_, sigma, N=512)
    rep = gibbs_audit(sys_, eig, depth)
    _write_csv(out / "gibbs_audit.csv",
               ["depth", "C5_lower", "C5_upper"],
               [(n, lo, hi) for n, (lo, hi)
                in sorted(rep["per_depth"].items())])
    summary = {"sigma": sigma, "depth": depth, "C5": rep["C5"],
               "C5_lower": rep["C5_lower"], "C5_upper": rep["C5_upper"]}
    _write_json(out / "gibbs_audit.json", summary)
    ok = rep["C5_lower"] <= 1.0 + 1e-9 <= rep["C5_upper"] * (1 + 1e-9) \
        and math.isfinite(rep["C5"])
    return (0 if ok else AUDIT_FAILED), summary


def _run_partition(sys_, params, out, seed):
    b = float(params.get("b", 2.0 ** 10))
    Delta = float(params.get("Delta", 1.0))
    part = adapted_partition(sys_, b, Delta)
    rep = validate(sys_, raise_on_fail=False)
    _write_csv(out / "partition.csv", ["left", "right", "diam"],
               [(q.left, q.right, q.diam) for q in part.elements])
    lo_bound = 2 * Delta / abs(b)
    hi_bound = 2 * Delta * rep.rho / abs(b)
    diams = [q.diam for q in part.elements]
    ok = (all(lo_bound <= d <= hi_bound * (1 + 1e-12) for d in diams)
          and part.count <= abs(b) / (2 * Delta))
    summary = {"b": b, "Delta": Delta, "count": part.count,
               "diam_min": min(diams), "diam_max": max(diams),
               "bounds_ok": ok}
    _write_json(out / "partition.json", summary)
    return (0 if ok else AUDIT_FAILED), summary


def _run_uni(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    n = int(params.get("n", 2))
    R = float(params.get("R", 0.1))
    n_max = int(params.get("n_max", 6))
    grid = int(params.get("grid", 128))
    eig = eigendata(sys_, sigma, N=256)
    a = a_sequence(sys_, eig, n_max, grid=grid)
    bseq = b_sequence(sys_, eig, n_max, grid=grid)
    cu = check_uni(sys_, n, R)
    _write_csv(out / "ab_sequences.csv", ["n", "a", "b"],
               list(zip(range(1, n_max + 1), a, bseq)))
    summary = {"a": a, "b": bseq, "D_full": cu["D_full"],
               "D_point": cu["D_point"], "n": n, "R": R}
    _write_json(out / "uni.json", summary)
    ok = all(v <= 1 + 1e-8 for v in a + bseq)
    return (0 if ok else AUDIT_FAILED), summary


def _run_transversality(sys_, params, out, seed):
    delta = float(params.get("delta", 0.05))
    b = float(params.get("b", 2.0 ** 10))
    beta = float(params.get("beta", 1.0))
    rep = uni_from_transversality(sys_, delta, b, beta=beta)
    summary = {k: rep[k] for k in rep if k != "results"}
    summary["statuses"] = [r["status"] for r in rep["results"]]
    _write_json(out / "transversality.json", summary)
    if rep["no_pair_everywhere"]:
        return 0, summary
    ok = rep["pass_rate"] == 1.0
    return (0 if ok else AUDIT_FAILED), summary


def _run_cohomology(sys_, params, out, seed):
    J = int(params.get("J_trunc", 40))
    tol = float(params.get("tol", 1e-6))
    rep = coboundary_test(sys_, J_trunc=J, tol=tol)
    _write_json(out / "cohomology.json", rep)
    return 0, rep


def _run_cancellation(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    b = float(params.get("b", 2.0 ** 8))
    delta = float(params.get("delta", 0.05))
    Delta = params.get("Delta")
    m_max = int(params.get("m_max", 10))
    coh = coboundary_test(sys_)
    if coh["cohomologous"]:
        summary = {"no_contraction": "constant_roof_detected",
                   "residual": coh["residual"]}
        _write_json(out / "cancellation.json", summary)
        return 0, summary
    eig = eigendata(sys_, sigma, N=512)
    rep = cone_iteration(sys_, eig, b, m_max=m_max, delta=delta,
                         Delta=None if Delta is None else float(Delta))
    _write_csv(out / "cancellation_trace.csv",
               ["m", "int_u2", "tau_hat", "cone_ok"],
               [(s["m"], s["int_u2"], s["tau_hat"], int(s["cone_ok"]))
                for s in rep["steps"]])
    summary = {k: rep[k] for k in
               ("b", "n", "delta", "C0", "Delta", "tau_hats",
                "all_contracting", "all_in_cone")}
    _write_json(out / "cancellation.json", summary)
    ok = rep["all_contracting"] and rep["all_in_cone"]
    return (0 if ok else AUDIT_FAILED), summary


def _run_contraction(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    b_list = [float(b) for b in params.get("b_list",
                                           [2.0 ** q for q in range(8, 13)])]
    beta = float(params.get("beta", 1.0))
    B = float(params.get("B", 1.0))
    coh = coboundary_test(sys_)
    if coh["cohomologous"]:
        summary = {"no_contraction": "constant_roof_detected",
                   "residual": coh["residual"]}
        _write_json(out / "contraction.json", summary)
        return 0, summary
    eig = eigendata(sys_, sigma, N=512)
    l1 = l1_contraction(sys_, eig, b_list, beta=beta)
    sweep = norm_contraction_sweep(sys_, eig, b_list, B=B, trials=60,
                                   seed=seed)
    rows = []
    for r1, r2 in zip(l1["rows"], sweep["rows"]):
        rows.append((r1["b"], r1["k"], r1["ratio"], r2["zeta_hat"],
                     l1["xi_hat"]))
    _write_csv(out / "contraction.csv",
               ["b", "k_or_ell", "ratio", "zeta_hat", "xi_hat"], rows)
    summary = {"xi_hat": l1["xi_hat"], "zeta_max": sweep["zeta_max"],
               "l1_rows": l1["rows"], "sweep_rows": sweep["rows"]}
    _write_json(out / "contraction.json", summary)
    ok = (all(r["ratio"] < 1.0 for r in l1["rows"])
          and l1["xi_hat"] > 0 and sweep["zeta_max"] < 1.0)
    return (0 if ok else AUDIT_FAILED), summary


def _run_correlate(sys_, params, out, seed):
    sigma = float(params.get("sigma", 0.0))
    v = str(params.get("v", "cos(2*pi*u)+x"))
    w = str(params.get("w", v))
    t_max = float(params.get("t_max", 10.0))
    t_points = int(params.get("t_points", 21))
    samples = int(params.get("samples", 100_000))
    eig = eigendata(sys_, sigma, N=256)
    series = correlation(sys_, eig, v, w, np.linspace(0.0, t_max, t_points),
                         samples, seed=seed)
    (out / "correlate.csv").write_text(series.to_csv(), encoding="utf-8")
    summary = {"rate": series.rate, "prefactor": series.prefactor,
               "t_star": series.t_star, "window": list(series.window),
               "samples": samples, "v": v, "w": w}
    _write_json(out / "correlate_fit.json", summary)
    return 0, summary


_HANDLERS = {
    "validate": _run_validate,
    "eigen": _run_eigen,
    "gibbs-audit": _run_gibbs_audit,
    "partition": _run_partition,
    "uni": _run_uni,
    "transversality": _run_transversality,
    "cohomology": _run_cohomology,
    "cancellation": _run_cancellation,
    "contraction": _run_contraction,
    "correlate": _run_correlate,
}


# -- orchestration -----------------------------------------------------------------


def run(config_path: str, out_dir: str | None = None,
        preset: str | None = None) -> int:
    """Execute one experiment; returns the exit code and writes reports plus
    a run manifest into the output directory."""
    t0 = time.time()
    cfg = load_config(config_path)
    sys_, system_name = _resolve_system(cfg, preset)
    seed = _seed(cfg)
    exp = cfg["experiment"]
    out = Path(out_dir) if out_dir else Path("gibbsflow-out") / exp
    out.mkdir(parents=True, exist_ok=True)
    code, summary = _HANDLERS[exp](sys_, cfg.get("params", {}), out, seed)
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


def report_bundle(run_dirs, out_dir: str | None = None) -> dict:
    """Merge completed runs into a cross-experiment summary (the trichotomy
    table): cohomologous? / a(n) trend / xi_hat / c_hat."""
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
        rep_file = {
            "cohomology": "cohomology.json", "uni": "uni.json",
            "contraction": "contraction.json",
            "cancellation": "cancellation.json",
            "correlate": "correlate_fit.json",
        }.get(exp)
        if rep_file is None or not (d / rep_file).exists():
            continue
        rep = json.loads((d / rep_file).read_text(encoding="utf-8"))
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
    if out_dir is not None:
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        _write_json(outp / "bundle.json", bundle)
        lines = ["# experiment value"]
        for key in ("xi_hat", "c_hat"):
            if row[key] is not None:
                lines.append(f"{key} {row[key]!r}")
        (outp / "bundle.dat").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    return bundle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbsflow",
        description="Audit suite for Gibbs measures, transfer-operator "
                    "contraction, and suspension-flow mixing.")
    parser.add_argument("experiment",
                        choices=sorted(_HANDLERS) + ["bundle"])
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--out", default=None)
    parser.add_argument("--preset", default=None,
                        help="named system overriding the config")
    parser.add_argument("--runs", nargs="*", default=[],
                        help="completed run directories (bundle only)")
    args = parser.parse_args(argv)
    try:
        if args.experiment == "bundle":
            report_bundle(args.runs, out_dir=args.out)
            return 0
        if args.config is None:
            if args.preset is None:
                raise ConfigError("--config is required")
            import tempfile
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".json", delete=False) as fh:
                json.dump({"experiment": args.experiment}, fh)
                path = fh.name
            try:
                return run(path, out_dir=args.out, preset=args.preset)
            finally:
                os.unlink(path)
        return run(args.config, out_dir=args.out, preset=args.preset)
    except (ConfigError, MissingManifestError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except (ConstraintViolationError, NoCancellationWitness,
            InsufficientSignalError) as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001  - operational failure, not audit
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
