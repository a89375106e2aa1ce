"""gibbsflow benchmark: runs one workload of CLI experiments and prints its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload deep-words --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it imports ``gibbsflow`` from
``src/`` and writes only under ``.perfbench_out/``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 6
MIN_PASSES = 1
EXPECTED_EXIT = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from cpumeter import CpuMeter  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, steps, write_configs  # noqa: E402

def _cap_threads() -> None:
    """One thread per BLAS/OpenMP pool, inherited by every child process;
    must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GIBBSFLOW_SEED", None)   # the workload seed must win


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- set-up and passes ------------------------------------------------------------


def setup(steps_, seed: int, workdir: Path) -> list[Path]:
    """What a CLI call pays before its experiment starts: imports, system
    construction and config loading."""
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.sparse  # noqa: F401
    from gibbsflow import cli
    from gibbsflow.presets import make_preset
    from gibbsflow.system import system_from_config
    from workloads import NL_DOUBLING
    configs = write_configs(steps_, seed, workdir / "configs")
    for path in configs:
        cli.load_config(str(path))
    for name in sorted({st.system for st in steps_}):
        if name == "NL-DOUBLING":
            system_from_config(NL_DOUBLING)
        else:
            make_preset(name)
    return configs


def timed_setup(steps_, seed: int, workdir: Path) -> tuple[list[Path], float]:
    """setup() under a CpuMeter: the configs, and the CPU seconds since
    process start, corrected for host contention by the slowdown the meter
    saw during setup()."""
    meter = CpuMeter()
    meter.start()
    try:
        configs, exc, raw, corrected = meter.measure(
            lambda: setup(steps_, seed, workdir))
        total = time.process_time() - meter.calibration_s
    finally:
        meter.stop()
    if exc is not None:
        raise exc
    return configs, total * (corrected / raw if raw > 0 else 1.0)


def run_steps(steps_, configs, out_root: Path, meter: CpuMeter | None = None):
    """Run each config through gibbsflow.cli.run: (report dir, exit code,
    exception text, CPU seconds, raw CPU seconds) per step.  The CPU seconds
    are corrected for host contention when ``meter`` is running
    (cpumeter.py), and equal the raw ones otherwise."""
    from gibbsflow import cli
    meter = meter or CpuMeter()
    results = []
    for i, (st, cfg) in enumerate(zip(steps_, configs)):
        out = out_root / f"{i:02d}-{st.experiment}"
        code, e, raw, cpu = meter.measure(
            lambda cfg=cfg, out=out: cli.run(str(cfg), out_dir=str(out)))
        exc = None if e is None else f"{type(e).__name__}: {e}"
        results.append((out, code, exc, cpu, raw))
    return results


def median_cpu(passes, field: int = 3) -> float:
    """Sum over steps of the median CPU time the step took over the passes."""
    return sum(statistics.median(p[i][field] for p in passes)
               for i in range(len(passes[0])))


def check_pass(steps_, results, tiny: bool, reference: dict):
    """(failed step count, error messages, worst oracle error)."""
    from oracles import check
    failed, errors, worst = 0, [], 0.0
    for st, (out, code, exc, _, _) in zip(steps_, results):
        if exc is not None or code != EXPECTED_EXIT:
            errs = [f"{st.key}: exit {code}, {exc or 'no exception'}"]
            err = 0.0
        else:
            errs, err = check(st, out, tiny, reference)
        worst = max(worst, err)
        if errs:
            failed += 1
            errors += errs
    return failed, errors, worst


def _setup_samples(args, own: float) -> list[float]:
    """Set-up CPU seconds of this process and of SETUP_CHILDREN fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _report_identical(a: Path, b: Path) -> list[str]:
    """Differences between two report trees, ignoring the manifests' wall time."""
    diffs = []
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"report file lists differ: {files_a} vs {files_b}"]
    for rel in files_a:
        ta, tb = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.name == "run_manifest.json":
            ma, mb = json.loads(ta), json.loads(tb)
            ma.pop("wall_time_s"), mb.pop("wall_time_s")
            same = ma == mb
        else:
            same = ta == tb
        if not same:
            diffs.append(f"traced and untraced reports differ: {rel}")
    return diffs


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(args, steps_, configs, workdir, reference, own_setup):
    """A fixed number of passes, sized from ``--seconds``, so that every run
    of a workload measures the same thing, timed by a running CpuMeter."""
    setup_samples = _setup_samples(args, own_setup)
    n_passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    passes, failed, errors, worst = [], 0, [], 0.0
    meter = CpuMeter()
    meter.start()
    try:
        for k in range(n_passes):
            out = workdir / f"pass{k}"
            results = run_steps(steps_, configs, out, meter)
            f, errs, w = check_pass(steps_, results, args.tiny, reference)
            shutil.rmtree(out, ignore_errors=True)
            passes.append(results)
            failed += f
            errors += errs
            worst = max(worst, w)
    finally:
        meter.stop()
    attempted = n_passes * len(steps_)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cpu_s": (median_cpu(passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "oracle_err": (worst, "abs"),
    }
    detail = {"setup_samples_s": setup_samples,
              "pass_cpu_s": [sum(r[3] for r in p) for p in passes],
              "pass_raw_cpu_s": [sum(r[4] for r in p) for p in passes],
              "raw_cpu_s": median_cpu(passes, field=4),
              "failed_frac": failed / attempted}
    return metrics, attempted, failed, errors, detail


def traced(args, steps_, configs, workdir, reference, own_setup):
    """An untraced, a traced and a second untraced pass, then the layer
    probes, all without the CpuMeter (span timing needs the fine process
    clock).  The overhead compares the traced pass with the median of the two
    untraced ones, step by step.  ``own_setup`` is unused: a traced run
    reports no end-to-end metric."""
    from probes import run_probes
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    plain = run_steps(steps_, configs, workdir / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        results = run_steps(steps_, configs, workdir / "traced")
    finally:
        tracer.uninstall()
    plain2 = run_steps(steps_, configs, workdir / "untraced2")
    cpu_plain = median_cpu([plain, plain2])
    cpu_traced = median_cpu([results])
    failed, errors, _ = check_pass(steps_, plain, args.tiny, reference)
    f2, errs2, _ = check_pass(steps_, results, args.tiny, reference)
    failed, errors = failed + f2, errors + errs2
    errors += _report_identical(workdir / "untraced", workdir / "traced")
    summary = tracer.summary()
    for layer, (_, named) in LAYER_METRICS.items():
        if args.workload in named and summary[layer]["calls"] == 0:
            errors.append(f"tracer: {layer} saw no call on {args.workload}")
    OUT_ROOT.mkdir(exist_ok=True)
    tracer.save(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = layer_metrics(summary)
    metrics["trace.cpu_s_untraced"] = (cpu_plain, "s")
    metrics["trace.cpu_s_traced"] = (cpu_traced, "s")
    metrics["trace.overhead"] = (cpu_traced / cpu_plain, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    metrics.update(run_probes(tiny=args.tiny))
    detail = {"spans_file": f".perfbench_out/spans-{args.workload}-seed{args.seed}.npz"}
    return metrics, 2 * len(steps_), failed, errors, detail


def main(argv=None) -> int:
    _cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gibbsflow" / "__init__.py").is_file():
        print(f"error: no gibbsflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    steps_ = steps(args.workload, "tiny" if args.tiny else "full")
    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        configs, own_setup = timed_setup(steps_, args.seed, workdir)
        if args.setup_only:
            print(repr(own_setup))
            return 0
        from oracles import load_reference
        reference = load_reference()
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, errors, detail = measure(
            args, steps_, configs, workdir, reference, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": environment(), "errors": errors, **detail}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "result": result}) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
