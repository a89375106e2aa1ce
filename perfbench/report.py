"""Every workload, untraced and traced, with every metric printed.

    python3 perfbench/report.py           # full size, about five minutes
    python3 perfbench/report.py --tiny    # smoke test, about two minutes

Prints each metric as ``workload metric value unit``.  Exits 1 unless every
run passes the correctness gate and emits exactly the metrics BENCHMARK.json
names, with their units, and unless the benchmark fails, printing no result,
in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int, seconds: int,
         tiny: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(proc: subprocess.CompletedProcess, expected: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errs.append(f"correctness gate failed: {proc.stderr[-2000:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errs.append(f"attempted {result.get('attempted')!r}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        errs.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit
                              or not isinstance(m.get("value"), (int, float))):
            errs.append(f"{name}: {m!r}, expected unit {unit}")
    return errs


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "deep-words", 0, 1, True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    tiny = "--tiny" in sys.argv[1:]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1 if tiny else bench["run_seconds"]
    failures = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl["name"], trace, seconds, tiny)
            errs = check_result(proc, bench[key])
            if proc.returncode == 0:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                for name, m in result["metrics"].items():
                    print(f"{wl['name']} {name} {m['value']!r} {m['unit']}")
            print(f"{wl['name']} --trace {trace}: {'ok' if not errs else 'FAIL'}")
            failures += [f"{wl['name']} --trace {trace}: {e}" for e in errs]
    errs = check_bare_directory()
    print(f"bare directory: {'ok' if not errs else 'FAIL'}")
    failures += errs
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
