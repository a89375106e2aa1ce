"""Paired benchmark runs of a parent and a change, and the rule for a gain.

    python3 tools/bench_pairs.py PARENT CHANGE --workload flow-mixing --pairs 10 --seed 501

PARENT and CHANGE are the roots of two source checkouts.  For each seed
S, S+1, ..., S+N-1 the tool runs ``perfbench/run.py --seconds 12 --trace 0``
once in each checkout, as one pair, with the parent first in the first pair
and the side that runs first alternating after that.  It prints each pair's
end-to-end metrics (those ``BENCHMARK.json`` lists), parent/change, and then
for each metric each side's median and quartiles, the number of pairs the
change wins (ties count for neither side), the parent's interquartile
spread, and whether a gain may be claimed: the change wins at least nine
pairs in ten, and its median beats the parent's by more than that spread.

It exits 1 when a run fails, reports ``correct: false`` or counts a failed
operation (that pair is left out of the summary), and 2 on a bad
argument.  It writes no file of its own: each run
writes under its checkout's ``.perfbench_out/``, as ``run.py`` always does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 12


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> list:
    """(name, unit, better) of each end-to-end metric the benchmark lists."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, str]:
    """One untraced run in ``checkout``: its result (the JSON object on the
    last line of standard output) and the problems it shows, '' if none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    return result, problems(result)


def problems(result: dict) -> str:
    """Why a run's result may not be counted, '' when it may."""
    found = []
    if result.get("correct") is not True:
        found.append("correct is not true")
    if result.get("failed") != 0:
        found.append(f"{result.get('failed')} failed operations")
    return ", ".join(found)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation
    between the sorted values (numpy's default percentile)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_line(k: int, seed: int, parent_first: bool, pair, metrics) -> str:
    parent, change = (r["metrics"] for r in pair)
    cells = ", ".join(f"{name} {parent[name]['value']:.4g}/"
                      f"{change[name]['value']:.4g} {unit}"
                      for name, unit, _ in metrics)
    first = "parent" if parent_first else "change"
    return f"pair {k + 1}, seed {seed}, {first} first: {cells}"


def summarize(pairs, metrics) -> list[str]:
    """One line per metric over ``pairs``, a list of (parent result,
    change result)."""
    lines = []
    for name, unit, better in metrics:
        sides = [[r["metrics"][name]["value"] for r in side]
                 for side in zip(*pairs)]
        (p1, pm, p3), (c1, cm, c3) = (quartiles(v) for v in sides)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(*sides))
        spread = p3 - p1
        gain = 10 * wins >= 9 * len(pairs) and sign * (pm - cm) > spread
        lines.append(
            f"{name} ({unit}, {better} is better): parent median {pm:.4g} "
            f"(quartiles {p1:.4g}-{p3:.4g}), change median {cm:.4g} "
            f"(quartiles {c1:.4g}-{c3:.4g}); change better in "
            f"{wins}/{len(pairs)} pairs; parent interquartile spread "
            f"{spread:.4g}; gain: {'yes' if gain else 'no'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    metrics = end_to_end_metrics()
    pairs, bad = [], False
    for k in range(args.pairs):
        seed = args.seed + k
        parent_first = k % 2 == 0
        sides = [("parent", args.parent), ("change", args.change)]
        results, counted = {}, True
        for side, checkout in sides if parent_first else sides[::-1]:
            results[side], trouble = run_once(checkout.resolve(),
                                              args.workload, seed)
            if trouble:
                print(f"pair {k + 1}, seed {seed}, {side}: {trouble}",
                      file=sys.stderr)
                bad, counted = True, False
        if counted:
            pair = (results["parent"], results["change"])
            pairs.append(pair)
            print(pair_line(k, seed, parent_first, pair, metrics), flush=True)
    if pairs:
        print("\n".join(summarize(pairs, metrics)))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
