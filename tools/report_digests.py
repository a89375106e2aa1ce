"""sha256 of every report file of every benchmark workload step.

    python3 tools/report_digests.py OUT.json

Run it from the root of a source checkout: it imports ``gibbsflow`` from
``src/`` and the step lists from ``perfbench/workloads.py`` (read, never
written).  Every step of every workload runs once at full size and seed 5
through ``gibbsflow.cli.run``, as ``gibbsflow <experiment> --config``
would, with one thread per BLAS pool, in a temporary directory that is
removed afterwards.  OUT.json maps each step to its exit code and the sha256 of
each report file; ``run_manifest.json`` is hashed without ``wall_time_s``,
the one entry that differs between two runs of the same code.

Two checkouts give the same OUT.json exactly when every report is
byte-identical, so a refactor is checked with

    python3 tools/report_digests.py /tmp/before.json     # in the parent
    python3 tools/report_digests.py /tmp/after.json      # in the change
    diff /tmp/before.json /tmp/after.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s")
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests(seed: int) -> dict:
    """{"<workload>/<index> <step key>": {"exit_code", "files"}} over every
    step of every workload, in workload and step order."""
    from gibbsflow import cli
    from workloads import WORKLOADS, steps, write_configs
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            steps_ = steps(workload)
            configs = write_configs(steps_, seed, Path(tmp) / workload)
            for i, (st, cfg) in enumerate(zip(steps_, configs)):
                reports = Path(tmp) / workload / f"{i:02d}-{st.experiment}"
                code = cli.run(str(cfg), out_dir=str(reports))
                out[f"{workload}/{i:02d} {st.key}"] = {
                    "exit_code": code,
                    "files": {p.name: _digest(p)
                              for p in sorted(reports.iterdir())},
                }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the digests to")
    args = parser.parse_args()
    for var in THREAD_VARS:       # before numpy is imported
        os.environ[var] = "1"
    os.environ.pop("GIBBSFLOW_SEED", None)   # SEED must win
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    result = {"seed": SEED, "steps": digests(SEED)}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
