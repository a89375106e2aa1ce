"""tools/report_digests.py hashes a run manifest without its wall time, the
one entry that differs between two runs of the same code."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_manifest_digest_ignores_only_the_wall_time(tmp_path):
    tool = _tool()
    digests = []
    for wall, code in ((0.5, 0), (7.25, 0), (0.5, 2)):
        run = tmp_path / f"{wall}-{code}"
        run.mkdir()
        path = run / "run_manifest.json"
        path.write_text(json.dumps({"exit_code": code, "wall_time_s": wall}),
                        encoding="utf-8")
        digests.append(tool._digest(path))
    assert digests[0] == digests[1] != digests[2]
    report = tmp_path / "eigen.json"
    report.write_text('{"wall_time_s": 1}', encoding="utf-8")
    # any other file is hashed as written
    assert tool._digest(report) == hashlib.sha256(report.read_bytes()).hexdigest()
