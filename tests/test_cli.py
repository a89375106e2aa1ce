"""Command-line driver: config validation, exit codes, manifests, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbsflow
from gibbsflow.cli import (ConfigError, MissingManifestError, load_config,
                           main, report_bundle, run)
from gibbsflow.presets import make_preset


def write_cfg(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_unknown_top_level_key_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen", "bogus": 1})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == "/bogus"


def test_unknown_param_rejected_with_pointer(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen",
                   "params": {"nope": 1}})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == "/params/nope"


def test_out_of_range_param_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "cancellation",
                   "params": {"delta": 1.5}})
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("N", [1, 0, -4, 256.5, "256", True, float("nan")])
def test_eigen_N_below_two_or_fractional_rejected(tmp_path, N):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen",
                   "params": {"N": N}})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == "/params/N"
    assert main(["eigen", "--config", p, "--out", str(tmp_path / "o")]) == 1


def test_eigen_N_integral_float_accepted(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen",
                   "params": {"N": 2.0}})
    assert load_config(p)["params"]["N"] == 2.0


def test_malformed_json_is_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_main_returns_1_on_config_error(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen", "bogus": 1})
    assert main(["eigen", "--config", p, "--out", str(tmp_path / "o")]) == 1


def test_validate_success_writes_manifest(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "validate.json").read_text())
    assert rep["lambda"] == pytest.approx(2.0)
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["experiment"] == "validate"
    assert len(man["config_hash"]) == 64
    assert "validate.json" in man["outputs"]
    assert man["wall_time_s"] >= 0


def test_validate_audit_failure_exits_2(tmp_path):
    cfg = make_preset("SYS-A").to_config()
    cfg["roof"] = ["3/2", "3/2"]  # violates sup r <= 1
    p = write_cfg(tmp_path / "c.json",
                  {"system": cfg, "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 2
    rep = json.loads((out / "validate.json").read_text())
    assert not rep["ok"]
    assert any("roof" in m for m in rep["messages"])


def test_preset_flag_overrides_config_system(tmp_path):
    cfg = make_preset("SYS-B").to_config()
    p = write_cfg(tmp_path / "c.json",
                  {"system": cfg, "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out), preset="SYS-A") == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["system"] == "SYS-A"


def test_env_seed_overrides_config_seed(tmp_path, monkeypatch):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate", "seed": 3})
    monkeypatch.setenv("GIBBSFLOW_SEED", "99")
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["seed"] == 99


def test_eigen_report(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen",
                   "params": {"sigma": 0.0, "N": 256}})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "eigen.json").read_text())
    assert rep["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert rep["residual"] <= 1e-8
    assert (out / "f.csv").read_text().startswith("element_index,node_x,")


def test_partition_csv_deterministic(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "partition",
                   "params": {"b": 512, "Delta": 1.0}})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(p, out_dir=str(out)) == 0
        outs.append((out / "partition.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cohomology_report(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "cohomology"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "cohomology.json").read_text())
    assert rep["cohomologous"] is True


def test_contraction_constant_roof_short_circuits(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "contraction"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "contraction.json").read_text())
    assert rep["no_contraction"] == "constant_roof_detected"


def test_cancellation_constant_roof_short_circuits(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A-LINROOF", "experiment": "cancellation"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "cancellation.json").read_text())
    assert rep["no_contraction"] == "constant_roof_detected"


def test_uni_report_and_exit(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "uni",
                   "params": {"n_max": 4, "grid": 64}})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "uni.json").read_text())
    assert len(rep["a"]) == 4
    assert all(v <= 1 + 1e-8 for v in rep["a"])
    lines = (out / "ab_sequences.csv").read_text().splitlines()
    assert lines[0] == "n,a,b"
    assert len(lines) == 5


def test_bundle_summarizes_trichotomy(tmp_path):
    for preset, exp, name in (("SYS-A", "cohomology", "r1"),
                              ("SYS-A", "contraction", "r2"),
                              ("SYS-B", "uni", "r3")):
        p = write_cfg(tmp_path / f"{name}.json",
                      {"preset": preset, "experiment": exp,
                       "params": ({"n_max": 4, "grid": 64}
                                  if exp == "uni" else {})})
        assert run(p, out_dir=str(tmp_path / name)) == 0
    bundle = report_bundle([str(tmp_path / n) for n in ("r1", "r2", "r3")],
                           out_dir=str(tmp_path / "bundle"))
    table = bundle["table"]
    assert table["cohomologous"] is True
    assert table["no_contraction"] == "constant_roof_detected"
    assert table["a_trend"] in ("constant_one", "decreasing")
    assert (tmp_path / "bundle" / "bundle.json").exists()


def test_bundle_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(MissingManifestError):
        report_bundle([str(tmp_path / "empty")])
    with pytest.raises(MissingManifestError):
        report_bundle([])


def test_console_script_entry_point(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate"})
    # the child imports the same gibbsflow as this process, however pytest
    # put it on the path
    src = str(Path(gibbsflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsflow.cli", "validate", "--config", p,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0


def test_unknown_experiment_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "frobnicate"})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == "/experiment"
