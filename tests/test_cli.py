"""Command-line driver: config validation, exit codes, manifests, reports."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import NL_DOUBLING, preset_config
import gibbsflow
import gibbsflow.cli as cli
from gibbsflow.cli import (ConfigError, MissingManifestError, load_config,
                           main, report_bundle, run)


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


# (experiment, integer parameter, least accepted value)
INT_PARAMS = [("gibbs-audit", "depth", 1), ("uni", "n", 1), ("uni", "n_max", 1),
              ("uni", "grid", 1), ("cancellation", "m_max", 1),
              ("correlate", "t_points", 4), ("correlate", "samples", 32),
              ("cohomology", "J_trunc", 1)]


@pytest.mark.parametrize("exp,name,low", INT_PARAMS)
@pytest.mark.parametrize("shift", [-1, 0.5])
def test_integer_param_below_floor_or_fractional_rejected(tmp_path, exp, name,
                                                          low, shift):
    # at low - 1 uni ran with empty a(n), cancellation passed on an empty
    # trace and correlate failed with IndexError; depth 2.5 ran depth 2
    def cfg(value):
        return write_cfg(tmp_path / "c.json",
                         {"preset": "SYS-B", "experiment": exp,
                          "params": {name: value}})

    assert load_config(cfg(float(low)))["params"][name] == low
    p = cfg(low + shift)
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == f"/params/{name}"
    out = tmp_path / "o"
    assert main([exp, "--config", p, "--out", str(out)]) == 1
    assert not out.exists()


NONFINITE = [float("nan"), float("inf"), float("-inf")]

# every call of cli that builds a system or computes: a config refused by
# the parameter table reaches none of them
WORK = ("make_preset", "system_from_config", "validate", "eigendata",
        "gibbs_audit", "adapted_partition", "count_words", "a_sequence",
        "b_sequence", "check_uni", "uni_from_transversality",
        "coboundary_test", "cone_iteration", "l1_contraction",
        "norm_contraction_sweep", "correlation")

# (experiment, parameter) of every numeric parameter in the table
NUMERIC = [(exp, name) for exp, entry in cli._EXPERIMENTS.items()
           for name, spec in entry.params.items() if spec.kind != "expr"]


def _refused_before_any_work(tmp_path, monkeypatch, capsys, exp, params,
                             pointer, work, system=None):
    """Run ``exp`` with ``params`` on SYS-B, or on the system block
    ``system``: it must exit 1 naming ``pointer``, before any of the cli
    names ``work`` is called."""
    called = []
    for name in work:
        monkeypatch.setattr(cli, name,
                            lambda *a, name=name, **k: called.append(name))
    where = {"preset": "SYS-B"} if system is None else {"system": system}
    p = write_cfg(tmp_path / "c.json",
                  {**where, "experiment": exp, "params": params})
    out = tmp_path / "o"
    assert main([exp, "--config", p, "--out", str(out)]) == 1
    assert pointer in capsys.readouterr().err
    assert called == []
    assert not out.exists()
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == pointer


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("exp,name", NUMERIC)
def test_non_finite_param_refused_before_any_work(tmp_path, monkeypatch,
                                                  capsys, exp, name, value):
    # every comparison with NaN is false, so NaN passed every range check:
    # sigma NaN ran 100,000 power steps before NoConvergenceError, and
    # cohomology's tol NaN reported SYS-A-LINROOF not cohomologous
    floats = cli._EXPERIMENTS[exp].params[name].kind == "floats"
    params = {name: [256.0, value] if floats else value}
    _refused_before_any_work(tmp_path, monkeypatch, capsys, exp, params,
                             f"/params/{name}/1" if floats else
                             f"/params/{name}", WORK)


@pytest.mark.parametrize("entry,reason", [
    ("x", "numeric"), (float("nan"), "finite"), (-1.0, ">= 1e-09")])
def test_bad_list_entry_refused_at_its_index(tmp_path, monkeypatch, capsys,
                                             entry, reason):
    # each was refused at the list's pointer, /params/b_list
    _refused_before_any_work(tmp_path, monkeypatch, capsys, "contraction",
                             {"b_list": [256.0, entry]}, "/params/b_list/1",
                             WORK)
    with pytest.raises(ConfigError, match=f"b_list entry must be {reason}"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("exp,name", [("uni", "R"), ("cohomology", "tol"),
                                      ("transversality", "beta"),
                                      ("contraction", "beta"),
                                      ("contraction", "B")])
def test_positive_param_refused_at_zero_and_below(tmp_path, monkeypatch,
                                                  capsys, exp, name, value):
    # R = -1 wrote D_point 0.0 and exited 0; B = 0 ended in
    # ZeroDivisionError
    _refused_before_any_work(tmp_path, monkeypatch, capsys, exp,
                             {name: value}, f"/params/{name}", WORK)


@pytest.mark.parametrize("exp,b", [("transversality", 0.5),
                                   ("cancellation", 0.5),
                                   ("cancellation", 0.9)])
def test_b_below_one_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                             exp, b):
    # the prefix length floor(beta log b) is < 0 there: transversality wrote
    # n1 = -1 and n = 3 beside depth-4 pairs and exited 2; cancellation ran
    # a geometry whose n = n2 - 1 missed its depth-n2 words
    _refused_before_any_work(tmp_path, monkeypatch, capsys, exp, {"b": b},
                             "/params/b", WORK)


@pytest.mark.parametrize("name", ["v", "w"])
def test_expression_param_must_be_a_string(tmp_path, monkeypatch, capsys,
                                           name):
    _refused_before_any_work(tmp_path, monkeypatch, capsys, "correlate",
                             {name: 1}, f"/params/{name}", WORK)


def test_every_default_lies_in_its_bounds():
    for exp, entry in cli._EXPERIMENTS.items():
        for name, spec in entry.params.items():
            if spec.default is not None:
                assert spec.value(name, spec.default, "") == spec.default, \
                    (exp, name)


@pytest.mark.parametrize("Delta", [-1.0, 0.0] + NONFINITE)
@pytest.mark.parametrize("exp", ["partition", "cancellation"])
def test_Delta_not_finite_and_positive_refused(tmp_path, monkeypatch, capsys,
                                               exp, Delta):
    # at Delta = -1 the partition refined every cylinder down to the word
    # cap (depth 21 on SYS-B, 1.3 GB); at NaN it wrote "Delta": NaN, which
    # is not JSON, into partition.json
    _refused_before_any_work(tmp_path, monkeypatch, capsys, exp,
                             {"b": 1024.0, "Delta": Delta}, "/params/Delta",
                             ("eigendata", "adapted_partition",
                              "cone_iteration"))


def test_experiment_contradicting_the_config_refused(tmp_path, monkeypatch,
                                                   capsys):
    # `gibbsflow validate --config c.json` ran the config's eigen
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen"})
    called = []
    for name in WORK:
        monkeypatch.setattr(cli, name,
                            lambda *a, name=name, **k: called.append(name))
    out = tmp_path / "o"
    assert main(["validate", "--config", p, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "/experiment" in err and "'eigen'" in err
    assert called == []
    assert not out.exists()


# paths opened for writing, recorded by an audit hook while "paths" is a
# list; the hook is added once, since an audit hook cannot be removed.
# Bytecode caches that an import writes are not the program's files.
_WRITES = {"hooked": False, "paths": None}


def _audit_writes(event, args):
    paths = _WRITES["paths"]
    if paths is not None and event == "open" \
            and isinstance(args[0], (str, bytes)) \
            and args[2] & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
        path = Path(os.path.abspath(os.fsdecode(args[0])))
        if path.parent.name != "__pycache__":
            paths.append(path)


@pytest.fixture
def writes():
    """The paths the test opens for writing, as it runs."""
    if not _WRITES["hooked"]:
        sys.addaudithook(_audit_writes)
        _WRITES["hooked"] = True
    _WRITES["paths"] = []
    yield _WRITES["paths"]
    _WRITES["paths"] = None


@pytest.mark.parametrize("exp", ["validate", "cohomology"])
def test_preset_without_config_writes_only_its_reports(tmp_path, monkeypatch,
                                                       writes, exp):
    # the run used to write its config {"experiment": exp} to a temporary
    # file; it writes nothing outside --out and hashes the same config
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bare"
    assert main([exp, "--preset", "SYS-B", "--out", str(out)]) == 0
    assert writes and all(w.parent == out for w in writes), writes
    p = write_cfg(tmp_path / "c.json", {"experiment": exp})
    assert main([exp, "--config", p, "--preset", "SYS-B",
                 "--out", str(tmp_path / "file")]) == 0
    manifests = [json.loads((tmp_path / d / "run_manifest.json").read_text())
                 for d in ("bare", "file")]
    for m in manifests:
        del m["wall_time_s"]
    assert manifests[0] == manifests[1]
    assert manifests[0]["system"] == "SYS-B"


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
    cfg = preset_config("SYS-A")
    cfg["roof"] = ["3/2", "3/2"]  # violates sup r <= 1
    p = write_cfg(tmp_path / "c.json",
                  {"system": cfg, "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 2
    rep = json.loads((out / "validate.json").read_text())
    assert not rep["ok"]
    assert any("roof" in m for m in rep["messages"])


def test_validate_non_monotone_branch_exits_2(tmp_path):
    cfg = preset_config("SYS-A")
    cfg["branches"][0]["expr"] = "8*x*(1-2*x)"
    p = write_cfg(tmp_path / "c.json",
                  {"system": cfg, "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 2

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    rep = json.loads((out / "validate.json").read_text(),
                     parse_constant=refuse)
    assert not rep["ok"]
    assert "branch 0 is not monotone" in rep["messages"]
    assert rep["C2"] is None


@pytest.mark.parametrize("preset,nulls", [
    ("SYS-A", {"Delta"}),  # C7 = 0: Delta is infinite
    ("SYS-C-NLROOF", {"worst_margin"}),  # no pair tested: no margin
])
def test_transversality_writes_null_for_a_value_that_is_not_finite(
        tmp_path, preset, nulls):
    out = tmp_path / "out"
    assert run({"experiment": "transversality", "preset": preset},
               out_dir=str(out)) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    rep = json.loads((out / "transversality.json").read_text(),
                     parse_constant=refuse)
    assert rep["no_pair_everywhere"]
    assert {k for k, v in rep.items() if v is None} == nulls


def test_write_json_refuses_nan(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"x": float("nan")})
    assert not (tmp_path / "x.json").exists()
    # a handler's non-finite value is an operational error, not a report
    entry = cli._EXPERIMENTS["validate"]
    monkeypatch.setitem(cli._EXPERIMENTS, "validate", entry._replace(
        handler=lambda *args: (True, {"x": float("inf")})))
    out = tmp_path / "out"
    assert main(["validate", "--preset", "SYS-B", "--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not (out / "validate.json").exists()


def test_preset_flag_overrides_config_system(tmp_path):
    cfg = preset_config("SYS-B")
    p = write_cfg(tmp_path / "c.json",
                  {"system": cfg, "experiment": "validate"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out), preset="SYS-A") == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["system"] == "SYS-A"


def _malformed(edit):
    """SYS-B's system block with ``edit`` applied to it."""
    block = preset_config("SYS-B")
    edit(block)
    return block


# (system block, the pointer its refusal names)
MALFORMED_SYSTEMS = {
    "not an object": (["partition"], "/system"),
    "missing branches": ({"partition": [0, 1]}, "/system/branches"),
    "missing roof": (_malformed(lambda b: b.pop("roof")), "/system/roof"),
    "unknown key": (_malformed(lambda b: b.update(maps=[])), "/system/maps"),
    "branches a string": (_malformed(lambda b: b.update(branches="2*x")),
                          "/system/branches"),
    "partition a string": (_malformed(lambda b: b.update(partition="0,1")),
                           "/system/partition"),
    "breakpoint a string": (
        _malformed(lambda b: b["partition"].__setitem__(1, "1/2")),
        "/system/partition/1"),
    "expr a number": (
        _malformed(lambda b: b["branches"][1].update(expr=2)),
        "/system/branches/1/expr"),
    "branch without image": (
        _malformed(lambda b: b["branches"][0].pop("image")),
        "/system/branches/0"),
    "image index fractional": (
        _malformed(lambda b: b["branches"][0].update(image=[0, 1.5])),
        "/system/branches/0/image/1"),
    "image of three": (
        _malformed(lambda b: b["branches"][0].update(image=[0, 1, 2])),
        "/system/branches/0/image"),
    "roof entry a number": (
        _malformed(lambda b: b["roof"].__setitem__(0, 1)), "/system/roof/0"),
    "roof entry unbalanced": (
        _malformed(lambda b: b["roof"].__setitem__(0, "(2+cos(2*pi*x)/3")),
        "/system/roof/0"),
    "expr unbalanced": (
        _malformed(lambda b: b["branches"][1].update(expr="2*x-1)")),
        "/system/branches/1/expr"),
    # u is a variable of the flow's observables, not of the map
    "potential entry in u": (
        _malformed(lambda b: b["potential"].__setitem__(1, "u")),
        "/system/potential/1"),
    "alpha NaN": (_malformed(lambda b: b.update(alpha=float("nan"))),
                  "/system/alpha"),
    "alpha zero": (_malformed(lambda b: b.update(alpha=0)), "/system/alpha"),
    "roof of three": (_malformed(lambda b: b["roof"].append("1")),
                      "/system/roof"),
    "potential of one": (_malformed(lambda b: b["potential"].pop()),
                         "/system/potential"),
    "branches of three": (
        _malformed(lambda b: b["branches"].append(b["branches"][0])),
        "/system/branches"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SYSTEMS))
def test_malformed_system_block_refused_before_any_work(tmp_path, monkeypatch,
                                                        capsys, case):
    block, pointer = MALFORMED_SYSTEMS[case]
    _refused_before_any_work(tmp_path, monkeypatch, capsys, "validate", {},
                             pointer, WORK, system=block)


@pytest.mark.parametrize("name,text", [("v", "cos(2*pi*u"),
                                       ("w", "x+y"), ("v", "2**x")])
def test_malformed_observable_refused_before_any_work(tmp_path, monkeypatch,
                                                      capsys, name, text):
    # it was parsed only by the flow's sampler, after the eigendata, and
    # exited 1 with "ParseError: expected ')' at offset 11", no pointer
    _refused_before_any_work(tmp_path, monkeypatch, capsys, "correlate",
                             {name: text}, f"/params/{name}", WORK)


def test_well_formed_system_blocks_admitted(tmp_path):
    # every preset's block and NL-DOUBLING's, written out, run validate
    blocks = [preset_config(name) for name in cli.PRESETS]
    for k, block in enumerate(blocks + [NL_DOUBLING]):
        p = write_cfg(tmp_path / f"c{k}.json",
                      {"system": block, "experiment": "validate"})
        assert run(p, out_dir=str(tmp_path / f"o{k}")) == 0


def test_a_config_is_checked_once(tmp_path, monkeypatch):
    # main checked a config in load_config and again in run, parsing each
    # of SYS-C-NLROOF's 9 expressions twice; run(path) did the same
    p = write_cfg(tmp_path / "c.json", {"system": preset_config("SYS-C-NLROOF"),
                                        "experiment": "validate"})
    parsed = []
    parse = cli.parse
    monkeypatch.setattr(cli, "parse", lambda *a: parsed.append(a) or parse(*a))
    for go in (lambda: main(["validate", "--config", p, "--out",
                             str(tmp_path / "main")]),
               lambda: run(p, out_dir=str(tmp_path / "run"))):
        parsed.clear()
        assert go() == 0
        assert len(parsed) == 9


def test_env_seed_overrides_config_seed(tmp_path, monkeypatch):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate", "seed": 3})
    monkeypatch.setenv("GIBBSFLOW_SEED", "99")
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["seed"] == 99


@pytest.mark.parametrize("seed", [2.7, True, -1, "5", None, 1e400])
def test_seed_not_an_integer_at_least_zero_rejected(tmp_path, seed):
    # 2.7 ran correlate with seed 2 and true with seed 1; -1 passed
    # validate and failed correlate with a bare ValueError
    p = tmp_path / "c.json"
    p.write_text('{"preset": "SYS-A", "experiment": "validate", "seed": %s}'
                 % json.dumps(seed), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert exc.value.pointer == "/seed"
    assert main(["validate", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("env", ["abc", "2.7", "-1", "true", "nan", ""])
def test_env_seed_not_an_integer_at_least_zero_rejected(tmp_path, monkeypatch,
                                                        capsys, env):
    # abc exited 1 with "ValueError: invalid literal"
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate"})
    monkeypatch.setenv("GIBBSFLOW_SEED", env)
    with pytest.raises(ConfigError) as exc:
        run(p, out_dir=str(tmp_path / "o"))
    assert exc.value.pointer == "/seed"
    assert main(["validate", "--config", p, "--out", str(tmp_path / "o")]) == 1
    assert "error: GIBBSFLOW_SEED must be" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "env"])
def test_integral_float_seed_accepted(tmp_path, monkeypatch, where):
    cfg = {"preset": "SYS-A", "experiment": "validate"}
    if where == "config":
        cfg["seed"] = 5.0
    else:
        monkeypatch.setenv("GIBBSFLOW_SEED", "5.0")
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path / "c.json", cfg), out_dir=str(out)) == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["seed"] == 5 and isinstance(man["seed"], int)


def test_eigen_report(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "eigen",
                   "params": {"sigma": 0.0, "N": 256}})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "eigen.json").read_text())
    assert rep["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert rep["residual"] <= 1e-8
    assert rep["partition"] == [0.0, 0.5, 1.0]
    f = np.load(out / "f.npy", allow_pickle=False)
    assert f.dtype == np.float64 and f.shape == (2, 256)
    assert sorted(path.name for path in out.iterdir()) == [
        "eigen.json", "f.npy", "run_manifest.json"]


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


def test_partition_refuses_a_depth_past_the_word_cap_up_front(
        tmp_path, monkeypatch, capsys):
    # every depth-22 cylinder of SYS-B is refined, so the walk builds all
    # 2^23 depth-23 words; it used to build levels 1-20 first (13 s, 1.3 GB).
    # Every level of the walk pulls its cylinder ends back in one call.
    import gibbsflow.gibbs as gibbs

    def never(*args, **kwargs):
        raise AssertionError("built a level of cylinders")

    monkeypatch.setattr(gibbs, "cylinder_ends", never)
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "partition",
                   "params": {"b": 1024.0, "Delta": 1e-4}})
    assert main(["partition", "--config", p, "--out",
                 str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "CapExceededError" in err and "depth-23" in err


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
    assert rep["no_contraction"] == "roof_cohomologous_to_locally_constant"


def test_contraction_does_not_depend_on_the_seed(tmp_path, monkeypatch):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "contraction",
                   "params": {"b_list": [64.0, 128.0]}})
    reports = []
    for seed in ("0", "7"):
        monkeypatch.setenv("GIBBSFLOW_SEED", seed)
        out = tmp_path / seed
        assert run(p, out_dir=str(out)) == 0
        reports.append([(out / name).read_bytes()
                        for name in ("contraction.json", "contraction.csv")])
    assert reports[0] == reports[1]


def test_contraction_refuses_b_without_test_functions(tmp_path, capsys):
    # k = floor(log 2) = 0 admits no test function: refused, not reported
    # as ratio 0 and xi_b Infinity, which is not valid JSON
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "contraction",
                   "params": {"b_list": [2.0]}})
    out = tmp_path / "out"
    assert main(["contraction", "--config", p, "--out", str(out)]) == 1
    assert "ConstraintViolationError" in capsys.readouterr().err
    assert not (out / "contraction.json").exists()


def test_contraction_exits_2_with_its_report_when_a_ratio_exceeds_c6(
        tmp_path, monkeypatch):
    # a ratio above the a priori bound C6 is a failed audit, not a crash:
    # the report is written with the ratio and C6, and the exit code is 2
    import gibbsflow.dolgopyat as dg
    monkeypatch.setattr(dg, "c6_bound", lambda eig: 1e-6)
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "contraction",
                   "params": {"b_list": [256.0]}})
    out = tmp_path / "out"
    assert main(["contraction", "--config", p, "--out", str(out)]) == 2
    rep = json.loads((out / "contraction.json").read_text())
    assert rep["C6"] == 1e-6
    [row] = rep["l1_rows"]
    assert 1e-6 < row["ratio"] < 1.0


def test_cancellation_constant_roof_short_circuits(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A-LINROOF", "experiment": "cancellation"})
    out = tmp_path / "out"
    assert run(p, out_dir=str(out)) == 0
    rep = json.loads((out / "cancellation.json").read_text())
    assert rep["no_contraction"] == "roof_cohomologous_to_locally_constant"


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


def test_uni_exits_2_with_its_report_when_a_value_exceeds_one(tmp_path,
                                                             monkeypatch):
    # a(n) above 1 is a failed audit, not a crash: the report is written
    # with the value as computed, and the exit code is 2
    import gibbsflow.uni as uni
    monkeypatch.setattr(uni, "_ab_depth", lambda *args: (1.5, 0.5))
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "uni",
                   "params": {"n_max": 2, "grid": 16}})
    out = tmp_path / "out"
    assert main(["uni", "--config", p, "--out", str(out)]) == 2
    rep = json.loads((out / "uni.json").read_text())
    assert rep["a"] == [1.5, 1.5]
    assert rep["b"] == [0.5, 0.5]


def test_uni_refuses_n_with_too_many_pairs_before_any_work(tmp_path,
                                                          monkeypatch, capsys):
    # SYS-B has 2^8 depth-8 words: 65,536 ordered pairs, above check_uni's cap
    def never(*args, **kwargs):
        raise AssertionError("reached the a(n)/b(n) or eigendata work")

    for name in ("eigendata", "a_sequence", "b_sequence", "check_uni"):
        monkeypatch.setattr(cli, name, never)
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-B", "experiment": "uni",
                   "params": {"n": 8, "n_max": 1, "grid": 8}})
    assert main(["uni", "--config", p, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "/params/n" in err and "65536" in err
    with pytest.raises(ConfigError) as exc:
        run(p, out_dir=str(tmp_path / "o"))
    assert exc.value.pointer == "/params/n"


@pytest.mark.parametrize("system,t_max,refused", [
    ("SYS-B", float("inf"), True),   # not finite
    ("SYS-B", float("nan"), True),
    ("SYS-B", 0.0, True),            # not > 0
    ("SYS-B", -1.0, True),
    ("SYS-B", 1e7, True),            # past the bit bound 53 / 3 = 17.67
    ("SYS-B", 17.7, True),
    ("SYS-B", 17.6, False),
    ("NL-DOUBLING", 12.2, True),     # past 53 / (3 log2(2 + 0.24 pi)) = 12.09
    ("NL-DOUBLING", 12.0, False),
])
def test_correlate_refuses_t_max_before_any_work(tmp_path, monkeypatch,
                                                 capsys, system, t_max,
                                                 refused):
    def never(*args, **kwargs):
        raise AssertionError("reached the eigendata or correlation work")

    for name in ("eigendata", "correlation"):
        monkeypatch.setattr(cli, name, never)
    cfg = {"experiment": "correlate", "params": {"t_max": t_max}}
    cfg.update({"system": NL_DOUBLING} if system == "NL-DOUBLING"
               else {"preset": system})
    p = write_cfg(tmp_path / "c.json", cfg)
    if not refused:
        with pytest.raises(AssertionError, match="reached"):
            run(p, out_dir=str(tmp_path / "o"))
        return
    assert main(["correlate", "--config", p, "--out", str(tmp_path / "o")]) == 1
    assert "/params/t_max" in capsys.readouterr().err
    with pytest.raises(ConfigError) as exc:
        run(p, out_dir=str(tmp_path / "o"))
    assert exc.value.pointer == "/params/t_max"


# a small run of every experiment that passes its audit; cancellation and
# contraction stop at the constant-roof test
CONTRACT_RUNS = {
    "validate": ("SYS-B", {}),
    "eigen": ("SYS-A", {"N": 64}),
    "gibbs-audit": ("SYS-B", {"depth": 3}),
    "partition": ("SYS-B", {"b": 64.0}),
    "uni": ("SYS-B", {"n": 1, "n_max": 2, "grid": 16}),
    "transversality": ("SYS-B", {"b": 64.0}),
    "cohomology": ("SYS-A", {}),
    "cancellation": ("SYS-A-LINROOF", {}),
    "contraction": ("SYS-A", {}),
    "correlate": ("SYS-B", {"t_max": 2.0, "t_points": 5, "samples": 2000}),
}


@pytest.mark.parametrize("exp", sorted(cli._EXPERIMENTS))
def test_run_alone_writes_the_summary_a_handler_returns(tmp_path,
                                                       monkeypatch, exp):
    # a handler writes its data files and returns (passed, summary); run
    # writes the summary to the entry's report, then the manifest
    entry = cli._EXPERIMENTS[exp]
    written, returned = [], []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda path, obj: (
        written.append(Path(path).name), write_json(path, obj)))

    def handler(*args):
        passed, summary = entry.handler(*args)
        assert written == [], "the handler wrote a JSON report"
        returned.append(json.dumps(summary, sort_keys=True, default=float))
        return passed, summary

    monkeypatch.setitem(cli._EXPERIMENTS, exp,
                        entry._replace(handler=handler))
    preset, params = CONTRACT_RUNS[exp]
    out = tmp_path / "out"
    assert run({"experiment": exp, "preset": preset, "params": params},
               out_dir=str(out)) == 0
    assert written == [entry.report, "run_manifest.json"]
    assert sorted(p.name for p in out.glob("*.json")) == sorted(written)
    assert json.loads((out / entry.report).read_text()) == json.loads(
        returned[0])
    assert json.loads((out / "run_manifest.json").read_text())[
        "exit_code"] == 0


@pytest.mark.parametrize("exp", sorted(cli._EXPERIMENTS))
def test_reports_are_byte_identical_across_two_runs(tmp_path, monkeypatch,
                                                    exp):
    # tools/report_digests.py and the benchmark's traced-run check compare
    # report bytes; the second run sees a clock a day later, so a report
    # that records the time (a gzip header, a zip entry by writestr) fails
    preset, params = CONTRACT_RUNS[exp]
    cfg = {"experiment": exp, "preset": preset, "params": params}
    reports = []
    for run_ in range(2):
        if run_:
            now = time.time
            monkeypatch.setattr(time, "time", lambda: now() + 86400.0)
        out = tmp_path / str(run_)
        assert run(cfg, out_dir=str(out)) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("run_manifest.json"))
        manifest.pop("wall_time_s")
        reports.append((files, manifest))
    assert reports[0] == reports[1]


def test_bundle_summarizes_trichotomy(tmp_path):
    for preset, exp, name in (("SYS-A", "cohomology", "r1"),
                              ("SYS-A", "contraction", "r2"),
                              ("SYS-B", "uni", "r3")):
        p = write_cfg(tmp_path / f"{name}.json",
                      {"preset": preset, "experiment": exp,
                       "params": ({"n_max": 4, "grid": 64}
                                  if exp == "uni" else {})})
        assert run(p, out_dir=str(tmp_path / name)) == 0
    report_bundle([str(tmp_path / n) for n in ("r1", "r2", "r3")],
                  out_dir=str(tmp_path / "bundle"))
    table = json.loads((tmp_path / "bundle" / "bundle.json").read_text())[
        "table"]
    assert table["cohomologous"] is True
    assert table["no_contraction"] == "roof_cohomologous_to_locally_constant"
    assert table["a_trend"] in ("constant_one", "decreasing")


def test_bundle_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(MissingManifestError):
        report_bundle([str(tmp_path / "empty")], tmp_path / "bundle")
    with pytest.raises(MissingManifestError):
        report_bundle([], tmp_path / "bundle")


def test_bundle_without_out_writes_gibbsflow_out(tmp_path, monkeypatch):
    # as every experiment writes gibbsflow-out/<experiment>; bundle wrote
    # nothing and exited 0
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate"})
    assert run(p, out_dir=str(tmp_path / "r")) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["bundle", "--runs", str(tmp_path / "r")]) == 0
    bundle = json.loads(
        (tmp_path / "gibbsflow-out" / "bundle" / "bundle.json").read_text())
    assert bundle["runs"] == ["validate"]


def test_config_that_is_not_utf8_refused(tmp_path, capsys):
    # UnicodeDecodeError escaped load_config, and main printed
    # "error: UnicodeDecodeError: ..."
    p = tmp_path / "c.json"
    p.write_bytes(b'{"experiment": "validate", "preset": "SYS-A\xff"}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(str(p))
    out = tmp_path / "o"
    assert main(["validate", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: config file is not UTF-8")
    assert not out.exists()


def _run_child(*args, **env):
    """``python -m gibbsflow.cli *args`` in a child process, with ``env``
    added to its environment; the child imports the same gibbsflow as this
    process, however pytest put it on the path."""
    src = str(Path(gibbsflow.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "gibbsflow.cli", *args], capture_output=True,
        text=True, env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))


def test_console_script_entry_point(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "validate"})
    proc = _run_child("validate", "--config", p, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0


def test_eigen_does_not_depend_on_the_blas_threads(tmp_path):
    # BLAS ddot splits its sum across threads: SYS-C's lambda at N = 4096
    # read 2.246979603717633 on one OpenBLAS thread and 2.2469796037176315
    # on two while eigendata summed by it
    p = write_cfg(tmp_path / "c.json", {"preset": "SYS-C",
                                        "experiment": "eigen",
                                        "params": {"N": 4096}})
    for t in "12":
        proc = _run_child("eigen", "--config", p, "--out", str(tmp_path / t),
                          OMP_NUM_THREADS=t, OPENBLAS_NUM_THREADS=t,
                          MKL_NUM_THREADS=t)
        assert proc.returncode == 0, proc.stderr
    for name in ("eigen.json", "f.npy"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


def test_unknown_experiment_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json",
                  {"preset": "SYS-A", "experiment": "frobnicate"})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.pointer == "/experiment"
