"""The benchmark harness in perfbench/ reaches into gibbsflow by name.

The tracer wraps module-level functions and methods by their names, and the
probes import names from gibbsflow modules.  A rename in gibbsflow breaks
the benchmark without failing any other test, so both bindings are checked
here: the tracer installs and uninstalls cleanly on the loaded package, and
every name the probes import exists.  Both also read the compiled T_i and
r_i through ``MarkovSystem._T`` and ``_r``; those reads are checked against
the system's pieces, and a traced solve against the expression spans the
gates need.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import gibbsflow.cli  # noqa: F401  (loads every module the tracer wraps)
from conftest import NL_DOUBLING, system
from gibbsflow.system import system_from_config

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(layer_module: str, path: str):
    owner = importlib.import_module("gibbsflow." + layer_module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    layers = [(modname, path) for _, modname, path, _ in tracer.LAYERS]
    originals = [_binding(m, p) for m, p in layers]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [_binding(m, p) for m, p in layers]
    finally:
        t.uninstall()
    for (m, p), orig, new in zip(layers, originals, wrapped):
        assert new is not orig, f"{m}.{p} was not wrapped"
        assert new.__wrapped__ is orig
    assert [_binding(m, p) for m, p in layers] == originals
    assert set(tracer.LAYER_METRICS) <= (
        {name for name, *_ in tracer.LAYERS} | {tracer.EXPR_EVAL})


def test_every_name_the_probes_import_exists():
    tree = ast.parse((ROOT / "perfbench" / "probes.py").read_text(
        encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("gibbsflow")
               for alias in node.names]
    assert ("gibbsflow.system", "cylinders") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"perfbench/probes.py imports missing names: {missing}"


def test_the_private_reads_give_the_pieces_values():
    # the tracer's residual check reads sys._T[i], probe.roof_expr_1pt
    # times sys._r[0](x=0.3)
    for sys in (system("SYS-B"), system("NL-DOUBLING")):
        for i in range(sys.m):
            z = sys.inverse_branch(i, np.linspace(*sys.image_interval(i), 257))
            assert sys._T[i](x=z).tobytes() == sys.T[i].value(x=z).tobytes()
        assert (np.float64(sys._r[0](x=0.3)).tobytes()
                == np.float64(sys.r[0].value(x=0.3)).tobytes())


def test_a_traced_solve_records_expression_spans():
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        sys = system_from_config(NL_DOUBLING)
        sys.inverse_branch(0, np.linspace(*sys.image_interval(0), 64))
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary[tracer.EXPR_EVAL]["calls"] > 0
    assert summary["system.inverse_branch"]["calls"] == 1
    # the residual check ran on the unwrapped T_i, outside expr.eval
    assert t.max_residual < 1e-13
    a = t.arrays()
    check = t.names.index(tracer.RESIDUAL_CHECK)
    expr = t.names.index(tracer.EXPR_EVAL)
    assert np.any(a["name_id"] == check)
    child = a["parent"] >= 0
    parent_id = a["name_id"][a["parent"][child]]
    assert not np.any((a["name_id"][child] == expr) & (parent_id == check))
