"""The benchmark harness in perfbench/ reaches into gibbsflow by name.

The tracer wraps module-level functions and methods by their names, and the
probes import names from gibbsflow modules.  A rename in gibbsflow breaks
the benchmark without failing any other test, so both bindings are checked
here: the tracer installs and uninstalls cleanly on the loaded package, and
every name the probes import exists.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import gibbsflow.cli  # noqa: F401  (loads every module the tracer wraps)

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
