"""Span tracer installed around gibbsflow's public functions from outside.

Each wrapped call records one span: name, start, end (``time.process_time``),
parent span, and a work count (points, samples, matvecs or iterations,
depending on the layer).  Spans stay in flat in-memory arrays and are written
out once, at the end of the run.

``gibbsflow`` modules import names directly (``from .system import
branch_chain``), so a function is replaced on every module that binds it.
Methods are replaced on their class.  Expression evaluation is traced by
wrapping the callables ``compile_expr`` returns where ``system`` and
``flow`` bind it, so it must be installed before any system is built.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer name, defining module, attribute path, work counted per call)
# work: "points" = size of the evaluation points, "count" = the count
# argument, "n" = number of operator applications, "iterations" = power
# iterations read from the returned EigenData, None = no work count.
LAYERS = [
    ("system.branch_chain", "system", "branch_chain", ("points", 2, "y")),
    ("system.inverse_branch", "system", "MarkovSystem.inverse_branch",
     ("points", 2, "y")),
    ("system.cylinders", "system", "cylinders", None),
    ("system.validate", "system", "validate", None),
    ("system.MarkovSystem.apply_T", "system", "MarkovSystem.apply_T",
     ("points", 1, "x")),
    ("operator.transfer_matrix", "operator", "transfer_matrix", None),
    ("operator.eigendata", "operator", "eigendata", ("iterations",)),
    ("operator.apply_L", "operator", "apply_L", ("n", 3, "n")),
    ("operator.norm_b", "operator", "norm_b", None),
    ("operator.deep_apply", "operator", "deep_apply", None),
    ("operator.GridFunction.eval", "operator", "GridFunction.eval",
     ("points", 1, "x")),
    ("gibbs.gibbs_audit", "gibbs", "gibbs_audit", None),
    ("gibbs.sample_mu", "gibbs", "sample_mu", ("count", 2, "count")),
    ("uni.a_sequence", "uni", "a_sequence", None),
    ("uni.b_sequence", "uni", "b_sequence", None),
    ("uni.check_uni", "uni", "check_uni", None),
    ("uni.coboundary_test", "uni", "coboundary_test", None),
    ("uni.uni_from_transversality", "uni", "uni_from_transversality", None),
    ("dolgopyat.cone_iteration", "dolgopyat", "cone_iteration", None),
    ("dolgopyat.build_bump", "dolgopyat", "build_bump", None),
    ("dolgopyat.l1_contraction", "dolgopyat", "l1_contraction", None),
    ("dolgopyat.norm_contraction_sweep", "dolgopyat",
     "norm_contraction_sweep", None),
    ("flow.sample_flow_measure", "flow", "sample_flow_measure",
     ("count", 2, "count")),
    ("flow.evolve_many", "flow", "evolve_many", ("points", 1, "xs")),
    ("flow.correlation", "flow", "correlation", None),
    ("cli.run", "cli", "run", None),
]
EXPR_EVAL = "expr.eval"
RESIDUAL_CHECK = "trace.residual_check"   # tracer overhead, not a layer


# layer -> (metrics reported for it, workloads on which it must see calls)
LAYER_METRICS = {
    "expr.eval": (("calls", "points_per_call", "self_cpu_s"),
                  ("deep-words", "flow-mixing")),
    "system.branch_chain": (("calls", "points_per_call", "self_cpu_s"),
                            ("deep-words", "wide-grid")),
    "system.inverse_branch": (
        ("calls", "points_per_call", "self_cpu_s", "max_residual"),
        ("deep-words", "wide-grid", "flow-mixing")),
    "system.cylinders": (("self_cpu_s",), ("deep-words",)),
    "system.validate": (("self_cpu_s",), ("deep-words",)),
    "system.MarkovSystem.apply_T": (("points",), ("flow-mixing",)),
    "operator.transfer_matrix": (("calls", "self_cpu_s"), ("wide-grid",)),
    "operator.eigendata": (("calls", "self_cpu_s", "iterations"),
                           ("wide-grid",)),
    "operator.apply_L": (("matvecs", "self_cpu_s"), ("wide-grid",)),
    "operator.norm_b": (("self_cpu_s",), ("wide-grid",)),
    "operator.deep_apply": (("calls", "self_cpu_s"), ("wide-grid",)),
    "operator.GridFunction.eval": (("calls", "points_per_call", "self_cpu_s"),
                                   ("flow-mixing", "wide-grid")),
    "gibbs.gibbs_audit": (("self_cpu_s",), ("deep-words",)),
    "gibbs.sample_mu": (("calls", "samples", "self_cpu_s"), ("flow-mixing",)),
    **{f"uni.{f}": (("self_cpu_s",), ("deep-words",))
       for f in ("a_sequence", "b_sequence", "check_uni", "coboundary_test",
                 "uni_from_transversality")},
    **{f"dolgopyat.{f}": (("self_cpu_s",), ("wide-grid",))
       for f in ("cone_iteration", "build_bump", "l1_contraction",
                 "norm_contraction_sweep")},
    "flow.sample_flow_measure": (("self_cpu_s", "accept_ratio"),
                                 ("flow-mixing",)),
    "flow.evolve_many": (("self_cpu_s",), ("flow-mixing",)),
    "flow.correlation": (("self_cpu_s",), ("flow-mixing",)),
    "cli.run": (("self_cpu_s",), ("deep-words", "wide-grid", "flow-mixing")),
}
UNITS = {"calls": "count", "points_per_call": "points", "self_cpu_s": "s",
         "max_residual": "abs", "points": "points", "iterations": "count",
         "matvecs": "count", "samples": "count", "accept_ratio": "ratio"}


def layer_metrics(summary: dict) -> dict:
    """{metric name: (value, unit)} for every layer metric, from ``summary()``."""
    metrics = {}
    for layer, (fields, _) in LAYER_METRICS.items():
        s = summary[layer]
        for f in fields:
            if f == "calls":
                v = s["calls"]
            elif f == "points_per_call":
                v = s["work"] / s["calls"] if s["calls"] else 0.0
            elif f in ("points", "iterations", "matvecs", "samples"):
                v = s["work"]
            else:  # self_cpu_s, max_residual, accept_ratio
                v = s[f]
            metrics[f"{layer}.{f}"] = (v, UNITS[f])
    return metrics


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.max_residual = 0.0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.process_time()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None, after=None):
        nid = self._id(name)
        kind = work[0] if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if kind == "points":
                self.work[idx] = np.size(_arg(args, kwargs, work[1], work[2], 1))
            elif kind in ("count", "n"):
                self.work[idx] = _arg(args, kwargs, work[1], work[2], 1)
            elif kind == "iterations":
                self.work[idx] = result.iterations
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _check_inverse(self, args, kwargs, z):
        """|T_i(z) - y| from outside, timed as tracer overhead."""
        idx = self._open(self._id(RESIDUAL_CHECK))
        try:
            sys_, i = args[0], _arg(args, kwargs, 1, "i")
            y = _arg(args, kwargs, 2, "y")
            T = sys_._T[i]
            T = getattr(T, "__wrapped__", T)
            res = float(np.max(np.abs(T(x=z) - np.asarray(y, dtype=float)),
                               initial=0.0))
            self.max_residual = max(self.max_residual, res)
        finally:
            self._close(idx)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer on every binding inside the gibbsflow package."""
        pkg = {name: mod for name, mod in list(sys.modules.items())
               if name == "gibbsflow" or name.startswith("gibbsflow.")}
        for name, modname, path, work in LAYERS:
            mod = pkg["gibbsflow." + modname]
            after = self._check_inverse if name == "system.inverse_branch" else None
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth), work, after))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig, work, after)
            for m in pkg.values():
                if getattr(m, path, None) is orig:
                    self._set(m, path, wrapped)
        orig_compile = pkg["gibbsflow.expr"].compile_expr
        work = ("points", 99, "x")   # compiled expressions take keywords only

        def compile_traced(e):
            return self.wrap(EXPR_EVAL, orig_compile(e), work)

        for modname in ("system", "flow"):
            self._set(pkg["gibbsflow." + modname], "compile_expr", compile_traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "work": np.frombuffer(self.work).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per layer: calls, work, and self CPU time (duration minus the
        durations of child spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        work = np.bincount(a["name_id"], weights=a["work"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_t, minlength=k)
        out = {name: {"calls": int(calls[i]), "work": float(work[i]),
                      "self_cpu_s": float(self_s[i])}
               for i, name in enumerate(self.names)}
        # samples kept by sample_flow_measure / samples drawn from sample_mu
        # on its behalf
        flow_id = self._ids.get("flow.sample_flow_measure")
        mu_id = self._ids.get("gibbs.sample_mu")
        drawn = 0.0
        if flow_id is not None and mu_id is not None:
            is_mu = (a["name_id"] == mu_id) & has_parent
            under_flow = a["name_id"][a["parent"][is_mu]] == flow_id
            drawn = float(a["work"][is_mu][under_flow].sum())
        kept = out.get("flow.sample_flow_measure", {}).get("work", 0.0)
        out["flow.sample_flow_measure"]["accept_ratio"] = (
            kept / drawn if drawn else 0.0)
        out["system.inverse_branch"]["max_residual"] = self.max_residual
        return out
