"""Every defaulted parameter of gibbsflow is set by some call of the program.

A parameter with a default that no call sets has one value in use, so it is
a constant, not an option.  Only the program's own calls count, those in
src/ and perfbench/: a parameter that only tests set has one value wherever
the program runs.  The check parses the package and every call in those trees,
and matches calls to definitions by name: ``f(...)`` and ``obj.f(...)``
call every function or method named f, and ``Cls(...)`` calls
``Cls.__init__``; the ``__init__`` of a dataclass takes its fields, so a
field with a default that ``__init__`` takes is a defaulted parameter too.
A call sets a parameter when it passes it by keyword or
by position, or passes ``*args`` or ``**kwargs``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, callee, parameter) that tests alone may set, with the reason:
#   main(argv)       the console script passes none, so argparse reads
#                    sys.argv; tests pass the arguments
#   cone_iteration(base_n, v_nodes_per_b), check_uni(grid)
#                    tier-1 shrinks these grids to keep its runtime down;
#                    the CLI runs at the defaults
TEST_ONLY = {("cli.py", "main", "argv"),
              ("dolgopyat.py", "cone_iteration", "base_n"),
              ("dolgopyat.py", "cone_iteration", "v_nodes_per_b"),
              ("uni.py", "check_uni", "grid")}


def _options() -> list[tuple[str, str, str, int | None]]:
    """(module, callee name, parameter, position in a call or None for a
    keyword-only one) of every defaulted parameter in the package."""
    found = []
    for path in sorted((ROOT / "src" / "gibbsflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {fn: cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = int(cls is not None and not static)  # self is not passed
            name = cls.name if cls is not None and fn.name == "__init__" \
                else fn.name
            args = fn.args
            pos = args.posonlyargs + args.args
            for k in range(len(pos) - len(args.defaults), len(pos)):
                found.append((path.name, name, pos[k].arg, k - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((path.name, name, arg.arg, None))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                found += [(path.name, cls.name, field, k)
                          for field, k in _dataclass_defaults(cls)]
    return found


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _dataclass_defaults(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(field, position in a call) of every field with a default that the
    dataclass's ``__init__`` takes: ``x: T = v``, or ``field(default=...)``
    or ``field(default_factory=...)``.  A ``field(init=False, ...)`` is
    state, not a parameter.  (The package has no ClassVar, InitVar or
    kw_only field.)"""
    out, position = [], 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id",
                                                   None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        if defaulted:
            out.append((item.target.id, position))
        position += 1
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/ and perfbench/, by the name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_option_is_set_by_some_call():
    options = _options()
    # the scan sees the package: eigendata's N is an option the CLI sets,
    # and so is EigenData's matrix, a dataclass field with a default
    assert ("operator.py", "eigendata", "N", 2) in options
    assert ("operator.py", "EigenData", "matrix", 8) in options
    # a field(init=False) is state that no call can set
    assert not any(o[1:3] == ("EigenData", "_lmat_cache") for o in options)
    calls = _calls()
    unset = [f"{module}: {name}({param})"
             for module, name, param, position in options
             if (module, name, param) not in TEST_ONLY
             and not any(_sets(c, param, position)
                         for c in calls.get(name, []))]
    assert not unset, ("defaulted parameters no call sets; make them "
                       "constants:\n" + "\n".join(unset))
