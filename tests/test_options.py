"""Every parameter of gibbsflow takes more than one value in the program.

A parameter that takes one value wherever the program runs is a constant,
not an option.  Three checks say so:

- every defaulted parameter is set by some call, else its default is the
  one value;
- every default is used by some call, else the default states a second
  value that nothing reads (the callers' own copy is the one in use);
- no parameter is set to the same constant by every call.

Only the program's own calls count, those in src/, perfbench/ and tools/:
a parameter that only tests set has one value wherever the program runs.
The checks parse the package and every call in those trees, and match
calls to definitions by name: ``f(...)`` and ``obj.f(...)`` call every
function or method named f, and ``Cls(...)`` calls ``Cls.__init__``.  A
call inside a function of the name it calls is recursion, which passes a
parameter on rather than sets it, so it does not count.  The
``__init__`` of a dataclass takes its fields, so a field that ``__init__``
takes is a parameter, and one with a default a defaulted parameter.  A
call may set a parameter when it passes it by keyword or by position, or
passes ``*args`` or ``**kwargs``; it surely sets it only in the first two
ways.
"""

import ast
from pathlib import Path

from conftest import dataclass_fields, parsed

ROOT = Path(__file__).resolve().parents[1]

# (module, callee, parameter) that tests alone may set, with the reason:
#   main(argv)       the console script passes none, so argparse reads
#                    sys.argv; tests pass the arguments
TEST_ONLY = {("cli.py", "main", "argv")}


def _signatures(package: Path = ROOT / "src" / "gibbsflow"):
    """(module, callee name, parameter, position in a call or None for a
    keyword-only one, default node or None) of every parameter of every
    function, method and dataclass in ``package``; ``self`` and ``cls``,
    ``*args`` and ``**kwargs`` are not parameters a call names."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = parsed(path)
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
            defaults = [None] * (len(pos) - len(args.defaults)) + args.defaults
            found += [(path.name, name, arg.arg, k - skip, default)
                      for k, (arg, default) in enumerate(zip(pos, defaults))
                      if k >= skip]
            found += [(path.name, name, arg.arg, None, default)
                      for arg, default in zip(args.kwonlyargs,
                                              args.kw_defaults)]
        found += [(path.name, cls, field, k, default)
                  for cls, field, k, default in dataclass_fields(tree)
                  if k is not None]
    return found


def _options() -> list[tuple[str, str, str, int | None]]:
    """(module, callee name, parameter, position in a call or None for a
    keyword-only one) of every defaulted parameter in the package."""
    return [sig[:4] for sig in _signatures() if sig[4] is not None]


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _calls(tops=(ROOT / "src", ROOT / "perfbench", ROOT / "tools")
           ) -> dict[str, list[ast.Call]]:
    """Every call in the trees ``tops``, by the name it calls, but for the
    calls inside a function of that name."""
    calls: dict[str, list[ast.Call]] = {}
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            tree = parsed(path)
            recursive = {id(node) for fn in ast.walk(tree)
                         if isinstance(fn, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                         for node in ast.walk(fn)
                         if isinstance(node, ast.Call)
                         and _callee(node) == fn.name}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and id(node) not in recursive:
                    calls.setdefault(_callee(node), []).append(node)
    return calls


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """The call may set the parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    return _passed(call, param, position) is not None


def _passed(call: ast.Call, param: str, position: int | None):
    """The node the call surely passes for the parameter, else None."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if position is None:
        return None
    leading = 0   # the positional arguments before any *args
    for a in call.args:
        if isinstance(a, ast.Starred):
            break
        leading += 1
    return call.args[position] if position < leading else None


def _constant(node):
    """(True, value) when the node is a literal, else (False, None)."""
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def test_every_option_is_set_by_some_call():
    options = _options()
    # the scan sees the package: pullback's fields is an option some calls
    # set, and so is _Param's low, a dataclass field with a default
    assert ("system.py", "pullback", "fields", 3) in options
    assert ("cli.py", "_Param", "low", 2) in options
    # a field(init=False) is state that no call can set
    assert not any(o[1:3] == ("EigenData", "memo") for o in options)
    unset = _unset(_signatures(), _calls())
    assert not unset, ("defaulted parameters no call sets; make them "
                       "constants:\n" + "\n".join(unset))


def _unset(signatures, calls) -> list[str]:
    """Defaulted parameters, bar TEST_ONLY, that no program call may set."""
    return [f"{module}: {name}({param})"
            for module, name, param, position, default in signatures
            if default is not None and (module, name, param) not in TEST_ONLY
            and not any(_sets(c, param, position)
                        for c in calls.get(name, []))]


def _unused_defaults(signatures, calls) -> list[str]:
    """Defaulted parameters that every program call surely sets."""
    return [f"{module}: {name}({param})"
            for module, name, param, position, default in signatures
            if default is not None
            and all(_passed(c, param, position) is not None
                    for c in calls.get(name, []))]


def _one_constant(signatures, calls) -> list[str]:
    """Parameters that every program call, of at least one, sets to the same
    literal."""
    found = []
    for module, name, param, position, _ in signatures:
        passed = [_passed(c, param, position) for c in calls.get(name, [])]
        if not passed or any(node is None for node in passed):
            continue
        values = [_constant(node) for node in passed]
        if all(ok for ok, _ in values) and len(
                {repr(v) for _, v in values}) == 1:
            found.append(f"{module}: {name}({param}={values[0][1]!r})")
    return found


def test_every_default_is_used_by_some_call():
    signatures = _signatures()
    calls = _calls()
    unused = _unused_defaults(signatures, calls)
    assert not unused, ("defaults no call uses; delete them, the callers' "
                        "values are the ones in use:\n" + "\n".join(unused))


def test_no_parameter_is_one_constant_in_every_call():
    signatures = _signatures()
    calls = _calls()
    constant = _one_constant(signatures, calls)
    assert not constant, ("parameters every call sets to one value; make "
                          "them that behaviour:\n" + "\n".join(constant))


def test_the_checks_see_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def g(x, flag=False):\n    pass\n"
        "def h(e, var=0):\n    return h(e, var + 1)\n"
        "f(0, b=3)\nf(1, 4)\nf(*args)\ng(5, True)\ng(6, flag=True)\nh(e)\n",
        encoding="utf-8")
    signatures, calls = _signatures(tmp_path), _calls([tmp_path])
    # f's b is passed by keyword, by position and maybe through *args; c
    # only maybe, through *args; g's flag is passed in every call, as True
    # each time; h's var is passed only by h's call of itself
    assert _unset(signatures, calls) == ["m.py: h(var)"]
    assert _unused_defaults(signatures, calls) == ["m.py: g(flag)"]
    assert _one_constant(signatures, calls) == ["m.py: g(flag=True)"]
