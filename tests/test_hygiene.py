"""Source hygiene checks over the package's own modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pipetune"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, names inside quoted annotations, and the names
    listed in ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


# Story: a name imported but never used is dead code that hides what a
# module depends on; a quoted annotation (a TYPE_CHECKING import) and a
# re-export through __all__ both count as uses.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# Story: the scan itself finds an unused import, and counts a name used
# only in a quoted annotation as used.
def test_unused_import_scan_sees_both_cases():
    tree = ast.parse(
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .pipeline import Observation\n"
        "def f(obs: 'Observation') -> None: ...\n"
    )
    used = _used_names(tree)
    assert {"TYPE_CHECKING", "Observation"} <= used
    assert "os" not in used
    assert set(_imported_names(tree)) == {"os", "TYPE_CHECKING", "Observation"}


def _dataclasses(tree: ast.Module) -> list[tuple[ast.ClassDef, list[ast.AnnAssign]]]:
    """Each ``@dataclass`` class, with or without decorator arguments and
    through the module, and its annotated fields in order."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            for d in decorators
        ):
            found.append((node, [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]))
    return found


def _dataclass_fields(tree: ast.Module) -> dict[str, int]:
    """Each annotated field of a ``@dataclass`` class, as ``Class.field``,
    with its line number."""
    return {
        f"{cls.name}.{stmt.target.id}": stmt.lineno
        for cls, stmts in _dataclasses(tree)
        for stmt in stmts
    }


def _unread_fields(trees: list[ast.Module]) -> list[str]:
    """The dataclass fields of these modules that none of them reads as an
    attribute (``obj.field`` in a load context)."""
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for tree in trees for name in _dataclass_fields(tree)
        if name.split(".")[1] not in read
    )


# Story: a dataclass field that no module of the package reads is state kept
# for nobody; it is written on every construction and hides what the code
# actually depends on.
def test_no_unread_dataclass_fields():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    unread = _unread_fields(trees)
    assert not unread, f"dataclass fields no module reads: {', '.join(unread)}"


# Story: the scan finds a field never read and a field only ever assigned,
# counts a field read through an attribute, and knows the decorator with or
# without arguments and through the module.
def test_unread_field_scan_sees_both_cases():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    read: int\n"
        "    unread: int = 0\n"
        "@dataclasses.dataclass\n"
        "class Q:\n"
        "    stored: int\n"
        "class NotData:\n"
        "    plain: int\n"
        "def f(p: P, q: Q) -> int:\n"
        "    q.stored = 1\n"
        "    return p.read\n"
    )
    assert set(_dataclass_fields(tree)) == {"P.read", "P.unread", "Q.stored"}
    assert _unread_fields([tree]) == ["P.unread", "Q.stored"]


def _public_members(tree: ast.Module) -> dict[str, int]:
    """Each public method or property of a class, as ``Class.name``, with
    its line number."""
    return {
        f"{node.name}.{stmt.name}": stmt.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
    }


def _unread_members(trees: list[ast.Module]) -> list[str]:
    """The public methods and properties of these modules' classes that none
    of them reads as an attribute."""
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for tree in trees for name in _public_members(tree)
        if name.split(".")[1] not in read
    )


# Story: a public method or property that no module of the package reads is
# an accessor kept for the tests alone, so the tests check code the
# optimizer never runs.
def test_no_unread_public_members():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    unread = _unread_members(trees)
    assert not unread, f"public methods and properties no module reads: {', '.join(unread)}"


# Story: the scan finds a method and a property never read, counts one read
# through an attribute (a call or a property access), and skips private and
# dunder methods and module-level functions.
def test_unread_member_scan_sees_both_cases():
    tree = ast.parse(
        "class Pool:\n"
        "    def __init__(self): ...\n"
        "    def _helper(self): ...\n"
        "    def used(self): ...\n"
        "    def all_entries(self): ...\n"
        "    @property\n"
        "    def depth(self): ...\n"
        "    @property\n"
        "    def width(self): ...\n"
        "def unread_function(): ...\n"
        "def f(p: Pool) -> int:\n"
        "    p.used()\n"
        "    return p.depth\n"
    )
    assert set(_public_members(tree)) == {
        "Pool.used", "Pool.all_entries", "Pool.depth", "Pool.width"
    }
    assert _unread_members([tree]) == ["Pool.all_entries", "Pool.width"]


def _module_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public function and class defined at a module's top level,
    with its line number."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _unread_definitions(trees: list[ast.Module]) -> list[str]:
    """The public module-level functions and classes of these modules that
    none of them reads: by name (an import binds the name, so its uses
    count), as a module attribute, or through ``__all__``."""
    read = set()
    for tree in trees:
        read |= _used_names(tree)
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return sorted(
        name for tree in trees for name in _module_definitions(tree) if name not in read
    )


# Story: a public function or class that no module of the package reads is
# a helper kept for the tests alone (a constructor wrapper that the code no
# longer calls), so the tests check code the optimizer never runs.
def test_no_unread_module_functions():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    unread = _unread_definitions(trees)
    assert not unread, f"module functions and classes no module reads: {', '.join(unread)}"


# Story: the scan finds a function and a class never read, counts a call, a
# read through a module attribute and an ``__all__`` entry, and skips
# private and nested definitions.
def test_unread_definition_scan_sees_both_cases():
    tree = ast.parse(
        "from . import gp\n"
        "__all__ = ['exported']\n"
        "def exported(): ...\n"
        "def called(): ...\n"
        "def wrapper(): ...\n"
        "def _private(): ...\n"
        "class Unread:\n"
        "    def method(self): ...\n"
        "class Built: ...\n"
        "def f():\n"
        "    def nested(): ...\n"
        "    gp.fit()\n"
        "    return called(), Built()\n"
        "def fit(): ...\n"
    )
    assert set(_module_definitions(tree)) == {
        "exported", "called", "wrapper", "Unread", "Built", "f", "fit"
    }
    assert _unread_definitions([tree]) == ["Unread", "f", "wrapper"]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """Each parameter of a function that its body never reads, as
    ``function.parameter``; ``self``, ``cls``, ``*args`` and ``**kwargs``
    are skipped. A read inside a nested function counts."""
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        skipped = read | {"self", "cls"}
        unused += [f"{node.name}.{a.arg}" for a in params if a.arg not in skipped]
    return sorted(unused)


# Story: a parameter that the body never reads makes every caller compute
# and pass a value that changes nothing, and hides what the function
# depends on.
def test_no_unused_parameters():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, f"parameters no body reads: {', '.join(unused)}"


# Story: the scan finds an unused positional and keyword-only parameter,
# counts a read inside a nested function, and skips self, cls, *args and
# **kwargs.
def test_unused_parameter_scan_sees_both_cases():
    tree = ast.parse(
        "def f(a, b, *args, c, d=1, **kwargs):\n"
        "    def inner():\n"
        "        return c\n"
        "    return a + inner()\n"
        "class P:\n"
        "    def m(self, x):\n"
        "        return x\n"
        "    @classmethod\n"
        "    def make(cls, y): ...\n"
    )
    assert _unused_parameters(tree) == ["f.b", "f.d", "make.y"]


def _defaulted_parameters(tree: ast.Module, module: str) -> dict[str, list[tuple]]:
    """Each parameter with a default, of a function or a method, keyed by the
    name that calls it: its own, or its class's for ``__init__``. An entry is
    (``module.function(parameter)``, parameter, position), the position
    counted without a method's ``self`` or ``cls``, and None for a
    keyword-only parameter."""
    found: dict[str, list[tuple]] = {}

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            a = child.args
            positional = a.posonlyargs + a.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            first_default = len(positional) - len(a.defaults)
            params = [(p, i - bound) for i, p in enumerate(positional) if i >= first_default]
            params += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            qualname = child.name if cls is None else f"{cls.name}.{child.name}"
            callee = cls.name if cls is not None and child.name == "__init__" else child.name
            for p, position in params:
                label = f"{module}.{qualname}({p.arg})"
                found.setdefault(callee, []).append((label, p.arg, position))
            visit(child, None)

    visit(tree, None)
    return found


def _calls(tree: ast.Module) -> list[tuple[str, int, set[str], bool]]:
    """Each call as (callee name, positional count, keyword names, whether it
    unpacks ``*args`` or ``**kwargs``); the callee is a called name, after
    any ``import ... as`` alias, or a called attribute's name."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            callee = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        else:
            continue
        unpacks = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        calls.append((callee, len(node.args), {kw.arg for kw in node.keywords}, unpacks))
    return calls


def _unset_defaults(modules: dict[str, ast.Module]) -> list[str]:
    """The defaulted parameters of these modules that no call in them
    overrides, by keyword or by position. A call that unpacks ``*args`` or
    ``**kwargs`` overrides every parameter of its callee."""
    calls = [call for tree in modules.values() for call in _calls(tree)]
    unset = []
    for module, tree in modules.items():
        for callee, params in _defaulted_parameters(tree, module).items():
            for label, name, position in params:
                if not any(
                    unpacks or name in keywords or (position is not None and n_args > position)
                    for called, n_args, keywords, unpacks in calls
                    if called == callee
                ):
                    unset.append(label)
    return sorted(unset)


# Each default that no call in the package overrides, with why it stays.
_UNSET_DEFAULTS_KEPT = {
    "cli.main(argv)": "the console script calls it bare, and tests pass argv",
    "gp.fit(restarts)": (
        "tests compare the lockstep ascent with the sequential oracle at "
        "1, 2, 3 and 10 restarts"
    ),
}


# Story: a default that no caller in the package overrides is a setting
# that nothing varies: every run takes the one value, and the option only
# hides that the value is fixed. The two kept are the listed ones, no more
# and no fewer.
def test_no_defaults_that_no_caller_overrides():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert _unset_defaults(modules) == sorted(_UNSET_DEFAULTS_KEPT)


# Story: the scan finds a default that no call overrides, counts one
# overridden by keyword, by position or through unpacking, sees a class
# call as a call of its __init__ (whose positions skip self) and a call
# through an import alias as a call of the original name, and skips
# parameters without defaults.
def test_unset_default_scan_sees_both_cases():
    modules = {
        "a": ast.parse(
            "def f(x, by_kw=1, by_pos=2, unset=3, *, only_kw=4, kw_unset=5): ...\n"
            "def g(y=0): ...\n"
            "def h(z=0): ...\n"
            "class Store:\n"
            "    def __init__(self, root, mode='r'): ...\n"
            "    def put(self, key, fresh=False): ...\n"
            "    @staticmethod\n"
            "    def load(path, strict=True): ...\n"
        ),
        "b": ast.parse(
            "from .a import f, g as renamed, h\n"
            "def use(store, args, kwargs):\n"
            "    f(0, by_kw=2, only_kw=3)\n"
            "    f(0, 1, 2)\n"
            "    renamed(5)\n"
            "    h(*args)\n"
            "    Store('root', 'w')\n"
            "    store.put('k')\n"
            "    Store.load('p', False)\n"
        ),
    }
    assert _unset_defaults(modules) == [
        "a.Store.put(fresh)", "a.f(kw_unset)", "a.f(unset)"
    ]


def _always_passed_defaults(modules: dict[str, ast.Module]) -> list[str]:
    """The dataclass field defaults, as ``Class.field``, that every
    construction of the class in these modules passes, by keyword or by
    position; a class built nowhere is skipped. A construction that unpacks
    ``*args`` or ``**kwargs`` counts as relying on every default."""
    calls = [call for tree in modules.values() for call in _calls(tree)]
    flagged = []
    for tree in modules.values():
        for cls, stmts in _dataclasses(tree):
            built = [call for call in calls if call[0] == cls.name]
            for position, stmt in enumerate(stmts):
                if stmt.value is not None and built and all(
                    not unpacks and (stmt.target.id in keywords or n_args > position)
                    for _, n_args, keywords, unpacks in built
                ):
                    flagged.append(f"{cls.name}.{stmt.target.id}")
    return sorted(flagged)


# Story: a field default that every construction in the package passes is
# a value kept for the tests alone: the optimizer never runs it, and the
# tests that lean on it check a construction the package never makes.
def test_no_defaults_that_every_construction_passes():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    flagged = _always_passed_defaults(modules)
    assert not flagged, f"field defaults every construction passes: {', '.join(flagged)}"


# Story: the scan finds a default every construction passes, by keyword or
# by position, counts one that a construction leaves out or may leave out
# through unpacking as relied on, and skips a class that nothing builds and
# fields without defaults.
def test_always_passed_default_scan_sees_both_cases():
    modules = {
        "a": ast.parse(
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Trace:\n"
            "    name: str\n"
            "    rows: list = field(default_factory=list)\n"
            "    budget: float = 1.0\n"
            "    seed: int = 0\n"
            "    note: str = ''\n"
            "@dataclass(frozen=True)\n"
            "class Unbuilt:\n"
            "    size: int = 0\n"
            "class Plain:\n"
            "    def __init__(self, x=0): ...\n"
        ),
        "b": ast.parse(
            "from .a import Trace, Plain\n"
            "def use(flags):\n"
            "    Trace('t', rows=[], seed=1)\n"
            "    Trace('u', [], 2.0, note='n')\n"
            "    Trace(**flags, rows=[])\n"
            "    Plain(1)\n"
        ),
    }
    assert _always_passed_defaults(modules) == []
    del modules["b"].body[1].body[2]
    assert _always_passed_defaults(modules) == ["Trace.rows"]


# Story: the runtime needs numpy alone. No module imports scipy, and a
# fresh interpreter that imports the library and the CLI, then runs a short
# eeipu trace (warmup, GP fits, scoring, memoized stages), has loaded no
# scipy module, deferred imports included. scipy's import alone costs more
# than the rest of set-up.
def test_import_and_run_load_no_scipy():
    for path in sorted(SRC.glob("*.py")):
        names = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        assert "scipy" not in names, path.name
    probe = (
        "import sys, pipetune, pipetune.cli\n"
        "from pipetune import RunConfig, run, synthetic_suite\n"
        "config = RunConfig(method='eeipu', seed=0, n0=3, m=24, n_mc=40, restarts=2,"
        " total_budget=150.0)\n"
        "trace = run(config, synthetic_suite('synth3'))\n"
        "print(len(trace.post_warmup_rows()), any(r.delta for r in trace.rows))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    ran, loaded = out.stdout.splitlines()
    steps, memoized = ran.split()
    assert int(steps) >= 2 and memoized == "True", ran
    assert loaded == "[]"
