"""Every name a module of weyl_lab imports is used in that module, every
private top-level helper of the package is used somewhere, every
public top-level name is read by the package or by perfbench, not only by
tests, every defaulted parameter of a public function is set by some call
there too, every record of data/calibration.json is read by the
package, and every name or path the README quotes still exists.

No lint tool is a dependency, so the checks parse each module with the
standard library's ast.  The package's __init__ is left out of the first
check, and its reads out of the public-name check: its imports are its
exports.
"""

import ast
import functools
import importlib
import json
import re
from pathlib import Path

import pytest

import weyl_lab

PACKAGE = Path(weyl_lab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
ROOT = TESTS.parent
PERFBENCH = ROOT / "perfbench"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: e"]


def _bound_names(node: ast.stmt) -> list[str]:
    # the names a top-level statement binds: a def, a class, or the plain
    # names an assignment targets, tuples unpacked
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(tree: ast.AST) -> set[str]:
    """The names a source reads, by a Name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _sources(*dirs: Path) -> dict[str, str]:
    return {
        f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
        for d in dirs
        for p in d.glob("*.py")
    }


def _dead_helpers(sources: dict[str, str], package: list[str]) -> list[str]:
    """Private top-level functions, classes and constants of the package
    modules that no source reads, by a Name, an attribute or an import."""
    defined = []
    referenced = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        if path in package:
            defined += [
                (path, name)
                for node in tree.body
                for name in _bound_names(node)
                if name.startswith("_") and not name.startswith("__") and name != "_"
            ]
        referenced |= _reads(tree)
    return [f"{path}: {name}" for path, name in defined if name not in referenced]


def test_every_private_helper_is_used():
    sources = _sources(PACKAGE, TESTS)
    package = [key for key in sources if key.startswith(f"{PACKAGE.name}/")]
    assert _dead_helpers(sources, package) == []


def test_guard_sees_a_dead_helper():
    sources = {
        "m.py": (
            "def _used():\n    pass\n\n\nclass _Dead:\n    pass\n\n\ndef _gone():\n    pass\n"
            "_READ = 1\n_UNREAD = _READ\n_TYPED: int = 2\n_PAIR, _ = 3, 4\n"
        ),
        "t.py": "from m import _used\nprint(_TYPED)\n",
    }
    dead = ["m.py: _Dead", "m.py: _gone", "m.py: _UNREAD", "m.py: _PAIR"]
    assert _dead_helpers(sources, ["m.py"]) == dead


def _spec_strings(tree: ast.Module) -> set[str]:
    # the strings of a top-level SPECS table, which names by string each
    # function the perfbench tracer wraps
    return {
        n.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and "SPECS" in _bound_names(node)
        for n in ast.walk(node.value)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _unread_public_names(sources: dict[str, str], package: list[str]) -> list[str]:
    """Public top-level functions, classes and constants of the package
    modules that no source reads, by a Name, an attribute, an import or a
    string in a SPECS table.  Reads in an __init__.py, which only
    re-exports, and in tests/ do not count."""
    defined = []
    read = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        if path in package:
            defined += [
                (path, name)
                for node in tree.body
                for name in _bound_names(node)
                if not name.startswith("_")
            ]
        if not (path.endswith("__init__.py") or path.startswith("tests/")):
            read |= _reads(tree) | _spec_strings(tree)
    return [f"{path}: {name}" for path, name in defined if name not in read]


def test_every_public_name_is_read_outside_tests():
    sources = _sources(PACKAGE, PERFBENCH, TESTS)
    package = [key for key in sources if key.startswith(f"{PACKAGE.name}/")]
    assert _unread_public_names(sources, package) == []


def test_guard_sees_a_public_name_only_tests_read():
    sources = {
        "pkg/m.py": (
            "def tested():\n    pass\n\n\ndef traced():\n    pass\n\n\n"
            "def exported():\n    pass\n\n\ndef used(*args):\n    pass\n"
            "LIMIT = 1\n_PRIVATE = used(LIMIT, 'tested')\n"
        ),
        "pkg/__init__.py": "from .m import exported, tested\n",
        "tests/t.py": "from pkg.m import tested\ntested()\n",
        "perfbench/tracing.py": "SPECS = (Spec('m', 'traced'),)\nprint('exported')\n",
    }
    unread = ["pkg/m.py: tested", "pkg/m.py: exported"]
    assert _unread_public_names(sources, ["pkg/m.py", "pkg/__init__.py"]) == unread


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    # (position, name) of each parameter with a default; None is the
    # position of a keyword-only one
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _unset_options(sources: dict[str, str], package: list[str]) -> list[str]:
    """Defaulted parameters of the public top-level functions of the
    package modules that no call binds, by position or keyword (a * or **
    argument binds them all).  Calls in tests/ do not count.  Exempt are a
    function some source reads as a value, whose calls the AST cannot
    follow, and a parameter named by a string in the function's own Spec()
    call, which the perfbench tracer reads by name."""
    defs = []
    bound: dict[str, set] = {}
    values = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        if path in package:
            defs += [
                (path, node)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
        if path.startswith("tests/"):
            continue
        called = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called.add(id(node.func))
            name = _callee(node)
            if name == "Spec" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                name = node.args[1].value
                bound.setdefault(name, set()).update(
                    n.value for arg in node.args[2:] + node.keywords for n in ast.walk(arg)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
                continue
            got = bound.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                got.add("*")
            got.update(range(len(node.args)))
            got.update(k.arg for k in node.keywords)
        values |= {
            getattr(node, "id", None) or node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in called
        }
    return [
        f"{path}: {fn.name}({name})"
        for path, fn in defs
        if fn.name not in values
        for pos, name in _defaulted_params(fn)
        if not bound.get(fn.name, set()) & {"*", pos, name}
    ]


def test_every_option_is_set_outside_tests():
    sources = _sources(PACKAGE, PERFBENCH, TESTS)
    package = [key for key in sources if key.startswith(f"{PACKAGE.name}/")]
    assert _unset_options(sources, package) == []


def test_guard_sees_an_option_only_tests_set():
    sources = {
        "pkg/m.py": (
            "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
            "def g(a=1, b=2):\n    pass\n\n\n"
            "def h(a=1):\n    pass\n\n\n"
            "def traced(n=1, k=2):\n    pass\n\n\n"
            "def _private(a=1):\n    pass\n"
            "TABLE = {'h': h}\n"
        ),
        "pkg/use.py": "f(0, 5, e=6)\nm.g(*args)\ntraced()\n",
        "tests/t.py": "f(0, 1, 2, d=3)\ntraced(n=1, k=2)\n",
        "perfbench/tracing.py": "SPECS = (Spec('m', 'traced', work=lambda arg: arg('n')),)\n",
    }
    unset = ["pkg/m.py: f(c)", "pkg/m.py: f(d)", "pkg/m.py: traced(k)"]
    assert _unset_options(sources, ["pkg/m.py", "pkg/use.py"]) == unset


def _unread_calibration_keys(sources: dict[str, str], keys) -> list[str]:
    """The top-level keys of the calibration record that no source reads
    as load_calibration()["key"]."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "load_calibration" and isinstance(node.slice, ast.Constant):
                    read.add(node.slice.value)
    return [key for key in keys if key not in read]


def test_every_calibration_record_is_read_by_the_package():
    keys = json.loads((PACKAGE / "data" / "calibration.json").read_text(encoding="utf-8"))
    assert _unread_calibration_keys(_sources(PACKAGE), keys) == []


def test_guard_sees_a_calibration_record_nothing_reads():
    sources = {
        "pkg/gate.py": 'c = load_calibration()["gated"]\nd = calibration.load_calibration()["dotted"]\n',
        "pkg/calibration.py": 'data = {"gated": 1, "stored": run()}\nkey = "named"\n',
    }
    keys = ["dotted", "gated", "named", "stored"]
    assert _unread_calibration_keys(sources, keys) == ["named", "stored"]


def _resolves(token: str) -> bool:
    # a repository file, or a weyl_lab module or attribute: a dotted name
    # starts at a module, a bare one may be an attribute of any module
    if (ROOT / token).exists() or (PACKAGE / token).exists():
        return True
    parts = token.split(".")
    if parts[0] == "weyl_lab":
        parts = parts[1:]
    if not parts:
        return True
    modules = {p.stem: importlib.import_module(f"weyl_lab.{p.stem}") for p in MODULES}
    if parts[0] in modules:
        starts, parts = [modules[parts[0]]], parts[1:]
    else:
        starts = list(modules.values())
    for obj in starts:
        try:
            functools.reduce(getattr, parts, obj)
        except AttributeError:
            continue
        return True
    return False


def _unresolved_readme_tokens(text: str) -> list[str]:
    """The backticked tokens of a README, outside fenced blocks, that hold
    `_` or `.` and name no weyl_lab module, no attribute of one and no
    file of the repository."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    tokens = [t for t in spans if re.fullmatch(r"[A-Za-z_][\w./]*", t) and re.search(r"[_.]", t)]
    return [t for t in tokens if not _resolves(t)]


def test_readme_names_only_what_exists():
    assert _unresolved_readme_tokens((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_guard_sees_a_stale_readme_token():
    text = (
        "`weyl_lab.weylsum`, `experiments.REFERENCE_THETA`, `cli._report` and\n"
        "`weyl_sum` in `tests/test_imports.py`, `perfbench/` and `data/calibration.json`;\n"
        "`qsum_rows`, `weyl_lab.nowhere`, `cli.nothing`, `docs/gone.md`,\n"
        "`a(x, n)`, `--samples=1500`, `error:` and `pytest`\n"
        "```\nrun `gone_too`\n```\n"
    )
    stale = ["qsum_rows", "weyl_lab.nowhere", "cli.nothing", "docs/gone.md"]
    assert _unresolved_readme_tokens(text) == stale
