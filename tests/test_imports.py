"""Every name a module of weyl_lab imports is used in that module, and
every private top-level helper of the package is used somewhere.

No lint tool is a dependency, so the checks parse each module with the
standard library's ast.  The package's __init__ is left out of the first
check: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

import weyl_lab

PACKAGE = Path(weyl_lab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent


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


def _private_names(node: ast.stmt) -> list[str]:
    # the names a top-level statement binds: a def, a class, or the plain
    # names an assignment targets, tuples unpacked
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__") and n != "_"]


def _dead_helpers(sources: dict[str, str], package: list[str]) -> list[str]:
    """Private top-level functions, classes and constants of the package
    modules that no source reads, by a Name, an attribute or an import."""
    defined = []
    referenced = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        if path in package:
            defined += [(path, name) for node in tree.body for name in _private_names(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{path}: {name}" for path, name in defined if name not in referenced]


def test_every_private_helper_is_used():
    files = {f"{p.parent.name}/{p.name}": p for d in (PACKAGE, TESTS) for p in d.glob("*.py")}
    sources = {key: p.read_text(encoding="utf-8") for key, p in files.items()}
    package = [key for key, p in files.items() if p.parent == PACKAGE]
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
