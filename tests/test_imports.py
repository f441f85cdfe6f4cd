"""The unused-import guard: every name a ``src/scindex`` module imports is
used in that module.  ``__init__`` is exempt, since it imports to re-export."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scindex"


def _imported(tree):
    """The name each import binds, with the line of its import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """The names a module reads, those of quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{module.name}:{n} {name}" for name, n in _imported(tree) if name not in used]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("import operator\nfrom re import sub as s, match\nmatch('a', 'b')\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["operator", "s"]
