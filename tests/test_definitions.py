"""The dead-definition guard: every module-level function and class of
``src/scindex`` is named somewhere outside its own definition, in ``src/``,
``tests/``, ``demos/``, ``README.md`` or ``bench/``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scindex"


def _words(text):
    return Counter(re.findall(r"\w+", text))


def test_every_module_level_definition_is_named_outside_itself():
    paths = [
        *ROOT.glob("src/**/*.py"),
        *ROOT.glob("tests/**/*.py"),
        *ROOT.glob("demos/**/*.py"),
        *ROOT.glob("bench/**/*.py"),
        ROOT / "README.md",
    ]
    texts = {path: path.read_text(encoding="utf-8") for path in paths}
    everywhere = sum(map(_words, texts.values()), Counter())
    unnamed = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = texts[module].splitlines(keepends=True)
        for node in ast.parse(texts[module]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the interpreter, as a module __getattr__ is
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = _words("".join(lines[start - 1 : node.end_lineno]))
            if everywhere[node.name] == own[node.name]:
                unnamed.append(f"{module.name}:{node.lineno} {node.name}")
    assert unnamed == []
