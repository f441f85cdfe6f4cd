"""The homogeneity guard: the rule that quantities of different dimension
never add or compare is stated once, by ``Dimension``'s ``+`` and ``-`` in
``scindex.dimension``, so no other module of ``src/scindex`` (bar
``scindex.errors``, which defines it) constructs ``HeterogeneityError``.
A check of its own elsewhere would be a second statement of the rule."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scindex"
RULE_MODULES = {"dimension.py", "errors.py"}


def _constructions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "HeterogeneityError":
                yield node.lineno


def test_only_the_dimension_rule_raises_a_heterogeneity_error():
    found = [
        f"{module.name}:{line}"
        for module in sorted(PACKAGE.glob("*.py"))
        if module.name not in RULE_MODULES
        for line in _constructions(ast.parse(module.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_scan_finds_a_construction():
    source = "from .errors import HeterogeneityError\nraise HeterogeneityError(a, b, 'mix')\n"
    assert list(_constructions(ast.parse(source))) == [2]
    assert list(_constructions(ast.parse("errors.HeterogeneityError(a, b)"))) == [1]
