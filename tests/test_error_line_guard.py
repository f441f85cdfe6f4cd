"""The error-line guard: the CLI writes an ``error: ...`` line in one place,
the handler of ``cli.main``, so every command's failure reads and exits
alike.  A command raises a ``ScindexError`` instead; no other function of
``src/scindex`` prints or writes a string that starts with ``error:``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scindex"
HANDLER = ("cli.py", "main")


def _leading_text(node):
    """The literal text a string expression starts with, if any."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _leading_text(node.values[0])
    if isinstance(node, ast.BinOp):  # "error: " + text, "error: %s" % text
        return _leading_text(node.left)
    return ""


def _error_lines(tree):
    """(function, line) of each ``print`` or ``.write`` call whose first
    argument starts with ``error:``."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("print", "write") and _leading_text(node.args[0]).startswith("error:"):
                yield function.name, node.lineno


def test_only_main_prints_an_error_line():
    found = [
        f"{module.name}:{line} {function}"
        for module in sorted(PACKAGE.glob("*.py"))
        for function, line in _error_lines(ast.parse(module.read_text(encoding="utf-8")))
        if (module.name, function) != HANDLER
    ]
    assert found == []


def test_the_scan_finds_an_error_line():
    source = (
        "def run(args):\n"
        "    try:\n"
        "        go(args)\n"
        "    except ScindexError as exc:\n"
        "        print(f'error: in {args}: {exc}', file=sys.stderr)\n"
        "        sys.stderr.write('error: ' + str(exc))\n"
        "    print('done')\n"
    )
    assert list(_error_lines(ast.parse(source))) == [("run", 5), ("run", 6)]
    source = "def f():\n    sys.stderr.write('error: x')\n"
    assert list(_error_lines(ast.parse(source))) == [("f", 2)]
