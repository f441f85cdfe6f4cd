"""The export rule: ``scindex.__all__`` lists only names that README, a demo
or a test uses."""

import re
from pathlib import Path

import scindex

ROOT = Path(__file__).resolve().parents[1]
# The package version, and the type the expression functions return.
EXEMPT = {"__version__", "DimExpr"}


def test_every_exported_name_is_used_by_the_readme_a_demo_or_a_test():
    paths = [ROOT / "README.md", *(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    text = "\n".join(
        path.read_text(encoding="utf-8") for path in paths if path.name != Path(__file__).name
    )
    unused = [
        name
        for name in scindex.__all__
        if name not in EXEMPT and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unused == []
