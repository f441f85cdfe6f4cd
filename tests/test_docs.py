"""The README quickstart runs as a doctest and every demo script exits 0."""

import doctest
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_readme_doctest():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run from a copy, so that what a demo writes beside itself stays out of the checkout.
    copy = tmp_path / demo.name
    shutil.copyfile(demo, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(copy)], capture_output=True, text=True, env=env, timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
