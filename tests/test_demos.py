"""Each narrative demo runs to completion against the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    temp = tmp_path / "temp"  # the demo's TMPDIR, which it must leave empty
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(temp))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(temp.iterdir()) == []
