"""Every demo script runs to completion: exit 0, no traceback, and nothing
left behind in the temporary directory."""

import glob
import os
import subprocess
import sys

import pytest

import cellsearch

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(cellsearch.__file__)),
        TMPDIR=str(tmp_path),
    )
    proc = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=env, cwd=REPO, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
