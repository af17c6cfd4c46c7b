"""Smoke test: every script under demos/ runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's own directory.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir()), "the demo left files behind"
