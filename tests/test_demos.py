"""Smoke tests: the demos and the README's Quick start run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_01_scattering_collision_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_scattering_collision.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "separation time t*" in result.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Quick start")) + len("```python\n")
    code = readme[start : readme.index("```", start)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 12  # one line per time 1..12
