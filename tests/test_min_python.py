"""The oldest Python that pyproject.toml admits, 3.10, runs the demos as
the current interpreter does: no syntax or regular expression of a later
version has crept into symsum."""

import glob
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_demos.py"


def _python310():
    """A Python 3.10 interpreter that runs: `python3.10` on PATH (a pyenv
    shim there may fail), else one under ~/.pyenv/versions; or None."""
    found = shutil.which("python3.10")
    pyenv = os.path.expanduser("~/.pyenv/versions/3.10*/bin/python3.10")
    for exe in ([found] if found else []) + sorted(glob.glob(pyenv)):
        try:
            r = subprocess.run([exe, "--version"], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if r.returncode == 0 and r.stdout.startswith("Python 3.10"):
            return exe
    return None


def _demos(exe: str) -> tuple[int, str]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    r = subprocess.run(
        [exe, str(DEMOS)], capture_output=True, text=True, env=env, timeout=300
    )
    return r.returncode, r.stdout


def test_python_3_10_prints_the_demos_as_this_interpreter():
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    assert _demos(exe) == _demos(sys.executable)
