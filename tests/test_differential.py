"""A smoke test of `scripts/differential.py`, so that the harness cannot
rot: a tree against itself differs nowhere, and a copy of `src/` with
one message edited differs on the first input that prints it."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HARNESS = ROOT / "scripts" / "differential.py"


def _differential(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HARNESS), *args, "--mutants", "20"],
        capture_output=True, text=True, timeout=120,
    )


def test_a_tree_against_itself_differs_nowhere():
    proc = _differential("--base", str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("; 0 differ\n"), proc.stdout


def test_an_edited_message_is_reported_at_its_first_input(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    r6 = tmp_path / "src" / "symsum" / "rules" / "r6.py"
    text = r6.read_text(encoding="utf-8")
    old = "R6 expects a blown-up manifold on the left"
    assert old in text
    r6.write_text(text.replace(old, "R6 expects a blow-up on the left"), encoding="utf-8")
    proc = _differential("--base", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("first difference: message R6 not blown up\n"), proc.stdout
    assert "; 1 differ\n" in proc.stdout
