"""A smoke test of `scripts/differential.py`, so that the harness cannot
rot: a tree against itself differs nowhere, and a copy of `src/` with
one message edited, with a composite's marks in another order, with
the output of `symsum invariants` edited, or with an expression file
reader that refuses every text, differs on the first input that shows it."""

import pathlib
import re
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


def _edited_copy(tmp_path, module: str, *edits: tuple[str, str]) -> str:
    """A copy of `src/` with each `(old, new)` of `edits` replaced in `module`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "symsum" / module
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return str(tmp_path)


def test_an_edited_message_is_reported_at_its_first_input(tmp_path):
    old = "R6 expects a blown-up manifold on the left"
    base = _edited_copy(tmp_path, "rules/r6.py", (old, "R6 expects a blow-up on the left"))
    proc = _differential("--base", base)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("first difference: message R6 not blown up\n"), proc.stdout
    assert "; 1 differ\n" in proc.stdout


def test_a_change_to_derived_marks_alone_is_reported(tmp_path):
    """A trace prints no composite's marks: a copy that orders them by
    label backwards, in `_finish_marks` and in a sum without declared
    pairs, differs from the first input in its mark tables only."""
    base = _edited_copy(
        tmp_path, "core.py",
        ("sorted(collected, key=_BY_LABEL)", "sorted(collected, key=_BY_LABEL, reverse=True)"),
        ("out.sort(key=_BY_LABEL)", "out.sort(key=_BY_LABEL, reverse=True)"),
    )
    proc = _differential("--base", base)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first = proc.stdout.split("\nalso differs")[0]
    assert first.startswith("first difference: corpus neutral-w\n"), proc.stdout
    assert re.findall(r"^  (\S.*):$", first, re.M) == ["marks", "rhs marks"]


def test_an_edited_invariants_output_is_reported_at_the_first_expression_file(tmp_path):
    """The expression files run through `symsum invariants` in both trees."""
    old = "print(mark_table(expr))"
    base = _edited_copy(tmp_path, "cli.py", (old, "print(mark_table(expr).upper())"))
    proc = _differential("--base", base)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first = proc.stdout.split("\nalso differs")[0]
    assert first.startswith("first difference: invariants e4_cp2.expr\n"), proc.stdout
    assert re.findall(r"^  (\S.*):$", first, re.M) == ["stdout"]
    assert "; 4 differ\n" in proc.stdout


def test_a_traced_step_that_does_not_read_back_is_reported(tmp_path):
    """A copy whose expression file reader refuses every text runs every
    script as before: the first input differs in its first unread step alone."""
    old = 'return _Parser(source, *_read_fast(source, ("expr",))).parse_expr_file()'
    new = old.replace("_Parser(source,", '_Parser(source + " }",')
    base = _edited_copy(tmp_path, "script.py", (old, new))
    proc = _differential("--base", base)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first = proc.stdout.split("\nalso differs")[0]
    assert first.startswith("first difference: corpus "), proc.stdout
    assert re.findall(r"^  (\S.*):$", first, re.M) == ["unread step"]
