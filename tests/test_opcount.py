"""A smoke test of `scripts/opcount.py`: two runs of one tree, under two
string hash seeds, print the same counts, so a change's counts can be set
against its parent's."""

import os
import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "opcount.py"


def test_two_runs_on_the_corpus_print_the_same_counts():
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", "corpus", "--seed", "3", "--top", "5"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines[0] == "workload corpus, seed 3: 13 inputs, one pass"
    assert re.fullmatch(r"opcodes [\d,]+", lines[1]) and re.fullmatch(r"calls [\d,]+", lines[2])
    assert len(lines) == 4 + 5
