#!/usr/bin/env python3
"""Regenerate the frozen golden files under tests/golden/: the SVG
figures, the corpus traces, the script golden (printed corpus, run
messages, malformed inputs and mirrored-rule shapes) and the token
golden (the token stream of the corpus and of lexer edge inputs).

Run from the repository root after a deliberate change to the figure
layout or the trace format, then review the diff.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from figures import FIGURES  # noqa: E402
from traces import corpus_traces, script_golden, token_golden  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, render in FIGURES.items():
        path = GOLDEN / f"{name}.svg"
        path.write_text(render(), encoding="utf-8")
        print(f"wrote {path}")
    for name, render in (
        ("corpus_traces", corpus_traces),
        ("script_golden", script_golden),
        ("tokens", token_golden),
    ):
        path = GOLDEN / f"{name}.txt"
        path.write_text(render(), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
