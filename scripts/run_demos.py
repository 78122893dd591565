#!/usr/bin/env python3
"""Run every bundled demo script and print its trace and verdict."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from symsum.demos import DEMOS  # noqa: E402
from symsum.script import render_trace_text, run  # noqa: E402


def main() -> int:
    worst = 0
    for name, source in DEMOS.items():
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        result = run(source)
        if result.verdict is not None:
            print(render_trace_text(result.verdict))
        for msg in result.messages:
            print(msg)
        worst = max(worst, result.code)
        print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
