#!/usr/bin/env python3
"""Count the bytecode a benchmark pass executes, as numbers that do not drift.

    python scripts/opcount.py --workload deep|corpus [--seed N] [--top K]

It builds the seeded inputs of `perfbench.workloads` for the workload,
runs one untraced pass over them to warm every cache (compiled patterns,
memos), then one pass under `sys.settrace` with opcode events on.  Each
operation is the benchmark's: `run` plus both trace renderers, with its
result checked against the known answer.  It prints the opcodes executed,
the Python calls (frame starts, a generator's resumptions included) and
the K functions with the most opcodes of their own.  Wall time on a shared
machine drifts by up to 2x between runs; these counts are the same on
every run of one tree, so a change shows where its gain or loss comes from.
Standard library only.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, run_script  # noqa: E402


def _name(code) -> str:
    path = Path(code.co_filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path.as_posix()}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def count(inputs) -> tuple[Counter, Counter, list]:
    """The opcodes and the calls of each code object over one pass, and
    the pass's results."""
    ops, calls = Counter(), Counter()

    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    results = []  # a loop in this frame, which the trace does not see
    sys.settrace(on_call)
    try:
        for inp in inputs:
            results.append(run_script(inp.text))
    finally:
        sys.settrace(None)
    return ops, calls, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("deep", "corpus"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](ROOT, args.seed, None)
    wl.setup()
    for inp in wl.inputs:
        run_script(inp.text)
    ops, calls, results = count(wl.inputs)
    for inp, (code, result) in zip(wl.inputs, results):
        cause = wl.check(inp, result, code)
        if cause is not None:
            print(f"{inp.name}: {cause}", file=sys.stderr)
            return 1

    total = sum(ops.values())
    print(f"workload {args.workload}, seed {args.seed}: {len(wl.inputs)} inputs, one pass")
    print(f"opcodes {total:,}")
    print(f"calls {sum(calls.values()):,}")
    print(f"top {args.top} functions by own opcodes:")
    for code, n in sorted(ops.items(), key=lambda kv: (-kv[1], _name(kv[0])))[: args.top]:
        print(f"{n:>11,} {n / total:6.1%} {calls[code]:>8,} calls  {_name(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
