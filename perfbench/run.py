"""The symsum benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload corpus|deep|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it imports symsum from `src/` and writes
scratch files under `.perfbench_work/`.  The run sets up (imports, builds
the seeded inputs, warms up), then times the run-once inputs and whole
passes over the inputs until `--seconds` are used, checking every result
against its known answer.  The last line of output is one JSON object:
with `--trace 0` the end-to-end metrics of `BENCHMARK.json`, whose times
are in units of a reference computation timed in the same run (see
reference.py); with `--trace 1` its per-layer metrics, measured by
wrapping symsum's functions (see tracer.py) after an untraced half-run
that gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
REF_SHARE = 0.25  # reference time per unit of op time
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
PROBE_REPEATS = 5
PROBE_TIMEOUT_S = 120


@dataclass
class Record:
    name: str
    seconds: float
    code: Optional[int]  # exit code, None when the op raised
    cause: Optional[str]  # None when the op gave its known answer
    known: bool = False  # the op hit the checker's known depth limit


def time_op(wl, inp, tracer=None) -> Record:
    from perfbench.workloads import known_crash

    if tracer is not None:
        tracer.op += 1
    t0 = time.perf_counter()
    try:
        code, payload = wl.execute(inp)
    except Exception as exc:  # a crashed op is a failed op, not a crashed run
        elapsed = time.perf_counter() - t0
        return Record(inp.name, elapsed, None, type(exc).__name__, known_crash(inp, exc))
    elapsed = time.perf_counter() - t0
    return Record(inp.name, elapsed, code, wl.check(inp, payload, code))


def measure(wl, seconds: float, tracer=None, ref=None) -> tuple[list[Record], float]:
    """The run-once inputs, then whole passes over the inputs until
    `seconds` have passed; the last pass is finished, so that every input
    is timed equally often.  `ref`, a Reference, runs after each op of
    the passes."""
    start = time.perf_counter()
    records = [time_op(wl, inp, tracer) for inp in wl.once]
    while True:
        for inp in wl.inputs:
            records.append(time_op(wl, inp, tracer))
            if ref is not None:
                ref.after(records[-1].seconds)
        wall = time.perf_counter() - start
        if wall >= seconds:
            return records, wall


def is_wrong(r: Record) -> bool:
    """A failed op makes the run incorrect unless it is the known depth limit."""
    return r.cause is not None and not r.known


def run_probe(argv, env=None) -> str:
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from spawn to the end of set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()  # CLOCK_MONOTONIC: comparable across processes
        out = run_probe(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
        )
        times.append(float(out.split()[-1]) - t0)
    return statistics.median(times)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def wall_ms(argv, env=None) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_probe(argv, env)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(wl, seconds: float) -> tuple[list[Record], dict, list[str]]:
    """The end-to-end metrics, plus notes with the times in ms that they
    are normalised from."""
    from perfbench.reference import Reference

    ref = Reference(REF_SHARE)
    records, wall = measure(wl, seconds, ref=ref)
    rss = peak_rss_mb(wl.in_process)  # before the set-up probes add children
    # the ops of the passes that gave their known answer; the run-once
    # inputs have a single timing each, and a failed op has no verdict
    per_input = {i.name: [] for i in wl.inputs}
    for r in records:
        if r.cause is None and r.name in per_input:
            per_input[r.name].append(r.seconds)
    ok = [t for times in per_input.values() for t in times]
    means = [statistics.fmean(times) for times in per_input.values() if times]
    ref_mean = statistics.fmean(ref.times)
    failed = sum(r.cause is not None for r in records)
    notes = [
        f"reference: {len(ref.times)} runs, mean {ref_mean * 1000:.6g} ms",
        f"verdict ms over all ops: mean {statistics.fmean(ok) * 1000:.6g}, "
        f"p50 {statistics.median(ok) * 1000:.6g}, p90 {statistics.quantiles(ok, n=10)[8] * 1000:.6g}",
        f"ops per second of wall time, reference included: {len(records) / wall:.6g}",
    ]
    return records, {
        "verdict_ref_mean": statistics.fmean(ok) / ref_mean,
        "verdict_ref_p50": statistics.median(means) / ref_mean,
        "verdict_ref_p90": statistics.quantiles(means, n=10, method="inclusive")[8] / ref_mean,
        "ok_share": 1 - failed / len(records),
        "setup_s": setup_seconds(wl.name, wl.seed),
        "peak_rss_mb": rss,
    }, notes


def per_layer(wl, seconds: float) -> tuple[list[Record], dict, list[str]]:
    from perfbench.tracer import Tracer

    interpreter = wall_ms([sys.executable, "-c", "pass"])
    imported = wall_ms(
        [sys.executable, "-c", "import symsum.cli"], dict(os.environ, PYTHONPATH="src")
    )

    untraced, untraced_wall = measure(wl, seconds / 2)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    else:
        wl.tracer = tracer
    try:
        traced, traced_wall = measure(wl, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.write_spans(WORK_DIR / f"spans-{wl.name}-{wl.seed}.jsonl")

    total, own, calls = tracer.layer_times()
    c = tracer.counts
    n = len(traced)
    codes = Counter(r.code for r in traced)
    raised = Counter(r.cause for r in traced if r.code is None)
    untraced_rate = len(untraced) / untraced_wall
    traced_rate = n / traced_wall
    metrics = {
        "script.tokenize.ms": 1000 * total["script.tokenize"] / n,
        "script.tokenize.tokens": c["script.tokenize.tokens"] / n,
        "script.tokenize.tokens_per_s": c["script.tokenize.tokens"] / total["script.tokenize"],
        "script.parse.self_ms": 1000 * own["script.parse"] / n,
        "script.build_script.ms": 1000 * total["script.build_script"] / n,
        "script.build_script.nodes": c["script.build_script.nodes"] / n,
        "core.nodes_created": c["core.nodes_created"] / n,
        "core.label_pool.ms": 1000 * total["core.label_pool"] / n,
        "core.label_pool.visits": c["core.label_pool.visits"] / n,
        "core.label_pool.visits_per_node": c["core.label_pool.visits"] / c["core.nodes_created"],
        "rewrite.apply_rule.calls": calls["rewrite.apply_rule"] / n,
        "rewrite.apply_rule.ms": 1000 * total["rewrite.apply_rule"] / n,
        "rewrite.apply_rule.failed": c["rewrite.apply_rule.raised"] / n,
        "invariants.expr_invariants.calls": calls["invariants.expr_invariants"] / n,
        "invariants.expr_invariants.ms": 1000 * total["invariants.expr_invariants"] / n,
        "invariants.expr_invariants.visits": c["invariants.expr_invariants.visits"] / n,
        "rewrite.check_equiv.self_ms": 1000 * own["rewrite.check_equiv"] / n,
        "script.render.ms": 1000 * total["script.render"] / n,
        "script.render.bytes": c["script.render.bytes"] / n,
        "sums.apply_shifts.ms": 1000 * total["sums.apply_shifts"] / n,
        "areas.AreaValue.created": c["areas.AreaValue.created"] / n,
        "symsum.import_ms": imported - interpreter,
        "cli.interpreter_ms": interpreter,
        "cli.main_ms": 1000 * total["cli.main"] / n,
        "script.run.exit1": codes[1] / n,
        "script.run.exit2": codes[2] / n,
        "script.run.uncaught": sum(raised.values()) / n,
        "script.run.uncaught.RecursionError": raised["RecursionError"] / n,
        "op.traced_ms": 1000 * sum(r.seconds for r in traced) / n,
        "trace.untraced_verdicts_per_s": untraced_rate,
        "trace.traced_verdicts_per_s": traced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    }
    return untraced + traced, metrics, []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "deep", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "symsum" / "__init__.py").is_file():
        print(f"perfbench: no symsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, WORK_DIR)
    wl.setup()
    if args.setup_probe:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    if args.trace:
        records, values, notes = per_layer(wl, args.seconds)
        wanted = spec["per_layer"]
    else:
        records, values, notes = end_to_end(wl, args.seconds)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = [r for r in records if r.cause is not None]
    print(
        f"workload={wl.name} seed={args.seed} ops={len(records)} inputs={len(wl.inputs)} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  fail_share {len(failed) / len(records):.6g}")
    for note in notes:
        print(f"  {note}")
    for (name, cause), count in sorted(Counter((r.name, r.cause) for r in failed).items()):
        fastest = min(r.seconds for r in failed if (r.name, r.cause) == (name, cause))
        print(f"  failed x{count}: {name}: {cause} (fastest {fastest * 1000:.6g} ms)")
    print(
        json.dumps(
            {
                "correct": not any(is_wrong(r) for r in records),
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
