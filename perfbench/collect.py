"""Repeat the benchmark over seeds and summarise the runs.

    python3 perfbench/collect.py --seeds 1-10 [--workloads corpus,deep,cli]
                                 [--traced-seed N] [--out FILE]

Runs `perfbench/run.py` once per workload and seed for `run_seconds`, one
process at a time, and prints for each end-to-end metric its median and its quartile spread
((Q3 - Q1) / median over the seeds, from `statistics.quantiles(n=4)`)
against the metric's bound.  With `--traced-seed` it adds one `--trace 1`
run per workload.  `--out` writes every run's result and the summary as
JSON, together with the python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="corpus,deep,cli")
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed={seed} failed={runs[-1]['failed']}/{runs[-1]['attempted']}",
                  file=sys.stderr, flush=True)
        summary = {}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": m["bound"],
                "unit": m["unit"],
            }
            s = summary[m["name"]]
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:16s} median {s['median']:12.6g} {m['unit']:6s} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}")
        entry = {"summary": summary, "runs": runs}
        if args.traced_seed is not None:
            entry["traced"] = run_once(workload, args.traced_seed, seconds, 1)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
