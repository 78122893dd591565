"""Workloads of the symsum benchmark: seeded inputs, their known answers,
and the operation that runs one input.

Every workload is a single-process closed loop with one client: the next
operation starts when the previous one has ended.

- corpus: the 13 bundled scripts of `symsum.demos.CORPUS`, in seeded order;
  one operation is `run()` plus both trace renderers.
- deep:   generated left-nested ruled chains of 8 log-spaced depths in
  50..200 with an `R8` forward/reverse pair at the root and at a deep
  path of fixed share of the depth, plus one chain of depth 360, run once
  per run, that hits the checker's known depth limit; same operation.
- cli:    one `python -m symsum.cli` subprocess per operation, cycling
  through the five `demo` calls and `check` on the other eight scripts.

The known answers come from the scripts' `target` lines, the README and,
for `deep`, from the invariant formula -- never from the checker.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from symsum import script
from symsum.demos import CORPUS, DEMOS

CLI_TIMEOUT_S = 120

# the README's negative script proves only `~` where `=` is targeted
EXIT_1 = {"blowup-trade-eq"}
# the README's headline numbers: chi=47 sigma=-31 at every step
HEADLINE = {"gompf-stipsicz": (47, -31), "assoc-sym": (47, -31)}

DEEP_STRATA = 8
DEEP_MIN, DEEP_MAX = 50, 200
# the checker's known depth limit (ROADMAP item 2): at the commit that added
# this benchmark, a chain of this depth or more raises RecursionError in
# check_equiv's final comparison, and a shallower one verifies
CRASH_DEPTH = 332
# the depth of the chain that shows that limit, run once per run
DEEP_CRASH = 360

_TARGET_RE = re.compile(r"^target\s+([=~])\s*$", re.M)
_VERDICT_RE = re.compile(r"^verdict: ([=~]) \(.*\) chi=(-?\d+) sigma=(-?\d+)$")


@dataclass(frozen=True)
class Answer:
    exit: int
    level: Optional[str] = None  # "=" or "~" when exit is 0
    chi: Optional[int] = None
    sigma: Optional[int] = None


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    answer: Answer
    argv: tuple = ()  # cli only
    depth: Optional[int] = None  # deep only


def known_crash(inp: Input, exc: BaseException) -> bool:
    """Whether `exc` is the known depth limit: RecursionError on a `deep`
    chain at or beyond CRASH_DEPTH.  Any other exception is a defect."""
    return type(exc) is RecursionError and inp.depth is not None and inp.depth >= CRASH_DEPTH


def corpus_answer(name: str, text: str) -> Answer:
    if name in EXIT_1:
        return Answer(1)
    chi, sigma = HEADLINE.get(name, (None, None))
    return Answer(0, _TARGET_RE.search(text).group(1), chi, sigma)


# ---------------------------------------------------------------------------
# deep: generated ruled chains
# ---------------------------------------------------------------------------


def deep_script(depth: int, path_len: int, base: int = 1) -> str:
    """A chain of `depth` ruled atoms W(0,1,0+1e) glued B_{i-1} = A_i,
    proved equal to itself by an R8 forward/reverse pair at the root and
    another at `left` repeated `path_len` times.  Atom i has the areas
    A_i = base+i·e and B_i = base+(i+1)·e."""
    lines = [
        f"atom W{i} W(0,1,0+1e) {{ A{i}: g=0, i=-1, a={base}+{i}e; "
        f"B{i}: g=0, i=1, a={base}+{i + 1}e }}"
        for i in range(1, depth + 1)
    ]
    expr = "W1"
    for i in range(2, depth + 1):
        expr = f"sum({expr}, B{i - 1}, W{i}, A{i})"
    at = ".".join(["left"] * path_len)
    lines += [
        "",
        f"lhs {expr}",
        f"rhs {expr}",
        "target =",
        "",
        "by R8 { at = root, eps = 0+1e }",
        "by R8 { at = root } rev",
        f"by R8 {{ at = {at}, eps = 0+1e }}",
        f"by R8 {{ at = {at} }} rev",
    ]
    return "\n".join(lines) + "\n"


def deep_answer(depth: int) -> Answer:
    # each W(0,1,.) has chi=4 sigma=0; each sphere gluing takes 4 off chi
    return Answer(0, "=", 4 * depth - 4 * (depth - 1), 0)


def deep_chain(depth: int, path_share: float, base: int) -> Input:
    path_len = round(depth * path_share)
    return Input(
        f"deep-d{depth:03d}-p{path_len:03d}",
        deep_script(depth, path_len, base),
        deep_answer(depth),
        depth=depth,
    )


def deep_inputs(seed: int) -> tuple[list[Input], Input]:
    """The timed chains and the crash chain.

    One timed chain per log-uniform stratum of [50, 200], at the stratum's
    midpoint.  Chain k of the depth-sorted chains has its deep path at the
    share 1/4 + (k + 1/2)/(2·DEEP_STRATA) of its depth, so the paths cover
    d/4..3d/4.  The crash chain has depth DEEP_CRASH and its path at d/2.
    Depths and paths are the same for every seed, so that a run's work
    does not move with the draw; the seed draws the areas' base (1..9)
    and the order of the timed chains."""
    rng = random.Random(f"deep/{seed}")
    base = rng.randint(1, 9)
    span = math.log(DEEP_MAX / DEEP_MIN)
    timed = [
        deep_chain(
            round(DEEP_MIN * math.exp(span * (k + 0.5) / DEEP_STRATA)),
            0.25 + (k + 0.5) / (2 * DEEP_STRATA),
            base,
        )
        for k in range(DEEP_STRATA)
    ]
    rng.shuffle(timed)
    return timed, deep_chain(DEEP_CRASH, 0.5, base)


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


def run_script(text: str):
    """One in-process operation: verdict plus both rendered traces.
    Returns (exit code, RunResult)."""
    result = script.run(text)
    if result.verdict is not None:
        script.render_trace_text(result.verdict)
        script.render_trace_json(result.verdict)
    return result.code, result


def check_run(inp: Input, result) -> Optional[str]:
    """None when the RunResult matches the known answer, else the cause."""
    want = inp.answer
    if result.code != want.exit:
        return f"exit {result.code}, expected {want.exit}"
    if want.exit != 0:
        return None
    if result.verdict.level.symbol != want.level:
        return f"level {result.verdict.level.symbol}, expected {want.level}"
    if want.chi is not None:
        for rec in result.verdict.trace:
            got = (rec.invariants.euler, rec.invariants.signature)
            if got != (want.chi, want.sigma):
                return f"step {rec.index}: chi/sigma {got}, expected {(want.chi, want.sigma)}"
    return None


def check_cli(inp: Input, stdout: str, code: int) -> Optional[str]:
    want = inp.answer
    if code != want.exit:
        return f"exit {code}, expected {want.exit}"
    lines = stdout.rstrip("\n").split("\n")
    if want.exit != 0:
        if any(line.startswith("verdict:") for line in lines):
            return "verdict line printed for a failing proof"
        return None
    m = _VERDICT_RE.match(lines[-1])
    if not m:
        return f"last line is not a verdict: {lines[-1][:80]!r}"
    if m.group(1) != want.level:
        return f"level {m.group(1)}, expected {want.level}"
    if want.chi is not None and (int(m.group(2)), int(m.group(3))) != (want.chi, want.sigma):
        return f"chi/sigma {m.group(2)}/{m.group(3)}, expected {want.chi}/{want.sigma}"
    return None


class Workload:
    """Inputs for one seed plus the operation and check that run them."""

    name = ""
    in_process = True

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.inputs: list[Input] = []  # timed in every pass
        self.once: list[Input] = []  # timed once per run, before the passes
        self.tracer = None  # set for the traced run of an out-of-process workload

    def setup(self) -> None:
        """Generate the inputs and warm up; everything before the first timed op."""
        raise NotImplementedError

    def execute(self, inp: Input):
        """Run one op; returns (exit code, payload for `check`)."""
        return run_script(inp.text)

    def check(self, inp: Input, payload, code: int) -> Optional[str]:
        return check_run(inp, payload)


class Corpus(Workload):
    name = "corpus"

    def setup(self):
        names = sorted(CORPUS)
        random.Random(f"corpus/{self.seed}").shuffle(names)
        self.inputs = [Input(n, CORPUS[n], corpus_answer(n, CORPUS[n])) for n in names]
        for inp in self.inputs:
            self.execute(inp)


class Deep(Workload):
    name = "deep"

    def setup(self):
        self.inputs, crash = deep_inputs(self.seed)
        self.once = [crash]
        smallest = min(self.inputs, key=lambda i: len(i.text))
        self.execute(smallest)


class Cli(Workload):
    name = "cli"
    in_process = False

    def setup(self):
        cli_dir = self.work_dir / "cli"
        cli_dir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for name in sorted(CORPUS):
            text = CORPUS[name]
            if name in DEMOS:
                argv = ("demo", name, "--trace", "text")
            else:
                path = cli_dir / f"{name}.ssum"
                path.write_text(text, encoding="utf-8")
                argv = ("check", str(path.relative_to(self.root)), "--trace", "json")
            inputs.append(Input(name, text, corpus_answer(name, text), argv))
        random.Random(f"cli/{self.seed}").shuffle(inputs)
        self.inputs = inputs
        self.execute(inputs[0])

    def execute(self, inp: Input):
        if self.tracer is None:
            command, path = [sys.executable, "-m", "symsum.cli", *inp.argv], "src"
        else:
            # the same call, run by perfbench.cli_child under the tracer
            dump = self.work_dir / "cli_child.json"
            dump.unlink(missing_ok=True)  # never merge the previous op's spans
            command = [sys.executable, "-m", "perfbench.cli_child", str(dump), *inp.argv]
            path = os.pathsep.join(("src", "."))
        proc = subprocess.run(
            command,
            cwd=self.root,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if self.tracer is not None:
            record = json.loads(dump.read_text(encoding="utf-8"))
            self.tracer.merge(record["spans"], record["counts"])
        return proc.returncode, proc.stdout

    def check(self, inp, payload, code):
        return check_cli(inp, payload, code)


WORKLOADS = {w.name: w for w in (Corpus, Deep, Cli)}
