#!/usr/bin/env python3
"""Differential test: run one input stream through two trees of symsum
and compare everything a user sees.

    python scripts/differential.py --base REF [--head REF] [--seed N] [--mutants K]

REF is a git ref, extracted with `git archive` into a temporary
directory, or the path of a directory that holds a `src/` tree.  The
head defaults to the working tree.  The inputs are the corpus scripts,
two ruled chains of `tests/test_memo.chain_script` (12 and 200 atoms,
so that long texts cross both trees) and three variants of the 12-atom
one that the fast reader hands over inside a mark block or a side
(comments in each mark block, comments and line breaks in the lhs, and
a rhs glued along a wrong mark), the `MALFORMED`,
`RULE_SHAPES`, `RULE_MESSAGES` and `SIDE_EDGES` tables of
`tests/traces.py` (the last crosses each hand-off of the fast reader's
sides, at every form that it reads), the expression files of
`scripts/exprs/` through `symsum invariants`, and K seeded token mutants
(`tests/test_fuzz.mutate`) of the corpus scripts and of the 12-atom
chain, so that a failure deep in a multi-line text, after the fast
reader hands over, crosses both trees; all generated once, from the
working tree.
A child per tree, with `PYTHONPATH=<tree>/src`, writes one JSON line per
input: the exit code, the messages, the text and JSON traces, the mark
table of each traced expression, the index of the first traced step whose
`serialize_expr` text does not read back, as an expression file, as an
equal node (None when every step does), and `print_script` and the rhs's
mark table of the parsed text (a trace prints no composite's marks); for a
command line, the exit code, stdout and stderr of `symsum`'s `main`.  The
harness prints the first input whose lines differ and the counts, and
exits 1 on any difference.
Standard library only.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import zipfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def child() -> None:
    """Run each input of stdin, one JSON value a line, with the symsum
    that PYTHONPATH finds, and write one JSON record a line.  A string is
    a script; a list is the arguments of a `symsum` command line."""
    from symsum.cli import main
    from symsum.script import (
        ScriptError,
        mark_table,
        parse,
        parse_expr_file,
        print_script,
        render_trace_json,
        render_trace_text,
        run,
        serialize_expr,
    )

    def reads_back(expr) -> bool:
        try:
            return parse_expr_file("expr " + serialize_expr(expr)).expr == expr
        except ScriptError:
            return False

    for line in sys.stdin:
        text = json.loads(line)
        try:
            if isinstance(text, list):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(text)
                rec = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            else:
                result = run(text)
                rec = {"code": result.code, "messages": result.messages}
                if result.verdict is not None:
                    rec["text"] = render_trace_text(result.verdict)
                    rec["json"] = render_trace_json(result.verdict)
                    trace = result.verdict.trace
                    rec["marks"] = [mark_table(step.expr) for step in trace]
                    rec["unread step"] = next(
                        (step.index for step in trace if not reads_back(step.expr)), None
                    )
                try:
                    parsed = parse(text)
                    rec["print"] = print_script(parsed)
                    rec["rhs marks"] = mark_table(parsed.rhs)
                except ScriptError:
                    pass
        except Exception as exc:  # an escape is compared as any other output
            rec = {"escape": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(rec) + "\n")


def inputs(seed: int, mutants: int) -> list[tuple[str, object]]:
    """The named input stream: corpus, chains, tables, expression files,
    then token mutants."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from symsum.demos import CORPUS
    from test_fuzz import mutate
    from test_memo import chain_script
    from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES, SIDE_EDGES

    out = [(f"corpus {name}", text) for name, text in CORPUS.items()]
    out += [(f"chain_script{size}", chain_script(*size)) for size in ((12, 6), (200, 100))]
    chain = chain_script(12, 6)
    lhs = chain[chain.index("lhs ") : chain.index("\nrhs ")]
    rhs = chain[chain.index("rhs ") : chain.index("\ntarget")]
    commented = lhs.replace("sum(", "sum( # (\n").replace(", B", ",\n  # a mark\n  B")
    decls = chain[: chain.index("lhs ")]
    # after `{`, at the end of a spec's line, between specs and before `}`
    blocks = decls.replace("{ A", "{ # (\n  A").replace("e; B", "e # a mark; }\n;\n  # perp\n  B")
    blocks = blocks.replace("e }", "e;\n# }\n}")
    out += [
        ("chain_script(12, 6), mark blocks commented", chain.replace(decls, blocks)),
        ("chain_script(12, 6), lhs commented", chain.replace(lhs, commented)),
        ("chain_script(12, 6), rhs glued wrong", chain.replace(rhs, rhs.replace("W7, A7", "W7, B7"))),
    ]
    for table, entries in (
        ("malformed", MALFORMED), ("rule", RULE_SHAPES), ("message", RULE_MESSAGES),
        ("side", SIDE_EDGES),
    ):
        out += [(f"{table} {name}", text) for name, text in entries.items()]
    exprs = sorted((ROOT / "scripts" / "exprs").glob("*.expr"))
    out += [(f"invariants {path.name}", ["invariants", str(path)]) for path in exprs]
    rng = random.Random(seed)
    sources = {**CORPUS, "chain_script(12, 6)": chain_script(12, 6)}
    names = sorted(sources)
    for n in range(mutants):
        name = names[n % len(names)]
        text, op = mutate(sources[name], rng)
        out.append((f"mutant {n} ({op} in {name})", text))
    return out


def tree(spec, tmp: str) -> pathlib.Path:
    """The root of the tree that `spec` names: the working tree for None,
    a directory as it is, and otherwise a git ref's `src/`, extracted."""
    if spec is None:
        return ROOT
    if pathlib.Path(spec).is_dir():
        return pathlib.Path(spec).resolve()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", spec, "src"],
        check=True, capture_output=True,
    ).stdout
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp))
    with zipfile.ZipFile(io.BytesIO(archive)) as z:
        z.extractall(out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git ref or directory of the base tree")
    ap.add_argument("--head", help="git ref or directory of the head tree (default: working tree)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mutants", type=int, default=10000)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.base is None:
        ap.error("--base is required")
    named = inputs(args.seed, args.mutants)
    with tempfile.TemporaryDirectory() as tmp:
        stream = pathlib.Path(tmp, "inputs.jsonl")
        stream.write_text("".join(json.dumps(text) + "\n" for _, text in named))
        outs, procs = [], []
        for side, spec in (("base", args.base), ("head", args.head)):
            src = tree(spec, tmp) / "src"
            env = {**os.environ, "PYTHONPATH": str(src)}
            out = pathlib.Path(tmp, f"{side}.jsonl")
            with stream.open() as fin, out.open("w") as fout:
                procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--child"],
                    stdin=fin, stdout=fout, env=env,
                ))
            outs.append(out)
        if any(p.wait() for p in procs):
            print("a child failed", file=sys.stderr)
            return 2
        with outs[0].open() as base, outs[1].open() as head:
            pairs = list(zip(base, head))
    if len(pairs) != len(named):
        print(f"a child wrote {len(pairs)} records for {len(named)} inputs", file=sys.stderr)
        return 2
    codes, differ = {}, []
    for (name, _), (b, h) in zip(named, pairs):
        rec = json.loads(h)
        code = rec.get("code", "escape")
        codes[code] = codes.get(code, 0) + 1
        if b != h:
            differ.append((name, json.loads(b), rec))
    if differ:
        name, b, h = differ[0]
        print(f"first difference: {name}")
        for key in sorted(set(b) | set(h)):
            if b.get(key) != h.get(key):
                print(f"  {key}:\n    base {b.get(key)!r:.600}\n    head {h.get(key)!r:.600}")
        for name, _, _ in differ[1:21]:
            print(f"also differs: {name}")
    print(
        f"{len(named)} inputs ({len(named) - args.mutants} corpus, chain, table and expression, "
        f"{args.mutants} mutants at seed {args.seed}); head exit codes "
        + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items(), key=str))
        + f"; {len(differ)} differ"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
