"""Command-line entry point.

Subcommands: check (run a proof script), invariants (chi/sigma and the
mark table of an expression file), polytope (render moment-map figures),
demo (run a bundled script).  Exit codes: 0 verified, 1 proof failure,
2 parse/resolution/usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .core import SymsumError
from .demos import DEMOS
from .invariants import expr_invariants
from .script import (
    ScriptError,
    build_decls,
    build_expr,
    mark_table,
    parse_expr_file,
    run,
    render_trace_json,
    render_trace_text,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symsum",
        description="symbolic calculus and proof checker for sums of "
        "symplectic 4-manifolds",
    )
    p.add_argument("--version", action="version", version=f"symsum {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a proof script")
    check.add_argument("file")
    check.add_argument("--trace", choices=("text", "json"), default=None)

    inv = sub.add_parser("invariants", help="invariants of an expression file")
    inv.add_argument("file")

    poly = sub.add_parser("polytope", help="render moment-map figures")
    poly.add_argument("file")
    poly.add_argument(
        "--figure", choices=("triple", "pairsum", "foursum"), default="triple"
    )
    poly.add_argument("-o", "--output", required=True)

    demo = sub.add_parser("demo", help="run a bundled proof script")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.add_argument("--trace", choices=("text", "json"), default="text")
    return p


def _run_script(source: str, trace: str | None) -> int:
    result = run(source)
    if result.verdict is not None and trace:
        renderer = render_trace_json if trace == "json" else render_trace_text
        print(renderer(result.verdict))
    for msg in result.messages:
        stream = sys.stdout if result.code == 0 else sys.stderr
        print(msg, file=stream)
    return result.code


def _load_expr_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    ast = parse_expr_file(source)
    env, triples = build_decls(ast.decls)
    return build_expr(ast.expr, env), [(t.expr, t.s, t.t) for t in triples.values()]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "check":
            with open(args.file, "r", encoding="utf-8") as fh:
                return _run_script(fh.read(), args.trace)
        if args.command == "demo":
            return _run_script(DEMOS[args.name], args.trace)
        if args.command == "invariants":
            expr, _ = _load_expr_file(args.file)
            inv = expr_invariants(expr)
            print(f"chi={inv.euler} sigma={inv.signature}")
            print(mark_table(expr))
            return 0
        if args.command == "polytope":
            # only this subcommand draws, so only it imports the renderer
            from .polytope import render_four_sum, render_pair_sum, render_triple

            expr, triples = _load_expr_file(args.file)
            need = {"triple": 1, "pairsum": 2, "foursum": 4}[args.figure]
            if len(triples) < need:
                print(
                    f"figure {args.figure!r} needs {need} declared triple(s), "
                    f"found {len(triples)}",
                    file=sys.stderr,
                )
                return 2
            if args.figure == "triple":
                svg = render_triple(triples[0])
            elif args.figure == "pairsum":
                svg = render_pair_sum(triples[0], triples[1])
            else:
                svg = render_four_sum(tuple(triples[:4]))
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {args.output}")
            return 0
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ScriptError as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 2
    except SymsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
