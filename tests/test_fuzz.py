"""A gating fuzz of `run()`: token-level mutations of the corpus scripts.

Each mutation deletes, duplicates or swaps a token, or changes a digit
or a name, so most mutants still parse and reach the build and check
phases.  Whatever a mutant does, `run()` must return an exit code of the
contract (0 verified, 1 proof failure, 2 parse/resolution error) with
no exception escaping, an exit 2 must say why in exactly one line, and
the traces of an exit 0 or 1 must render.
"""

import random
import re
import time

from symsum.demos import CORPUS
from symsum.script import render_trace_json, render_trace_text, run

# the lexer's token classes, and blanks and comments kept as they are so
# that joining the pieces gives the text back
_PIECES = re.compile(
    r'\s+|#[^\n]*|"[^"]*"|[A-Za-z][A-Za-z0-9_#+~^-]*|\d+(?:/\d+)?|.', re.DOTALL
)
MUTATIONS = 2000
SEED = 20261018


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """`text` with one token mutated, and the kind of mutation."""
    pieces = _PIECES.findall(text)
    toks = [i for i, p in enumerate(pieces) if not p.isspace() and not p.startswith("#")]
    op = rng.choice(("delete", "duplicate", "swap", "digit", "name"))
    i = rng.choice(toks)
    if op == "delete":
        pieces[i] = ""
    elif op == "duplicate":
        pieces[i] += " " + pieces[i]
    elif op == "swap":
        j = toks[(toks.index(i) + 1) % len(toks)]
        pieces[i], pieces[j] = pieces[j], pieces[i]
    elif op == "digit":
        i = rng.choice([k for k in toks if re.search(r"\d", pieces[k])])
        spots = [m.start() for m in re.finditer(r"\d", pieces[i])]
        at = rng.choice(spots)
        pieces[i] = pieces[i][:at] + rng.choice("0123456789") + pieces[i][at + 1 :]
    else:
        names = [k for k in toks if pieces[k][0].isalpha()]
        i = rng.choice(names)
        pieces[i] = pieces[rng.choice(names)]
    return "".join(pieces), op


def test_mutated_corpus_scripts_keep_the_exit_code_contract():
    rng = random.Random(SEED)
    names = sorted(CORPUS)
    escapes, broken = [], []
    codes = {0: 0, 1: 0, 2: 0}
    start = time.process_time()
    for n in range(MUTATIONS):
        name = names[n % len(names)]
        text, op = mutate(CORPUS[name], rng)
        try:
            result = run(text)
            if result.code in (0, 1):
                render_trace_text(result.verdict)
                render_trace_json(result.verdict)
        except Exception as exc:  # the contract allows none to escape
            escapes.append(f"mutation {n} ({op} in {name}): {type(exc).__name__}: {exc}")
            continue
        if result.code not in codes:
            broken.append(f"mutation {n} ({op} in {name}): exit {result.code}")
            continue
        codes[result.code] += 1
        lines = "\n".join(result.messages).splitlines()
        if result.code == 2 and len(lines) != 1:
            broken.append(f"mutation {n} ({op} in {name}): exit 2 with {lines}")
    seconds = time.process_time() - start
    assert not escapes, escapes[:5]
    assert not broken, broken[:5]
    # the mutants reach every phase: some verify, some fail a proof step
    assert all(codes.values()), codes
    assert seconds < 10, f"{MUTATIONS} mutations took {seconds:.1f} s of CPU"
