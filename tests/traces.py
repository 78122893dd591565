"""Shared golden rendering for the trace golden tests and regeneration.

`corpus_traces` is the text and JSON traces of the corpus.  `script_golden`
is everything else a script's user sees: the printed form and the run
messages of every corpus script, and the exit code, messages and trace of
each input in `MALFORMED` and `RULE_SHAPES`.  `token_golden` is the token
stream of every corpus script and of each input in `TOKEN_EDGES`."""

from symsum.demos import CORPUS
from symsum.script import (
    ScriptError,
    parse,
    print_script,
    render_trace_json,
    render_trace_text,
    run,
    tokenize,
)


def corpus_traces() -> str:
    """The text and JSON traces of every corpus script, with its exit code,
    in corpus order."""
    parts = []
    for name, source in CORPUS.items():
        result = run(source)
        parts.append(f"=== {name} exit={result.code} text")
        parts.append(render_trace_text(result.verdict))
        parts.append(f"=== {name} exit={result.code} json")
        parts.append(render_trace_json(result.verdict))
    return "\n".join(parts) + "\n"


_E3 = "atom E3 E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }\n"
_E1 = "atom E1 E(1) { F1: g=1, i=0, a=1, perp Sigma-1; Sigma-1: g=0, i=-1, a=1, perp F1 }\n"
_OK = _E3 + _E1 + "lhs sum(E3, F3, E1, F1)\nrhs sum(E3, F3, E1, F1)\ntarget =\n"

# one input per ScriptError raised by the tokenizer, parser and builder
MALFORMED = {
    "unterminated string": _OK + 'by R8 { eps = 0+1e } "trade',
    "unexpected character": _OK + "@",
    "expected token": _E3.replace("E(3)", "E(3"),
    "expected keyword": _E3.replace("g=1", "h=1"),
    "zero denominator": _E3.replace("a=1,", "a=1/0,", 1),
    "integer slot": _E3.replace("E(3)", "E(3/2)"),
    "unknown atom kind": _E3.replace("E(3)", "K3"),
    "unexpected declaration": "left E3",
    "expected expression": _E3 + "lhs (E3)",
    "unknown sum option": _E3 + _E1 + "lhs sum(E3, F3, E1, F1, glow = x)",
    "unknown blowup option": _E3 + "lhs blowup(E3, generic, size = 1/4, tint = x)",
    "unknown rule id": _OK + "by R99 { }",
    "expected target level": _E3 + "lhs E3 rhs E3 target lhs",
    "duplicate identifier": _E3 + _E3 + "lhs E3 rhs E3 target =",
    "unresolved perp": _E3.replace("perp F3", "perp Z") + "lhs E3 rhs E3 target =",
    "invalid atom marks": "atom X E(3) { S: g=0, i=-2, a=1 }\nlhs X rhs X target =",
    "invalid inline atom": "lhs E(3) { S: g=0, i=-2, a=1 } rhs E(3) target =",
    "inadmissible sum": _E3 + _E1.replace("F1: g=1, i=0, a=1", "F1: g=1, i=0, a=2")
    + "lhs sum(E3, F3, E1, F1) rhs E3 target =",
    "unresolved identifier": _E3 + "lhs E3 rhs E4 target =",
    "triple names an unknown mark": _E3 + "triple T (E3, Sigma-3, Nope)\nlhs E3 rhs E3 target =",
}

_W = (
    "atom W W(0,3,0+1e) { Gk: g=0, i=3, a=1, perp Gk2; Gk2: g=0, i=-1, a=1-2e, perp Gk }\n"
    "atom Y E(3) { S: g=0, i=-3, a=1 }\n"
)
_P = (
    "atom X E(3) { Sigma-3: g=0, i=-3, a=1 }\n"
    "atom P CP2 { Q: g=0, i=4, a=3/4 }\n"
    "atom L CP2 { M: g=0, i=1, a=1/4 }\n"
)
_FWD5 = "sum(P, Q, blowup(X, at=Sigma-3, size=1/4, transform=St), St)"
_REV5 = "sum(blowup(X, at=Sigma-3, size=1/4, transform=St), St, P, Q)"
_CHAIN = "".join(
    f"atom W{i} W(0,1,0+1e) {{ A{i}: g=0, i=-1, a=1+{i}e; B{i}: g=0, i=1, a=1+{i + 1}e }}\n"
    for i in range(5)
)
_NEST_L = "sum(sum(W1, B1, W2, A2), B2, W3, A3)"
_NEST_R = "sum(W1, B1, sum(W2, B2, W3, A3), A2)"
_Q2 = _E3 + _E1 + "atom Q2 CP2 { Q: g=0, i=4, a=2 }\n"


def _script(decls: str, lhs: str, *steps: str) -> str:
    return f"{decls}lhs {lhs}\nrhs {lhs}\ntarget ~\n" + "".join(f"by {s}\n" for s in steps)


_ASSOC = _E3 + _E1 + "atom P CP2 { L1: g=0, i=1, a=1, perp L2; L2: g=0, i=1, a=1, perp L1 }\n"
_E4 = "atom E4 E(4) { Sigma-4: g=0, i=-4, a=2; F4: g=1, i=0, a=1 }\n"

# both directions of the mirrored rules (R2, R3/R3b, R5, regroup): their
# notes, shape errors and side-condition failures
RULE_SHAPES = {
    "R2 and back": _script(
        _ASSOC, "sum(sum(E3, F3, E1, F1), Sigma-3#Sigma-1, desing(P, L1, L2, label=Q), Q)",
        "R2 { resolve_label = T-1, eps = 0+1e }", "R2 { resolve_label = Q } rev",
    ),
    "R2 rev and back": _script(
        _ASSOC, "sum(desing(E3, Sigma-3, F3, label=T-1), T-1, sum(E1, Sigma-1, P, L1), F1#L2)",
        "R2 { resolve_label = Q } rev", "R2 { resolve_label = T-1 }",
    ),
    "R2 not a sum": _script(_E3, "E3", "R2 { }"),
    "R2 not grouped": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R2 { }"),
    "R2 rev not grouped": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R2 { } rev"),
    "R2 unpaired": _script(
        _ASSOC + _E4, "sum(sum(E4, F4, E1, F1), Sigma-4, desing(P, L1, L2, label=Q), Q)",
        "R2 { }",
    ),
    "R2 rev unpaired": _script(
        _ASSOC + _E4, "sum(desing(P, L1, L2, label=Q), Q, sum(E4, F4, E1, F1), Sigma-4)",
        "R2 { } rev",
    ),
    "R3 and back": _script(
        _E3 + _W, "desing(E3, Sigma-3, F3, label=T-1)",
        "R3 { fiber = 0+1e, carry = T-1 }", "R3 { resolve_label = T-1 } rev",
    ),
    "R3 not desing": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R3 { }"),
    "R3 rev not a sum": _script(_E3, "desing(E3, Sigma-3, F3)", "R3 { } rev"),
    "R3 rev not ruled": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R3 { } rev"),
    "R3 rev unpaired": _script(_W, "sum(W, Gk, Y, S)", "R3 { } rev"),
    "R3b and back": _script(
        _E3 + _W, "desing(E3, Sigma-3, F3, label=T-1)",
        "R3b { fiber = 0+1e, carry = T-1 }", "R3b { resolve_label = T-1 } rev",
    ),
    "R3b not desing": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R3b { }"),
    "R3b rev not a sum": _script(_E3, "desing(E3, Sigma-3, F3)", "R3b { } rev"),
    "R3b rev not ruled": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R3b { } rev"),
    "R3b rev unpaired": _script(_W, "sum(Y, S, W, Gk)", "R3b { } rev"),
    "R5 and back": _script(
        _P, _FWD5, "R5 { exceptional = E9 }", "R5 { transform = St, exceptional = E } rev"
    ),
    "R5 rev and back": _script(_P, _REV5, "R5 { transform = Q9 } rev", "R5 { new_size = 1/8 }"),
    "R5 not a sum": _script(_P, "X", "R5 { }"),
    "R5 rev not a sum": _script(_P, "X", "R5 { } rev"),
    "R5 not blown up": _script(_P, _REV5, "R5 { }"),
    "R5 rev not blown up": _script(_P, _FWD5, "R5 { } rev"),
    "R5 not the transform": _script(_P, "sum(L, M, blowup(P, at=Q, size=1/4), E)", "R5 { }"),
    "R5 rev not the transform": _script(
        _P, "sum(blowup(P, at=Q, size=1/4), E, L, M)", "R5 { } rev"
    ),
    "regroup and back": _script(_CHAIN, _NEST_L, "regroup { }", "regroup { } rev"),
    "regroup rev and back": _script(_CHAIN, _NEST_R, "regroup { } rev", "regroup { }"),
    "regroup not a sum": _script(_CHAIN, "W1", "regroup { }"),
    "regroup rev not a sum": _script(_CHAIN, "W1", "regroup { } rev"),
    "regroup not nested": _script(_CHAIN, _NEST_R, "regroup { }"),
    "regroup rev not nested": _script(_CHAIN, _NEST_L, "regroup { } rev"),
    "regroup no common middle": _script(
        _CHAIN, "sum(sum(W1, B1, W2, A2), A1, W0, B0)", "regroup { }"
    ),
    "regroup rev no common middle": _script(
        _CHAIN, "sum(W4, A4, sum(W2, B2, W3, A3), B3)", "regroup { } rev"
    ),
    "regroup intersecting": _script(
        _Q2, "sum(sum(E3, F3, E1, F1, carry=Sigma-1), Sigma-1, Q2, Q)", "regroup { }"
    ),
    "regroup rev intersecting": _script(
        _Q2, "sum(Q2, Q, sum(E1, F1, E3, F3, carry=Sigma-1), Sigma-1)", "regroup { } rev"
    ),
}


def script_golden() -> str:
    parts = []
    for name, source in CORPUS.items():
        parts.append(f"=== {name} print_script")
        parts.append(print_script(parse(source)).rstrip("\n"))
        parts.append(f"=== {name} messages")
        parts.extend(run(source).messages)
    for table, inputs in (("malformed", MALFORMED), ("rule", RULE_SHAPES)):
        for name, source in inputs.items():
            result = run(source)
            parts.append(f"=== {table} {name} exit={result.code}")
            parts.extend(result.messages)
            if result.verdict is not None:
                parts.append(render_trace_text(result.verdict))
    return "\n".join(parts) + "\n"


# inputs at the edges of the lexer: where a token's line:col comes from,
# and each way tokenizing fails
TOKEN_EDGES = {
    "trailing comment without newline": "atom X CP2 # a comment",
    "comment then newline": "lhs X # note\nrhs Y\n",
    "string spanning a newline": 'by R8 { } "two\nlines" rev\ntarget =',
    "tab and carriage return": "atom\tX\r\nCP2 {\tQ: g=0, i=4, a=3/4 }\r\n",
    "unicode digit": "E(\u0663) a=1/\u0663",
    "unterminated string": 'by R8 { } "open\nrev',
    "stray at": "lhs X @ rhs",
    "stray dollar": "lhs\n  $X",
    "name with #+~^-": "Sigma-3#Sigma-1 T+1 S~2 A^b-c x#y # tail",
    "fraction with two slashes": "a=1/2/3",
    "numbers, signs and eps": "1+1/2e -3/4-0eps 12ab",
    "punctuation": "{}(),;:=.+-~",
    "empty": "",
    "only whitespace": " \t\r\n\n  ",
}


def _token_lines(source: str) -> list[str]:
    try:
        toks = tokenize(source)
    except ScriptError as exc:
        return [f"error: {exc}"]
    return [f"{t.kind} {t.value!r} {t.line}:{t.col}" for t in toks]


def token_golden() -> str:
    """`kind value line:col` of every token, or the tokenizer's error, of
    each corpus script and each input in `TOKEN_EDGES`."""
    parts = []
    for table, inputs in (("corpus", CORPUS), ("edge", TOKEN_EDGES)):
        for name, source in inputs.items():
            parts.append(f"=== {table} {name}")
            parts.extend(_token_lines(source))
    return "\n".join(parts) + "\n"
