"""Shared golden rendering for the trace golden tests and regeneration.

`corpus_traces` is the text and JSON traces of the corpus and of one
small ruled chain.  `script_golden`
is everything else a script's user sees: the printed form and the run
messages of every corpus script, and the exit code, messages and trace of
each input in `MALFORMED`, `RULE_SHAPES` and `RULE_MESSAGES`.  `token_golden` is the token
stream of every corpus script and of each input in `TOKEN_EDGES`.
`SIDE_EDGES` are inputs at the edges of the fast reader's sides."""

from symsum.demos import CORPUS
from symsum.script import (
    ScriptError,
    parse,
    print_script,
    render_trace_json,
    render_trace_text,
    run,
    token_positions,
)
from test_memo import chain_script


def corpus_traces() -> str:
    """The text and JSON traces of every corpus script, with its exit code,
    in corpus order, and then of a chain of 12 ruled atoms whose R8 pairs
    rebuild the spine down to depth 6, as perfbench's `deep` chains do."""
    parts = []
    for name, source in {**CORPUS, "chain_script(12, 6)": chain_script(12, 6)}.items():
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
# a number where a name slot or an option wants a name or a pair
MALFORMED.update(
    {
        "name slot given a number": _E3 + _E1 + "lhs sum(E3, 1, E1, F1)",
        "desing label given a number": _E3 + "lhs desing(E3, Sigma-3, F3, label = 3)",
        "sum glue given a number": _E3 + _E1 + "lhs sum(E3, F3, E1, F1, glue = 3)",
        "sum pair given a name": _E3 + _E1 + "lhs sum(E3, F3, E1, F1, pair = A)",
        "blowup transform given a number": (
            _E3 + "lhs blowup(E3, generic, size = 1/4, transform = 3)"
        ),
        "blowup exc given a number": _E3 + "lhs blowup(E3, generic, size = 1/4, exc = 3)",
    }
)
# a step's slot value written as a string: labels that no reader reads
# back, and a path that reads the same written bare; and a slot written twice
MALFORMED.update(
    {
        "step slot given quoted labels": _E3 + "lhs E3 rhs E3 target ~\n"
        'by R4 { s = Sigma-3, glue_section = "a b", twin_section = "1" }\n',
        "step slot given a quoted path": _E3 + _E1 + "lhs sum(E3, F3, E1, F1)\n"
        "rhs sum(thin(E3, F3, 0+1e), F3-, thicken(E1, F1, 0+1e), F1+)\ntarget =\n"
        'by R8 { at = "root", eps = 0+1e }\n',
        "step slot given twice": _E3 + _E1 + "lhs sum(E3, F3, E1, F1)\n"
        "rhs sum(thin(E3, F3, 0+1e), F3-, thicken(E1, F1, 0+1e), F1+)\ntarget =\n"
        "by R8 { eps = 0+5e, eps = 0+1e }\n",
    }
)
# where a build failure is reported, and what wins over it: an operation
# failing below the root is reported at the root of its side or of its
# triple's expression; a syntax error, a duplicate identifier and a failed
# atom anywhere come first; the first build failure in the text wins
_SIZE0 = "blowup(E3, generic, size = 0)"
MALFORMED.update(
    {
        "operation failing below the lhs root": (
            _E3 + f"lhs thin({_SIZE0}, F3, 0+1e) rhs E3 target =\n"
        ),
        "operation failing below a triple's root": (
            _E3 + f"triple T (thin({_SIZE0}, F3, 0+1e), Sigma-3, F3)\nlhs E3 rhs E3 target =\n"
        ),
        "lhs build failure, then a failing inline atom in the rhs": (
            _E3 + f"lhs {_SIZE0}\nrhs E(3) {{ S: g=0, i=-2, a=1 }} target =\n"
        ),
        "lhs build failure, then a syntax error": _E3 + f"lhs {_SIZE0}\nrhs E3 target = by\n",
        "triple build failure, then a duplicate identifier": (
            _E3 + f"triple T ({_SIZE0}, Sigma-3, F3)\ntriple T (E3, Sigma-3, F3)\n"
            "lhs E3 rhs E3 target =\n"
        ),
        "lhs build failure, then an unresolved identifier in the rhs": (
            _E3 + f"lhs {_SIZE0}\nrhs E4 target =\n"
        ),
        "unresolved identifier, then a syntax error": _E3 + "lhs E4 rhs E3 target = by\n",
        "unresolved identifier, then a failing rhs": (
            _E3 + f"lhs sum(E3, F3, E4, F1) rhs {_SIZE0} target =\n"
        ),
        "sum of an atom that failed": (
            "atom X E(3) { S: g=0, i=-2, a=1 }\n" + _E1
            + "lhs sum(X, S, E1, F1) rhs E1 target =\n"
        ),
        "triple of an atom declared after it": (
            "triple T (E3, Sigma-3, F3)\n" + _E3 + "lhs E3 rhs E3 target =\n"
        ),
        "lhs names a triple": _E3 + "triple T (E3, Sigma-3, F3)\nlhs T rhs E3 target =\n",
        "triple names an unknown mark, then a failing lhs": (
            _E3 + f"triple T (E3, Sigma-3, Nope)\nlhs {_SIZE0} rhs E3 target =\n"
        ),
    }
)

# malformed mark specs: each fixed token of one spec (the pieces of
# `_SPEC` at `_FIXED`) deleted or replaced, bad numbers, texts that end
# early, unclosed kinds, and a kind's text read again after a failed atom
_SPEC = ("A1", ":", "g", "=", "0", ",", "i", "=", "-1", ",", "a", "=", "1+1e", ",", "perp", "B1")
_FIXED = (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14)


def _spec_script(*edits: tuple[int, str]) -> str:
    """A script whose ruled atom's first mark spec is `_SPEC` with the
    piece at each index replaced; it verifies as it stands."""
    spec = list(_SPEC)
    for k, piece in edits:
        spec[k] = piece
    spec = " ".join(piece for piece in spec if piece)
    return f"atom W1 W(0,1,0+1e) {{ {spec}; B1: g=0, i=0, a=0+1e }}\nlhs W1 rhs W1 target =\n"


_CUT = "atom W1 W(0,1,0+1e) { A1: g=0, i=-1, a ="
MALFORMED.update(
    {
        f"mark spec {k}:{_SPEC[k]!r} {'deleted' if not r else f'as {r!r}'}": _spec_script((k, r))
        for k in _FIXED
        for r in ("", "h", ";", ":")
        if r != _SPEC[k]
    }
)
MALFORMED.update(
    {
        "mark spec g=-1": _spec_script((4, "-1")),
        "mark spec g=3/2": _spec_script((4, "3/2")),
        "mark spec i=1/2": _spec_script((8, "1/2")),
        "mark spec i=-x": _spec_script((8, "-x")),
        "mark spec i=-": _spec_script((8, "-")),
        "mark spec i=--1": _spec_script((8, "--1")),
        "mark spec i=-1/2": _spec_script((8, "-1/2")),
        "mark spec g=-0": _spec_script((4, "-0")),
        "mark spec i=-0": _spec_script((8, "-0")),
        "mark spec label is a number": _spec_script((0, "1")),
        "mark spec ends after a =": _CUT,
        "mark spec ends after perp": _CUT + " 1+1e, perp",
        "mark spec ends after a kind tag": "atom W1 W",
        "mark spec ends inside a kind": "atom W1 W(0,1",
        "mark spec kind without )": _spec_script().replace("0+1e)", "0+1e", 1),
        "mark spec kind CP2(": "atom P CP2( { L: g=0, i=1, a=1 }\nlhs P rhs P target =\n",
        "mark spec kind repeated after a failed atom": (
            "atom W1 W(0,1,0+1e) { A1: g=0, i=-3, a=1 }\n"
            "atom W2 W(0,1,0+1e) { A2: g=0, i=-1, a=1+2e }\nlhs W2 rhs W2 target =\n"
        ),
        "mark spec failed kind repeated": (
            "atom W1 W(0,1,0) { }\natom W2 W(0,1,0) { A2: g=0, i=-1, a=1 }\n"
            "atom W3 W(0,1,0+1e) { }\nlhs W3 rhs W3 target =\n"
        ),
    }
)
# declarations at the token boundaries of a mark spec, most of which a
# pattern that lost a boundary would read on past: a word stuck to
# `perp`, to `atom` or to an eps word (`e#x` and `e-3` are names), integer
# slots written as fractions or with a blank after the sign, comments and
# line breaks inside a mark block, a `}` that closes the block only inside
# a comment, a label holding `#` whose text after it would read as a
# comment, and a kind split over lines or holding a `)` inside a comment;
# the ones that parse are in test_script's ROUND_TRIP
_CP2 = "atom P CP2 { L: g=0, i=1, a=1 }\nlhs P rhs P target =\n"
MALFORMED.update(
    {
        "mark spec perpX": _spec_script((14, "perpB1"), (15, "")),
        "mark spec a=1+2e-3": _spec_script((12, "1+2e-3")),
        "mark spec eps word holding #": _spec_script((12, "1+1e#x\n")),
        "mark spec g=0/1": _CP2.replace("g=0", "g=0/1"),
        "mark spec i=2/2": _CP2.replace("i=1", "i=2/2"),
        "mark spec i=- 1": _spec_script((8, "- 1")),
        "mark spec a=1/0": _spec_script((12, "1/0")),
        "mark block with a comment": _spec_script((7, "= # a note ; }\n")),
        "mark block with line breaks": _spec_script((5, "\n,"), (13, "\n,")),
        "mark block closed only inside a comment": _CP2.replace("a=1 }", "a=1 # }"),
        "mark label holding #": _spec_script((0, "A#1")),
        "mark label holding # before a bad spec": _CP2.replace(
            "L: g=0, i=1, a=1", "L#x: g=0, i=1, a=x\n: g=0, i=1, a=1"
        ),
        "atomX": _spec_script().replace("atom ", "atom", 1),
        "kind split over lines": _spec_script().replace("W(0,1,0+1e)", "W(0,\n1,\n0+1e)"),
        "kind with a ) inside a comment": _spec_script().replace("W(0,1,", "W(0,1 # )\n,"),
    }
)

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
# a mark label that two summands share: an atom summed with itself, a
# label that an inner gluing used up and a later summand carries again,
# and a four-fold sum that repeats an entry
MALFORMED.update(
    {
        "labels reused by an atom summed with itself": (
            _CHAIN + "lhs sum(W1, B1, W1, A1) rhs W1 target =\n"
        ),
        "labels reused after an inner gluing": (
            _CHAIN.replace("B3: g=0, i=1", "B1: g=0, i=1")
            + "lhs sum(sum(W1, B1, W2, A2), B2, W3, B1) rhs W1 target =\n"
        ),
        "labels reused by a repeated sum4 entry": (
            _E3 + "lhs sum4((E3, Sigma-3, F3), (E3, Sigma-3, F3), (E3, Sigma-3, F3), "
            "(E3, Sigma-3, F3)) rhs E3 target =\n"
        ),
    }
)
# the checks that building an atom, a sum, a four-fold sum or a blow-up
# makes, each failed on its own: the order of a node's checks decides
# which message a script that fails several of them sees
_E1U = "atom E1u E(1) { F1: g=1, i=0, a=1 }\n"
_E1V = "atom E1v E(1) { Sigma-1: g=0, i=-1, a=1; F1: g=1, i=0, a=1 }\n"
_Q3 = (
    "atom Q3 CP2 { L1: g=0, i=1, a=1, perp L2; L2: g=0, i=1, a=1, perp L1; "
    "L3: g=0, i=1, a=1 }\n"
)
# X3's mark A1#B2 has the label that a sum of X1 and X2 would carry by default
_X = "".join(
    f"atom X{n} Rational({n + 4}) {{ A{n}: g=1, i=2, a=1, perp B{n}; "
    f"B{n}: g=1, i=-2, a=1, perp A{n}{extra} }}\n"
    for n, extra in ((1, ""), (2, ""), (3, "; A1#B2: g=0, i=0, a=1"), (4, ""))
)
_SUM4 = "lhs sum4((X1, A1, B1), (X2, A2, B2), (X3, A3, B3), (X4, A4, B4)) rhs X1 target =\n"
MALFORMED.update(
    {
        "atom duplicate mark label": (
            "atom X E(3) { S: g=0, i=-3, a=1; S: g=1, i=0, a=1 }\nlhs X rhs X target =\n"
        ),
        "atom perp chain A perp B, B perp C": (
            "atom X CP2 { A: g=0, i=1, a=1, perp B; B: g=0, i=1, a=1, perp C; "
            "C: g=0, i=1, a=1 }\nlhs X rhs X target =\n"
        ),
        "atom CP2 lines meet twice": (
            "atom X CP2 { L: g=0, i=1, a=1, perp Q; Q: g=0, i=4, a=2, perp L }\n"
            "lhs X rhs X target =\n"
        ),
        "atom ruled section too small": (
            "atom X W(0,1,0+1e) { A: g=0, i=1, a=0+1e }\nlhs X rhs X target =\n"
        ),
        "atom ruled sections meet twice": (
            "atom X W(0,3,0+1e) { G3: g=0, i=3, a=1+1e, perp G1; G1: g=0, i=1, a=1 }\n"
            "lhs X rhs X target =\n"
        ),
        "atom ruled fibers paired": (
            "atom X W(0,1,0+1e) { F1: g=0, i=0, a=0+1e, perp F2; F2: g=0, i=0, a=0+1e }\n"
            "lhs X rhs X target =\n"
        ),
        "sum fails genus, normal number and area": (
            _E3 + "atom P2 CP2 { Q: g=0, i=4, a=2 }\nlhs sum(E3, F3, P2, Q) rhs E3 target =\n"
        ),
        "sum carry without a left partner": (
            _CHAIN + "lhs sum(W1, B1, W2, A2, carry = Z) rhs W1 target =\n"
        ),
        "sum carry without a right partner": (
            _E3 + _E1U + "lhs sum(E3, F3, E1u, F1, carry = Z) rhs E3 target =\n"
        ),
        "sum pair names an unknown mark": (
            _E3 + _E1 + "lhs sum(E3, F3, E1, F1, pair = Sigma-3#Sigma-1:Nope) rhs E3 target =\n"
        ),
        "sum pair of a paired mark": (
            _Q3 + _E1V + "lhs sum(Q3, L3, E1v, Sigma-1, pair = L1:F1) rhs Q3 target =\n"
        ),
        "sum pair of a mark with itself": (
            _Q3 + _E1V + "lhs sum(Q3, L3, E1v, Sigma-1, pair = F1:F1) rhs Q3 target =\n"
        ),
        "sum4 triple not paired": (
            _X.replace(", perp B4", "").replace(", perp A4", "") + _SUM4
        ),
        "sum4 fails at i=1 and i=2": (
            _X.replace("A2: g=1, i=2, a=1", "A2: g=1, i=3, a=2")
            .replace("A3: g=1, i=2", "A3: g=2, i=2") + _SUM4
        ),
        "sum4 with a mark named as a default carried one": _X + _SUM4,
        "blowup size zero": _E3 + "lhs blowup(E3, generic, size = 0) rhs E3 target =\n",
        "blowup size too large": _E3 + "lhs blowup(E3, at = F3, size = 2) rhs E3 target =\n",
        "blowup pairexc at a generic point": (
            _E3 + "lhs blowup(E3, generic, size = 1/4, pairexc) rhs E3 target =\n"
        ),
        "blowup pairexc on a paired mark": (
            _E3 + "lhs blowup(E3, at = F3, size = 1/4, pairexc) rhs E3 target =\n"
        ),
        "atom blow-up count negative": "atom R Rational(-1) { }\nlhs R rhs R target =\n",
        # the atom checks that no other input pins
        "atom elliptic n zero": "lhs E(0) { } rhs E(0) { } target =\n",
        "atom ruled base genus negative": "lhs W(-1,1,1) { } rhs W(-1,1,1) { } target =\n",
        "atom ruled twist zero": "lhs W(0,0,1) { } rhs W(0,0,1) { } target =\n",
        "atom mark perp itself": "atom X CP2 { L: g=0, i=1, a=1, perp L }\nlhs X rhs X target =\n",
        "atom ruled section genus not the base genus": (
            "lhs W(1,1,1) { A: g=0, i=1, a=5 } rhs W(1,1,1) { } target =\n"
        ),
    }
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


_THICK_DES = "thicken(desing(E3, Sigma-3, F3, label=ST), ST, 0+1e)"
_E3U = "atom E3 E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=2, perp Sigma-3 }\n"
_R = (
    "atom R Rational(1) { S: g=0, i=-2, a=1 }\n"
    "atom R1 Rational(1) { S: g=1, i=-3, a=1 }\n"
    "atom Z Rational(0) { M: g=0, i=3, a=3/4; Q: g=0, i=4, a=3/4 }\n"
    "atom Z1 Rational(0) { M: g=1, i=4, a=3/4 }\n"
)
_BLOW_X = "blowup(X, at=Sigma-3, size=1/4, transform=St)"
_LINES = "atom P4 CP2 { L1: g=0, i=1, a=1/4, perp L2; L2: g=0, i=1, a=1/4, perp L1 }\n"
_FOLD = (
    "atom R2 Rational(2) { S: g=0, i=-1, a=1 }\n"
    "atom R0 Rational(0) { S: g=0, i=-1, a=1 }\n"
)
_SPLIT = (
    "atom W2 W(0,1,0+2e) { G-1: g=0, i=-1, a=1; G1: g=0, i=1, a=1+2e }\n"
    "atom Wa W(0,1,0+1e) { G-1: g=0, i=-1, a=1; c1: g=0, i=1, a=1+1e }\n"
    "atom Wb W(0,1,0+1e) { c2: g=0, i=-1, a=1+1e; G1: g=0, i=1, a=1+2e }\n"
    "atom Wc W(0,1,0+2e) { c3: g=0, i=-1, a=1+1e; H1: g=0, i=1, a=1+3e }\n"
    "atom Wf W(0,1,0+1e) { G-1: g=0, i=-1, a=1; c1: g=0, i=1, a=1+1e; Fa: g=0, i=0, a=0+1e }\n"
    "atom W3 W(0,3,0+2e) { G-1: g=0, i=-1, a=1; G1: g=0, i=1, a=1+2e; G3: g=0, i=3, a=1+4e }\n"
    "atom W4 W(0,1,0+2e) { G-1: g=0, i=-1, a=1; G1: g=0, i=1, a=1+2e, perp F;\n"
    "  F: g=0, i=0, a=0+2e, perp G1 }\n"
)
_RULED = (
    "atom V W(0,3,0+1e) { Gk: g=0, i=3, a=1; Gm: g=0, i=-3, a=1-3e }\n"
    "atom V1 W(0,1,0+1e) { G1: g=0, i=1, a=1 }\n"
    "atom V3 W(0,3,0+1e) { G3: g=0, i=3, a=1; G1: g=0, i=1, a=1-1e }\n"
    "atom Vp W(0,3,0+1e) { Gk: g=0, i=3, a=1, perp Fw; Gm: g=0, i=-3, a=1-3e;\n"
    "  Fw: g=0, i=0, a=0+1e, perp Gk }\n"
)
_COLLAR = (
    "atom B Rational(0) { B: g=0, i=-3, a=0+1e }\n"
    "atom A Rational(0) { A: g=0, i=1, a=1; A-: g=0, i=0, a=1 }\n"
    "atom A1 Rational(0) { A: g=0, i=1, a=0+1e }\n"
    "atom U Rational(0) { A: g=0, i=1, a=1; B: g=0, i=1, a=1 }\n"
    "atom E5 E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3;\n"
    "  F2: g=1, i=0, a=1 }\n"
)


def _assoc(*marks) -> str:
    """The three summands X1, X2, X3 of R2 as rational surfaces, whose
    marks are free: X{n} carries S{n} and T{n}, paired, and `marks` gives
    (genus, normal number, area) of S1, T1, S2, T2, S3, T3."""
    out = ""
    for n in (1, 2, 3):
        (gs, i_s, a_s), (gt, i_t, a_t) = marks[2 * n - 2 : 2 * n]
        out += (
            f"atom X{n} Rational(1) {{ S{n}: g={gs}, i={i_s}, a={a_s}, perp T{n}; "
            f"T{n}: g={gt}, i={i_t}, a={a_t}, perp S{n} }}\n"
        )
    return out


_FWD2 = "sum(sum(X1, T1, X2, S2), S1#T2, desing(X3, S3, T3, label=Q), Q)"
_REV2 = "sum(desing(X1, S1, T1, label=Q), Q, sum(X2, T2, X3, S3), S2#T3)"

# sums of the shapes R1, R2 and R6 read, glued along other marks than
# the carried ones, the desingularized one or the proper transform
_GLUED_ELSEWHERE_R1 = "".join(
    f"atom X{n} Rational({n}) {{ A{n}: g=1, i=2, a=1, perp B{n}; "
    f"B{n}: g=1, i=-2, a=1, perp A{n}{extra} }}\n"
    for n, extra in ((1, "; M: g=2, i=1, a=3"), (2, ""), (3, "; N: g=2, i=-1, a=3"), (4, ""))
)
_GLUED_ELSEWHERE_R2 = (
    "atom X1 Rational(0) { S1: g=0, i=0, a=1, perp T1; T1: g=0, i=0, a=1, perp S1; "
    "M1: g=0, i=2, a=5 }\n"
    "atom X2 Rational(0) { S2: g=0, i=0, a=1, perp T2; T2: g=0, i=0, a=1, perp S2 }\n"
    "atom X3 Rational(0) { S3: g=0, i=0, a=1, perp T3; T3: g=0, i=-2, a=1, perp S3; "
    "N3: g=0, i=-2, a=5 }\n"
)


def _step(decls: str, lhs: str, rhs: str, target: str, step: str) -> str:
    return f"{decls}lhs {lhs}\nrhs {rhs}\ntarget {target}\nby {step}\n"


# ruled summands that R4 reverse refuses: three sections, a fiber glued,
# sections whose self-intersections do not cancel
_W3S = (
    "atom W W(0,1,1) { G1: g=0, i=1, a=2; Ga: g=0, i=1, a=2; Gm: g=0, i=-1, a=1 }\n"
    "atom P CP2 { L: g=0, i=1, a=1 }\n"
)
_WF = (
    "atom W W(0,1,1) { G1: g=0, i=1, a=2; Gm: g=0, i=-1, a=1; F: g=0, i=0, a=1 }\n"
    "atom R Rational(0) { M: g=0, i=0, a=1 }\n"
)
_V3 = _RULED + "atom R Rational(1) { S: g=0, i=-1, a=1-1e }\n"
_E2 = (
    "atom Ea E(2) { Sa: g=0, i=-2, a=1, perp Fa; Fa: g=1, i=0, a=1, perp Sa }\n"
    "atom Eb E(2) { Sb: g=0, i=-2, a=1, perp Fb; Fb: g=1, i=0, a=1, perp Sb }\n"
)
_XP = _X.replace("; A1#B2: g=0, i=0, a=1", "")
_SUM4X = "sum4((X1, A1, B1), (X2, A2, B2), (X3, A3, B3), (X4, A4, B4))"


# the shape errors and side-condition failures of the other rules, and the
# failures of building thin, thicken and desing, that a script can reach.
# The checks that the marks of a well-formed expression always meet have
# no input: they are listed, each with its reason, in CERTIFICATES below.
RULE_MESSAGES = {
    # R2's side conditions that a script can break: the rows that the
    # glued marks do not settle already
    "R2 genus T2 S3": _script(
        _assoc((1, 0, 1), (0, 0, 1), (0, 0, 1), (0, -1, 1), (1, 0, 1), (0, -1, 1)), _FWD2, "R2 { }"
    ),
    "R2 area T2 S3": _script(
        _assoc((0, 0, 1), (0, 0, 1), (0, 0, 1), (0, -1, 1), (0, 0, "3/2"), (0, -1, "1/2")), _FWD2,
        "R2 { }",
    ),
    "R2 normal T2 S3": _script(
        _assoc((0, -2, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 1), (0, -1, 1)), _FWD2, "R2 { }"
    ),
    "R2 rev genus T1 S2": _script(
        _assoc((1, 0, 1), (0, -1, 1), (1, 0, 1), (0, 0, 1), (0, 0, 1), (0, -1, 1)), _REV2,
        "R2 { } rev",
    ),
    "R2 rev area T1 S2": _script(
        _assoc((0, 0, 1), (0, -1, 1), (0, 0, "3/2"), (0, 0, 1), (0, 0, 1), (0, -1, "1/2")), _REV2,
        "R2 { } rev",
    ),
    "R2 rev normal T1 S2": _script(
        _assoc((0, 0, 1), (0, 0, 1), (0, 1, 1), (0, -1, 1), (0, 1, 1), (0, -3, 1)), _REV2,
        "R2 { } rev",
    ),
    "R2 eps collar too thin": _script(
        _assoc((0, 0, 2), (0, -1, "0+2e"), (0, 1, "0+2e"), (0, 3, 2), (0, -3, 2), (0, -2, 2)),
        _FWD2, "R2 { eps = 0+1e }",
    ),
    # R3r, the exact resolution
    "R3r and back": _script(
        _E3, _THICK_DES, "R3r { eps = 0+1e }", "R3r { resolve_label = ST } rev"
    ),
    "R3r not thickened": _script(_E3, "desing(E3, Sigma-3, F3)", "R3r { }"),
    "R3r eps mismatch": _script(_E3, _THICK_DES, "R3r { eps = 0+2e }"),
    "R3r summand not buildable": _script(_E3U, _THICK_DES, "R3r { eps = 0+1e }"),
    "R3r rev not a sum": _script(_E3, "E3", "R3r { } rev"),
    "R3r rev not ruled": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R3r { } rev"),
    "R3r rev not a collar": _script(_W, "sum(W, Gk, Y, S)", "R3r { } rev"),
    # R6, the rational blow-down
    "R6 rev and back": _script(
        _P, "X", "R6 { s = Sigma-3, size = 1/4, transform = St } rev", "R6 { }"
    ),
    "R6 not a sum": _script(_P, "X", "R6 { }"),
    "R6 not blown up": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R6 { }"),
    "R6 not -3": _script(_R, "sum(blowup(R, at=S, size=1/4, transform=St), St, Z, M)", "R6 { }"),
    "R6 not genus 0": _script(
        _R, "sum(blowup(R1, at=S, size=1/4, transform=St), St, Z1, M)", "R6 { }"
    ),
    "R6 not a plane": _script(_P + _R, f"sum({_BLOW_X}, St, Z, Q)", "R6 { }"),
    "R6 rev no sphere": _script(_P, "X", "R6 { } rev"),
    "R6 rev not -3": _script(_E4, "E4", "R6 { s = Sigma-4 } rev"),
    "R6 rev no size": _script(_P, "X", "R6 { s = Sigma-3 } rev"),
    # R7, blow-down as a plane sum
    "R7 rev paired and back": _script(
        _P, "X", "R7 { at_mark = Sigma-3, size = 1/4, transform = St, pair_exceptional = 1 } rev",
        "R7 { }",
    ),
    "R7 rev generic and back": _script(_P, "X", "R7 { size = 1/4 } rev", "R7 { }"),
    "R7 rev no size": _script(_P, "X", "R7 { } rev"),
    "R7 not a sum": _script(_P, "X", "R7 { }"),
    "R7 not a plane": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R7 { }"),
    "R7 not two lines": _script(_P, "sum(blowup(X, generic, size=1/4), E, L, M)", "R7 { }"),
    "R7 fold elliptic": _script(_ASSOC, "sum(E1, Sigma-1, P, L1)", "R7 { mark = T }"),
    "R7 fold rational": _script(_FOLD + _ASSOC, "sum(R2, S, P, L1)", "R7 { }"),
    "R7 fold no blow-ups": _script(_FOLD + _ASSOC, "sum(R0, S, P, L1)", "R7 { }"),
    "R7 not blown up there": _script(
        _P + _LINES,
        "sum(blowup(blowup(X, generic, size=1/4), generic, size=1/8, exc=E2), E, P4, L1)",
        "R7 { }",
    ),
    # R8, the collar trade
    "R8 and back": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { eps = 0+1e }", "R8 { } rev"),
    "R8 not a sum": _script(_E3, "E3", "R8 { }"),
    "R8 no eps": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { }"),
    "R8 eps not infinitesimal": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { eps = 1 }"),
    "R8 rev not a collar": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { } rev"),
    "R8 rev unequal amounts": _script(
        _E3 + _E1, "sum(thin(E3, F3, 0+1e), F3-, thicken(E1, F1, 0+2e), F1+)", "R8 { } rev"
    ),
    # R10, splitting a ruled surface
    "R10 and back": _script(
        _SPLIT, "W2", "R10 { plus = G1, minus = G-1, cut1 = c1, cut2 = c2 }", "R10 { } rev"
    ),
    "R10 not an atom": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R10 { }"),
    "R10 not ruled": _script(_E3, "E3", "R10 { }"),
    "R10 no sections": _script(_SPLIT, "W2", "R10 { plus = G1 }"),
    "R10 wrong indices": _script(_SPLIT, "W2", "R10 { plus = G-1, minus = G1 }"),
    "R10 third section": _script(_SPLIT, "W3", "R10 { plus = G1, minus = G-1 }"),
    "R10 paired fiber": _script(_SPLIT, "W4", "R10 { plus = G1, minus = G-1 }"),
    "R10 rev not a sum": _script(_SPLIT, "W2", "R10 { } rev"),
    "R10 rev not atoms": _script(
        _Q2, "sum(sum(E3, F3, E1, F1), Sigma-3#Sigma-1, Q2, Q)", "R10 { } rev"
    ),
    "R10 rev not ruled": _script(_W, "sum(W, Gk, Y, S)", "R10 { } rev"),
    "R10 rev unequal fibers": _script(_SPLIT, "sum(Wa, c1, Wc, c3)", "R10 { } rev"),
    "R10 rev fiber mark": _script(_SPLIT, "sum(Wf, c1, Wb, c2)", "R10 { } rev"),
    # R11, moving a blow-up between the sections of a ruled surface
    "R11 twice": _script(
        _RULED, "blowup(V, at=Gk, size=1/4)", "R11 { }", "R11 { }"
    ),
    "R11 new fiber": _script(
        _RULED, "blowup(V, at=Gk, size=1/4)", "R11 { new_fiber = 0+2e, new_size = 1/8, pre = P }"
    ),
    "R11 not blown up": _script(_RULED, "V", "R11 { }"),
    "R11 not ruled": _script(_P, _BLOW_X, "R11 { }"),
    "R11 one section": _script(_RULED, "blowup(V1, at=G1, size=1/4)", "R11 { }"),
    "R11 same sign": _script(_RULED, "blowup(V3, at=G3, size=1/4)", "R11 { }"),
    "R11 paired section": _script(_RULED, "blowup(Vp, at=Gm, size=1/4)", "R11 { }"),
    "R11 fiber mark": _script(
        "atom W W(0,1,2) { G1: g=0, i=1, a=3; G-1: g=0, i=-1, a=1; F: g=0, i=0, a=2 }\n",
        "blowup(W, at = G1, size = 1/4)", "R11 { }",
    ),
    # the collar forms thin and thicken, and desing
    "thin and thicken": _script(_E3, "thin(thicken(E3, F3, 0+1e), Sigma-3+, 0+1e)"),
    "thin amount not infinitesimal": _script(_E3, "thin(E3, Sigma-3, 1)"),
    "thicken amount not positive": _script(_E3, "thicken(E3, F3, 0-1e)"),
    "thicken section too small": _script(_COLLAR, "thicken(B, B, 0+1e)"),
    "thin unknown mark": _script(_E3, "thin(E3, Nope, 0+1e)"),
    "thicken unknown mark": _script(_E3, "thicken(E3, Nope, 0+1e)"),
    "thicken unknown mark and amount": _script(_E3, "thicken(E3, Nope, 1)"),
    "thin label collision": _script(_COLLAR, "thin(A, A, 0+1e)"),
    # the carried label names a mark that the right summand keeps
    "sum carry label collision": _script(
        _E3 + _E1.replace(" }", "; M: g=1, i=0, a=1 }"), "sum(E3, F3, E1, F1, carry = M)"
    ),
    "thin area not positive": _script(_COLLAR, "thin(A1, A, 0+1e)"),
    "desing default label": _script(_E3, "desing(E3, Sigma-3, F3)"),
    "desing unpaired": _script(_COLLAR, "desing(U, A, B)"),
    "desing unknown mark": _script(_E3, "desing(E3, Sigma-3, Nope)"),
    "desing label collision": _script(_COLLAR, "desing(E5, Sigma-3, F3, label=F2)"),
    # R11 with `pre` naming the transform label, which would drop a section
    "R11 pre is the transform": _script(
        _RULED, "blowup(V, at=Gk, size=1/4)", "R11 { pre = Gk~ }"
    ),
    # a slot that the rule never reads
    "R8 unused slot": _script(
        _E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { at = root, eps = 0+1e, cary = Zz }"
    ),
    "R8 shift2 without shift1": _script(
        _E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { eps = 0+1e, shift2 = F1, by2 = 1 }"
    ),
    # a rebuilt tree whose new summand carries a label of another summand
    "R8 labels reused": _script(
        _Q2, "sum(sum(E3, F3, E1, F1), Sigma-3#Sigma-1, Q2, Q)",
        "R8 { at = left, eps = 0+1e, carry = Q }",
    ),
    # a sum of the shape a rule reads, glued along other marks
    "R1 glued elsewhere": _step(
        _GLUED_ELSEWHERE_R1, "sum(sum(X1, B1, X2, A2), M, sum(X3, B3, X4, A4), N)",
        "sum(sum(X2, B2, X3, A3), A2#B3, sum(X4, B4, X1, A1), A4#B1)", "=", "R1 { rotate = 1 }",
    ),
    # R1 regrouping a grand sum whose X3 has a mark named as the default
    # carried mark of X1 # X2: only rotation 2 builds that sum
    **{
        f"R1 rotate {r} past a mark named as a carried one": _step(
            _X, "sum(sum(X1, B1, X2, A2, carry=Z), Z, sum(X3, B3, X4, A4), A3#B4)", rhs, "=",
            f"R1 {{ rotate = {r} }}",
        )
        for r, rhs in (
            (1, "sum(sum(X2, B2, X3, A3), A2#B3, sum(X4, B4, X1, A1), A4#B1)"),
            (2, "sum(sum(X1, B1, X2, A2, carry=Z), Z, sum(X3, B3, X4, A4), A3#B4)"),
            (3, "sum(sum(X4, B4, X1, A1), A4#B1, sum(X2, B2, X3, A3), A2#B3)"),
        )
    },
    "R2 glued elsewhere": _step(
        _GLUED_ELSEWHERE_R2, "sum(sum(X1, T1, X2, S2), M1, desing(X3, S3, T3, label=Q), N3)",
        "sum(desing(X1, S1, T1, label=R), R, sum(X2, T2, X3, S3), S2#T3)", "~",
        "R2 { resolve_label = R }",
    ),
    "R2 rev glued elsewhere": _step(
        _GLUED_ELSEWHERE_R2, "sum(desing(X1, S1, T1, label=R), M1, sum(X2, T2, X3, S3), N3)",
        "sum(sum(X1, T1, X2, S2), S1#T2, desing(X3, S3, T3, label=Q), Q)", "~",
        "R2 { resolve_label = Q } rev",
    ),
    "R6 glued elsewhere": _step(
        "atom R Rational(2) { S: g=0, i=-3, a=2; M: g=0, i=-4, a=1 }\n"
        "atom Z CP2 { Q: g=0, i=4, a=1 }\n",
        "sum(blowup(R, at = S, size = 1/4, transform = St), M, Z, Q)", "R", "~", "R6 { }",
    ),
    "R6 glued along a cubic": _step(
        "atom R Rational(2) { S: g=0, i=-3, a=2; M: g=1, i=-9, a=3 }\n"
        "atom Z CP2 { Q: g=1, i=9, a=3 }\n",
        "sum(blowup(R, at = S, size = 1/4, transform = St), M, Z, Q)", "R", "~", "R6 { }",
    ),
    # rule sites that no input above reaches: R4's reverse and its slot s,
    # R9 both ways, R1's shapes and its reverse, deform, R6's quadric side
    # read through desing and refused as a blow-up, R7 on unpaired lines,
    # the split's area refusal, and the slot readers' type errors
    "R4 rev not a sum": _script(_E3, "E3", "R4 { } rev"),
    "R4 rev no ruled summand": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R4 { } rev"),
    "R4 rev three sections": _script(_W3S, "sum(W, Gm, P, L)", "R4 { } rev"),
    "R4 rev glued along a fiber": _script(_WF, "sum(W, F, R, M)", "R4 { } rev"),
    "R4 rev sections not opposite": _script(_V3, "sum(V3, G1, R, S)", "R4 { } rev"),
    "R4 no slot s": _script(_E3, "E3", "R4 { }"),
    "R4 localized at a paired mark": _script(_E3, "blowup(E3, at=F3, size=1/4)", "R4 { }"),
    "R9 not elliptic": _script(_E3 + _E1, "sum(E3, F3, E1, F1)", "R9 { }"),
    "R9 on E(1)": _script(_E1, "E1", "R9 { }"),
    "R9 two sections": _script(
        "atom E3 E(3) { S1: g=0, i=-3, a=1; S2: g=0, i=-3, a=1 }\n", "E3",
        "R9 { left_section_area = 1/2 }",
    ),
    "R9 no left section area": _script(_E3, "E3", "R9 { }"),
    "R9 rev not a sum": _script(_E3, "E3", "R9 { } rev"),
    "R9 rev not E(1)": _script(_E2, "sum(Ea, Fa, Eb, Fb)", "R9 { } rev"),
    "R1 not a sum": _script(_E3, "E3", "R1 { }"),
    "R1 nested without carried marks": _script(
        _CHAIN, "sum(sum(W1, B1, W2, A2), B2, sum(W3, B3, W4, A4), A3)", "R1 { }"
    ),
    "R1 rev and back": _script(_XP, _SUM4X, "R1 { } rev", "R1 { }"),
    "R1 nested rev and back": _script(
        _XP, "sum(sum(X1, B1, X2, A2), A1#B2, sum(X3, B3, X4, A4), A3#B4)", "R1 { } rev",
        "R1 { }",
    ),
    "deform no slots": _script(_E3, "E3", "deform { }"),
    "deform rescale zero": _script(_E3, "E3", "deform { rescale = 0 }"),
    # no mark's area check refuses this one
    "deform rescale zero, markless": _script("", "E(3) { }", "deform { rescale = 0 }"),
    "R6 quadric side desingularized": _step(
        _P + "atom P2 CP2 { L1: g=0, i=1, a=3/8, perp L2; L2: g=0, i=1, a=3/8, perp L1 }\n",
        f"sum({_BLOW_X}, St, desing(P2, L1, L2, label=Q2), Q2)", "X", "~", "R6 { }",
    ),
    "R6 quadric side blown up": _script(
        _P + "atom Z CP2 { Q2: g=0, i=4, a=3/4 }\n",
        f"sum({_BLOW_X}, St, blowup(Z, generic, size=1/8, exc=E9), Q2)", "R6 { }",
    ),
    "R7 lines not paired": _script(
        _P + "atom P5 CP2 { L1: g=0, i=1, a=1/4; L2: g=0, i=1, a=1/4 }\n",
        "sum(blowup(X, at=Sigma-3, size=1/4, pairexc), E, P5, L1)", "R7 { }",
    ),
    "R10 area mismatch": _script(
        "atom W W(0,2,1) { G: g=0, i=0, a=2; F: g=0, i=0, a=1 }\n", "W",
        "R10 { plus = F, minus = G }",
    ),
    "slot expects a label": _script(
        _E3 + _E1, "sum(E3, F3, E1, F1)", "R8 { at = 3, eps = 0+1e }"
    ),
    "slot expects an integer": _script(_XP, _SUM4X, "R1 { rotate = 1/2 }"),
}

# The rule checks that no input above reaches, each named by its module and
# its message or claim text, with the reason it holds for every expression
# that builds; tests/test_rule_sites.py keeps this list equal to the checks
# that the corpus, RULE_SHAPES and RULE_MESSAGES leave unreached
CERTIFICATES = (
    ("r2", "ruled summand cannot be built: {exc}",
     "its sections are the collared S1 and T3, which Thin and Thicken have "
     "checked positive, and they differ by the spread of a ruled surface"),
    ("r2", "section area difference 2(1-k)*eps",
     "a(T3) = a(S1) by the glue along S3+T3 and the checked row a(T2) = a(S3), "
     "and the collars add (k+1)eps and (3-k)eps"),
    ("r2", "sum of two half-fiber ruled pieces reproduces the ruled summand",
     "both halves are spread from a(S1)+eps by the formula that built the "
     "ruled summand, so their outer sections are its sections"),
    ("r2", "perturbed quadruple is not admissible: {exc}",
     "each glued pair moves by the same collar terms on both sides: T1, S2 by "
     "the inner glue, T2, S3 by the checked rows, the ruled sections by construction"),
    ("r2", "{what} equals the perturbed carry bitwise",
     "a grouping's carry is the connected sum of two collared marks, whose "
     "collar terms add up to the outer mark's eps"),
    ("r2", "invariants agree across groupings: {inv_a}, {inv_b}, {inv_sub}",
     "chi and sigma of a sum are its summands' less the glued surfaces' terms, "
     "which neither a grouping nor a collar nor the ruled summand changes"),
    ("r2", "leftover mark data agrees across groupings: {marks_a}, {marks_b}, {marks_sub}",
     "each grouping keeps the entries' marks other than the glued ones, and "
     "the collars touch only glued marks"),
    ("r3r", "carried mark equals the thickened resolved mark bitwise",
     "the carry of the ruled section and the collared T is desingularize(S, T) "
     "thickened by eps, term by term"),
    ("r7", "carried transform#line equals the original mark bitwise",
     "the transform is (g, i-1, a-size) and the other line is (0, 1, size), "
     "since a plane's lines have equal areas and one is glued to E"),
    ("r8", "carried mark survives the trade bitwise",
     "thin takes eps from one glued mark's partner and thicken gives eps to "
     "the other, so their connected sum keeps its genus, normal number and area"),
    ("r10", "outer marks of the split reproduce the atom bitwise",
     "split_ruled builds the outer sections from the atom's own areas, after "
     "checking plus's area against the spread"),
)


def script_golden() -> str:
    parts = []
    for name, source in CORPUS.items():
        parts.append(f"=== {name} print_script")
        parts.append(print_script(parse(source)).rstrip("\n"))
        parts.append(f"=== {name} messages")
        parts.extend(run(source).messages)
    for table, inputs in (
        ("malformed", MALFORMED), ("rule", RULE_SHAPES), ("message", RULE_MESSAGES)
    ):
        for name, source in inputs.items():
            result = run(source)
            parts.append(f"=== {table} {name} exit={result.code}")
            parts.extend(result.messages)
            if result.verdict is not None:
                parts.append(render_trace_text(result.verdict))
    return "\n".join(parts) + "\n"


# inputs at the edges of the fast reader's sides: names that are keywords
# or kind tags, inline atoms, options, comments and every form with runs,
# and sides of `desing` read whole: a left-nested chain of three, and a
# sum of a chain of two
_EDGE_DECLS = (
    "atom W W(0,1,0+1e) { A: g=0, i=-1, a=1+1e; B: g=0, i=1, a=1+2e }\n"
    "atom V W(0,1,0+1e) { A2: g=0, i=-1, a=1+2e; B2: g=0, i=1, a=1+3e }\n"
)
_DESING_DECLS = (
    "atom X Rational(1) { "
    + "; ".join(
        f"A{n}: g=0, i=-1, a=1, perp B{n}; B{n}: g=0, i=-1, a=1, perp A{n}" for n in (1, 2, 3)
    )
    + " }\natom Z Rational(1) { M: g=0, i=0, a=2 }\n"
)
_DESING_CHAIN = "desing(desing(desing(X, A1, B1), A2, B2), A3, B3)"
_DESING_SUM = "sum(desing(desing(X, A1, B1), A2, B2), A1+B1, Z, M)"
SIDE_EDGES = {
    "kind tag as a side": _EDGE_DECLS + "lhs W rhs W target =",
    "kind tag as a leaf": _EDGE_DECLS + "lhs sum(W, B, V, A2) rhs sum(W, B, V, A2) target =",
    "kind tag then marks": _EDGE_DECLS + "lhs W { } rhs W target =",
    "keyword as a leaf": "atom sum CP2 { }\nlhs sum rhs sum target =",
    "keyword as a leaf in a sum": _EDGE_DECLS.replace("atom V", "atom sum")
    + "lhs sum(W, B, sum, A2) rhs W target =",
    "inline atom in a sum": _EDGE_DECLS
    + "lhs sum(W, B, W(0,1,0+1e) { A2: g=0, i=-1, a=1+2e }, A2) rhs W target =",
    "comments and line breaks": _EDGE_DECLS
    + "lhs sum( # (\n W ,\n B # )\n, V,A2)\n# rhs\nrhs sum(W,B,V,A2) target =",
    "comment among openers": _EDGE_DECLS
    + "lhs sum(sum( # x\n sum(W, B, V, A2), B2, W, A), B, V, A2) rhs W target =",
    "option in the rhs": _EDGE_DECLS + "lhs W rhs sum(W, B, V, A2, glue = t) target =",
    "desing": _EDGE_DECLS + "lhs desing(W, B, A) rhs desing(W, A, B, label = Q) target =",
    "sum4 of leaves": _X + _SUM4,
    "sum4 of a sum": _X + _SUM4.replace("(X1, A1, B1)", "(sum(X1, B1, X2, A2), A1, B2)"),
    "blowup": _EDGE_DECLS + "lhs blowup(W, generic, size = 1/4) rhs W target =",
    "an expression file's side": _EDGE_DECLS + "expr sum(W, B, V, A2)",
    "desing chain": _DESING_DECLS + f"lhs {_DESING_CHAIN}\nrhs {_DESING_CHAIN}\ntarget =\n",
    "sum of a desing chain": _DESING_DECLS + f"lhs {_DESING_SUM}\nrhs {_DESING_SUM}\ntarget =\n",
}


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
        toks = token_positions(source)
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
