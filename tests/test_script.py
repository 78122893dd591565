"""Parser, printer, and runner for the proof-script DSL."""

import pathlib
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_memo import chain_script, nodes
from traces import (
    MALFORMED,
    RULE_MESSAGES,
    RULE_SHAPES,
    SIDE_EDGES,
    corpus_traces,
    script_golden,
    token_golden,
)

from symsum import script
from symsum.areas import area
from symsum.core import (
    AtomNode,
    BlowUp,
    Desing,
    EquivLevel,
    FourSum,
    PairSum,
    RationalSurface,
    SymsumError,
    Thicken,
    Thin,
    label_pool,
)
from symsum.demos import BLOWUP_TRADE, CORPUS, DEMOS, GOMPF_STIPSICZ, VERIFYING
from symsum.invariants import expr_invariants
from symsum.script import (
    AtomDecl,
    ScriptError,
    _Parser,
    build_script,
    parse,
    parse_expr_file,
    print_script,
    run,
    serialize_expr,
    token_positions,
)


def test_gompf_script_shape():
    ast = parse(GOMPF_STIPSICZ)
    atoms = [d for d in ast.decls if isinstance(d, AtomDecl)]
    assert len(atoms) == 5
    assert [d.name for d in atoms] == ["E4", "E3", "E1", "P", "Y"]
    assert ast.target == "~"
    assert [s.rule for s in ast.steps] == ["R9", "R2", "R7"]
    assert build_script(GOMPF_STIPSICZ).target == EquivLevel.WEAK_DEFORMATION


# the corpus, a chain nested past the recursion limit, whose built sides
# compare without a frame per level, a one-sided `perp`, and options
# given at their defaults
ROUND_TRIP = {
    **CORPUS,
    "chain-2000": chain_script(2000, 2),
    "one-sided-perp": "atom X CP2 { L1: g=0, i=1, a=1, perp L2; L2: g=0, i=1, a=1 }\n"
    "lhs X rhs X target =\n",
    "options-at-default": "atom A E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, "
    "perp Sigma-3 }\natom B E(1) { F1: g=1, i=0, a=1, perp Sigma-1; Sigma-1: g=0, i=-1, a=1, "
    "perp F1 }\nlhs sum(blowup(A, generic, size = 1/4, exc = E), F3, B, F1, glue = std)\n"
    "rhs sum(blowup(A, generic, size = 1/4), F3, B, F1)\ntarget =\n",
    "triple-quoted-slot-note": "atom E3 E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, "
    "a=1, perp Sigma-3 }\natom E1 E(1) { F1: g=1, i=0, a=1, perp Sigma-1; Sigma-1: g=0, i=-1, "
    "a=1, perp F1 }\ntriple t (blowup(E3, generic, size=1/4), Sigma-3, F3)\n"
    "lhs sum(E3, F3, E1, F1)\nrhs sum(thin(E3, F3, 0+1e), F3-, thicken(E1, F1, 0+1e), F1+)\n"
    'target =\nby R8 { at = root, eps = 0+1e } "a note"\n',
    **{
        name: MALFORMED[name]
        for name in (
            "mark spec g=0/1", "mark spec i=2/2", "mark spec i=- 1", "mark block with a comment",
            "mark block with line breaks", "mark label holding #", "kind split over lines",
            "kind with a ) inside a comment",
        )
    },
}


def test_options_given_at_their_defaults_print_back():
    """`exc = E` and `glue = std` are the defaults, and a script that
    writes them prints them; a side that leaves them out prints neither."""
    src = ROUND_TRIP["options-at-default"]
    lines = print_script(parse(src)).splitlines()
    assert lines[2:4] == [
        "lhs sum(blowup(A, generic, size = 1/4, exc = E), F3, B, F1, glue = std)",
        "rhs sum(blowup(A, generic, size = 1/4), F3, B, F1)",
    ]
    assert run(src).code == 0


def test_a_triple_a_quoted_slot_and_a_step_note_print_back():
    """A step's note is its one string: its slot `at` is written bare, as
    a quoted slot value is refused (MALFORMED "step slot given a quoted path")."""
    src = ROUND_TRIP["triple-quoted-slot-note"]
    lines = print_script(parse(src)).splitlines()
    assert lines[2] == "triple t (blowup(E3, generic, size = 1/4), Sigma-3, F3)"
    assert lines[-1] == 'by R8 { at = root, eps = 0+1e } "a note"'
    assert run(src).code == 0


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_print_parse_round_trip(name):
    src = ROUND_TRIP[name]
    ast = parse(src)
    printed = print_script(ast)
    reparsed = parse(printed)
    assert reparsed == ast
    assert print_script(reparsed) == printed


def test_one_sided_perp_prints_its_mirror():
    src = ROUND_TRIP["one-sided-perp"]
    printed = print_script(parse(src))
    assert printed.splitlines()[0] == (
        "atom X CP2 { L1: g=0, i=1, a=1, perp L2; L2: g=0, i=1, a=1, perp L1 }"
    )
    assert run(printed).messages == run(src).messages == [
        "verdict: = (symplectomorphic) chi=3 sigma=1"
    ]


def test_deep_asts_differing_at_the_bottom_are_unequal():
    src = chain_script(2000, 2)
    innermost = "sum(W1, B1, W2, A2)"
    changed = src.replace(innermost, "sum(W1, B1, W2, A2, glue = twisted)")
    assert parse(src).lhs != parse(changed).lhs
    four = parse(CORPUS["fourfold-cyclic"]).lhs
    assert four == parse(CORPUS["fourfold-cyclic"]).lhs
    # FourSum's children compare under their selectors: rotated entries differ
    entries = four.entries[1:] + four.entries[:1]
    assert four != FourSum(*(value for entry in entries for value in entry))


def test_corpus_is_big_enough():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("name", sorted(VERIFYING))
def test_corpus_verifies(name):
    assert run(VERIFYING[name]).code == 0


def test_round_trip_preserves_verdicts():
    for name, src in VERIFYING.items():
        printed = print_script(parse(src))
        assert run(printed).code == 0, name


def test_empty_input():
    with pytest.raises(ScriptError) as exc:
        parse("")
    assert "declaration" in str(exc.value)


def test_unresolved_identifier_in_expr():
    src = "lhs E9 rhs E9 target ~"
    r = run(src)
    assert r.code == 2
    assert "E9" in r.messages[0]


def test_duplicate_identifier():
    src = (
        "atom A E(1) { F: g=1, i=0, a=1 }\n"
        "atom A E(1) { F: g=1, i=0, a=1 }\n"
        "lhs A rhs A target ~"
    )
    with pytest.raises(ScriptError, match="duplicate"):
        parse(src)


_BAD_ATOM = "atom X E(1) { F: g=0, i=0, a=1 }\n"


@pytest.mark.parametrize(
    "src, message",
    [
        # an atom's failed check comes before a build error earlier in the text
        (
            "triple T (Y, S, F)\n" + _BAD_ATOM + "lhs X rhs X target =\n",
            "2:6: mark F: an E(1) mark is a section (g=0, i=-1) or a fiber (g=1, i=0)",
        ),
        # a syntax error later in the text, and a duplicate identifier, come first
        (_BAD_ATOM + "lhs X @ rhs X target =\n", "2:7: unexpected character '@'"),
        (
            "atom X E(1) { F: g=1, i=0, a=1 }\n" + _BAD_ATOM + "lhs X rhs X target =\n",
            "2:6: duplicate identifier 'X'",
        ),
    ],
    ids=["atom-before-build", "syntax-after-atom", "duplicate-before-atom"],
)
def test_error_order_around_a_failed_atom(src, message):
    r = run(src)
    assert (r.code, r.messages) == (2, [message])


def test_unknown_rule_id():
    src = "atom A E(1) { F: g=1, i=0, a=1 }\nlhs A rhs A target ~\nby R99 { }"
    with pytest.raises(ScriptError, match="R99"):
        parse(src)


def test_triple_with_unknown_mark():
    src = (
        "atom A E(1) { F: g=1, i=0, a=1 }\n"
        "triple t (A, F, missing)\n"
        "lhs A rhs A target ~"
    )
    r = run(src)
    assert r.code == 2
    assert "missing" in r.messages[0]


def test_error_positions():
    with pytest.raises(ScriptError) as exc:
        parse("atom A E(1) { F: g=1, i=0, a=1 }\nlhs A rhs A target ?")
    assert exc.value.line == 2
    assert exc.value.col > 0


def test_inadmissible_lhs_is_a_resolution_error():
    src = (
        "atom A E(3) { F3: g=1, i=0, a=1 }\n"
        "atom B E(1) { F1: g=1, i=0, a=2 }\n"
        "lhs sum(A, F3, B, F1) rhs sum(A, F3, B, F1) target ~"
    )
    r = run(src)
    assert r.code == 2
    assert "area" in r.messages[0]


def test_target_miss_reports_weak_steps():
    src = (
        "atom E3a E(3) { F3: g=1, i=0, a=2 }\n"
        "atom E3b E(3) { F3: g=1, i=0, a=1 }\n"
        "lhs E3a rhs E3b target =\n"
        "by deform { at = root, rescale = 1/2 }"
    )
    r = run(src)
    assert r.code == 1
    assert any("rescaled" in m for m in r.messages)


def test_serialize_expr_round_trips_through_expr_file():
    built = build_script(GOMPF_STIPSICZ)
    text = serialize_expr(built.lhs)
    assert parse_expr_file("expr " + text).expr == built.lhs


TRACED = {
    "corpus": CORPUS,
    "malformed": MALFORMED,
    "rule": RULE_SHAPES,
    "message": RULE_MESSAGES,
    "chain": {f"chain_script{size}": chain_script(*size) for size in ((12, 6), (200, 100))},
}


@pytest.mark.parametrize("table", list(TRACED))
def test_every_traced_step_reads_back(table):
    """The text of each step of each trace reads back, as an expression
    file, as a node equal to the step's, with the same invariants."""
    unread = []
    for name, source in TRACED[table].items():
        verdict = run(source).verdict
        for rec in verdict.trace if verdict is not None else ():
            text = serialize_expr(rec.expr)
            try:
                back = parse_expr_file("expr " + text).expr
            except ScriptError as exc:
                unread.append((name, rec.index, str(exc)))
                continue
            if back != rec.expr or expr_invariants(back) != expr_invariants(rec.expr):
                unread.append((name, rec.index, text))
    assert unread == []


_POOLED = {
    **{table: TRACED[table] for table in ("corpus", "malformed", "rule", "message")},
    "side": SIDE_EDGES,
    "chain": {"chain_script(60, 30)": chain_script(60, 30)},
}


@pytest.mark.parametrize("table", list(_POOLED))
def test_marks_are_distinct_and_pooled_and_summands_share_no_label(table):
    """What a sum relies on to test only its carried label for a clash:
    on every node of every traced tree, the mark labels are distinct and
    lie in the node's label pool, and a sum's two children have disjoint
    pools, so the marks that it passes through share no label."""
    seen = 0
    for name, source in _POOLED[table].items():
        verdict = run(source).verdict
        for n in nodes(*(rec.expr for rec in verdict.trace) if verdict is not None else ()):
            labels, seen = n.mark_labels, seen + 1
            assert len(set(labels)) == len(labels), name
            assert set(labels) <= label_pool(n), name
            if isinstance(n, PairSum):
                assert not label_pool(n.left) & label_pool(n.right), name
    assert seen > 0


TOKENS = [
    "atom", "triple", "lhs", "rhs", "target", "by", "rev", "sum", "sum4",
    "blowup", "thin", "thicken", "desing", "E", "CP2", "W", "Rational",
    "{", "}", "(", ")", ",", ";", ":", "=", "~", "+", "-", ".",
    "g", "i", "a", "perp", "label", "at", "size", "generic", "R2", "R9",
    "1", "2", "1/2", "0", "e", "eps", "X", "Sigma-3", '"note"',
]


def test_parser_fuzz_never_crashes():
    rng = random.Random(20260810)
    for _ in range(400):
        soup = " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 40)))
        try:
            parse(soup)
        except ScriptError:
            pass
        except SymsumError:
            pass


@given(st.text(alphabet=string.printable, max_size=200))
@settings(max_examples=200)
def test_parser_fuzz_raw_text(text):
    try:
        parse(text)
    except ScriptError:
        pass


def test_demo_names():
    assert sorted(DEMOS) == [
        "assoc-sym",
        "blowup-trade",
        "en-induction",
        "gompf-stipsicz",
        "rational-blowdown",
    ]


def _error_at(src: str, literal: str) -> str:
    """The `line:col:` prefix of the first occurrence of `literal` in `src`."""
    i = src.index(literal)
    line = src.count("\n", 0, i) + 1
    col = i - (src.rfind("\n", 0, i) + 1) + 1
    return f"{line}:{col}:"


def test_zero_denominator_is_a_script_error():
    src = "atom A E(1) { F: g=1, i=0, a=1/0 }\nlhs A\nrhs A\ntarget =\n"
    r = run(src)
    assert r.code == 2
    assert r.messages == [f"{_error_at(src, '1/0')} zero denominator in '1/0'"]


def test_zero_denominator_in_eps_coefficient():
    src = "atom A E(1) { F: g=1, i=0, a=1+1/0e }\nlhs A\nrhs A\ntarget =\n"
    r = run(src)
    assert r.code == 2
    assert r.messages[0].startswith(_error_at(src, "1/0"))


# each script verified before integer slots were checked, because the
# fraction was truncated to the integer that makes it valid
INTEGER_SLOTS = {
    "E(n)": ("atom A E({}) {{ S: g=0, i=-1, a=1 }}", "3/2"),
    "W(g,...)": ("atom A W({},1,0+1e) {{ P: g=0, i=-1, a=1+1e }}", "1/2"),
    "W(g,n,...)": ("atom A W(0,{},0+1e) {{ P: g=0, i=-1, a=1+1e }}", "3/2"),
    "Rational(k)": ("atom A Rational({}) {{ P: g=0, i=-1, a=1 }}", "17/2"),
    "g=": ("atom A E(1) {{ F: g={}, i=0, a=1 }}", "3/2"),
    "i=": ("atom A E(1) {{ S: g=0, i=-{}, a=1 }}", "3/2"),
}


def _slot_script(slot: str, number: str) -> str:
    return INTEGER_SLOTS[slot][0].format(number) + "\nlhs A\nrhs A\ntarget =\n"


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_integer_slot_rejects_fraction(slot):
    literal = INTEGER_SLOTS[slot][1]
    src = _slot_script(slot, literal)
    r = run(src)
    assert r.code == 2
    assert r.messages == [f"{_error_at(src, literal)} {literal!r} is not an integer"]


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_integer_slot_accepts_exact_integer(slot):
    n = int(Fraction(INTEGER_SLOTS[slot][1]))  # what the fraction truncated to
    assert run(_slot_script(slot, str(n))).code == 0
    assert run(_slot_script(slot, f"{2 * n}/2")).code == 0


def test_corpus_traces_match_golden():
    golden = pathlib.Path(__file__).parent / "golden" / "corpus_traces.txt"
    assert corpus_traces() == golden.read_text(encoding="utf-8")


def test_script_golden():
    golden = pathlib.Path(__file__).parent / "golden" / "script_golden.txt"
    assert script_golden() == golden.read_text(encoding="utf-8")


def _blowup_trade_with(step: str, extra: str) -> str:
    """BLOWUP_TRADE with `extra` slots added to the step starting `step`."""
    head, sep, tail = BLOWUP_TRADE.partition(step)
    close = tail.index("}")
    assert sep and close >= 0
    return head + sep + tail[:close].rstrip() + ", " + extra + " " + tail[close:]


def test_unknown_shift_target_below_the_root_fails():
    r = run(_blowup_trade_with("by R11 { at = left.right", "shift2 = Nope, by2 = 7"))
    assert r.code == 1
    assert r.messages == [
        "proof failed at step 2: R11: shift targets not found on any atom: ['Nope']"
    ]


def test_shift_target_removed_by_the_step_fails():
    r = run(_blowup_trade_with("by R4 { at = right", "shift2 = Gm, by2 = 1"))
    assert r.code == 1
    assert r.messages == [
        "proof failed at step 4: R4: shift targets not found on any atom: ['Gm']"
    ]


def test_shift_reaches_the_rewritten_subtree_below_the_root():
    src = (
        "atom A E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }\n"
        "atom A2 E(3) { Sigma-3: g=0, i=-3, a=2, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }\n"
        "atom B E(1) { F1: g=1, i=0, a=1 }\n"
        "lhs sum(A, F3, B, F1)\nrhs sum(A2, F3, B, F1)\ntarget ~\n"
        "by deform { at = left, shift1 = Sigma-3, by1 = 1 }\n"
    )
    r = run(src)
    assert r.code == 0, r.messages
    assert r.verdict.trace[1].notes == ["deformed areas: Sigma-3 by 1 + 0*eps"]


def test_markless_inline_atom_round_trips():
    ast = parse("lhs Rational(9) { } rhs Rational(9) {} target ~\n")
    printed = print_script(ast)
    assert run(printed).code == 0
    assert "Rational(9) { }" in printed
    assert parse(printed) == ast
    assert print_script(parse(printed)) == printed


def test_markless_built_atom_round_trips():
    e = AtomNode(RationalSurface(2))
    text = serialize_expr(e)
    assert text == "Rational(2) { }"
    rebuilt = parse_expr_file("expr " + text).expr
    assert rebuilt == e
    assert serialize_expr(rebuilt) == text


def test_token_golden():
    golden = pathlib.Path(__file__).parent / "golden" / "tokens.txt"
    assert token_golden() == golden.read_text(encoding="utf-8")


# newline-free, quote-free text: lexer pieces, then any other character
_LEXER_TEXT = st.text(
    st.sampled_from(list("aZe09_#+~^-/{}(),;:=. \t\r٣"))
    | st.characters(blacklist_characters='\n"'),
    max_size=80,
)


@given(_LEXER_TEXT)
@settings(max_examples=300)
def test_token_positions_point_at_their_values(text):
    try:
        toks = token_positions(text)
    except ScriptError as exc:
        assert exc.line == 1 and text[exc.col - 1] not in " \t\r"
        return
    assert toks[-1].kind == "eof" and [t.kind for t in toks].count("eof") == 1
    for t in toks[:-1]:
        assert t.line == 1
        assert text[t.col - 1 : t.col - 1 + len(t.value)] == t.value


@given(
    st.text(st.sampled_from("0123456789٣"), min_size=1, max_size=6),
    st.one_of(st.none(), st.text(st.sampled_from("0123456789٣"), min_size=1, max_size=6)),
)
def test_number_is_the_fraction_of_its_text(num, den):
    text = num if den is None else f"{num}/{den}"
    tok = token_positions(text)[0]
    assert tok.value == text
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ScriptError, match="zero denominator"):
            _Parser(text).parse_fraction()
        return
    assert _Parser(text).parse_fraction() == expected


_BIG = "123456789012345678901234567890"


def test_number_literals_read_and_print_back_exactly():
    """Integer slots read `4/2`, `6/3` and `-0` as the integers they are,
    and areas keep `-0`, `0/5+1e` and a 30-digit constant exactly."""
    for text, value in (("4/2", 2), ("6/3", 2), ("-0", 0)):
        n = _Parser(text).parse_int()
        assert n == value and type(n) is int
    big = int(_BIG)
    h = _Parser(f"{_BIG}-{_BIG}/11e").parse_area()
    assert (_Parser("-0").parse_area(), _Parser("0/5+1e").parse_area(), h) == (
        area(0), area(0, 1), area(big, Fraction(-big, 11))
    )
    assert repr(h) == f"AreaValue(const=Fraction({_BIG}, 1), eps_coeff=Fraction(-{_BIG}, 11))"
    src = (
        f"atom A E(6/3) {{ F: g=2/2, i=-0, a=0/5+1e;\n"
        f"  S: g=0, i=-4/2, a={_BIG}-{_BIG}/11e }}\nlhs A\nrhs A\ntarget =\n"
    )
    atom = parse(src).decls[0].atom
    assert atom.kind.n == 2 and type(atom.kind.n) is int
    assert all(type(v) is int for m in atom.marks for v in (m.genus, m.normal_number))
    printed = print_script(parse(src))
    assert printed.splitlines()[:2] == [
        f"atom A E(2) {{ F: g=1, i=0, a=0+1e; S: g=0, i=-2, a={_BIG}-{_BIG}/11e }}",
        "lhs A",
    ]
    assert parse(printed) == parse(src)


@pytest.mark.parametrize(
    "mark, literal, message",
    [
        ("g=3/2, i=0, a=1", "3/2", "'3/2' is not an integer"),
        ("g=1, i=0, a=1/0", "1/0", "zero denominator in '1/0'"),
        ("g=1, i=0/0, a=1", "0/0", "zero denominator in '0/0'"),
    ],
)
def test_number_literal_errors(mark, literal, message):
    src = f"atom A E(1) {{ F: {mark} }}\nlhs A\nrhs A\ntarget =\n"
    r = run(src)
    assert (r.code, r.messages) == (2, [f"{_error_at(src, literal)} {message}"])


def test_zero_eps_area_slot_round_trips():
    """`1+0e` is an area and `1` a number, which a rule may tell apart: R1
    takes its rotation as a number only."""
    src = CORPUS["fourfold-cyclic"].replace("rotate = 1 }", "rotate = 1+0e, by1 = 0+0e }")
    ast = parse(src)
    printed = print_script(ast)
    assert "rotate = 1+0e, by1 = 0+0e }" in printed
    assert parse(printed) == ast
    assert run(printed).messages == run(src).messages
    assert run(src).code == 1



@pytest.mark.parametrize(
    "literal, slot",
    [
        ("3", Fraction(3)),
        ("-3/4", Fraction(-3, 4)),
        ("2 + 1", Fraction(2)),
        ("0+1e", area(0, 1)),
        ("1 - 2/3 eps", area(1, Fraction(-2, 3))),
        ("-1/2e", area(0, Fraction(-1, 2))),
        ("5/4-3e", area(Fraction(5, 4), -3)),
    ],
)
def test_slot_value_is_an_area_exactly_when_it_ends_in_eps(literal, slot):
    """A slot reads its number as an area, and keeps it as a plain number
    unless its last token is `e` or `eps`."""
    parser = _Parser(literal)
    value = parser.parse_slot_value()
    assert value == slot and type(value) is type(slot)
    assert parser.toks[parser.i] == ("+" if literal == "2 + 1" else "")


_DECLS = (
    "atom A E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }\n"
    "atom C E(1) { Sigma-1c: g=0, i=-1, a=1, perp F1c; F1c: g=1, i=0, a=1, perp Sigma-1c;\n"
    "              F2: g=1, i=0, a=1 }\n"
    "atom D E(1) { F1d: g=1, i=0, a=1, perp Sigma-1d; Sigma-1d: g=0, i=-1, a=1, perp F1d }\n"
    "atom X E(3) { Sigma-3: g=0, i=-3, a=1 }\n"
) + "".join(
    f"atom X{i} Rational({4 + i}) {{ A{i}: g=1, i=2, a=1, perp B{i}; "
    f"B{i}: g=1, i=-2, a=1, perp A{i} }}\n"
    for i in (1, 2, 3, 4)
)

# one expression of each operation, in printed form, with every option of
# its form set to a value other than its default
EVERY_OPTION = {
    PairSum: "sum(C, F1c, D, F1d, glue = twisted, carry = Sigma-2, pair = Sigma-2:F2)",
    FourSum: "sum4((X1, A1, B1), (X2, A2, B2), (X3, A3, B3), (X4, A4, B4))",
    BlowUp: "blowup(X, at = Sigma-3, size = 1/4, transform = St, exc = E5, pairexc)",
    Thin: "thin(A, F3, 0+1e)",
    Thicken: "thicken(A, Sigma-3, 0+1e)",
    Desing: "desing(A, Sigma-3, F3, label = T)",
}


def _expr_script(expr: str) -> str:
    return f"{_DECLS}lhs {expr}\nrhs A\ntarget =\n"


@pytest.mark.parametrize("cls", list(EVERY_OPTION), ids=lambda cls: cls.__name__)
def test_every_form_round_trips_with_every_option(cls):
    text = EVERY_OPTION[cls]
    keys = list(script._FORM_OF[cls].options)
    assert all(f", {key}" in text for key in keys)
    ast = parse(_expr_script(text))
    assert type(ast.lhs) is cls and f"\nlhs {text}\n" in print_script(ast)
    printed = serialize_expr(ast.lhs)  # with the atoms written out
    assert all(f", {key}" in printed for key in keys)
    assert parse(_expr_script(printed)).lhs == ast.lhs


def test_unknown_desing_option_is_reported_like_the_others():
    with pytest.raises(ScriptError) as exc:
        parse(_expr_script("desing(A, Sigma-3, F3, lable = T)"))
    assert str(exc.value) == "10:5: unknown desing option 'lable' (expected label)"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("sum(C, F1c, D, F1d, glue = a, glue = b)", "repeated sum option 'glue'"),
        ("sum(C, F1c, D, F1d, carry = S, carry = S)", "repeated sum option 'carry'"),
        ("blowup(X, generic, size = 1/4, exc = E, exc = F)", "repeated blowup option 'exc'"),
        ("blowup(X, at = Sigma-3, size = 1/4, pairexc, pairexc)",
         "repeated blowup option 'pairexc'"),
        ("blowup(X, at = Sigma-3, size = 1/4, transform = S, exc = E, transform = T)",
         "repeated blowup option 'transform'"),
        ("desing(A, Sigma-3, F3, label = T, label = U)", "repeated desing option 'label'"),
    ],
)
def test_repeated_option_is_a_script_error(expr, message):
    with pytest.raises(ScriptError, match=f"^10:\\d+: {message}$"):
        parse(_expr_script(expr))


def test_pair_option_repeats():
    src = (
        "atom P E(1) { F1: g=1, i=0, a=1; F2: g=1, i=0, a=1; F3: g=1, i=0, a=1 }\n"
        "atom Q E(1) { G1: g=1, i=0, a=1; G2: g=1, i=0, a=1; G3: g=1, i=0, a=1 }\n"
        "lhs sum(P, F1, Q, G1, pair = F2:G2, pair = F3:G3) rhs P target =\n"
    )
    assert parse(src).lhs.pairs == (("F2", "G2"), ("F3", "G3"))
