"""Parser, printer, and runner for the proof-script DSL."""

import pathlib
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traces import corpus_traces, script_golden, token_golden

from symsum.core import Atom, AtomNode, EquivLevel, RationalSurface, SymsumError
from symsum.demos import BLOWUP_TRADE, CORPUS, DEMOS, GOMPF_STIPSICZ, VERIFYING
from symsum.script import (
    AtomDecl,
    ScriptError,
    _Parser,
    build_expr,
    build_script,
    parse,
    parse_expr_file,
    print_script,
    run,
    serialize_expr,
    tokenize,
)


def test_gompf_script_shape():
    ast = parse(GOMPF_STIPSICZ)
    atoms = [d for d in ast.decls if isinstance(d, AtomDecl)]
    assert len(atoms) == 5
    assert [d.name for d in atoms] == ["E4", "E3", "E1", "P", "Y"]
    assert ast.target == "~"
    assert [s.rule for s in ast.steps] == ["R9", "R2", "R7"]
    built = build_script(ast)
    assert built.target == EquivLevel.WEAK_DEFORMATION


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_print_parse_round_trip(name):
    src = CORPUS[name]
    ast = parse(src)
    printed = print_script(ast)
    reparsed = parse(printed)
    assert reparsed == ast
    assert print_script(reparsed) == printed


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
    built = build_script(parse(GOMPF_STIPSICZ))
    text = serialize_expr(built.lhs)
    ast = parse_expr_file("expr " + text)
    from symsum.script import build_expr

    rebuilt = build_expr(ast.expr, {})
    assert rebuilt == built.lhs


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
    e = AtomNode(Atom(RationalSurface(2)))
    text = serialize_expr(e)
    assert text == "Rational(2) { }"
    rebuilt = build_expr(parse_expr_file("expr " + text).expr, {})
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
        toks = tokenize(text)
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
    tok = tokenize(text)[0]
    assert tok.value == text
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ScriptError, match="zero denominator"):
            _Parser.number(tok)
        return
    assert _Parser.number(tok) == expected
