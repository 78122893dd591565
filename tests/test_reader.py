"""The two readers of a script agree.  `parse` reads a text once, from left
to right: the fast reader reads the atom declarations that its two patterns
match and that pass every check, then each side that the forms' runs read
whole, and the token reader reads on in the whole text from the first
other declaration or side, with no restart after a failure.  So on every
text `parse` gives what the token reader alone gives: equal nodes and an
equal `print_script`, or the same message."""

import ast
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readers import _outcome, _token_reader
from test_fuzz import mutate
from test_memo import chain_script, nodes
from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES, SIDE_EDGES

import symsum.script
from symsum.areas import AreaValue, area
from symsum.core import AtomNode, RationalSurface, SurfaceMark
from symsum.demos import CORPUS
from symsum.script import (
    AtomDecl,
    ScriptAst,
    ScriptError,
    _mark_text,
    _Parser,
    _read_atoms,
    _read_fast,
    parse,
    parse_expr_file,
    serialize_expr,
    tokenize,
)


def _same(text: str):
    """What `parse` gives for `text`, once it is what the token reader gives."""
    outcome = _outcome(parse, text)
    assert outcome == _outcome(_token_reader, text)
    return outcome


_TABLES = {"malformed": MALFORMED, "rule": RULE_SHAPES, "message": RULE_MESSAGES}
_INPUTS = [(f"{t} {name}", text) for t, texts in _TABLES.items() for name, text in texts.items()]


@pytest.mark.parametrize("text", [text for _, text in _INPUTS], ids=[name for name, _ in _INPUTS])
def test_both_readers_agree_on_the_tables(text):
    _same(text)


def test_both_readers_agree_on_mutated_corpus_scripts():
    rng = random.Random(20261020)
    names = sorted(CORPUS)
    parsed = 0
    for n in range(1000):
        text, _ = mutate(CORPUS[names[n % len(names)]], rng)
        parsed += not isinstance(_same(text), str)
    assert parsed > 50  # some mutants parse (97 of 1000 at this seed)


# pieces put into a chain's sides: forms and their parts, an option, an
# inline atom, kind tags and keywords as leaves, declared and undeclared
# names, a comment and a line break
_SIDE_NOISE = [
    "sum(", "sum4(", "desing(", "blowup(", "(", ")", ",", ", glue = twist", ", carry = Z",
    "CP2 { }", "E(1) { }", "W", "E", "sum", "lhs", "rhs", "target", "W3", "W13", "B2", "A3",
    " # a note (sum\n", "\n\t",
]


def _mutated_sides(text: str, rng: random.Random) -> str:
    """`text` with its sides changed: a token mutated, or a piece of
    `_SIDE_NOISE` put after a punctuation mark or a name."""
    head, rest = text.split("lhs ", 1)
    sides, tail = rest.split("\ntarget", 1)
    if rng.random() < 0.5:
        sides, _ = mutate(sides, rng)
    else:
        pieces = re.split(r"(?<=[(),])|(?<=\w)(?=[ ,)])", sides)
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(_SIDE_NOISE))
        sides = "".join(pieces)
    return f"{head}lhs {sides}\ntarget{tail}"


def test_both_readers_agree_on_chains_with_mutated_sides():
    """The mutants parse or fail, and the fast reader hands them over at
    each side's keyword and at `target`."""
    rng = random.Random(31)
    chains = [chain_script(12, 6), chain_script(5, 2)]
    parsed, handoffs = 0, {}
    for n in range(1000):
        text = _mutated_sides(chains[n % 2], rng)
        parsed += not isinstance(_same(text), str)
        start = _read_fast(text, ("lhs", "rhs"))[0]
        handoff = tokenize(text, start)[0]
        handoffs[handoff] = handoffs.get(handoff, 0) + 1
    assert 30 < parsed < 500  # 67 of 1000 parse at this seed
    # 449 at lhs, 482 at rhs and 47 at target at this seed
    assert min(handoffs.get(word, 0) for word in ("lhs", "rhs", "target")) > 20, handoffs


@pytest.mark.parametrize("name", SIDE_EDGES)
def test_both_readers_agree_at_the_edges_of_the_side_patterns(name):
    text = SIDE_EDGES[name]
    _same(text)
    assert _outcome(parse_expr_file, text) == _outcome(
        lambda t: _Parser(t).parse_expr_file(), text
    )


# the pieces of generated declarations, most of them well formed: blanks,
# line breaks and comments (some holding `;`, `}` or `#`) between tokens,
# or rarely none, which glues two tokens into one; labels holding `#`, `-`
# and `+`; numbers `p` and `p/q` (q may be 0), and a sign; and kinds,
# mostly a rational surface, which takes any marks
_GAPS = [" "] * 6 + ["\n", "\t", " \r\n ", "  # a note\n", " #; } perp\n", " # # #  \n\t"]
_LABEL_CHARS = "AaBbZz019#+-"
_KINDS = [["Rational", "(", "2", ")"]] * 4 + [
    ["CP2"], ["E", "(", "1", ")"], ["W", "(", "0", ",", "1", ",", "0", "+", "1", "e", ")"]
]
_NOISE = [";", "}", "{", ",", "perp", "-", "e", "atom", "#", "1/0", "lhs", "triple"]


def _label(rng: random.Random) -> str:
    return rng.choice("ABZ") + "".join(rng.choices(_LABEL_CHARS, k=rng.randint(0, 3)))


def _number(rng: random.Random, fractions: float) -> list[str]:
    """`p`, or at the rate `fractions` `p/q`."""
    p = rng.randint(0, 12)
    if rng.random() < fractions:
        return [f"{p}/{rng.choice([1, 2, 3, 4] * 3 + [0])}"]
    return [str(p)]


def _signed(rng: random.Random, fractions: float) -> list[str]:
    return ["-"] * (rng.random() < 0.1) + _number(rng, fractions)


def _spec(rng: random.Random, label: str, labels: list[str]) -> list[str]:
    toks = [label, ":", "g", "="] + _number(rng, 0.03) + [",", "i", "="] + _signed(rng, 0.03)
    toks += [",", "a", "="] + _signed(rng, 0.3)
    form = rng.choice(["const", "pair", "eps"])
    if form == "pair":
        toks += [rng.choice("+-")] + _number(rng, 0.3)
    if form != "const":
        toks.append(rng.choice(["e", "eps"]))
    if rng.random() < 0.2:
        toks += [",", "perp", rng.choice(labels + ["Z"])]
    return toks


def _declarations(rng: random.Random) -> tuple[str, str]:
    """The text of some atom declarations, and the first atom's name."""
    names = list(dict.fromkeys(_label(rng) for _ in range(rng.randint(1, 3))))
    toks = []
    for name in names:
        labels = list(dict.fromkeys(_label(rng) for _ in range(rng.randint(0, 3))))
        toks += ["atom", name, *rng.choice(_KINDS), "{"]
        for label in labels:
            toks += _spec(rng, label, labels) + [";"]
        if labels and rng.random() < 0.5:
            toks.pop()  # the last `;` is optional
        toks.append("}")
    if rng.random() < 0.15:  # a token replaced by one at a pattern's edge
        toks[rng.randrange(len(toks))] = rng.choice(_NOISE)
    gaps = ["" if rng.random() < 0.005 else rng.choice(_GAPS) for _ in toks]
    return "".join(map(str.__add__, toks, gaps)), names[0]


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_both_readers_agree_on_generated_declarations(rng):
    decls, name = _declarations(rng)
    _same(decls + f"lhs {name} rhs {name} target =\n")
    expr_file = decls + f"expr {name}\n"
    assert _outcome(parse_expr_file, expr_file) == _outcome(
        lambda text: _Parser(text).parse_expr_file(), expr_file
    )


# The mark spec has one description, the form `_MARK`: the printer's
# `_mark_text` writes what `serialize_expr` writes from it, and that text
# reads back to the same mark through the fast reader's `_SPEC_RE`, which
# is compiled from it, and through the token reader, which reads it.
_BIG = 10**4300  # an int of 4,301 digits, past int()'s digit limit
_INTS = st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(lambda k: k + _BIG))
_MARK_LABELS = st.builds(str.__add__, st.sampled_from("AbZ"), st.text("#+-~^_0aZ", max_size=4))
_MARK_AREAS = st.builds(
    AreaValue,
    st.fractions(min_value=0, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
).filter(lambda a: a.is_positive)


def _read_back(marks: tuple) -> None:
    """Each of `marks` prints as its form writes it, and a rational
    surface with `marks` reads back equal through either reader, or past
    the digit limit fails the same way through both."""
    for m in marks:
        assert _mark_text(m) == serialize_expr(m)
    body = "; ".join(map(_mark_text, marks))
    text = f"atom X Rational(0) {{ {body} }}\nlhs X rhs X target =\n"
    atom = AtomNode(RationalSurface(0), marks)
    outcome = _same(text)
    if isinstance(outcome, str):
        assert "number too long" in outcome
        assert any(abs(m.genus) > _BIG // 2 or abs(m.normal_number) > _BIG // 2 for m in marks)
        return
    assert outcome[0].decls[0].atom == atom
    assert _read_atoms(text)[2] == {"X": atom}  # read by the fast reader alone


@given(_MARK_LABELS, _INTS, _INTS, _MARK_AREAS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_drawn_mark_prints_as_its_form_and_reads_back(label, genus, index, a, perp):
    mark = SurfaceMark(label, abs(genus), index, a, "P" + label if perp else None)
    partner = SurfaceMark("P" + label, 0, 0, area(1), label)
    _read_back((mark, partner) if perp else (mark,))


def _marks_of(text: str, read=parse):
    """Every mark of each atom that `text` declares or writes inline, and
    of each node over them; none where the text fails."""
    try:
        tree = read(text)
    except ScriptError:
        return []
    sides = (tree.lhs, tree.rhs) if isinstance(tree, ScriptAst) else (tree.expr,)
    atoms = [d.atom for d in tree.decls if isinstance(d, AtomDecl)]
    return [m for n in nodes(*atoms, *sides) for m in n.marks]


_EXPR_FILES = sorted((pathlib.Path(__file__).parent.parent / "scripts" / "exprs").glob("*.expr"))


def test_every_mark_of_the_corpus_tables_and_expression_files_reads_back():
    texts = [*CORPUS.values(), chain_script(12, 6), *(t for _, t in _INPUTS)]
    marks = [m for text in texts for m in _marks_of(text)]
    marks += [m for f in _EXPR_FILES for m in _marks_of(f.read_text(), parse_expr_file)]
    assert len(marks) > 1000
    for m in dict.fromkeys(marks):
        partner = ()
        if m.orthogonal_at is not None:
            partner = (SurfaceMark(m.orthogonal_at, 0, 0, area(1), m.label),)
        _read_back((m, *partner))


def _handoff(text: str) -> str:
    """The token where the fast reader hands `text` to the token reader,
    once it has read every declaration and the sides before that token as
    the token reader alone reads them."""
    start, decls, atoms, sides = _read_fast(text, ("lhs", "rhs"))
    alone = _token_reader(text)
    assert decls == alone.decls and sides == [alone.lhs, alone.rhs][: len(sides)]
    return tokenize(text, start)[0]


def _first_side_with_an_option_or_area(text: str) -> str:
    """`lhs` or `rhs`, whichever side first holds an option or an area (a
    `=` or a number), or else `target`."""
    toks = tokenize(text)
    lhs, rhs, target = (toks.index(word) for word in ("lhs", "rhs", "target"))
    for word, side in (("lhs", toks[lhs + 1 : rhs]), ("rhs", toks[rhs + 1 : target])):
        if any(t == "=" or t[:1].isdigit() for t in side):
            return word
    return "target"


_CHAINS = {f"chain_script{a}": chain_script(*a) for a in ((12, 6), (200, 100))}


@pytest.mark.parametrize("name", CORPUS)
def test_the_fast_reader_hands_over_a_corpus_script_at_its_first_side_with_an_option_or_area(
    name,
):
    text = CORPUS[name]
    assert _handoff(text) == _first_side_with_an_option_or_area(text)


@pytest.mark.parametrize("name", _CHAINS)
def test_the_fast_reader_hands_over_a_chain_at_target(name):
    assert _handoff(_CHAINS[name]) == "target"


@pytest.mark.parametrize("name", ["desing chain", "sum of a desing chain"])
def test_the_fast_reader_reads_sides_of_desing_whole(name):
    """A form other than `sum` is opened again at its first child slot
    and read one run at a time, alone and as a sum's child."""
    assert _handoff(SIDE_EDGES[name]) == "target"


def test_the_corpus_hands_over_at_each_keyword():
    """The corpus covers the three hand-offs after the declarations."""
    assert {_handoff(text) for text in CORPUS.values()} == {"lhs", "rhs", "target"}


_INNERMOST = "sum(W1, B1, W2, A2)"
_RHS_INNERMOST = "\nrhs " + "sum(" * 199 + "W1, B1, W2, A2)"


@pytest.mark.parametrize(
    "old, new",
    [
        ("\ntarget =", "\ntargte ="),
        ("A100: g=0, i=-1", "A100: g=0, i=2/2"),
        ("A100: g=0, i=-1, a=1+", "A100: g=0, i=-1, a=1/0+"),
        (_INNERMOST, _INNERMOST.replace("A2", "B2")),
        (_RHS_INNERMOST, _RHS_INNERMOST.replace("A2", "B2")),
        (_INNERMOST, _INNERMOST.replace(")", ", carry = Z)")),
    ],
    ids=[
        "misspelt target", "i=2/2 in the middle", "a=1/0 in the middle",
        "gluing mismatch at the innermost lhs sum", "gluing mismatch at the innermost rhs sum",
        "option at the innermost lhs sum",
    ],
)
def test_a_failing_text_is_tokenized_once_past_the_fast_reader(monkeypatch, old, new):
    """A failure after the handoff, or at a check the fast reader does not
    pass, in a declaration or in a side, is worded by the one token reader
    that reads on: the long text is lexed once (each kind text is lexed on
    its own and does not count)."""
    text = chain_script(200, 100).replace(old, new, 1)
    assert text != chain_script(200, 100)
    lexed = []

    def tokenize_counted(source, *args):
        lexed.append(len(source))
        return tokenize(source, *args)

    monkeypatch.setattr(symsum.script, "tokenize", tokenize_counted)
    with pytest.raises(ScriptError):
        parse(text)
    assert [n for n in lexed if n > 100] == [len(text)]


def test_a_side_that_misses_at_its_last_run_builds_no_form(monkeypatch):
    """The fast reader builds a side's forms once it has read the whole
    side, so the token reader, which rereads the side, builds each once."""
    chain = chain_script(12, 6)
    text = chain.replace("A12)\nrhs", "A12, carry = Z)\nrhs")
    sum_form, built = symsum.script._GRAMMAR["sum"], []
    make = sum_form.make

    def make_counted(**args):
        built.append(args)
        return make(**args)

    monkeypatch.setattr(sum_form, "make", make_counted)
    start, _, _, sides = _read_fast(text, ("lhs", "rhs"))
    assert (sides, built, tokenize(text, start)[0]) == ([], [], "lhs")
    assert len(_read_fast(chain, ("lhs", "rhs"))[3]) == 2 and len(built) == 22


_SPEC = "atom W1 W(0,1,0+1e) { A1: g=0,", " B1: g=0, i=0, a=0+1e }\nlhs W1 rhs W1 target =\n"
# where the run sits in the spec, what follows it, and whether the text parses
_SPEC_RUNS = [
    ("", "i=-1, a=1+1e, perp B1;", True),
    ("", "x=-1, a=1+1e;", False),
    (" i=", "-1, a=1+1e;", True),
    (" i=", "x, a=1;", False),
    (" i=-", "1, a=1;", True),
    (" i=-", "x, a=1;", False),
    (" i=-1, a=", "1+1e;", True),
    (" i=-1, a=", "2/2 x;", False),
    (" i=-1, a=-", "x;", False),
    (" i=-1, a=1", "x;", False),
    (" i=-1, a=1+", "x;", False),
]
_TWO = (
    "atom W1 W(0,1,0+1e) { A1: g=0, i=-1, a=1+1e; B1: g=0, i=1, a=1+2e }\n"
    "atom W2 W(0,1,0+1e) { A2: g=0, i=-1, a=1+2e; B2: g=0, i=1, a=1+3e }\nlhs sum("
)
# in a side: after `sum(` and after each `,`, before a sum that reads on,
# that misses a run, that names no declared atom or no mark, or that
# opens a form where a leaf would do
_SIDE_RUNS = [
    ("", "W1, B1, W2, A2) rhs W1 target =", True),
    ("", "W1, B1, W2, A2 x) rhs W1 target =", False),
    ("", "sum(W1, B1, W2, A2), B2, W1, A1) rhs W1 target =", False),
    ("", "sum sum(W1, B1, W2, A2) rhs W1 target =", False),
    ("W1,", "B1, W2, A2) rhs W1 target =", True),
    ("W1,", "B1, W2, A9) rhs W1 target =", False),
    ("W1, B1,", "W2, A2) rhs sum(W1, B1, W2, A2) target =", True),
    ("W1, B1,", "W9, A2) rhs W1 target =", False),
    ("W1, B1,", "W2 A2) rhs W1 target =", False),
    ("W1, B1, W2,", "A2, carry = Z) rhs W1 target =", False),
]
_RUNS = (
    [(_SPEC[0] + b, a + _SPEC[1], p, "_RUN") for b, a, p in _SPEC_RUNS]
    + [(_TWO + b, a + "\n", p, run) for b, a, p in _SIDE_RUNS for run in ("_RUN", "_SPACE_RUN")]
    + [(_SPEC[0] + b, a + _SPEC[1], p, "_SPACE_RUN") for b, a, p in _SPEC_RUNS]
)


@pytest.mark.parametrize(
    "before, after, parses, run",
    _RUNS,
    ids=[f"spec {b}|{a}" for b, a, _ in _SPEC_RUNS]
    + [f"side sum({b}|{a} {run}" for b, a, _ in _SIDE_RUNS for run in ("_RUN", "_SPACE_RUN")]
    + [f"spec {b}|{a} _SPACE_RUN" for b, a, _ in _SPEC_RUNS],
)
def test_blanks_and_comments_inside_a_mark_spec_or_a_side_read_in_linear_time(
    before, after, parses, run
):
    """Before a spec that reads on, and before one that fails, which every
    pattern backtracks over, at each blank of a spec that a sign or a
    number may follow; and in a side after `sum(` and after a `,`; with
    blanks and comments, or blanks alone, which the spec and side runs
    read.  A child process that imports symsum and `readers` alone reads
    the text, so that a pattern that backtracks without end fails the
    test by its timeout."""
    code = (
        f"import readers; "
        f"print(readers._timed({before!r}, {after!r}, readers.{run}))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    same, failed, seconds = ast.literal_eval(child.stdout)
    assert same and failed != parses
    assert seconds < 1, f"{seconds:.2f} s of CPU"


# a second atom's mark block with a comment in one of four places, which
# holds the characters that end a spec or a block
_NOTE = " # a note; } perp B2\n"
_COMMENTED = {
    "after {": "{" + _NOTE + " A2: g=0, i=-1, a=1+2e; B2: g=0, i=1, a=1+3ePERP }",
    "between specs": "{ A2: g=0, i=-1, a=1+2e;\n" + _NOTE + " B2: g=0, i=1, a=1+3ePERP }",
    "at the end of a spec's line": "{ A2: g=0, i=-1, a=1+2e" + _NOTE
    + "; B2: g=0, i=1, a=1+3ePERP }",
    "before }": "{ A2: g=0, i=-1, a=1+2e; B2: g=0, i=1, a=1+3ePERP;" + _NOTE + "}",
}


@pytest.mark.parametrize("block", _COMMENTED.values(), ids=_COMMENTED)
@pytest.mark.parametrize("perp", ["", ", perp Z"], ids=["parses", "unresolved perp"])
def test_a_comment_in_a_mark_block_hands_its_declaration_over(block, perp):
    """`_SPEC_RE`'s blanks hold no comment, so the fast reader reads the
    first declaration and hands the second, commented, to the token
    reader, which reads it, or words its failure, as it alone does."""
    assert symsum.script._BLANK not in symsum.script._SPEC_RE.pattern
    head = "atom W1 W(0,1,0+1e) { A1: g=0, i=-1, a=1+1e; B1: g=0, i=1, a=1+2e }\n"
    text = (
        f"{head}atom W2 W(0,1,0+1e) {block}\n"
        "lhs sum(W1, B1, W2, A2) rhs sum(W1, B1, W2, A2) target =\n"
    ).replace("PERP", perp)
    start, decls, _, sides = _read_fast(text, ("lhs", "rhs"))
    assert ([d.name for d in decls], sides) == (["W1"], [])
    assert tokenize(text, start)[:2] == ["atom", "W2"]
    outcome = _same(text)
    assert isinstance(outcome, str) == bool(perp)
    if not perp:  # without the comment, the fast reader reads both atoms
        plain = text.replace(_NOTE, " ")
        assert [d.name for d in _read_fast(plain, ("lhs", "rhs"))[1]] == ["W1", "W2"]
        assert outcome == _same(plain)
