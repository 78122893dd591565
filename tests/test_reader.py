"""The two readers of a script agree.  `parse` reads a text once, from left
to right: the fast reader reads the atom declarations that its two patterns
match and that pass every check, and the token reader reads on in the whole
text from the first other one, with no restart after a failure.  So on
every text `parse` gives what the token reader alone gives: equal nodes
and an equal `print_script`, or the same message."""

import ast
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fuzz import mutate
from test_memo import chain_script
from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES

import symsum.script
from symsum.demos import CORPUS
from symsum.script import (
    ScriptAst,
    ScriptError,
    _Parser,
    _read_atoms,
    parse,
    parse_expr_file,
    print_script,
    tokenize,
)


def _outcome(read, text: str):
    """What a reader gives for `text`: its tree, and a script's printed
    form, or its message."""
    try:
        tree = read(text)
    except ScriptError as exc:
        return str(exc)
    return tree, print_script(tree) if isinstance(tree, ScriptAst) else None


def _token_reader(text: str) -> ScriptAst:
    return _Parser(text).parse_script()


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


def _read_up_to_lhs(text: str) -> bool:
    """Whether the fast reader reads every declaration of `text`, with no
    failure, and hands the token reader the text from `lhs` on."""
    start, decls, atoms = _read_atoms(text)
    return tokenize(text, start)[0] == "lhs" and decls == _token_reader(text).decls


_READ_FAST = {**CORPUS, **{f"chain_script{a}": chain_script(*a) for a in ((12, 6), (200, 100))}}


@pytest.mark.parametrize("name", _READ_FAST)
def test_the_fast_reader_reads_every_declaration_of_the_corpus_and_chains(name):
    assert _read_up_to_lhs(_READ_FAST[name])


@pytest.mark.parametrize(
    "old, new",
    [
        ("\ntarget =", "\ntargte ="),
        ("A100: g=0, i=-1", "A100: g=0, i=2/2"),
        ("A100: g=0, i=-1, a=1+", "A100: g=0, i=-1, a=1/0+"),
    ],
    ids=["misspelt target", "i=2/2 in the middle", "a=1/0 in the middle"],
)
def test_a_failing_text_is_tokenized_once_past_the_fast_reader(monkeypatch, old, new):
    """A failure after the handoff, or at a check the fast reader does not
    pass, is worded by the one token reader that reads on: the long text is
    lexed once (each kind text is lexed on its own and does not count)."""
    text = chain_script(200, 100).replace(old, new)
    lexed = []

    def tokenize_counted(source, *args):
        lexed.append(len(source))
        return tokenize(source, *args)

    monkeypatch.setattr(symsum.script, "tokenize", tokenize_counted)
    with pytest.raises(ScriptError):
        parse(text)
    assert [n for n in lexed if n > 100] == [len(text)]


_RUN = ("  \t# ; } # # perp\n \r\n" * 6000)[:100_000]  # blanks and comments


def _timed(before: str, after: str) -> tuple[bool, bool, float]:
    """Whether both readers agree on a 10^5-character run of blanks and
    comments inside a mark spec, between `before` and `after`; whether
    the text fails; and the CPU seconds of `parse`."""
    text = (
        f"atom W1 W(0,1,0+1e) {{ A1: g=0,{before}{_RUN}{after} B1: g=0, i=0, a=0+1e }}\n"
        "lhs W1 rhs W1 target =\n"
    )
    start = time.process_time()
    outcome = _outcome(parse, text)
    seconds = time.process_time() - start
    return outcome == _outcome(_token_reader, text), isinstance(outcome, str), seconds


# where the run sits in the spec, what follows it, and whether the text parses
_RUNS = [
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


@pytest.mark.parametrize("before, after, parses", _RUNS)
def test_blanks_and_comments_inside_a_mark_spec_read_in_linear_time(before, after, parses):
    """Before a spec that reads on, and before one that fails, which every
    pattern backtracks over, at each blank of a spec that a sign or a
    number may follow.  A child process reads the text, so that a pattern
    that backtracks without end fails the test by its timeout."""
    code = f"import test_reader; print(test_reader._timed({before!r}, {after!r}))"
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    same, failed, seconds = ast.literal_eval(child.stdout)
    assert same and failed != parses
    assert seconds < 1, f"{seconds:.2f} s of CPU"
