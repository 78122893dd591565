"""The parser's lexer against the positional one.

`tokenize` gives the parser the value of every token (a string keeps its
quotes) and one "" for the eof; `token_positions` gives each token's kind,
value and line:col, and is the one definition of lexical errors.  Every
message the parser or the builder writes must locate itself as if the text
had been lexed with positions up front.  Both lex from an offset too, the
point where the token reader reads on from the fast reader, as the tail
of the whole text's tokens."""

import pathlib
import random
import re

import pytest
from hypothesis import given, settings

from test_fuzz import MUTATIONS, SEED, mutate
from test_memo import chain_script
from test_script import _LEXER_TEXT
from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES, TOKEN_EDGES

from symsum.demos import CORPUS
from symsum.script import (
    _KIND_OF,
    _VALUE_RE,
    ScriptError,
    parse,
    parse_expr_file,
    run,
    token_positions,
    tokenize,
)


def _same_tokens(text: str) -> None:
    """`tokenize` is the values of `token_positions`, strings quoted, and
    ends in exactly one eof; where `token_positions` refuses the text,
    `parse` raises the same error at the same line:col."""
    try:
        toks = token_positions(text)
    except ScriptError as exc:
        with pytest.raises(ScriptError) as got:
            parse(text)
        assert (str(got.value), got.value.line, got.value.col) == (str(exc), exc.line, exc.col)
        return
    values = tokenize(text)
    assert values == [f'"{t.value}"' if t.kind == "str" else t.value for t in toks]
    assert values[-1] == "" and values.count("") == 1


_TABLES = {
    "corpus": CORPUS, "edge": TOKEN_EDGES, "malformed": MALFORMED,
    "rule": RULE_SHAPES, "message": RULE_MESSAGES,
}
_INPUTS = [
    (f"{table} {name}", text) for table, texts in _TABLES.items() for name, text in texts.items()
]


@pytest.mark.parametrize("text", [text for _, text in _INPUTS], ids=[name for name, _ in _INPUTS])
def test_values_are_the_positional_tokens(text):
    _same_tokens(text)


@given(_LEXER_TEXT)
@settings(max_examples=300)
def test_values_are_the_positional_tokens_of_any_line(text):
    _same_tokens(text)


def test_values_are_the_positional_tokens_of_mutated_scripts():
    """The mutants of `test_fuzz`, drawn in the same order."""
    rng = random.Random(SEED)
    names = sorted(CORPUS)
    for n in range(MUTATIONS):
        text, _ = mutate(CORPUS[names[n % len(names)]], rng)
        _same_tokens(text)


_EXPRS = pathlib.Path(__file__).parent.parent / "scripts" / "exprs"
_FROM_AN_OFFSET = {
    **dict(_INPUTS),
    **{f"expr {path.name}": path.read_text() for path in sorted(_EXPRS.glob("*.expr"))},
    "chain_script(12, 6)": chain_script(12, 6),
    "crlf": "atom A CP2 { F: g=0, i=1, a=1 }\r\n# a note\r\natom B CP2 { }\r\n"
    "lhs A\r\nrhs B\r\ntarget =\r\n",
    "eof in a comment": "atom A CP2 { }\natom B CP2 { }\nexpr A # no newline",
    "string spanning a newline after lhs": 'atom A CP2 { }\nlhs A rhs A target =\n'
    'by R8 { } "two\nlines"\nby R8 { }\n',
}


def _lexed(text: str, start: int = 0):
    try:
        return token_positions(text, start)
    except ScriptError as exc:
        return str(exc)


@pytest.mark.parametrize("text", _FROM_AN_OFFSET.values(), ids=_FROM_AN_OFFSET)
def test_lexing_from_an_offset_gives_the_tail_of_the_tokens(text):
    """From the blanks before each `atom`, `triple`, `lhs` and `expr` word
    and from the word itself, up to the first string that spans a newline
    or the first character that starts no token: the values, kinds, lines
    and columns of the whole text's tokens from that word on, or its
    lexical error."""
    values, whole = tokenize(text), _lexed(text)
    for k, m in enumerate(_VALUE_RE.finditer(text)):
        v = m[1]
        if v.startswith('"') and "\n" in v or len(v) == 1 and v not in _KIND_OF:
            break
        if v in ("atom", "triple", "lhs", "expr"):
            for start in (m.start(), m.start(1)):
                assert tokenize(text, start) == values[k:]
                assert _lexed(text, start) == (whole if isinstance(whole, str) else whole[k:])


@pytest.mark.parametrize(
    "text, message",
    [
        # the lexical error wins over a parse error earlier in the text
        ("lhs ( @", "1:7: unexpected character '@'"),
        ("lhs )\n\nrhs X\n  \"open", "4:3: unterminated string"),
        ("atom A E(3/0)\n_x", "2:1: unexpected character '_'"),
        ("a=1/2/3", "1:6: unexpected character '/'"),
        # a bad character where the grammar reads a name, a number or a note
        ("lhs X rhs X target = by R8 { at = ^ }", "1:35: unexpected character '^'"),
        ("atom A E(é)", "1:10: unexpected character 'é'"),
        ('lhs X rhs X target = by R8 { } "', "1:32: unterminated string"),
        # a parse error with no lexical one is located at its token
        ("lhs X rhs X target = by R8 { } rev rev",
         "1:36: unexpected 'name' 'rev' (expected end of script)"),
        ('lhs X rhs X target = by R8 { } "a" ""',
         "1:36: unexpected 'str' (expected end of script)"),
        # the eof of a text ending in a comment is at its `#`
        ("atom A E(1) { F: g=1, i=0, a=1 } # end",
         "1:34: unexpected 'eof' (expected atom, declaration, lhs, triple)"),
    ],
)
def test_messages_locate_as_the_positional_lexer(text, message):
    r = run(text)
    assert (r.code, r.messages) == (2, [message])


def test_a_build_error_deep_in_a_long_text_keeps_its_position():
    """An unresolved identifier in the rhs of a 2000-deep chain, and on the
    last line of the same chain written as an expression file."""
    text = chain_script(2000, 2)
    cut = text.rindex("W2000")
    r = run(text[:cut] + "W2001" + text[cut + 5 :])
    assert (r.code, r.messages) == (2, ["2002:48653: unresolved identifier 'W2001'"])
    lines = text.splitlines()
    expr = lines[2000].replace("lhs ", "expr ").replace("W2000,", "W2001,")
    with pytest.raises(ScriptError) as got:
        parse_expr_file("\n".join(lines[:2000] + [expr]) + "\n")
    assert (got.value.line, got.value.col) == (2001, 48654)
    assert str(got.value) == "2001:48654: unresolved identifier 'W2001'"


# the token pattern as it was written before its blank prefix became
# `[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*`: the oracle of the pattern in use
_ORACLE_RE = re.compile(
    r'(?:[ \t\r\n]+|\#[^\n]*)*([A-Za-z][A-Za-z0-9_#+~^-]*|\d+(?:/\d+)?|"[^"]*"|.|\Z)'
)
# a character of each class of the pattern; blanks that `\s` takes and the
# pattern's prefix does not (`\x0b`, `\xa0`); a digit outside ASCII
_ALPHABET = 'aZe09_#+~^-/{}(),;:=."  \t\r\n\n\x0b\xa0٣é@'


def _spans(pattern, text: str) -> list[tuple[int, int, int]]:
    return [(m.start(), m.start(1), m.end()) for m in pattern.finditer(text)]


def test_the_token_pattern_reads_as_its_oracle():
    """Over slices of the corpus and random texts, `findall` gives the
    same values and `finditer` the same spans as the oracle."""
    rng = random.Random(SEED)
    corpus = list(CORPUS.values())
    texts = []
    for _ in range(2000):
        source = rng.choice(corpus)
        start = rng.randrange(len(source))
        texts.append(source[start : start + rng.randrange(1, 200)])
    for _ in range(2000):
        texts.append("".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(40))))
    for text in texts:
        assert _VALUE_RE.findall(text) == _ORACLE_RE.findall(text), text
        assert _spans(_VALUE_RE, text) == _spans(_ORACLE_RE, text), text
