"""Proof-script DSL: grammar, parser, printer, and the driver that feeds
scripts to the equivalence checker.  The parser builds each atom and
operation as its form closes, so a script's sides come out of `parse` as
checked `core` nodes, and a name in an expression is the declared atom.

Grammar (tokens are whitespace-insensitive; `#` at a token boundary
starts a comment running to end of line):

    script   := decl* "lhs" expr "rhs" expr "target" ("=" | "~") step*
    decl     := "atom" NAME kind [markblock]
              | "triple" NAME "(" expr "," NAME "," NAME ")"
    markblock := "{" [markspec (";" markspec)* [";"]] "}"
    expr     := NAME | kind markblock | op
    step     := "by" RULEID "{" [slot ("," slot)*] "}" ["rev"] [STRING]
    slot     := NAME "=" (area | NUM | NAME ("." NAME)*)
    area     := SNUM [("+" | "-") NUM ("e" | "eps")]

A `kind`, an `op` and a `markspec` are written in the source form of an
atom kind (`_KIND_FORMS`), of an operation (`_FORMS`, whose `{field:key}`
slots are its options `, key = value`) or of a mark (`_MARK`, which reads
`NAME: g=SNUM, i=SNUM, a=area [, perp NAME]`): those forms are the grammar
that the parser reads and the printer writes, and from which the fast
reader's patterns are compiled.
Rational literals are `p/q`; areas are written `1`, `0+1e`, `5/4-3e`.
Expression files use the same declarations followed by `expr <expr>`.

Two readers read a text, once, from left to right.  The fast reader,
`_read_fast`, matches the atom declarations at its start with two compiled
patterns, `atom NAME KIND {` and then each mark spec (`_SPEC_RE`, compiled
from `_MARK`, whose blanks are spaces, tabs and line breaks), and builds
each atom from the groups; it reads each new kind text with the token
reader, and atoms of one kind text hold one kind object (an atom read by
the token reader builds its own).  After the declarations it reads each
side, `lhs` and `rhs` or an expression file's `expr`, one run of a form
per match, with patterns compiled from each operation's form
(`_Form.runs`), and builds its operations once the whole side is read.
At the first declaration or side that the patterns do not match (a
triple, say, an integer slot written `p/q`, an option, an area, an inline
atom or a comment in a mark block or a side) or that fails a check, the
token reader, `_Parser`, reads on in the whole text from where that
declaration or side starts, with the atoms and sides read.  These hold
no failure, so every message, position and failure rank is the token
reader's, as if it had read the text from its start.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter
from string import Formatter, ascii_letters, digits
from typing import NamedTuple, Optional, Union

from .areas import AreaValue, _new, area, exact_str
from .core import (
    AtomKind,
    AtomNode,
    BlowUp,
    Desing,
    EllipticSurface,
    EquivLevel,
    FourSum,
    GluingChoice,
    ManifoldExpr,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
    SymsumError,
    Thicken,
    Thin,
)
from .record import Record, values_getter
from .rewrite import RULE_IDS, InvariantDriftError, ProofStep, Verdict, check_equiv


class ScriptError(SymsumError):
    def __init__(self, message: str, line: int = 0, col: int = 0, expected=None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        loc = f"{line}:{col}: " if line else ""
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{loc}{message}{exp}")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# The pieces of the token pattern, which the fast reader's patterns share:
# blanks and comments, a comment running to the end of its line or text
# (so that a pattern that fails cannot read on from inside one), a name
# and a number.
_SPACES = r"[ \t\r\n]*"
_BLANK = _SPACES + r"(?:\#[^\n]*(?:\n[ \t\r\n]*|\Z))*"
_NAME = r"[A-Za-z][A-Za-z0-9_#+~^-]*"
_NUM = r"\d+(?:/\d+)?"
# The one token pattern: blanks and comments, then a token, or `\Z` for
# the eof "".  The token reader reads the values of one `findall`, a string
# with its quotes; a character that starts no token is a value no rule takes.
_VALUE_RE = re.compile(_BLANK + f'({_NAME}|{_NUM}|"[^"]*"|.|\\Z)')


def tokenize(text: str, start: int = 0) -> list[str]:
    """The value of each token of `text` from `start`, a token boundary,
    then one "" for the eof."""
    values = _VALUE_RE.findall(text, start)
    if len(values) > 1 and not values[-2]:  # text ending in blanks: `\Z` matched twice
        values.pop()
    return values


# the kind of a token value by its first character: punctuation is its own
# kind, and so is a character that starts no token, a lone `"` among them
_KIND_OF = {
    **dict.fromkeys(ascii_letters, "name"), **dict.fromkeys(digits, "num"),
    **{c: c for c in "{}(),;:=.+~-"}, "": "eof",
}


def _kind(value: str) -> str:
    c = value[:1]
    return _KIND_OF.get(c) or ("num" if c.isdecimal() else "str" if c == '"' != value else value)


class Token(NamedTuple):
    kind: str  # "name" | "num" | "str" | one of "{}(),;:=.+-~" | "eof"
    value: str
    line: int
    col: int


def token_positions(text: str, start: int = 0) -> list[Token]:
    """The tokens of `tokenize`, each with its kind and line:col, which a
    message needs.  A token's line and column count the newlines in the
    blanks and comments before it (a string spanning a newline does not
    advance the line), and a comment running to the end of the text
    leaves the eof at its `#`.  A character that starts no token raises.
    Lines and columns count from the start of `text`, not from `start`."""
    toks: list[Token] = []
    # Every newline before `start` is in blanks or comments: a string is
    # read only in a step, after `target`, where no pattern of the fast
    # reader reads, and a kind text that holds one fails its parse, so the
    # fast reader stops before it.
    line, line_start = text.count("\n", 0, start) + 1, text.rfind("\n", 0, start) + 1
    for m in _VALUE_RE.finditer(text, start):
        gap, at = m.start(), m.start(1)
        newline = text.rfind("\n", gap, at)
        if newline >= 0:
            line += text.count("\n", gap, at)
            line_start = newline + 1
        v = m[1]
        kind = _kind(v)
        if not v:  # the eof; a text ending in blanks would match `\Z` again
            comment = text.find("#", max(gap, line_start), at)
            col = (at if comment < 0 else comment) - line_start + 1
            toks.append(Token(kind, v, line, col))
            return toks
        col = at - line_start + 1
        if kind == v and len(v) == 1 and v not in _KIND_OF:  # v starts no token
            if v == '"':
                raise ScriptError("unterminated string", line, col)
            raise ScriptError(f"unexpected character {v!r}", line, col)
        toks.append(Token(kind, v[1:-1] if kind == "str" else v, line, col))


# ---------------------------------------------------------------------------
# AST: the declarations of a script, its built sides, and its steps as the
# checker's records
# ---------------------------------------------------------------------------


class AtomDecl(Record):
    def __init__(self, name: str, atom: AtomNode):
        self.name, self.atom = name, atom


class TripleDecl(Record):
    def __init__(self, name: str, expr: ManifoldExpr, s: str, t: str):
        self.name, self.expr, self.s, self.t = name, expr, s, t


class ScriptAst(Record):
    def __init__(
        self, decls: list, lhs: ManifoldExpr, rhs: ManifoldExpr, target: str,
        steps: list[ProofStep],
    ):
        self.decls, self.lhs, self.rhs = decls, lhs, rhs
        self.target, self.steps = target, steps


class ExprFileAst(Record):
    def __init__(self, decls: list, expr: ManifoldExpr):
        self.decls, self.expr = decls, expr


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_DUPLICATE, _ATOM, _BUILD = range(3)  # the ranks of the failures that a parse holds


class _Parser:
    """Reads token values by index; a message's line:col lexes them again.
    Each atom and operation is built as its form closes, a name resolved
    against the atoms declared before it.  A failure is held until the
    parse ends, so that a syntax error later in the text wins; then the
    first duplicate identifier, the first atom that failed its checks and
    the first other build failure win, in this order (`held`).  A node
    that failed, and each node over it, reads as None."""

    def __init__(
        self, text: str, start: int = 0, decls: tuple = (), atoms: Optional[dict] = None,
        sides: tuple = (),
    ):
        """A reader of `text` from `start`, after the declarations `decls`
        of the atoms `atoms`, by name, and the sides `sides`, that the fast
        reader read before it."""
        self.text, self.start = text, start
        self.toks, self.i = tokenize(text, start), 0
        self.held: list[Optional[ScriptError]] = [None, None, None]  # by rank
        self.decls, self.sides = list(decls), list(sides)
        self.atoms: dict[str, Optional[AtomNode]] = dict(atoms or {})  # the atoms declared
        self.names: set[str] = set(self.atoms)  # every name declared

    @cached_property
    def positions(self) -> list[Token]:
        """The tokens with their lines and columns, lexed by the first message."""
        return token_positions(self.text, self.start)

    def error(self, message: Optional[str], i: int, expected=None) -> ScriptError:
        """`message`, by default "unexpected" and token `i`, at token `i`."""
        t = self.positions[i]
        message = message or f"unexpected {t.value or t.kind!r}"
        return ScriptError(message, t.line, t.col, expected)

    def expect(self, kind: str, what: Optional[str] = None) -> str:
        v = self.toks[self.i]
        if _KIND_OF.get(v[:1]) != kind and _kind(v) != kind:
            t = self.positions[self.i]
            got = f"{t.kind!r}" + (f" {t.value!r}" if t.value else "")
            raise self.error(f"unexpected {got}", self.i, {what or kind})
        self.i += 1
        return v

    def accept(self, value: str) -> bool:
        """Reads the next token if it is `value` (never the eof); whether it was."""
        found = self.toks[self.i] == value
        self.i += found
        return found

    def keyword(self, word: str) -> None:
        if self.toks[self.i] != word:
            raise self.error(None, self.i, {word})
        self.i += 1

    # -- numbers and areas -------------------------------------------

    def parse_fraction(self) -> Union[int, Fraction]:
        """A number after an optional `-`: an int for `p`, a Fraction for `p/q`."""
        neg = self.accept("-")
        v = self.expect("num", "number")
        try:
            f = _rational(v)
        except ValueError:  # more digits in `p` or `q` than `int()` converts
            for digits in v.split("/"):
                try:
                    int(digits)
                except ValueError:
                    message = f"number too long: {len(digits)} digits"
                    raise self.error(message, self.i - 1) from None
        except ZeroDivisionError:
            raise self.error(f"zero denominator in {v!r}", self.i - 1) from None
        return -f if neg else f

    def parse_int(self) -> int:
        """An integer slot: a number that is exactly an integer; never
        truncates."""
        f = self.parse_fraction()
        if f.denominator != 1:
            raise self.error(f"{self.toks[self.i - 1]!r} is not an integer", self.i - 1)
        return int(f)

    def parse_area(self) -> AreaValue:
        const = self.parse_fraction()
        toks, i = self.toks, self.i
        sign = toks[i]
        if (sign == "+" or sign == "-") and _kind(toks[i + 1]) == "num" and toks[i + 2] in _EPS:
            self.i += 1
            eps = self.parse_fraction()
            self.i += 1  # e / eps
            return AreaValue(const, -eps if sign == "-" else eps)
        if sign in _EPS:  # pure-eps form like "1e" after a bare number
            self.i += 1
            return AreaValue(0, const)
        return AreaValue(const, 0)

    # -- declarations ------------------------------------------------

    def parse_kind(self) -> Optional[AtomKind]:
        """An atom kind: its tag, then the rest of its form."""
        tag = self.expect("name", "atom kind")
        if tag not in KINDS:
            raise self.error(f"unknown atom kind {tag!r}", self.i - 1, expected=set(KINDS))
        return self.parse_form(KINDS[tag])

    def parse_atom(self, at: int) -> Optional[AtomNode]:
        """An atom kind and its marks, built.  An atom that fails its
        checks is held, at token `at` or at the mark whose `perp` names no
        mark, and reads as None."""
        kind = self.parse_kind()
        specs = self.parse_markblock() if self.toks[self.i] == "{" else []
        try:
            return _atom(kind, specs)
        except _UnresolvedMark as exc:
            return self.hold(str(exc), exc.where, _ATOM)
        except SymsumError as exc:
            return self.hold(str(exc), at, _ATOM)

    def hold(self, message: str, i: int, rank: int) -> None:
        """Keeps `message`, at token `i`, unless a failure of its rank came
        before it."""
        if self.held[rank] is None:
            self.held[rank] = self.error(message, i)

    def parse_markblock(self) -> list[tuple]:
        """Each mark spec's label, genus, normal number, area and `perp`
        partner (or None), and the index of its label token."""
        self.expect("{")
        marks = []
        while self.toks[self.i] != "}":
            at = self.i
            marks.append((*self.parse_form(_MARK), at))
            if not self.accept(";"):
                break
        self.expect("}")
        return marks

    def parse_decl(self):
        word = self.toks[self.i]
        if word != "atom" and word != "triple":
            raise self.error(None, self.i, {"atom", "triple", "lhs", "declaration"})
        self.i = at = self.i + 1
        name = self.expect("name", f"{word} name")
        if name in self.names:
            self.hold(f"duplicate identifier {name!r}", at, _DUPLICATE)
        self.names.add(name)
        if word == "atom":
            atom = self.atoms[name] = self.parse_atom(at)
            return AtomDecl(name, atom)
        expr, s, t = self.parse_form(_TRIPLE)
        for label in (s, t):  # a triple must carry both of its marks
            if expr is not None and not expr.has_mark(label):
                self.hold(f"unresolved mark {label!r}", at, _BUILD)
        return TripleDecl(name, expr, s, t)

    # -- expressions -------------------------------------------------

    def parse_form(self, want: Optional[_Form]):
        """An expression (`want` None) or the form `want`, read with an
        explicit stack of the forms opened and not yet closed: a child
        slot opens a form on top, and a closed form is built and fills the
        slot below.  A leaf child and an expected word or punctuation are
        read in place, any other token by its reader.
        A failed check is held at the outermost operation, `root`."""
        toks, stack = self.toks, []
        root = None
        while True:
            start = self.i
            if want is None:  # an operation, opened by its keyword, or a leaf
                want = _GRAMMAR.get(toks[start])
                if want is None:
                    return self.parse_leaf()
                self.i += 1
                if root is None:
                    root = start
            # an open form: the form, its first token's index, its args, its next step
            stack.append([want, start, {}, 0])
            while stack:  # read on in the innermost open form
                top = stack[-1]
                form, start, args, i = top
                steps = form.steps
                while True:
                    read, arg, field = steps[i]
                    i += 1
                    v = toks[self.i]
                    if v == arg:  # the word or punctuation expected
                        self.i += 1
                    elif read is None:  # a child slot, or the end of the form
                        if arg is not None or v in _GRAMMAR:
                            break
                        args[field] = self.parse_leaf()
                    elif field is not None:
                        args[field] = read(self)
                    elif arg is not None:  # not the word or punctuation expected
                        read(self, arg)
                    elif v == ",":  # the options, if any are given
                        self.parse_options(form, args, start)
                if arg is not _CLOSED:
                    top[3], want = i, arg
                    break
                stack.pop()
                value = self.build(form, args, root)
                if stack:  # the child slot where reading stopped in the form below
                    form, _, args, i = stack[-1]
                    args[form.steps[i - 1][2]] = value
            else:
                return value

    def build(self, form: _Form, args: dict, root: Optional[int]):
        """The value of a closed form, `form.make(**args)`: None where a
        child is None, or where a check fails, which is held at token
        `root`.  The options that the text gave at their defaults are
        noted on the node, for print_script (`_given`)."""
        for field in form.kids:
            if args[field] is None:
                return None
        try:
            value = form.make(**args)
        except SymsumError as exc:
            return self.hold(str(exc), root, _BUILD)
        for f, default in form.option_defaults:
            if f in args and args[f] == default:
                value.__dict__.setdefault("_given", []).append(f)
        return value

    def parse_options(self, form: _Form, args: dict, start: int) -> None:
        """The `, key = value` options of `form`; a flag has no value, and
        only a repeatable option may be given twice."""
        while self.accept(","):
            at = self.i
            key = self.expect("name", f"{form.name} option")
            option = form.options.get(key)
            if option is None or option[1] is not None:  # not a flag
                self.expect("=")
            if option is None:
                raise self.error(
                    f"unknown {form.name} option {key!r}", start, expected=set(form.options)
                )
            field, read, repeats = option
            if field in args and not repeats:
                raise self.error(f"repeated {form.name} option {key!r}", at)
            value = True if read is None else read(self)
            args[field] = args.get(field, ()) + (value,) if repeats else value

    def parse_leaf(self) -> Optional[AtomNode]:
        """A declared atom, by its name, or an inline atom; None for an
        atom that failed or a name that no atom before it declares."""
        at = self.i
        name = self.toks[at]
        if _kind(name) != "name":
            raise self.error(None, at, {"expression"})
        if name in KINDS and self.toks[at + 1] in ("(", "{"):
            # an inline atom: the kind tag is followed by parameters or marks
            return self.parse_atom(at)
        self.i += 1
        if name not in self.atoms:
            self.hold(f"unresolved identifier {name!r}", at, _BUILD)
        return self.atoms.get(name)

    def read_name(self) -> str:
        return self.expect("name")

    def read_label(self) -> str:
        return self.expect("name", "mark label")

    def parse_perp(self) -> Optional[str]:
        """A mark's partner, after `, perp` if that follows; else None."""
        if self.toks[self.i] != "," or self.toks[self.i + 1] != "perp":
            return None
        self.i += 2
        return self.read_label()

    def parse_at(self) -> Optional[str]:
        """A blow-up's point: `generic`, or `at = X` on the mark X."""
        if self.accept("generic"):
            return None
        self.keyword("at")
        self.expect("=")
        return self.read_name()

    def parse_pair(self) -> tuple[str, str]:
        a = self.read_name()
        self.expect(":")
        return a, self.read_name()

    # -- steps -------------------------------------------------------

    def parse_step(self) -> ProofStep:
        self.keyword("by")
        rule = self.expect("name", "rule id")
        if rule not in RULE_IDS:
            raise self.error(f"unknown rule id {rule!r}", self.i - 1, expected=set(RULE_IDS))
        self.expect("{")
        slots = {}
        while self.toks[self.i] != "}":
            key = self.expect("name", "slot name")
            if key in slots:
                raise self.error(f"repeated {rule} slot {key!r}", self.i - 1)
            self.expect("=")
            slots[key] = self.parse_slot_value()
            if not self.accept(","):
                break
        self.expect("}")
        rev, note = self.accept("rev"), None
        if _kind(self.toks[self.i]) == "str":
            note = self.toks[self.i][1:-1]
            self.i += 1
        return ProofStep(rule, slots, rev, note)

    def parse_slot_value(self) -> Union[AreaValue, Fraction, str]:
        kind = _kind(self.toks[self.i])
        if kind == "num" or kind == "-":
            value = self.parse_area()
            # an area ends in its `e` or `eps`, a plain number in a number
            return value if self.toks[self.i - 1] in _EPS else value.const
        name = self.expect("name", "slot value")
        while self.accept("."):
            name += "." + self.expect("name")
        return name

    # -- entry points ------------------------------------------------

    def read_sides(self, *words: str) -> list:
        """The sides after the keywords `words`, the first of them after the
        declarations: those that the fast reader read, then the rest."""
        sides = self.sides
        if not sides:
            while self.toks[self.i] != words[0]:
                self.decls.append(self.parse_decl())
        for word in words[len(sides):]:
            self.keyword(word)
            sides.append(self.parse_form(None))
        return sides

    def parse_script(self) -> ScriptAst:
        lhs, rhs = self.read_sides("lhs", "rhs")
        self.keyword("target")
        target = self.toks[self.i]
        if target != "=" and target != "~":
            raise self.error(None, self.i, {"=", "~"})
        self.i += 1
        steps = []
        while self.toks[self.i] == "by":
            steps.append(self.parse_step())
        self.expect("eof", "end of script")
        self.finish()
        return ScriptAst(self.decls, lhs, rhs, target, steps)

    def parse_expr_file(self) -> ExprFileAst:
        (e,) = self.read_sides("expr")
        self.expect("eof", "end of file")
        self.finish()
        return ExprFileAst(self.decls, e)

    def finish(self) -> None:
        """Raises the failure held of the first rank that holds one."""
        for failure in self.held:
            if failure is not None:
                raise failure


class _UnresolvedMark(SymsumError):
    """A `perp` that names no mark of its atom, read at `where`."""

    def __init__(self, label: str, where: Optional[int]):
        super().__init__(f"unresolved mark {label!r}")
        self.where = where


_PARTNER = itemgetter(4)  # a spec's `perp` partner


def _atom(kind: Optional[AtomKind], specs: list[tuple]) -> AtomNode:
    """The atom of `kind` with the marks `specs`, each (label, genus,
    normal number, area, `perp` partner or None, where it was read); a
    one-sided `perp` implies its mirror.  Raises SymsumError where the
    atom fails a check."""
    if not any(map(_PARTNER, specs)):
        return AtomNode(kind, [SurfaceMark(l, g, n, a) for l, g, n, a, _, _ in specs])
    perp = {label: p for label, _, _, _, p, _ in specs}
    for label, _, _, _, p, where in specs:
        if p is None:
            continue
        if p not in perp:
            raise _UnresolvedMark(p, where)
        if perp[p] is None:
            perp[p] = label
    return AtomNode(kind, [SurfaceMark(l, g, n, a, perp[l]) for l, g, n, a, _, _ in specs])


def _pattern(text: str, blank: str = _BLANK) -> re.Pattern:
    """A fast reader's pattern written with the token pattern's pieces: a
    blank stands for `blank`, by default `_BLANK`, NAME and NUM for `_NAME`
    and `_NUM`, and `%` ends a word where no name character follows, as the
    longest name does."""
    return re.compile(
        text.replace(" ", blank).replace("NAME", _NAME).replace("NUM", _NUM)
        .replace("%", r"(?![A-Za-z0-9_#+~^-])")
    )


# `atom NAME KIND {`, where KIND is a tag with an optional `( ... )`
_ATOM_RE = _pattern(r" atom% (NAME%) (NAME%(?: \([^()]*\))?) \{")


def _rational(v: str) -> Union[int, Fraction]:
    """The number `p` or `p/q`, after an optional `-`, written `v`; raises
    ValueError where `int()` does and ZeroDivisionError where q is 0."""
    num, _, den = v.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


def _read_atoms(text: str) -> tuple[int, list[AtomDecl], dict[str, AtomNode]]:
    """The fast reader's declarations: where the first declaration starts
    that it does not read, and the atom declarations before it, built.  It
    reads those that `_ATOM_RE` and `_SPEC_RE` match, that pass every check
    and whose name is new and no operation's keyword, and stops at the first
    other one, for the token reader to read on from and to word.  An atom
    with a kind text read before holds the same kind object; a new kind
    text is read by the token reader."""
    decls, atoms, kinds = [], {}, {}
    start = 0
    while True:
        m = _ATOM_RE.match(text, start)
        if m is None or m[1] in atoms or m[1] in _GRAMMAR:
            return start, decls, atoms
        name, kind_text = m.groups()
        try:
            kind = kinds.get(kind_text)
            if kind is None:
                p = _Parser(kind_text)
                kind = p.parse_kind()
                p.expect("eof")
                p.finish()
                kinds[kind_text] = kind
            specs, end = [], m.end()
            while True:
                m = _SPEC_RE.match(text, end)
                if m is None:
                    return start, decls, atoms
                end = m.end()
                label, g, i, a, sign, eps, e, perp, stop, close = m.groups()
                if close:
                    break
                a = _rational(a)
                if sign:
                    c, e = a, -_rational(eps) if sign == "-" else _rational(eps)
                else:
                    c, e = (0, a) if e else (a, 0)
                # an area of int parts, the common case, is (c + e*eps)/1
                area = _new(c, e, 1) if type(c) is int and type(e) is int else AreaValue(c, e)
                specs.append((label, int(g), int(i), area, perp, None))
                if stop == "}":
                    break
            atoms[name] = _atom(kind, specs)
        except (SymsumError, ValueError, ZeroDivisionError):
            return start, decls, atoms
        decls.append(AtomDecl(name, atoms[name]))
        start = end


# a side's keyword and its first token
_SIDE = _pattern(" (NAME%) (NAME%)")


def _read_side(text: str, name: str, pos: int, atoms: dict) -> Optional[tuple]:
    """The side whose first token, `name`, ends at `pos`, read with the
    forms' runs and built, and where it ends; None at a name that is no
    keyword of a form with runs nor one of `atoms` (nor a kind tag, for a
    side of one name), at a run that misses or a build that fails.  Each
    match reads a run and its child's name, which opens a form or is an
    atom.  The stack holds each form that waits for a child: its args, the
    child's slot and the run after it.  The forms are built once the whole
    side is read, each after its children, so a side that misses builds none."""
    form = _GRAMMAR.get(name)
    if form is None:
        node = atoms.get(name)
        return None if node is None or name in KINDS else (node, pos)
    stack, closed, args, run = [], [], {}, 0
    while form.runs:
        pattern, child, again = form.runs[run]
        if again:  # run 0, where the text may open the form again at its first child slot
            m = again.match(text, pos)
            for _ in range(m[0].count(form.name)):
                stack.append((form, args, child, 1))
                args = {}
            pos = m.end()
        m = pattern.match(text, pos)
        if m is None:
            return None
        pos = m.end()
        args.update(m.groupdict())
        if child is None:  # the form closed, to be built into its parent's slot
            if not stack:
                break
            closed.append((form, args, *stack[-1][1:3]))
            form, args, _, run = stack.pop()
        elif args[child] in _GRAMMAR:  # the child opens a form
            stack.append((form, args, child, run + 1))
            form, args, run = _GRAMMAR[args[child]], {}, 0
        elif args[child] in atoms:
            args[child], run = atoms[args[child]], run + 1
        else:
            return None
    else:
        return None  # a form with no runs
    closed.append((form, args, {}, None))
    try:
        for form, args, into, slot in closed:
            into[slot] = node = form.make(**args)
    except SymsumError:
        return None
    return node, pos


def _read_fast(text: str, words: tuple) -> tuple:
    """The fast reader: where the token reader starts, and the atom
    declarations, atoms by name and sides, after their keywords `words`,
    read before it by `_read_atoms` and `_read_side`."""
    start, decls, atoms = _read_atoms(text)
    sides = []
    for word in words:
        m = _SIDE.match(text, start)
        side = m and m[1] == word and _read_side(text, m[2], m.end(), atoms)
        if not side:
            break
        sides.append(side[0])
        start = side[1]
    return start, decls, atoms, sides


def parse(source: str) -> ScriptAst:
    return _Parser(source, *_read_fast(source, ("lhs", "rhs"))).parse_script()


def parse_expr_file(source: str) -> ExprFileAst:
    return _Parser(source, *_read_fast(source, ("expr",))).parse_expr_file()


class BuiltScript(Record):
    def __init__(
        self, lhs: ManifoldExpr, rhs: ManifoldExpr, target: EquivLevel, steps: list[ProofStep]
    ):
        self.lhs, self.rhs, self.target, self.steps = lhs, rhs, target, steps


def build_script(source: str) -> BuiltScript:
    """The sides, target and steps of the script `source`, for the checker."""
    ast = parse(source)
    level = EquivLevel.SYMPLECTOMORPHIC if ast.target == "=" else EquivLevel.WEAK_DEFORMATION
    return BuiltScript(ast.lhs, ast.rhs, level, ast.steps)


# ---------------------------------------------------------------------------
# Operation forms: the grammar that the parser reads and the printer writes
# ---------------------------------------------------------------------------

# the source form of each operation.  Literal text is what the parser
# expects and the printer writes; a `{field}` slot holds that constructor
# argument, read and printed by the kind of the field (_SLOT_KINDS).  A
# `{field:key}` slot is an option, read as `, key = value` in any order,
# which prints when it differs from its default, or in print_script when
# the text gave it.
_FORMS = {
    PairSum: "sum({left}, {left_mark}, {right}, {right_mark}"
    "{gluing:glue}{carry_label:carry}{pairs:pair})",
    FourSum: "sum4(({x1}, {s1}, {t1}), ({x2}, {s2}, {t2}), ({x3}, {s3}, {t3}), "
    "({x4}, {s4}, {t4}))",
    BlowUp: "blowup({inner}, {at_mark}, size = {size}"
    "{transform_label:transform}{exceptional_label:exc}{pair_exceptional:pairexc})",
    Thin: "thin({inner}, {mark_label}, {amount})",
    Thicken: "thicken({inner}, {mark_label}, {amount})",
    Desing: "desing({inner}, {mark_s}, {mark_t}{label:label})",
}
# the source form of each atom kind, opened by its tag
_KIND_FORMS = {
    EllipticSurface: "E({n})",
    ProjectivePlane: "CP2",
    ProjectivePlaneReversed: "CP2rev",
    RuledSurface: "W({genus},{twist},{fiber_area})",
    RationalSurface: "Rational({blowups})",
}

_EPS = ("e", "eps")  # the words after an area's eps coefficient
_CLOSED = object()  # what the stop at the end of a form wants
_NO_DEFAULT = object()  # the default of a slot that always prints


class _Form:
    """A source form compiled once: the steps in which the parser reads it,
    the pieces from which the printer writes it, and its options by
    keyword.  The fields of record class `cls` give the slots their kinds
    and the options their defaults; `make(**args)`, by default `cls`, is
    the value read from the form, and `kids` the child slots that a failed
    child, None, leaves unbuilt (an operation's selectors)."""

    def __init__(self, form: str, cls: type, make=None):
        self.make, self.kids = make or cls, getattr(cls, "SELECTORS", ())
        self.steps, self.pieces, self.options, self.fields = [], [], {}, []
        # how a node leaves out an option: at its default
        self.defaults, self.option_defaults, self.tail = [], [], ""
        kinds = dict(cls.FIELDS)
        for literal, field, key, _ in Formatter().parse(form):
            for t in token_positions(literal)[:-1]:  # a word, or punctuation
                read = _Parser.keyword if t.kind == "name" else _Parser.expect
                self.steps.append((read, t.value, None))
            if field is None:
                self.tail = literal
                continue
            self.fields.append(field)
            self.defaults.append(cls.DEFAULTS[field] if key else _NO_DEFAULT)
            read, show = (not key and _SLOT_KINDS.get(field)) or _SLOT_KINDS[kinds[field]]
            if key:  # printed after its key, per member if it repeats
                repeats = kinds[field].startswith("tuple")
                self.options[key] = (field, read, repeats)
                self.option_defaults.append((field, self.defaults[-1]))
                if self.steps[-1][0] is not _Parser.parse_options:
                    self.steps.append((_Parser.parse_options, None, None))
                literal = f", {key}" if read is None else f", {key} = "
                if repeats:
                    show = lambda value, text=show, sep=literal: sep.join(map(text, value))
            else:  # a read, or a stop at a child slot (read None)
                self.steps.append((read, None, field))
            self.pieces.append((literal, show))
        self.steps.append((None, _CLOSED, None))
        self.name = None  # the keyword or tag that opens a form is read before it
        if self.steps[0][0] is _Parser.keyword:
            self.name = self.steps.pop(0)[1]
        self.get = values_getter(self.fields)

    @cached_property
    def runs(self) -> Optional[list[tuple]]:
        """The fast reader's patterns of this form, compiled on first use;
        None where a step is no fixed token, name or child slot or empty
        options.  Run j goes from the keyword or child slot j to the next
        child slot or the `)`, with no comment.  `runs[j]` is a pattern that
        reads run j and the name in its child slot, each name in a group
        named by its slot; that slot, None for the closing run; and for run
        0 with no name slot `again`, run 0 and the keyword repeated."""
        runs, text = [], ""
        for read, arg, field in self.steps[:-1]:
            if read is None:  # a child slot ends a run
                pattern = _pattern(f"{text} (?P<{field}>NAME%)", _SPACES)
                opener = not runs and pattern.groups == 1 and f"(?:{text} {self.name}%)*"
                runs.append((pattern, field, opener and _pattern(opener, _SPACES)))
                text = ""
            elif read is _Parser.read_name:
                text += f" (?P<{field}>NAME%)"
            elif read is _Parser.keyword or read is _Parser.expect:
                text += " " + re.escape(arg) + "%" * (read is _Parser.keyword)
            elif read is not _Parser.parse_options:
                return None
        return runs + [(_pattern(text, _SPACES), None, None)]


# how a slot or an option's value is read and printed: a slot's by the name
# of its field or else by its annotation, an option's by its annotation.  A
# child expression (read None) is read and printed from the parser's and the
# printer's stacks; a flag (read None) has no value, and a tuple's members
# repeat their option.
_SLOT_KINDS = {
    "at_mark": (_Parser.parse_at, lambda v: "generic" if v is None else f"at = {v}"),
    "label": (_Parser.read_label, str),
    "orthogonal_at": (_Parser.parse_perp, lambda v: "" if v is None else f", perp {v}"),
    "ManifoldExpr": (None, None),
    "str": (_Parser.read_name, str),
    "Optional[str]": (_Parser.read_name, str),
    "int": (_Parser.parse_int, exact_str),
    "AreaValue": (_Parser.parse_area, AreaValue.compact),
    "GluingChoice": (lambda p: GluingChoice(p.read_name()), attrgetter("label")),
    "tuple[tuple[str, str], ...]": (_Parser.parse_pair, ":".join),
    "bool": (None, lambda value: ""),
}
# the fast reader's pattern piece of a mark spec's slot, by its reader: its
# groups and the blank after it.  A sign is read only where it touches its
# number (`i = - 1` is the token reader's): two blanks never meet, so a spec
# that fails is backtracked over in linear time.
_PIECES = {
    _Parser.read_label: "(NAME%) ",
    _Parser.parse_int: r"(-?\d+) ",
    _Parser.parse_area: "(-?NUM) (?:(?:([+-]) (NUM) )?((?:eps|e)%) )?",
    _Parser.parse_perp: "(?:, perp% (NAME%) )?",
}


_TRIPLE = _Form("({expr}, {s}, {t})", TripleDecl, lambda expr, s, t: (expr, s, t))
_FORM_OF = {cls: _Form(form, cls) for cls, form in _FORMS.items()}
_GRAMMAR = {form.name: form for form in _FORM_OF.values()}  # the operations, by keyword
for cls, form in _KIND_FORMS.items():
    _FORM_OF[cls] = _Form(form, cls)
KINDS = {_FORM_OF[cls].name: _FORM_OF[cls] for cls in _KIND_FORMS}  # the atom kinds, by tag
# a mark spec, printed from a SurfaceMark and read as the tuple of its
# fields, from which `_atom` builds the mark with its atom's other marks
_MARK = _FORM_OF[SurfaceMark] = _Form(
    "{label}: g={genus}, i={normal_number}, a={area}{orthogonal_at}", SurfaceMark,
    lambda **spec: tuple(spec.values()),
)
# the fast reader's mark spec and then `;` or `}`, or the `}` that closes
# the block: each fixed token of `_MARK`, and each slot's piece.  Its
# blanks are spaces, tabs and line breaks, as a side's runs' are, so a
# comment in a mark block hands its declaration to the token reader.
_SPEC_RE = _pattern(" (?:" + "".join(
    _PIECES[read] if field else re.escape(arg) + "%" * (read is _Parser.keyword) + " "
    for read, arg, field in _MARK.steps[:-1]
) + r"([;}])|(\}))", _SPACES)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def serialize_expr(node) -> str:
    """The source text of an expression or an atom kind, walked in full,
    with every atom written out and an option printed where it differs
    from its default; a trace's renderers print the texts of
    `_step_texts`, written through `_write` with spans, which copies a
    node that an earlier tree printed."""
    return _write(node, None)


def _write(node, spans: Optional[dict], names: Optional[dict] = None) -> str:
    """The text of `node`, written in pieces from an explicit stack of the
    forms being printed, each with the slots it has still to print.  With
    `spans`, kept for the trees of one trace (`_step_texts`), the pieces
    of each operation node printed are kept as `(pieces, start, end)`
    under `spans[id(node)]`, and a node found there is copied, not walked
    again.  With `names`, print_script's map from the id of each declared
    atom to its name, a declared atom prints as its name, and an option
    that the text gave at its default (`_given`) prints too."""
    leaf_text = _leaf_text if names is None else lambda n: names.get(id(n)) or _leaf_text(n)
    leaf = leaf_text(node)
    if leaf is not None:
        return leaf
    out, stack, opened = [], [], []  # opened: (id, start) of each form on the stack
    append, absent = out.append, _NO_DEFAULT
    while node is not None:  # an operation, to open or to copy
        span = spans.get(id(node)) if spans is not None else None
        if span is not None:
            pieces, start, end = span
            out += pieces[start:end]
        else:
            stack.append(_slots(node) if names is None else _slots(node, vars(node).get("_given")))
            if spans is not None:
                opened.append((id(node), len(out)))
        node = None
        while stack and node is None:  # print on in the innermost open form
            slots, tail = stack[-1]
            for (literal, show), value, default in slots:
                if value is default or (default is not absent and value == default):
                    continue  # an option at its default
                append(literal)
                if show is None:  # a child: a leaf prints here, an operation next
                    leaf = leaf_text(value)
                    if leaf is None:
                        node = value
                        break
                    append(leaf)
                else:
                    append(show(value))
            else:
                append(tail)
                stack.pop()
                if spans is not None:
                    key, start = opened.pop()
                    spans[key] = (out, start, len(out))
    return "".join(out)


def _slots(node, given: Optional[list] = None) -> tuple:
    """The slots of an operation node or an atom kind to print, with their
    values and defaults, and the text after them; an option in `given`
    prints even at its default."""
    form = _FORM_OF[node.__class__]
    defaults = form.defaults
    if given:
        defaults = [_NO_DEFAULT if f in given else d for f, d in zip(form.fields, defaults)]
    return zip(form.pieces, form.get(node), defaults), form.tail


def _leaf_text(node) -> Optional[str]:
    """The text of an atom; None for an operation."""
    if node.__class__ is AtomNode:
        # memoized on the atom, which the trees of a proof's steps share
        text = node._text
        if text is None:
            text = node.__dict__["_text"] = _atom_text(node)
        return text
    return None


def _atom_text(node: AtomNode) -> str:
    body = "; ".join(map(_mark_text, node.marks))
    # memoized on the kind, which the atoms of one kind text share
    kind = node.kind._text
    if kind is None:
        kind = node.kind.__dict__["_text"] = serialize_expr(node.kind)
    return f"{kind} {{ {body} }}" if body else f"{kind} {{ }}"


def _mark_text(m: SurfaceMark) -> str:
    out = f"{m.label}: g={exact_str(m.genus)}, i={exact_str(m.normal_number)}, a={m.area.compact()}"
    if m.orthogonal_at:
        out += f", perp {m.orthogonal_at}"
    return out


def _slot_text(v) -> str:
    if isinstance(v, AreaValue):  # with its eps term even at zero, so that it reads back as an area
        return v.compact() if v.eps_coeff else f"{v.const}+0e"
    return str(v)


def print_script(ast: ScriptAst) -> str:
    names = {id(d.atom): d.name for d in ast.decls if d.__class__ is AtomDecl}
    lines = []
    for d in ast.decls:
        if d.__class__ is AtomDecl:
            text = _leaf_text(d.atom) if d.atom.marks else serialize_expr(d.atom.kind)
            lines.append(f"atom {d.name} {text}")
        else:
            lines.append(f"triple {d.name} ({_write(d.expr, None, names)}, {d.s}, {d.t})")
    lines.append(f"lhs {_write(ast.lhs, None, names)}")
    lines.append(f"rhs {_write(ast.rhs, None, names)}")
    lines.append(f"target {ast.target}")
    for s in ast.steps:
        slots = ", ".join(f"{k} = {_slot_text(v)}" for k, v in s.bindings.items())
        line = f"by {s.rule} {{ {slots} }}" if slots else f"by {s.rule} {{ }}"
        if s.rev:
            line += " rev"
        if s.note is not None:
            line += f' "{s.note}"'
        lines.append(line)
    return "\n".join(lines) + "\n"


def mark_table(e: ManifoldExpr) -> str:
    lines = ["label genus normal area"]
    for m in e.marks:
        lines.append(
            f"{m.label} {exact_str(m.genus)} {exact_str(m.normal_number)} {m.area.compact()}"
            + (f" perp={m.orthogonal_at}" if m.orthogonal_at else "")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Running scripts
# ---------------------------------------------------------------------------


class RunResult(Record):
    # code: 0 verified at target, 1 proof failure or a rule that changed
    # chi/sigma, 2 parse/resolution error
    def __init__(self, code: int, verdict: Optional[Verdict], messages: list[str]):
        self.code, self.verdict, self.messages = code, verdict, messages


def run(source: str) -> RunResult:
    try:
        built = build_script(source)
    except ScriptError as exc:
        return RunResult(2, None, [str(exc)])
    try:
        verdict = check_equiv(built.lhs, built.rhs, built.steps)
    except InvariantDriftError as exc:  # a defect of a rule, not of the proof
        return RunResult(1, None, [f"error: {exc}"])
    messages = []
    if not verdict.verified:
        messages.append(
            f"proof failed at step {verdict.failed_step}: {verdict.failure}"
        )
        return RunResult(1, verdict, messages)
    if not verdict.level.implies(built.target):
        messages.append(
            f"target level {built.target.symbol!r} not reached: the chain "
            f"only establishes {verdict.level.symbol!r}"
        )
        for rec in verdict.trace:
            if rec.level is not None and not rec.level.implies(built.target):
                for note in rec.notes:
                    messages.append(f"  step {rec.index} ({rec.rule}): {note}")
        return RunResult(1, verdict, messages)
    messages.append(
        f"verdict: {verdict.level.symbol} "
        f"({'symplectomorphic' if verdict.level == EquivLevel.SYMPLECTOMORPHIC else 'weak deformation'}) "
        f"{verdict.trace[-1].invariants}"
    )
    return RunResult(0, verdict, messages)


def _step_texts(verdict: Verdict) -> list[str]:
    """The text of each trace record's tree, written the first time either
    renderer asks, with one `_write` walk and one spans dict for the whole
    trace, and kept with the verdict, as an atom keeps its `_text`."""
    texts = vars(verdict).get("_texts")
    if texts is None:
        spans = {}  # where each operation node's pieces sit
        texts = verdict._texts = [_write(rec.expr, spans) for rec in verdict.trace]
    return texts


def render_trace_text(verdict: Verdict) -> str:
    lines = []
    for rec, text in zip(verdict.trace, _step_texts(verdict)):
        level = rec.level.symbol if rec.level else "start"
        lines.append(f"step {rec.index}: {rec.rule} level={level} {rec.invariants}")
        lines.append("  " + text)
        for note in rec.notes:
            lines.append("  - " + note)
    return "\n".join(lines)


def render_trace_json(verdict: Verdict) -> str:
    import json  # here, not at the top: only a JSON trace pays for the import

    lines = []
    for rec, text in zip(verdict.trace, _step_texts(verdict)):
        # the line json.dumps(..., sort_keys=True) writes, with chi and sigma
        # through exact_str, so that they print past int()'s digit limit
        level = json.dumps(rec.level.symbol if rec.level else None)
        lines.append(
            f'{{"chi": {exact_str(rec.invariants.euler)}, '
            f'"expr": {json.dumps(text)}, "level": {level}, '
            f'"notes": {json.dumps(rec.notes)}, "rule": {json.dumps(rec.rule)}, '
            f'"sigma": {exact_str(rec.invariants.signature)}, "step": {rec.index}}}'
        )
    return "\n".join(lines)
