"""Proof-script DSL: grammar, parser, printer, and the driver that feeds
scripts to the equivalence checker.

Grammar (tokens are whitespace-insensitive; `#` at a token boundary
starts a comment running to end of line):

    script   := decl* "lhs" expr "rhs" expr "target" ("=" | "~") step*
    decl     := "atom" NAME kind [markblock]
              | "triple" NAME "(" expr "," NAME "," NAME ")"
    kind     := "E" "(" NUM ")" | "CP2" | "CP2rev"
              | "W" "(" NUM "," NUM "," area ")" | "Rational" "(" NUM ")"
    markspec := NAME ":" "g" "=" NUM "," "i" "=" SNUM "," "a" "=" area
                ["," "perp" NAME]
    markblock := "{" [markspec (";" markspec)* [";"]] "}"
    expr     := NAME | kind markblock
              | "sum" "(" expr "," NAME "," expr "," NAME sumopts ")"
              | "sum4" "(" entry "," entry "," entry "," entry ")"
              | "blowup" "(" expr "," ("at" "=" NAME | "generic") ","
                             "size" "=" area blowopts ")"
              | "thin" "(" expr "," NAME "," area ")"
              | "thicken" "(" expr "," NAME "," area ")"
              | "desing" "(" expr "," NAME "," NAME ["," "label" "=" NAME] ")"
    entry    := "(" expr "," NAME "," NAME ")"
    sumopts  := ["," "glue" "=" NAME] ["," "carry" "=" NAME]
                ("," "pair" "=" NAME ":" NAME)*
    blowopts := ["," "transform" "=" NAME] ["," "exc" "=" NAME] ["," "pairexc"]
    step     := "by" RULEID "{" [slot ("," slot)*] "}" ["rev"] [STRING]
    slot     := NAME "=" (area | NUM | NAME ("." NAME)* | STRING)
    area     := SNUM [("+" | "-") NUM ("e" | "eps")]

Rational literals are `p/q`; areas are written `1`, `0+1e`, `5/4-3e`.
Expression files use the same declarations followed by `expr <expr>`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from string import Formatter
from typing import NamedTuple, Optional, Union

from .areas import AreaValue, area
from .core import (
    Atom,
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
from .record import Record
from .rewrite import RULE_IDS, ProofStep, Verdict, check_equiv


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

# One master regex: optional blanks, then one alternative per token class,
# named by `lastgroup`.  Every character that starts no token is `bad`, so
# `finditer` skips nothing; `\Z` takes blanks at the end of the text.  A
# token's column counts characters since the last newline outside a string
# (a string spanning a newline does not advance the line), and a comment
# running to the end of the text leaves the eof token at its `#`.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*
    (?: (?P<name>[A-Za-z][A-Za-z0-9_#+~^-]*)
      | (?P<num>\d+(?:/\d+)?)
      | (?P<punct>[{}(),;:=.+~-])
      | (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<str>"[^"]*")
      | (?P<bad>.)
      | \Z )""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "name" | "num" | "str" | one of "{}(),;:=.+-~" | "eof"
    value: str
    line: int
    col: int


_new_token = tuple.__new__  # skips NamedTuple's Python-level __new__


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    add = toks.append
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "name" or kind == "num":
            start, stop = m.span(kind)
            add(_new_token(Token, (kind, text[start:stop], line, start - line_start + 1)))
        elif kind == "punct":
            start = m.end() - 1
            c = text[start]
            add(_new_token(Token, (c, c, line, start - line_start + 1)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "str":
            start, stop = m.span(kind)
            add(Token("str", text[start + 1 : stop - 1], line, start - line_start + 1))
        elif kind == "comment":
            if m.end() == len(text):
                end = m.start(kind)  # the eof stays at the `#`
        elif kind == "bad":
            start = m.end() - 1
            c = text[start]
            col = start - line_start + 1
            if c == '"':
                raise ScriptError("unterminated string", line, col)
            raise ScriptError(f"unexpected character {c!r}", line, col)
    add(Token("eof", "", line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Pos(Record):
    def __init__(self, line: int = 0, col: int = 0):
        self.line, self.col = line, col


class Syntax(Record):
    """An AST record: its source position `pos` is left out of == and repr."""

    HIDDEN = ("pos",)


class MarkSpec(Syntax):
    def __init__(
        self, label: str, genus: int, normal_number: int, area: AreaValue,
        orthogonal_at: Optional[str] = None, pos: Optional[Pos] = None,
    ):
        self.label, self.genus, self.normal_number = label, genus, normal_number
        self.area, self.orthogonal_at, self.pos = area, orthogonal_at, pos or Pos()


class AtomDecl(Syntax):
    def __init__(
        self, name: str, kind: AtomKind, marks: list[MarkSpec], pos: Optional[Pos] = None
    ):
        self.name, self.kind, self.marks, self.pos = name, kind, marks, pos or Pos()


class TripleDecl(Syntax):
    def __init__(
        self, name: str, expr: ExprNode, s: str, t: str, pos: Optional[Pos] = None
    ):
        self.name, self.expr, self.s, self.t = name, expr, s, t
        self.pos = pos or Pos()


class RefExpr(Syntax):
    def __init__(self, name: str, pos: Optional[Pos] = None):
        self.name, self.pos = name, pos or Pos()


class AtomExpr(Syntax):
    def __init__(self, kind: AtomKind, marks: list[MarkSpec], pos: Optional[Pos] = None):
        self.kind, self.marks, self.pos = kind, marks, pos or Pos()


class OpExpr(Syntax):
    """An operation: its core node class and exactly the constructor
    arguments that the source wrote, with AST expressions for children."""

    def __init__(self, cls: type, args: dict, pos: Optional[Pos] = None):
        self.cls, self.args, self.pos = cls, args, pos or Pos()


ExprNode = Union[RefExpr, AtomExpr, OpExpr]

SlotVal = tuple  # ("num", Fraction) | ("area", AreaValue) | ("name", str) | ("str", str)


class StepNode(Syntax):
    def __init__(
        self, rule: str, slots: dict[str, SlotVal], rev: bool = False,
        note: Optional[str] = None, pos: Optional[Pos] = None,
    ):
        self.rule, self.slots, self.rev, self.note = rule, slots, rev, note
        self.pos = pos or Pos()


class ScriptAst(Record):
    def __init__(
        self, decls: list, lhs: ExprNode, rhs: ExprNode, target: str,
        steps: list[StepNode],
    ):
        self.decls, self.lhs, self.rhs = decls, lhs, rhs
        self.target, self.steps = target, steps


class ExprFileAst(Record):
    def __init__(self, decls: list, expr: ExprNode):
        self.decls, self.expr = decls, expr


KINDS = {
    "E": EllipticSurface,
    "CP2": ProjectivePlane,
    "CP2rev": ProjectivePlaneReversed,
    "W": RuledSurface,
    "Rational": RationalSurface,
}
# for each kind, whether each parameter is an area (else an integer)
_KIND_PARAMS = {
    cls: tuple(t == "AreaValue" for _, t in cls.FIELDS) for cls in KINDS.values()
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        toks = tokenize(text)
        # two more eofs, so that peek(2) from the eof is still the eof
        self.toks = toks + [toks[-1], toks[-1]]
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        t = self.toks[self.i]
        if t.kind != kind:
            raise ScriptError(
                f"unexpected {t.kind!r}" + (f" {t.value!r}" if t.value else ""),
                t.line,
                t.col,
                expected={what or kind},
            )
        if kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.toks[self.i]
        if t.kind == kind and (value is None or t.value == value):
            return self.next()
        return None

    def keyword(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "name" or t.value != word:
            raise ScriptError(
                f"unexpected {t.value or t.kind!r}", t.line, t.col, expected={word}
            )
        return self.next()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.value == word

    # -- numbers and areas -------------------------------------------

    @staticmethod
    def number(t: Token) -> Fraction:
        """The value of a `num` token, `p` or `p/q`."""
        num, _, den = t.value.partition("/")
        if not den:
            return Fraction(int(num))
        if not int(den):
            raise ScriptError(f"zero denominator in {t.value!r}", t.line, t.col)
        return Fraction(int(num), int(den))

    def parse_fraction(self) -> Fraction:
        neg = bool(self.accept("-"))
        f = self.number(self.expect("num", "number"))
        return -f if neg else f

    def parse_int(self) -> int:
        """An integer slot: a number that is exactly an integer; never
        truncates."""
        neg = bool(self.accept("-"))
        t = self.expect("num", "number")
        f = self.number(t)
        if f.denominator != 1:
            raise ScriptError(f"{t.value!r} is not an integer", t.line, t.col)
        return -int(f) if neg else int(f)

    def parse_area(self) -> AreaValue:
        const = self.parse_fraction()
        t = self.peek()
        if t.kind in "+-" and self.peek(1).kind == "num":
            nxt = self.peek(2)
            if nxt.kind == "name" and nxt.value in ("e", "eps"):
                sign = -1 if self.next().kind == "-" else 1
                eps = self.number(self.expect("num"))
                self.next()  # e / eps
                return AreaValue(const, sign * eps)
        if t.kind == "name" and t.value in ("e", "eps"):
            # pure-eps form like "1e" after a bare number
            self.next()
            return AreaValue(Fraction(0), const)
        return AreaValue(const, Fraction(0))

    # -- declarations ------------------------------------------------

    def parse_kind(self) -> AtomKind:
        """An atom kind, its parameters parsed by the types of its fields."""
        t = self.expect("name", "atom kind")
        cls = KINDS.get(t.value)
        if cls is None:
            raise ScriptError(
                f"unknown atom kind {t.value!r}", t.line, t.col, expected=set(KINDS)
            )
        params = []
        for is_area in _KIND_PARAMS[cls]:
            self.expect("," if params else "(")
            params.append(self.parse_area() if is_area else self.parse_int())
        if params:
            self.expect(")")
        return cls(*params)

    def parse_markspec(self) -> MarkSpec:
        name = self.expect("name", "mark label")
        self.expect(":")
        self.keyword("g")
        self.expect("=")
        g = self.parse_int()
        self.expect(",")
        self.keyword("i")
        self.expect("=")
        i = self.parse_int()
        self.expect(",")
        self.keyword("a")
        self.expect("=")
        a = self.parse_area()
        perp = None
        save = self.i
        if self.accept(","):
            if self.at_keyword("perp"):
                self.next()
                perp = self.expect("name", "mark label").value
            else:
                self.i = save
        return MarkSpec(name.value, g, i, a, perp, Pos(name.line, name.col))

    def parse_markblock(self) -> list[MarkSpec]:
        self.expect("{")
        marks = []
        while self.peek().kind != "}":
            marks.append(self.parse_markspec())
            if not self.accept(";"):
                break
        self.expect("}")
        return marks

    def parse_decl(self):
        t = self.peek()
        if self.at_keyword("atom"):
            self.next()
            name = self.expect("name", "atom name")
            kind = self.parse_kind()
            marks = self.parse_markblock() if self.peek().kind == "{" else []
            return AtomDecl(name.value, kind, marks, Pos(name.line, name.col))
        if self.at_keyword("triple"):
            self.next()
            name = self.expect("name", "triple name")
            e, s, tt = self.parse_triple()
            return TripleDecl(name.value, e, s, tt, Pos(name.line, name.col))
        raise ScriptError(
            f"unexpected {t.value or t.kind!r}",
            t.line,
            t.col,
            expected={"atom", "triple", "lhs", "declaration"},
        )

    # -- expressions -------------------------------------------------

    def parse_triple(self) -> tuple[ExprNode, str, str]:
        """An expression with the labels of its S and T marks, in
        parentheses."""
        self.expect("(")
        e = self.parse_expr()
        self.expect(",")
        s = self.expect("name").value
        self.expect(",")
        t = self.expect("name").value
        self.expect(")")
        return e, s, t

    def parse_expr(self) -> ExprNode:
        t = self.peek()
        if t.kind != "name":
            raise ScriptError(
                f"unexpected {t.value or t.kind!r}", t.line, t.col,
                expected={"expression"},
            )
        pos = Pos(t.line, t.col)
        if t.value == "sum":
            self.next()
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            tm = self.expect("name").value
            self.expect(",")
            right = self.parse_expr()
            self.expect(",")
            sm = self.expect("name").value
            args = {"left": left, "left_mark": tm, "right": right, "right_mark": sm}
            while self.accept(","):
                key = self.expect("name", "sum option").value
                self.expect("=")
                if key == "glue":
                    args["gluing"] = GluingChoice(self.expect("name").value)
                elif key == "carry":
                    args["carry_label"] = self.expect("name").value
                elif key == "pair":
                    a = self.expect("name").value
                    self.expect(":")
                    bb = self.expect("name").value
                    args["pairs"] = args.get("pairs", ()) + ((a, bb),)
                else:
                    raise ScriptError(
                        f"unknown sum option {key!r}", t.line, t.col,
                        expected={"glue", "carry", "pair"},
                    )
            self.expect(")")
            return OpExpr(PairSum, args, pos)
        if t.value == "sum4":
            self.next()
            self.expect("(")
            entries = []
            for j in range(4):
                if j:
                    self.expect(",")
                entries.append(self.parse_triple())
            self.expect(")")
            return OpExpr(FourSum, {"entries": tuple(entries)}, pos)
        if t.value == "blowup":
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(",")
            if self.at_keyword("generic"):
                self.next()
                at = None
            else:
                self.keyword("at")
                self.expect("=")
                at = self.expect("name").value
            self.expect(",")
            self.keyword("size")
            self.expect("=")
            size = self.parse_area()
            args = {"inner": inner, "at_mark": at, "size": size}
            while self.accept(","):
                key = self.expect("name", "blowup option").value
                if key == "pairexc":
                    args["pair_exceptional"] = True
                    continue
                self.expect("=")
                if key == "transform":
                    args["transform_label"] = self.expect("name").value
                elif key == "exc":
                    args["exceptional_label"] = self.expect("name").value
                else:
                    raise ScriptError(
                        f"unknown blowup option {key!r}", t.line, t.col,
                        expected={"transform", "exc", "pairexc"},
                    )
            self.expect(")")
            return OpExpr(BlowUp, args, pos)
        if t.value in ("thin", "thicken"):
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(",")
            mark = self.expect("name").value
            self.expect(",")
            amt = self.parse_area()
            self.expect(")")
            cls = Thin if t.value == "thin" else Thicken
            args = {"inner": inner, "mark_label": mark, "amount": amt}
            return OpExpr(cls, args, pos)
        if t.value == "desing":
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(",")
            s = self.expect("name").value
            self.expect(",")
            tt = self.expect("name").value
            args = {"inner": inner, "mark_s": s, "mark_t": tt}
            if self.accept(","):
                self.keyword("label")
                self.expect("=")
                args["label"] = self.expect("name").value
            self.expect(")")
            return OpExpr(Desing, args, pos)
        if t.value in KINDS and self.peek(1).kind in ("(", "{"):
            # an inline atom: the kind tag is followed by parameters or marks
            kind = self.parse_kind()
            marks = self.parse_markblock() if self.peek().kind == "{" else []
            return AtomExpr(kind, marks, pos)
        self.next()
        return RefExpr(t.value, pos)

    # -- steps -------------------------------------------------------

    def parse_step(self) -> StepNode:
        t = self.keyword("by")
        rid = self.expect("name", "rule id")
        if rid.value not in RULE_IDS:
            raise ScriptError(
                f"unknown rule id {rid.value!r}", rid.line, rid.col,
                expected=set(RULE_IDS),
            )
        self.expect("{")
        slots: dict[str, SlotVal] = {}
        while self.peek().kind != "}":
            key = self.expect("name", "slot name").value
            self.expect("=")
            slots[key] = self.parse_slot_value()
            if not self.accept(","):
                break
        self.expect("}")
        rev = self.accept("name", "rev") is not None
        note = None
        if self.peek().kind == "str":
            note = self.next().value
        return StepNode(rid.value, slots, rev, note, Pos(t.line, t.col))

    def parse_slot_value(self) -> SlotVal:
        t = self.peek()
        if t.kind == "str":
            return ("str", self.next().value)
        if t.kind == "num" or t.kind == "-":
            save = self.i
            const = self.parse_fraction()
            nxt = self.peek()
            if nxt.kind in "+-" and self.peek(1).kind == "num":
                after = self.peek(2)
                if after.kind == "name" and after.value in ("e", "eps"):
                    self.i = save
                    return ("area", self.parse_area())
            if nxt.kind == "name" and nxt.value in ("e", "eps"):
                self.next()
                return ("area", AreaValue(Fraction(0), const))
            return ("num", const)
        name = self.expect("name", "slot value").value
        while self.accept("."):
            name += "." + self.expect("name").value
        return ("name", name)

    # -- entry points ------------------------------------------------

    def parse_script(self) -> ScriptAst:
        decls = []
        while not self.at_keyword("lhs"):
            decls.append(self.parse_decl())
        self.keyword("lhs")
        lhs = self.parse_expr()
        self.keyword("rhs")
        rhs = self.parse_expr()
        self.keyword("target")
        t = self.peek()
        if t.kind in ("=", "~"):
            self.next()
            target = t.kind
        else:
            raise ScriptError(
                f"unexpected {t.value or t.kind!r}", t.line, t.col, expected={"=", "~"}
            )
        steps = []
        while self.at_keyword("by"):
            steps.append(self.parse_step())
        self.expect("eof", "end of script")
        self._check_duplicates(decls)
        return ScriptAst(decls, lhs, rhs, target, steps)

    def parse_expr_file(self) -> ExprFileAst:
        decls = []
        while not self.at_keyword("expr"):
            decls.append(self.parse_decl())
        self.keyword("expr")
        e = self.parse_expr()
        self.expect("eof", "end of file")
        self._check_duplicates(decls)
        return ExprFileAst(decls, e)

    @staticmethod
    def _check_duplicates(decls):
        seen = set()
        for d in decls:
            if d.name in seen:
                raise ScriptError(f"duplicate identifier {d.name!r}", d.pos.line, d.pos.col)
            seen.add(d.name)


def _parse(source: str, entry):
    """`entry` run on a parser of `source`.  The parser recurses once per
    nesting level, so nesting past the interpreter's recursion limit is
    a ScriptError at the token where the limit was hit."""
    p = _Parser(source)
    try:
        return entry(p)
    except RecursionError:
        t = p.peek()
        raise ScriptError("expression nested too deeply", t.line, t.col) from None


def parse(source: str) -> ScriptAst:
    return _parse(source, _Parser.parse_script)


def parse_expr_file(source: str) -> ExprFileAst:
    return _parse(source, _Parser.parse_expr_file)


# ---------------------------------------------------------------------------
# Building core expressions from the AST
# ---------------------------------------------------------------------------


def _build_atom(kind: AtomKind, marks: list[MarkSpec], pos: Pos) -> AtomNode:
    declared = {m.label for m in marks}
    for m in marks:
        if m.orthogonal_at is not None and m.orthogonal_at not in declared:
            raise ScriptError(
                f"unresolved mark {m.orthogonal_at!r}", m.pos.line, m.pos.col
            )
    perp = {m.label: m.orthogonal_at for m in marks}
    # a one-sided perp declaration implies its mirror
    for m in marks:
        if m.orthogonal_at is not None and perp[m.orthogonal_at] is None:
            perp[m.orthogonal_at] = m.label
    try:
        return AtomNode(
            Atom(
                kind,
                tuple(
                    SurfaceMark(
                        m.label, m.genus, m.normal_number, m.area, perp[m.label]
                    )
                    for m in marks
                ),
            )
        )
    except SymsumError as exc:
        raise ScriptError(str(exc), pos.line, pos.col) from exc


class BuiltTriple(Record):
    def __init__(self, expr: ManifoldExpr, s: str, t: str):
        self.expr, self.s, self.t = expr, s, t


def build_expr(node: ExprNode, env: dict[str, ManifoldExpr]) -> ManifoldExpr:
    try:
        return _build_expr(node, env)
    except ScriptError:
        raise
    except SymsumError as exc:
        raise ScriptError(str(exc), node.pos.line, node.pos.col) from exc
    except RecursionError:  # the builder recurses once per nesting level
        raise ScriptError(
            "expression nested too deeply", node.pos.line, node.pos.col
        ) from None


def _build_expr(node: ExprNode, env) -> ManifoldExpr:
    if isinstance(node, RefExpr):
        if node.name not in env:
            raise ScriptError(
                f"unresolved identifier {node.name!r}", node.pos.line, node.pos.col
            )
        return env[node.name]
    if isinstance(node, AtomExpr):
        return _build_atom(node.kind, node.marks, node.pos)
    # one frame per nesting level: children are built here, not by a helper
    args = dict(node.args)
    for name in node.cls.SELECTORS:
        if name in args:
            args[name] = _build_expr(args[name], env)
    if "entries" in args:  # FourSum keeps its children in its entries
        entries = args["entries"]
        args["entries"] = tuple((_build_expr(x, env), s, t) for x, s, t in entries)
    return node.cls(**args)


class BuiltScript(Record):
    def __init__(
        self, lhs: ManifoldExpr, rhs: ManifoldExpr, target: EquivLevel,
        steps: list[ProofStep], triples: dict[str, BuiltTriple], ast: ScriptAst,
    ):
        self.lhs, self.rhs, self.target, self.steps = lhs, rhs, target, steps
        self.triples, self.ast = triples, ast


def build_decls(decls: list) -> tuple[dict[str, ManifoldExpr], dict[str, BuiltTriple]]:
    """The atoms and the triples that a script or an expression file
    declares, each by name; a triple must carry both of its marks."""
    env: dict[str, ManifoldExpr] = {}
    triples: dict[str, BuiltTriple] = {}
    for d in decls:
        if isinstance(d, AtomDecl):
            env[d.name] = _build_atom(d.kind, d.marks, d.pos)
        else:
            e = build_expr(d.expr, env)
            for lbl in (d.s, d.t):
                if not e.has_mark(lbl):
                    raise ScriptError(
                        f"unresolved mark {lbl!r}", d.pos.line, d.pos.col
                    )
            triples[d.name] = BuiltTriple(e, d.s, d.t)
    return env, triples


def build_script(ast: ScriptAst) -> BuiltScript:
    env, triples = build_decls(ast.decls)
    lhs = build_expr(ast.lhs, env)
    rhs = build_expr(ast.rhs, env)
    steps = [
        ProofStep(s.rule, {k: v[1] for k, v in s.slots.items()}, s.rev, s.note)
        for s in ast.steps
    ]
    return BuiltScript(lhs, rhs, EquivLevel.from_symbol(ast.target), steps, triples, ast)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# the source form of each operation: `{field}` prints that constructor
# argument; an option (see _OPTIONS) prints only when it is given
_FORMS = {
    PairSum: "sum({left}, {left_mark}, {right}, {right_mark}{gluing}{carry_label}{pairs})",
    FourSum: "sum4({entries})",
    BlowUp: "blowup({inner}, {at_mark}, size = {size}"
    "{transform_label}{exceptional_label}{pair_exceptional})",
    Thin: "thin({inner}, {mark_label}, {amount})",
    Thicken: "thicken({inner}, {mark_label}, {amount})",
    Desing: "desing({inner}, {mark_s}, {mark_t}{label})",
}
# the source keyword of each option
_OPTIONS = {
    "gluing": "glue",
    "carry_label": "carry",
    "pairs": "pair",
    "transform_label": "transform",
    "exceptional_label": "exc",
    "pair_exceptional": "pairexc",
    "label": "label",
}


def _field_printer(cls, name: str, annotation: str):
    """The function that prints the value of field `name` of `cls`."""
    if name in cls.SELECTORS:  # a child, printed with one frame per level
        return serialize_expr
    if name == "entries":
        return lambda v: ", ".join(f"({serialize_expr(x)}, {s}, {t})" for x, s, t in v)
    if name == "at_mark":
        return lambda v: "generic" if v is None else f"at = {v}"
    if name == "pairs":
        return lambda v: "".join(f", pair = {a}:{b}" for a, b in v)
    if name == "pair_exceptional":
        return lambda v: ", pairexc"
    if name == "gluing":
        return lambda v: f", glue = {v.label}"
    if name in _OPTIONS:
        return lambda v: f", {_OPTIONS[name]} = {v}"
    return AreaValue.compact if annotation == "AreaValue" else str


def serialize_expr(node) -> str:
    """The source text of a built expression or of an AST expression.  An
    option prints when the source gave it (AST) or when it differs from
    its default (built node), so an explicit `exc = E` prints from the
    AST only."""
    form = _PIECES.get(type(node))
    if form is not None:  # a built operation node
        text, _, _, shows, values = form
        parts = []
        for show, value in zip(shows, values(node)):  # a loop: one frame per level
            parts.append(show(value))
        return text.format(*parts)
    if isinstance(node, AtomNode):
        # memoized on the atom, which the trees of a proof's steps share
        text = node._text
        if text is None:
            text = node.__dict__["_text"] = _atom_text(node.atom.kind, node.atom.marks)
        return text
    if isinstance(node, OpExpr):
        text, names, shows, _, _ = _PIECES[node.cls]
        args = node.args
        parts = []
        for name, show in zip(names, shows):
            parts.append(show(args[name]) if name in args else "")
        return text.format(*parts)
    if isinstance(node, AtomExpr):
        return _atom_text(node.kind, node.marks)
    return node.name  # a RefExpr


def _pieces(cls, form: str) -> tuple:
    """How `cls` prints: its form with `{}` for each field, the fields'
    names, their printers for AST arguments and for built nodes (where an
    option at its default prints as nothing), and a getter of a built
    node's field values."""
    annotations = dict(cls.FIELDS)
    names = [name for _, name, _, _ in Formatter().parse(form) if name]
    shows = [_field_printer(cls, name, annotations[name]) for name in names]
    node_shows = [
        _unless_default(show, cls.DEFAULTS[name]) if name in _OPTIONS else show
        for name, show in zip(names, shows)
    ]
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda node: (get(node),)
    return re.sub(r"\{\w+\}", "{}", form), names, shows, node_shows, values


def _unless_default(show, default):
    return lambda value: "" if value is default or value == default else show(value)


_PIECES = {cls: _pieces(cls, form) for cls, form in _FORMS.items()}


def _atom_text(kind: AtomKind, marks) -> str:
    body = "; ".join(map(_mark_text, marks))
    return f"{_kind_text(kind)} {{ {body} }}" if marks else f"{_kind_text(kind)} {{ }}"


def _kind_text(k: AtomKind) -> str:
    if isinstance(k, EllipticSurface):
        return f"E({k.n})"
    if isinstance(k, ProjectivePlane):
        return "CP2"
    if isinstance(k, ProjectivePlaneReversed):
        return "CP2rev"
    if isinstance(k, RuledSurface):
        return f"W({k.genus},{k.twist},{k.fiber_area.compact()})"
    if isinstance(k, RationalSurface):
        return f"Rational({k.blowups})"
    raise SymsumError(f"unknown kind {k!r}")


def _mark_text(m) -> str:
    """A mark, as a MarkSpec or a SurfaceMark."""
    out = f"{m.label}: g={m.genus}, i={m.normal_number}, a={m.area.compact()}"
    if m.orthogonal_at:
        out += f", perp {m.orthogonal_at}"
    return out


def _slot_text(v: SlotVal) -> str:
    tag, val = v
    if tag == "num":
        return str(val)
    if tag == "area":
        return val.compact()
    if tag == "str":
        return f'"{val}"'
    return str(val)


def print_script(ast: ScriptAst) -> str:
    lines = []
    for d in ast.decls:
        if isinstance(d, AtomDecl):
            text = _atom_text(d.kind, d.marks) if d.marks else _kind_text(d.kind)
            lines.append(f"atom {d.name} {text}")
        else:
            lines.append(
                f"triple {d.name} ({serialize_expr(d.expr)}, {d.s}, {d.t})"
            )
    lines.append(f"lhs {serialize_expr(ast.lhs)}")
    lines.append(f"rhs {serialize_expr(ast.rhs)}")
    lines.append(f"target {ast.target}")
    for s in ast.steps:
        slots = ", ".join(f"{k} = {_slot_text(v)}" for k, v in s.slots.items())
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
            f"{m.label} {m.genus} {m.normal_number} {m.area.compact()}"
            + (f" perp={m.orthogonal_at}" if m.orthogonal_at else "")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Running scripts
# ---------------------------------------------------------------------------


class RunResult(Record):
    # code: 0 verified at target, 1 proof failure, 2 parse/resolution error
    def __init__(
        self, code: int, verdict: Optional[Verdict], messages: list[str],
        built: Optional[BuiltScript] = None,
    ):
        self.code, self.verdict, self.messages = code, verdict, messages
        self.built = built

    @property
    def ok(self) -> bool:
        return self.code == 0


def run(source: str) -> RunResult:
    try:
        ast = parse(source)
        built = build_script(ast)
    except ScriptError as exc:
        return RunResult(2, None, [str(exc)])
    verdict = check_equiv(built.lhs, built.rhs, built.steps)
    messages = []
    if not verdict.verified:
        messages.append(
            f"proof failed at step {verdict.failed_step}: {verdict.failure}"
        )
        return RunResult(1, verdict, messages, built)
    if not verdict.level.implies(built.target):
        messages.append(
            f"target level {built.target.symbol!r} not reached: the chain "
            f"only establishes {verdict.level.symbol!r}"
        )
        for rec in verdict.trace:
            if rec.level is not None and not rec.level.implies(built.target):
                for note in rec.notes:
                    messages.append(f"  step {rec.index} ({rec.rule}): {note}")
        return RunResult(1, verdict, messages, built)
    inv = verdict.trace[-1].invariants
    messages.append(
        f"verdict: {verdict.level.symbol} "
        f"({'symplectomorphic' if verdict.level == EquivLevel.SYMPLECTOMORPHIC else 'weak deformation'}) "
        f"chi={inv.euler} sigma={inv.signature}"
    )
    return RunResult(0, verdict, messages, built)


def render_trace_text(verdict: Verdict) -> str:
    lines = []
    for rec in verdict.trace:
        lines.append(rec.header())
        lines.append("  " + serialize_expr(rec.expr))
        for note in rec.notes:
            lines.append("  - " + note)
    return "\n".join(lines)


def render_trace_json(verdict: Verdict) -> str:
    import json  # here, not at the top: only a JSON trace pays for the import

    lines = []
    for rec in verdict.trace:
        lines.append(
            json.dumps(
                {
                    "step": rec.index,
                    "rule": rec.rule,
                    "level": rec.level.symbol if rec.level else None,
                    "chi": rec.invariants.euler,
                    "sigma": rec.invariants.signature,
                    "expr": serialize_expr(rec.expr),
                    "notes": rec.notes,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines)
