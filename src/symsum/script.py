"""Proof-script DSL: grammar, parser, printer, and the driver that feeds
scripts to the equivalence checker.

Grammar (tokens are whitespace-insensitive; `#` at a token boundary
starts a comment running to end of line):

    script   := decl* "lhs" expr "rhs" expr "target" ("=" | "~") step*
    decl     := "atom" NAME kind "{" markspec (";" markspec)* "}"
              | "triple" NAME "(" expr "," NAME "," NAME ")"
    kind     := "E" "(" NUM ")" | "CP2" | "CP2rev"
              | "W" "(" NUM "," NUM "," area ")" | "Rational" "(" NUM ")"
    markspec := NAME ":" "g" "=" NUM "," "i" "=" SNUM "," "a" "=" area
                ["," "perp" NAME]
    expr     := NAME | kind "{" markspec (";" markspec)* "}"
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

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .areas import AreaValue, area
from .core import (
    Atom,
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
    STD_GLUE,
    SurfaceMark,
    SymsumError,
    Thicken,
    Thin,
)
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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_#+~^-]*")
_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_PUNCT = "{}(),;:=.+-~"


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "num" | "str" | one of _PUNCT | "eof"
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ScriptError("unterminated string", line, col)
            toks.append(Token("str", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(Token("num", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if c in _PUNCT:
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Pos:
    line: int = 0
    col: int = 0


def _pos_field():
    return field(default_factory=Pos, compare=False, repr=False)


@dataclass
class MarkSpec:
    label: str
    genus: int
    normal: int
    area: AreaValue
    perp: Optional[str] = None
    pos: Pos = _pos_field()


@dataclass
class KindSpec:
    tag: str  # "E" | "CP2" | "CP2rev" | "W" | "Rational"
    params: tuple = ()
    pos: Pos = _pos_field()


@dataclass
class AtomDecl:
    name: str
    kind: KindSpec
    marks: list[MarkSpec]
    pos: Pos = _pos_field()


@dataclass
class TripleDecl:
    name: str
    expr: "ExprNode"
    s: str
    t: str
    pos: Pos = _pos_field()


@dataclass
class RefExpr:
    name: str
    pos: Pos = _pos_field()


@dataclass
class AtomExpr:
    kind: KindSpec
    marks: list[MarkSpec]
    pos: Pos = _pos_field()


@dataclass
class SumExpr:
    left: "ExprNode"
    tmark: str
    right: "ExprNode"
    smark: str
    glue: Optional[str] = None
    carry: Optional[str] = None
    pairs: list[tuple[str, str]] = field(default_factory=list)
    pos: Pos = _pos_field()


@dataclass
class Sum4Expr:
    entries: list[tuple["ExprNode", str, str]]
    pos: Pos = _pos_field()


@dataclass
class BlowupExpr:
    inner: "ExprNode"
    at: Optional[str]
    size: AreaValue
    transform: Optional[str] = None
    exc: Optional[str] = None
    pairexc: bool = False
    pos: Pos = _pos_field()


@dataclass
class ThinExpr:
    inner: "ExprNode"
    mark: str
    amount: AreaValue
    pos: Pos = _pos_field()


@dataclass
class ThickenExpr:
    inner: "ExprNode"
    mark: str
    amount: AreaValue
    pos: Pos = _pos_field()


@dataclass
class DesingExpr:
    inner: "ExprNode"
    s: str
    t: str
    label: Optional[str] = None
    pos: Pos = _pos_field()


ExprNode = Union[
    RefExpr, AtomExpr, SumExpr, Sum4Expr, BlowupExpr, ThinExpr, ThickenExpr, DesingExpr
]

SlotVal = tuple  # ("num", Fraction) | ("area", AreaValue) | ("name", str) | ("str", str)


@dataclass
class StepNode:
    rule: str
    slots: dict[str, SlotVal]
    rev: bool = False
    note: Optional[str] = None
    pos: Pos = _pos_field()


@dataclass
class ScriptAst:
    decls: list
    lhs: ExprNode
    rhs: ExprNode
    target: str
    steps: list[StepNode]


@dataclass
class ExprFileAst:
    decls: list
    expr: ExprNode


KIND_TAGS = ("E", "CP2", "CP2rev", "W", "Rational")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ScriptError(
                f"unexpected {t.kind!r}" + (f" {t.value!r}" if t.value else ""),
                t.line,
                t.col,
                expected={what or kind},
            )
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
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
        try:
            return Fraction(t.value)
        except ZeroDivisionError:
            raise ScriptError(f"zero denominator in {t.value!r}", t.line, t.col) from None

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

    def parse_kind(self) -> KindSpec:
        t = self.expect("name", "atom kind")
        pos = Pos(t.line, t.col)
        if t.value == "E":
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            return KindSpec("E", (n,), pos)
        if t.value == "CP2":
            return KindSpec("CP2", (), pos)
        if t.value == "CP2rev":
            return KindSpec("CP2rev", (), pos)
        if t.value == "W":
            self.expect("(")
            g = self.parse_int()
            self.expect(",")
            n = self.parse_int()
            self.expect(",")
            f = self.parse_area()
            self.expect(")")
            return KindSpec("W", (g, n, f), pos)
        if t.value == "Rational":
            self.expect("(")
            k = self.parse_int()
            self.expect(")")
            return KindSpec("Rational", (k,), pos)
        raise ScriptError(
            f"unknown atom kind {t.value!r}", t.line, t.col, expected=set(KIND_TAGS)
        )

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
        marks = [self.parse_markspec()]
        while self.accept(";"):
            if self.peek().kind == "}":
                break
            marks.append(self.parse_markspec())
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
            self.expect("(")
            e = self.parse_expr()
            self.expect(",")
            s = self.expect("name").value
            self.expect(",")
            tt = self.expect("name").value
            self.expect(")")
            return TripleDecl(name.value, e, s, tt, Pos(name.line, name.col))
        raise ScriptError(
            f"unexpected {t.value or t.kind!r}",
            t.line,
            t.col,
            expected={"atom", "triple", "lhs", "declaration"},
        )

    # -- expressions -------------------------------------------------

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
            node = SumExpr(left, tm, right, sm, pos=pos)
            while self.accept(","):
                key = self.expect("name", "sum option").value
                self.expect("=")
                if key == "glue":
                    node.glue = self.expect("name").value
                elif key == "carry":
                    node.carry = self.expect("name").value
                elif key == "pair":
                    a = self.expect("name").value
                    self.expect(":")
                    bb = self.expect("name").value
                    node.pairs.append((a, bb))
                else:
                    raise ScriptError(
                        f"unknown sum option {key!r}", t.line, t.col,
                        expected={"glue", "carry", "pair"},
                    )
            self.expect(")")
            return node
        if t.value == "sum4":
            self.next()
            self.expect("(")
            entries = []
            for j in range(4):
                if j:
                    self.expect(",")
                self.expect("(")
                e = self.parse_expr()
                self.expect(",")
                s = self.expect("name").value
                self.expect(",")
                tt = self.expect("name").value
                self.expect(")")
                entries.append((e, s, tt))
            self.expect(")")
            return Sum4Expr(entries, pos)
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
            node = BlowupExpr(inner, at, size, pos=pos)
            while self.accept(","):
                key = self.expect("name", "blowup option").value
                if key == "pairexc":
                    node.pairexc = True
                    continue
                self.expect("=")
                if key == "transform":
                    node.transform = self.expect("name").value
                elif key == "exc":
                    node.exc = self.expect("name").value
                else:
                    raise ScriptError(
                        f"unknown blowup option {key!r}", t.line, t.col,
                        expected={"transform", "exc", "pairexc"},
                    )
            self.expect(")")
            return node
        if t.value in ("thin", "thicken"):
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(",")
            mark = self.expect("name").value
            self.expect(",")
            amt = self.parse_area()
            self.expect(")")
            cls = ThinExpr if t.value == "thin" else ThickenExpr
            return cls(inner, mark, amt, pos)
        if t.value == "desing":
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(",")
            s = self.expect("name").value
            self.expect(",")
            tt = self.expect("name").value
            label = None
            if self.accept(","):
                self.keyword("label")
                self.expect("=")
                label = self.expect("name").value
            self.expect(")")
            return DesingExpr(inner, s, tt, label, pos)
        if t.value in KIND_TAGS and self.peek(1).kind in ("(", "{"):
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


def parse(source: str) -> ScriptAst:
    return _Parser(source).parse_script()


def parse_expr_file(source: str) -> ExprFileAst:
    return _Parser(source).parse_expr_file()


# ---------------------------------------------------------------------------
# Building core expressions from the AST
# ---------------------------------------------------------------------------


def _build_kind(k: KindSpec):
    if k.tag == "E":
        return EllipticSurface(*k.params)
    if k.tag == "CP2":
        return ProjectivePlane()
    if k.tag == "CP2rev":
        return ProjectivePlaneReversed()
    if k.tag == "W":
        return RuledSurface(*k.params)
    if k.tag == "Rational":
        return RationalSurface(*k.params)
    raise ScriptError(f"unknown kind tag {k.tag!r}", k.pos.line, k.pos.col)


def _build_atom(kind: KindSpec, marks: list[MarkSpec], pos: Pos) -> AtomNode:
    declared = {m.label for m in marks}
    for m in marks:
        if m.perp is not None and m.perp not in declared:
            raise ScriptError(
                f"unresolved mark {m.perp!r}", m.pos.line, m.pos.col
            )
    perp = {m.label: m.perp for m in marks}
    # a one-sided perp declaration implies its mirror
    for m in marks:
        if m.perp is not None and perp[m.perp] is None:
            perp[m.perp] = m.label
    try:
        return AtomNode(
            Atom(
                _build_kind(kind),
                tuple(
                    SurfaceMark(m.label, m.genus, m.normal, m.area, perp[m.label])
                    for m in marks
                ),
            )
        )
    except SymsumError as exc:
        raise ScriptError(str(exc), pos.line, pos.col) from exc


@dataclass
class BuiltTriple:
    expr: ManifoldExpr
    s: str
    t: str


def build_expr(node: ExprNode, env: dict[str, ManifoldExpr]) -> ManifoldExpr:
    try:
        return _build_expr(node, env)
    except ScriptError:
        raise
    except SymsumError as exc:
        raise ScriptError(str(exc), node.pos.line, node.pos.col) from exc


def _build_expr(node: ExprNode, env) -> ManifoldExpr:
    if isinstance(node, RefExpr):
        if node.name not in env:
            raise ScriptError(
                f"unresolved identifier {node.name!r}", node.pos.line, node.pos.col
            )
        return env[node.name]
    if isinstance(node, AtomExpr):
        return _build_atom(node.kind, node.marks, node.pos)
    if isinstance(node, SumExpr):
        return PairSum(
            _build_expr(node.left, env),
            node.tmark,
            _build_expr(node.right, env),
            node.smark,
            GluingChoice(node.glue) if node.glue else STD_GLUE,
            carry_label=node.carry,
            pairs=tuple(node.pairs),
        )
    if isinstance(node, Sum4Expr):
        return FourSum(
            tuple((_build_expr(e, env), s, t) for e, s, t in node.entries)
        )
    if isinstance(node, BlowupExpr):
        return BlowUp(
            _build_expr(node.inner, env),
            node.at,
            node.size,
            node.transform,
            node.exc or "E",
            node.pairexc,
        )
    if isinstance(node, ThinExpr):
        return Thin(_build_expr(node.inner, env), node.mark, node.amount)
    if isinstance(node, ThickenExpr):
        return Thicken(_build_expr(node.inner, env), node.mark, node.amount)
    if isinstance(node, DesingExpr):
        return Desing(_build_expr(node.inner, env), node.s, node.t, node.label)
    raise ScriptError(f"unknown expression node {type(node).__name__}")


@dataclass
class BuiltScript:
    lhs: ManifoldExpr
    rhs: ManifoldExpr
    target: EquivLevel
    steps: list[ProofStep]
    triples: dict[str, BuiltTriple]
    ast: ScriptAst


def build_script(ast: ScriptAst) -> BuiltScript:
    env: dict[str, ManifoldExpr] = {}
    triples: dict[str, BuiltTriple] = {}
    for d in ast.decls:
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


def _kind_text(k) -> str:
    if isinstance(k, KindSpec):
        if k.tag == "E":
            return f"E({k.params[0]})"
        if k.tag == "W":
            g, n, f = k.params
            return f"W({g},{n},{f.compact()})"
        if k.tag == "Rational":
            return f"Rational({k.params[0]})"
        return k.tag
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


def _markspec_text(label, genus, normal, a: AreaValue, perp) -> str:
    out = f"{label}: g={genus}, i={normal}, a={a.compact()}"
    if perp:
        out += f", perp {perp}"
    return out


def _expr_node_text(node: ExprNode) -> str:
    if isinstance(node, RefExpr):
        return node.name
    if isinstance(node, AtomExpr):
        marks = "; ".join(
            _markspec_text(m.label, m.genus, m.normal, m.area, m.perp)
            for m in node.marks
        )
        return f"{_kind_text(node.kind)} {{ {marks} }}"
    if isinstance(node, SumExpr):
        out = (
            f"sum({_expr_node_text(node.left)}, {node.tmark}, "
            f"{_expr_node_text(node.right)}, {node.smark}"
        )
        if node.glue:
            out += f", glue = {node.glue}"
        if node.carry:
            out += f", carry = {node.carry}"
        for a, b in node.pairs:
            out += f", pair = {a}:{b}"
        return out + ")"
    if isinstance(node, Sum4Expr):
        parts = ", ".join(
            f"({_expr_node_text(e)}, {s}, {t})" for e, s, t in node.entries
        )
        return f"sum4({parts})"
    if isinstance(node, BlowupExpr):
        at = "generic" if node.at is None else f"at = {node.at}"
        out = f"blowup({_expr_node_text(node.inner)}, {at}, size = {node.size.compact()}"
        if node.transform:
            out += f", transform = {node.transform}"
        if node.exc:
            out += f", exc = {node.exc}"
        if node.pairexc:
            out += ", pairexc"
        return out + ")"
    if isinstance(node, ThinExpr):
        return f"thin({_expr_node_text(node.inner)}, {node.mark}, {node.amount.compact()})"
    if isinstance(node, ThickenExpr):
        return f"thicken({_expr_node_text(node.inner)}, {node.mark}, {node.amount.compact()})"
    if isinstance(node, DesingExpr):
        out = f"desing({_expr_node_text(node.inner)}, {node.s}, {node.t}"
        if node.label:
            out += f", label = {node.label}"
        return out + ")"
    raise SymsumError(f"unknown expression node {type(node).__name__}")


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
            marks = "; ".join(
                _markspec_text(m.label, m.genus, m.normal, m.area, m.perp)
                for m in d.marks
            )
            block = f" {{ {marks} }}" if d.marks else ""
            lines.append(f"atom {d.name} {_kind_text(d.kind)}{block}")
        else:
            lines.append(
                f"triple {d.name} ({_expr_node_text(d.expr)}, {d.s}, {d.t})"
            )
    lines.append(f"lhs {_expr_node_text(ast.lhs)}")
    lines.append(f"rhs {_expr_node_text(ast.rhs)}")
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


# ---------------------------------------------------------------------------
# Serializing built expressions (used by traces and tooling)
# ---------------------------------------------------------------------------


def serialize_expr(e: ManifoldExpr) -> str:
    if isinstance(e, AtomNode):
        marks = "; ".join(
            _markspec_text(m.label, m.genus, m.normal_number, m.area, m.orthogonal_at)
            for m in e.atom.marks
        )
        block = f"{{ {marks} }}" if e.atom.marks else "{ }"
        return f"{_kind_text(e.atom.kind)} {block}"
    if isinstance(e, PairSum):
        out = (
            f"sum({serialize_expr(e.left)}, {e.left_mark}, "
            f"{serialize_expr(e.right)}, {e.right_mark}"
        )
        if e.gluing != STD_GLUE:
            out += f", glue = {e.gluing.label}"
        if e.carry_label:
            out += f", carry = {e.carry_label}"
        for a, b in e.pairs:
            out += f", pair = {a}:{b}"
        return out + ")"
    if isinstance(e, FourSum):
        parts = ", ".join(
            f"({serialize_expr(x)}, {s}, {t})" for x, s, t in e.entries
        )
        return f"sum4({parts})"
    if isinstance(e, BlowUp):
        at = "generic" if e.at_mark is None else f"at = {e.at_mark}"
        out = f"blowup({serialize_expr(e.inner)}, {at}, size = {e.size.compact()}"
        if e.transform_label:
            out += f", transform = {e.transform_label}"
        if e.exceptional_label != "E":
            out += f", exc = {e.exceptional_label}"
        if e.pair_exceptional:
            out += ", pairexc"
        return out + ")"
    if isinstance(e, Thin):
        return f"thin({serialize_expr(e.inner)}, {e.mark_label}, {e.amount.compact()})"
    if isinstance(e, Thicken):
        return f"thicken({serialize_expr(e.inner)}, {e.mark_label}, {e.amount.compact()})"
    if isinstance(e, Desing):
        out = f"desing({serialize_expr(e.inner)}, {e.mark_s}, {e.mark_t}"
        if e.label:
            out += f", label = {e.label}"
        return out + ")"
    raise SymsumError(f"unknown expression node {type(e).__name__}")


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


@dataclass
class RunResult:
    code: int  # 0 verified at target, 1 proof failure, 2 parse/resolution error
    verdict: Optional[Verdict]
    messages: list[str]
    built: Optional[BuiltScript] = None

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
