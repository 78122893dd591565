"""The equivalence checker and what the rewrite rules share.

Each rule rewrites an expression at a script-supplied position after
checking the rule's side conditions, and carries an equivalence level:
"=" (symplectomorphism) or "~" (weak deformation).  A proof is a chain
of rule applications; its verdict is the weakest level used.  Every
application must preserve the Euler characteristic and signature
exactly; drift is an internal defect and aborts the run.

The rules live in the modules of `symsum.rules`, one module per rule
(R3 and R3b share one); `RULE_MODULES` names each rule's module, and
`apply_rule` imports it the first time a step names the rule, so a run
compiles only the rules its proof uses.  This module keeps the helpers
that more than one rule module uses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .areas import AreaValue, exact_str
from .core import (
    AtomNode,
    EquivLevel,
    ManifoldExpr,
    PairSum,
    RuledSurface,
    STD_GLUE,
    SymsumError,
)
from .invariants import InvariantVector, expr_invariants
from .record import Record
from .sums import _shift_walk, check_shifts_found


class RuleError(SymsumError):
    """Shape mismatch or violated side condition of a rule application."""


class InvariantDriftError(SymsumError):
    """A rule application changed chi or sigma: internal defect."""


EQ = EquivLevel.SYMPLECTOMORPHIC
WK = EquivLevel.WEAK_DEFORMATION


# ---------------------------------------------------------------------------
# Bindings and paths
# ---------------------------------------------------------------------------


class Bindings:
    """A step's slot values.  Each slot whose value a rule asks for is
    noted in `read`, so that a slot the rule never reads is refused."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        self.read: set[str] = set()

    def has(self, slot: str) -> bool:
        return slot in self.raw

    def label(self, slot: str, default: Optional[str] = None) -> Optional[str]:
        self.read.add(slot)
        v = self.raw.get(slot, default)
        if v is None or isinstance(v, str):
            return v
        raise RuleError(f"slot {slot!r} expects a label, got {v!r}")

    def area(self, slot: str, default: Optional[AreaValue] = None) -> Optional[AreaValue]:
        self.read.add(slot)
        v = self.raw.get(slot)
        if v is None:
            return default
        if isinstance(v, AreaValue):
            return v
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return AreaValue(v)
        raise RuleError(f"slot {slot!r} expects an area, got {v!r}")

    def fraction(self, slot: str) -> Optional[Fraction]:
        self.read.add(slot)
        v = self.raw.get(slot)
        if v is None:
            return None
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return Fraction(v)
        raise RuleError(f"slot {slot!r} expects a rational, got {v!r}")

    def integer(self, slot: str, default: Optional[int] = None) -> Optional[int]:
        f = self.fraction(slot)
        if f is None:
            return default
        if f.denominator != 1:
            raise RuleError(f"slot {slot!r} expects an integer, got {f}")
        return int(f)


def parse_path(text: Optional[str]) -> tuple[str, ...]:
    if text is None or text in ("root", ""):
        return ()
    return tuple(text.split("."))


def _spine(e: ManifoldExpr, path: tuple[str, ...]):
    """The nodes along `path` from `e` down, each with the index of the
    child that the path enters, and the subtree the path ends at."""
    nodes = []
    for sel in path:
        if sel not in e.SELECTORS:
            raise RuleError(
                f"path selector {sel!r} does not apply to {type(e).__name__}"
            )
        i = e.SELECTORS.index(sel)
        nodes.append((e, i))
        e = e.children()[i]
    return nodes, e


def _rebuild(
    spine: list[tuple[ManifoldExpr, int]],
    new_sub: ManifoldExpr,
    shifts: dict[str, AreaValue],
    relabel: dict[str, str],
) -> ManifoldExpr:
    """Replace the subtree at the end of `spine`, rename enclosing
    references per the rule's label map, and shift the named atom marks
    anywhere in the new tree, in one construction pass so gluing checks
    only see the final state."""
    remaining = dict(shifts)
    out = _shift_walk(new_sub, remaining)
    for node, i in reversed(spine):
        kids = [
            out if j == i else _shift_walk(c, remaining)
            for j, c in enumerate(node.children())
        ]
        out = node.with_children(kids, relabel, at=i)
    check_shifts_found(remaining)
    return out


# ---------------------------------------------------------------------------
# Rule results
# ---------------------------------------------------------------------------


class RuleApplication(Record):
    def __init__(
        self, expr: ManifoldExpr, level: EquivLevel, notes: list[str],
        relabel: dict[str, str],
    ):
        self.expr, self.level, self.notes, self.relabel = expr, level, notes, relabel


# handlers return (new_subtree, level, notes) or additionally a label map
# renaming marks of the rewritten subtree for enclosing references
Handler = Callable[[ManifoldExpr, Bindings, bool], tuple]

RULES: dict[str, Handler] = {}  # the handlers of the rule modules loaded so far


def rule(name: str):
    def deco(fn):
        RULES[name] = fn
        return fn

    return deco


# each rule id, in catalog order, with the module of `symsum.rules` that
# registers its handler
RULE_MODULES = {
    "R1": "r1",
    "R2": "r2",
    "R3": "r3",
    "R3b": "r3",
    "R3r": "r3r",
    "R4": "r4",
    "R5": "r5",
    "R6": "r6",
    "R7": "r7",
    "R8": "r8",
    "R9": "r9",
    "R10": "r10",
    "R11": "r11",
    "regroup": "regroup",
    "deform": "deform",
}
RULE_IDS = tuple(RULE_MODULES)


def apply_rule(
    whole: ManifoldExpr,
    rule_id: str,
    bindings: dict,
    rev: bool = False,
) -> RuleApplication:
    if rule_id not in RULES:  # its module is not loaded yet
        if rule_id not in RULE_MODULES:
            raise RuleError(f"unknown rule id {rule_id!r}")
        # unlike importlib.import_module, `python -X importtime` reports this
        __import__(f"{__package__}.rules.{RULE_MODULES[rule_id]}")
    b = Bindings(bindings)
    spine, sub = _spine(whole, parse_path(b.label("at", "root")))
    result = RULES[rule_id](sub, b, rev)
    new_sub, level, notes = result[0], result[1], result[2]
    relabel = result[3] if len(result) > 3 else {}
    if relabel:
        notes.append(
            "label map: " + ", ".join(f"{a} -> {bb}" for a, bb in relabel.items())
        )
    shifts = _collect_shifts(b)
    if shifts:
        notes.append(
            "deformed areas: "
            + ", ".join(f"{l} by {d}" for l, d in shifts.items())
        )
        level = level.combine(WK)
    new_whole = _rebuild(spine, new_sub, shifts, relabel)
    before = expr_invariants(whole)
    after = expr_invariants(new_whole)
    if before != after:
        raise InvariantDriftError(
            f"rule {rule_id} changed invariants: {before} -> {after}"
        )
    # after the drift check, which reports a defect of the rule itself
    unread = [slot for slot in b.raw if slot not in b.read]
    if unread:
        raise RuleError(f"unused slot {unread[0]!r}")
    return RuleApplication(new_whole, level, notes, relabel)


def _collect_shifts(b: Bindings) -> dict[str, AreaValue]:
    out: dict[str, AreaValue] = {}
    i = 1
    while b.has(f"shift{i}"):
        lbl = b.label(f"shift{i}")
        delta = b.area(f"by{i}")
        if delta is None:
            raise RuleError(f"shift{i} needs a matching by{i} amount")
        out[lbl] = delta
        i += 1
    return out


# ---------------------------------------------------------------------------
# Helpers shared by the rule modules
# ---------------------------------------------------------------------------


def _failed(equation: str) -> RuleError:
    """The error of a side condition that does not hold; a caller formats
    `equation` only once the condition has failed."""
    return RuleError(f"side condition failed: {equation}")


def _expect(got, want, claim: str) -> None:
    """The side condition `got == want`, which fails as "claim: got vs
    want"; the values are formatted only once it has failed."""
    if got != want:
        raise _failed(f"{claim}: {_operand(got)} vs {_operand(want)}")


def _operand(x, show=exact_str) -> str:
    """`show(x)` at any size, for an operand of `_expect`: a tuple's or a
    list's members one by one, as str() writes them, each int through
    `exact_str` and any other member by its repr."""
    if x.__class__ is int:
        return exact_str(x)
    if x.__class__ is tuple or x.__class__ is list:
        inner = ", ".join(_operand(m, repr) for m in x)
        return f"[{inner}]" if x.__class__ is list else f"({inner}{',' * (len(x) == 1)})"
    return show(x)


def _expect_same_marks(new: ManifoldExpr, old: ManifoldExpr, claim: str) -> None:
    """The side condition that `new` carries exactly the mark data of `old`."""
    _expect(sorted(m.data for m in new.marks), sorted(m.data for m in old.marks), claim)


def _halves(ps: PairSum) -> list[tuple[ManifoldExpr, str]]:
    """The two summands of a sum, each with its glued mark."""
    return [(ps.left, ps.left_mark), (ps.right, ps.right_mark)]


def _pair(side: int, half, other, gluing=STD_GLUE, **kw) -> PairSum:
    """The sum of `half` on `side` (0 left, 1 right) with `other`; each
    is a summand with its glued mark."""
    (left, left_mark), (right, right_mark) = (other, half) if side else (half, other)
    return PairSum(left, left_mark, right, right_mark, gluing, **kw)


def _partner_label(e: ManifoldExpr, label: str) -> str:
    m = e.mark(label)
    if m.orthogonal_at is None:
        raise RuleError(f"mark {label!r} has no orthogonal partner")
    return m.orthogonal_at


def _require_ruled(node: AtomNode) -> RuledSurface:
    if not isinstance(node.kind, RuledSurface):
        raise RuleError("expected a ruled-surface atom")
    return node.kind


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------


class ProofStep(Record):
    def __init__(
        self, rule: str, bindings: dict, rev: bool = False, note: Optional[str] = None
    ):
        self.rule, self.bindings, self.rev, self.note = rule, bindings, rev, note


class StepRecord(Record):
    def __init__(
        self, index: int, rule: str, level: Optional[EquivLevel],
        invariants: InvariantVector, expr: ManifoldExpr, notes: list[str],
    ):
        self.index, self.rule, self.level = index, rule, level
        self.invariants, self.expr, self.notes = invariants, expr, notes


class Verdict(Record):
    def __init__(
        self, verified: bool, level: Optional[EquivLevel], trace: list[StepRecord],
        failure: Optional[str] = None, failed_step: Optional[int] = None,
    ):
        self.verified, self.level, self.trace = verified, level, trace
        self.failure, self.failed_step = failure, failed_step


def check_equiv(
    lhs: ManifoldExpr, rhs: ManifoldExpr, steps: list[ProofStep]
) -> Verdict:
    cur = lhs
    level = EQ
    trace = [StepRecord(0, "start", None, expr_invariants(lhs), lhs, [])]
    for i, step in enumerate(steps, start=1):
        try:
            app = apply_rule(cur, step.rule, step.bindings, step.rev)
        except InvariantDriftError:
            raise
        except SymsumError as exc:
            return Verdict(False, None, trace, f"{step.rule}: {exc}", i)
        cur = app.expr
        level = level.combine(app.level)
        notes = list(app.notes)
        if step.note:
            notes.append(step.note)
        trace.append(
            StepRecord(i, step.rule, app.level, expr_invariants(cur), cur, notes)
        )
    if cur != rhs:
        return Verdict(
            False,
            None,
            trace,
            "final expression does not match the right-hand side",
            len(steps) + 1,
        )
    return Verdict(True, level, trace)
