"""Rewrite rules and the equivalence checker.

Each rule rewrites an expression at a script-supplied position after
checking the rule's side conditions, and carries an equivalence level:
"=" (symplectomorphism) or "~" (weak deformation).  A proof is a chain
of rule applications; its verdict is the weakest level used.  Every
application must preserve the Euler characteristic and signature
exactly; drift is an internal defect and aborts the run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .areas import AreaValue, area
from .core import (
    AdmissibilityError,
    Atom,
    AtomNode,
    BlowUp,
    Desing,
    EllipticSurface,
    EquivLevel,
    FourSum,
    ManifoldExpr,
    MarkError,
    PairSum,
    ProjectivePlane,
    RationalSurface,
    RuledSurface,
    STD_GLUE,
    SurfaceMark,
    SymsumError,
    Thicken,
    Thin,
    fourfold_violations,
    is_ruled_fiber,
    label_pool,
    rename,
)
from .invariants import InvariantVector, expr_invariants
from .record import Record
from .sums import (
    _shift_walk,
    apply_shifts,
    check_shifts_found,
    make_ruled_atom,
    min_twist,
    rescale,
    split_ruled,
)


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
    def __init__(self, raw: dict):
        self.raw = dict(raw)

    def has(self, slot: str) -> bool:
        return slot in self.raw

    def label(self, slot: str, default: Optional[str] = None) -> Optional[str]:
        v = self.raw.get(slot, default)
        if v is None or isinstance(v, str):
            return v
        raise RuleError(f"slot {slot!r} expects a label, got {v!r}")

    def area(self, slot: str, default: Optional[AreaValue] = None) -> Optional[AreaValue]:
        v = self.raw.get(slot)
        if v is None:
            return default
        if isinstance(v, AreaValue):
            return v
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return AreaValue(Fraction(v))
        raise RuleError(f"slot {slot!r} expects an area, got {v!r}")

    def fraction(self, slot: str, default: Optional[Fraction] = None) -> Optional[Fraction]:
        v = self.raw.get(slot)
        if v is None:
            return default
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


def resolve_path(e: ManifoldExpr, path: tuple[str, ...]) -> ManifoldExpr:
    return _spine(e, path)[1]


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


def _fresh(label: str, pool: set[str]) -> str:
    while label in pool:
        label += "_"
    pool.add(label)
    return label


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

RULES: dict[str, Handler] = {}


def rule(name: str):
    def deco(fn):
        RULES[name] = fn
        return fn

    return deco


RULE_IDS = (
    "R1",
    "R2",
    "R3",
    "R3b",
    "R3r",
    "R4",
    "R5",
    "R6",
    "R7",
    "R8",
    "R9",
    "R10",
    "R11",
    "regroup",
    "deform",
)


def apply_rule(
    whole: ManifoldExpr,
    rule_id: str,
    bindings: dict,
    rev: bool = False,
) -> RuleApplication:
    if rule_id not in RULES:
        raise RuleError(f"unknown rule id {rule_id!r}")
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


def _failed(equation: str) -> RuleError:
    """The error of a side condition that does not hold; a caller formats
    `equation` only once the condition has failed."""
    return RuleError(f"side condition failed: {equation}")


def _expect_same_marks(new: ManifoldExpr, old: ManifoldExpr, claim: str) -> None:
    """The side condition that `new` carries exactly the mark data of `old`."""
    got, want = sorted(m.data for m in new.marks), sorted(m.data for m in old.marks)
    if got != want:
        raise _failed(f"{claim}: {got} vs {want}")


def _halves(ps: PairSum) -> list[tuple[ManifoldExpr, str]]:
    """The two summands of a sum, each with its glued mark."""
    return [(ps.left, ps.left_mark), (ps.right, ps.right_mark)]


def _pair(side: int, half, other, gluing=STD_GLUE, **kw) -> PairSum:
    """The sum of `half` on `side` (0 left, 1 right) with `other`; each
    is a summand with its glued mark."""
    (left, left_mark), (right, right_mark) = (other, half) if side else (half, other)
    return PairSum(left, left_mark, right, right_mark, gluing, **kw)


# ---------------------------------------------------------------------------
# R1: the 4-fold sum is invariant under cyclic permutation
# ---------------------------------------------------------------------------


@rule("R1")
def _r1(sub, b, rev):
    if isinstance(sub, FourSum):
        r = b.integer("rotate", 1)
        if rev:
            r = -r
        r %= 4
        new = FourSum(
            sub.entries[r:] + sub.entries[:r], sub.gluings[r:] + sub.gluings[:r]
        )
        return new, EQ, [f"rotated the four summands by {r}"]
    if isinstance(sub, PairSum) and isinstance(sub.left, PairSum) and isinstance(
        sub.right, PairSum
    ):
        quad, gluings = _quad_of_nested(sub)
        r = b.integer("rotate", 3)
        if rev:
            r = -r
        r %= 4
        rot = quad[r:] + quad[:r]
        grot = gluings[r:] + gluings[:r]
        new = FourSum(rot, grot).evaluated()
        return new, EQ, [f"regrouped the grand sum, starting at summand {r + 1}"]
    raise RuleError("R1 applies to a 4-fold sum or a sum of two pairwise sums")


def _quad_of_nested(sub: PairSum):
    inner1, inner2 = sub.left, sub.right
    quad = []
    for ps in (inner1, inner2):
        lp, rp = ps.partners
        if lp is None or rp is None:
            raise RuleError("grand-sum form needs carried marks on both inner sums")
        quad.append((ps.left, lp, ps.left_mark))
        quad.append((ps.right, ps.right_mark, rp))
    entries = tuple(quad)
    bad = fourfold_violations(entries)
    if bad:
        raise AdmissibilityError(bad)
    gluings = (inner1.gluing, sub.gluing, inner2.gluing, STD_GLUE)
    return entries, gluings


# ---------------------------------------------------------------------------
# R2: associativity of three sums through a desingularized pair
# ---------------------------------------------------------------------------


def _extract_assoc_triples(sub: PairSum, rev: bool):
    """Read off the three triples from either side of the associativity
    statement.  Forward shape: (X1 # X2) summed with Desing(X3) along the
    carried mark; reverse shape: Desing(X1) summed with (X2 # X3)."""
    inner, des = (sub.right, sub.left) if rev else (sub.left, sub.right)
    if not (isinstance(inner, PairSum) and isinstance(des, Desing)):
        raise RuleError(
            "R2 (reverse) expects a desingularized pair summed with (X2 # X3)"
            if rev
            else "R2 expects (X1 # X2) summed with a desingularized pair"
        )
    (xa, ta), (xb, sb) = _halves(inner)
    summed = ((xa, _partner_label(xa, ta), ta), (xb, sb, _partner_label(xb, sb)))
    resolved = (des.inner, des.mark_s, des.mark_t)
    return (resolved, *summed) if rev else (*summed, resolved)


def _partner_label(e: ManifoldExpr, label: str) -> str:
    m = e.mark(label)
    if m.orthogonal_at is None:
        raise RuleError(f"mark {label!r} has no orthogonal partner")
    return m.orthogonal_at


def _joined(a: SurfaceMark, b: SurfaceMark, extra: int = 0) -> tuple:
    """The (genus, normal number, area) of the mark joining `a` and `b`:
    their connected sum, or with `extra` = 2 their desingularization."""
    normal = a.normal_number + b.normal_number + extra
    return (a.genus + b.genus, normal, a.area + b.area)


def _perturbed(data: tuple, eps: AreaValue) -> tuple:
    """Mark data after thickening by `eps` (thinning when negative)."""
    genus, normal, a = data
    return (genus, normal, a + eps.scale(normal))


def _check_assoc_conditions(t1, t2, t3) -> list[str]:
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    marks = {
        "S1": x1.mark(s1l), "T1": x1.mark(t1l),
        "S2": x2.mark(s2l), "T2": x2.mark(t2l),
        "S3": x3.mark(s3l), "T3": x3.mark(t3l),
    }
    notes = []
    for a, bb in (("T1", "S2"), ("T2", "S3"), ("T3", "S1")):
        if marks[a].genus != marks[bb].genus:
            raise _failed(f"g({a}) = g({bb}): {marks[a].genus} vs {marks[bb].genus}")
        if marks[a].area != marks[bb].area:
            raise _failed(f"area({a}) = area({bb}): {marks[a].area} vs {marks[bb].area}")
    if marks["T1"].normal_number != -marks["S2"].normal_number:
        raise _failed(
            f"i(T1) = -i(S2): {marks['T1'].normal_number} vs {marks['S2'].normal_number}"
        )
    if marks["T2"].normal_number != -marks["S3"].normal_number:
        raise _failed(
            f"i(T2) = -i(S3): {marks['T2'].normal_number} vs {marks['S3'].normal_number}"
        )
    if marks["T3"].normal_number != -(marks["S1"].normal_number + 2):
        raise _failed(
            f"i(T3) = -(i(S1)+2): {marks['T3'].normal_number} vs "
            f"-({marks['S1'].normal_number}+2)"
        )
    notes.append(
        "third area condition area(T3) = area(S1) checked as stated "
        f"({marks['T3'].area}); at the deformation level it is implied by "
        "admissibility, the symplectomorphism-level expansion uses it directly"
    )
    return notes


@rule("R2")
def _r2(sub, b, rev):
    if not isinstance(sub, PairSum):
        raise RuleError("R2 applies to a pairwise sum")
    t1, t2, t3 = _extract_assoc_triples(sub, rev)
    notes = _check_assoc_conditions(t1, t2, t3)
    level = WK
    eps = b.area("eps")
    if eps is not None:
        notes += _verify_assoc_expansion(sub, t1, t2, t3, eps, rev)
        level = EQ
    # the other grouping: the desingularized pair moves to the other end
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    if rev:
        inner = PairSum(
            x1, t1l, x2, s2l, sub.right.gluing, carry_label=b.label("carry")
        )
        des = Desing(x3, s3l, t3l, b.label("resolve_label"))
    else:
        des = Desing(x1, s1l, t1l, b.label("resolve_label"))
        inner = PairSum(
            x2, t2l, x3, s3l, sub.left.gluing, carry_label=b.label("carry")
        )
    new = _pair(
        int(rev), (des, des.result_label), (inner, inner.carry_name), sub.gluing
    )
    return new, level, notes


def _verify_assoc_expansion(sub, t1, t2, t3, eps: AreaValue, rev: bool) -> list[str]:
    """Certify the associativity instance at the symplectomorphism level
    by rebuilding both groupings of the thickened/thinned 4-fold sum and
    checking every area identity bitwise."""
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    notes = ["symplectomorphism-level expansion with eps = " + str(eps)]
    s1 = x1.mark(s1l)
    t3m = x3.mark(t3l)
    k = -s1.normal_number
    g = s1.genus

    # the three perturbed summands
    x1p = Thicken(Thin(x1, s1l, eps), t1l + "-", eps)
    x2p = Thin(Thin(x2, s2l, eps), t2l + "-", eps)
    x3p = Thicken(Thin(x3, t3l, eps), s3l + "-", eps)
    s1p, t1p = s1l + "-+", t1l + "-+"
    s2p, t2p = s2l + "--", t2l + "--"
    s3p, t3p = s3l + "-+", t3l + "-+"

    pool = set(label_pool(x1p) | label_pool(x2p) | label_pool(x3p))
    w_hi = _fresh("Wg" + str(k), pool)
    w_lo = _fresh("Wg" + str(2 - k), pool)
    a_hi = x1p.mark(s1p).area
    a_lo = x3p.mark(t3p).area
    try:
        x4p = make_ruled_atom(
            g,
            eps.scale(2),
            {w_hi: (k, a_hi), w_lo: (2 - k, a_lo)},
            pairs=((w_lo, w_hi),),
        )
    except MarkError as exc:
        raise RuleError(f"ruled summand cannot be built: {exc}") from exc
    diff = a_lo - a_hi
    expected_diff = eps.scale(2 * (1 - k))
    if diff != expected_diff:
        raise _failed(f"section area difference 2(1-k)*eps: {diff} vs {expected_diff}")
    notes.append(
        f"ruled summand sections: {w_lo} area {a_lo}, {w_hi} area {a_hi}; "
        f"difference 2(1-k)*eps = {diff} with k={k}"
    )

    # the ruled summand splits into two copies with half the fiber
    a_cut = s1.area + eps
    c1 = _fresh("cutA", pool)
    c2 = _fresh("cutB", pool)
    f1 = _fresh("Fw", pool)
    lo1 = _fresh("loA", pool)
    hi2 = _fresh("hiB", pool)
    w1 = make_ruled_atom(
        g,
        eps,
        {c1: (k - 2, a_cut), lo1: (2 - k, a_cut + eps.scale(2 - k))},
        fibers={f1: c1},
    )
    w2 = make_ruled_atom(
        g,
        eps,
        {c2: (2 - k, a_cut), hi2: (k, a_cut + eps.scale(k - 1))},
        pairs=((c2, hi2),),
    )
    halves = PairSum(w1, c1, w2, c2)
    claim = "sum of two half-fiber ruled pieces reproduces the ruled summand"
    _expect_same_marks(halves, x4p, claim)
    notes.append(
        "ruled summand rebuilt as a sum of two half-fiber copies; "
        "outer section data matches bitwise"
    )

    quad = (
        (x1p, s1p, t1p),
        (x2p, s2p, t2p),
        (x3p, s3p, t3p),
        (x4p, w_lo, w_hi),
    )
    bad = fourfold_violations(quad)
    if bad:
        raise RuleError(
            "perturbed quadruple is not admissible: "
            + "; ".join(str(v) for v in bad)
        )
    notes.append("perturbed quadruple admissible; all four gluing areas exact")

    grand = FourSum(quad)
    eval_a = grand.evaluated(0)
    eval_b = grand.evaluated(3)

    # identities collapsing the perturbed groupings onto the two sides.
    # The sub's own grouping, (1,2)(3,4) forward and (4,1)(2,3) reverse,
    # is read off its marks; the other one is computed from the triples.
    (inner, inner_mark), (des, des_label) = _halves(sub)[:: -1 if rev else 1]
    own = (inner.mark(inner_mark).data, des.mark(des_label).data)
    if not rev:
        sum12, resolved34 = own
        resolved41 = _joined(x1.mark(s1l), x1.mark(t1l), 2)
        sum23 = _joined(x2.mark(s2l), x3.mark(t3l))
    else:
        sum23, resolved41 = own
        sum12 = _joined(x1.mark(s1l), x2.mark(t2l))
        resolved34 = _joined(x3.mark(s3l), x3.mark(t3l), 2)
    groupings = {
        "(1,2)(3,4)": (
            eval_a, ("thinned (S1#T2)", sum12, -eps), ("thickened (S3+T3)", resolved34, eps)
        ),
        "(4,1)(2,3)": (
            eval_b, ("thickened (S1+T1)", resolved41, eps), ("thinned (S2#T3)", sum23, -eps)
        ),
    }
    for name, (grouping, *outer) in groupings.items():
        carries = []
        for half, (what, data, delta) in zip((grouping.left, grouping.right), outer):
            carry = half.mark(half.carry_name)
            want = _perturbed(data, delta)
            if carry.data != want:
                raise _failed(f"{what} equals the perturbed carry bitwise: {carry.data} vs {want}")
            carries.append(carry.area)
        hows = "/".join(what.split()[0] for what, _, _ in outer)
        notes.append(
            f"grouping {name}: carries {carries[0]} and {carries[1]} "
            f"match the {hows} outer marks bitwise"
        )

    inv_a, inv_b, inv_sub = (
        expr_invariants(eval_a),
        expr_invariants(eval_b),
        expr_invariants(sub),
    )
    if not (inv_a == inv_b == inv_sub):
        raise _failed(f"invariants agree across groupings: {inv_a}, {inv_b}, {inv_sub}")
    marks_a = sorted(m.data for m in eval_a.marks)
    marks_b = sorted(m.data for m in eval_b.marks)
    marks_sub = sorted(m.data for m in sub.marks)
    if not (marks_a == marks_b == marks_sub):
        raise _failed(
            f"leftover mark data agrees across groupings: {marks_a}, {marks_b}, "
            f"{marks_sub}"
        )
    notes.append(f"both groupings: {inv_a}; leftover marks identical")
    return notes


# ---------------------------------------------------------------------------
# R3 / R3b: resolving an intersection point by summing with a ruled surface
# ---------------------------------------------------------------------------


def _neutral_w(g, fiber, glue_idx, glue_area, twin_idx, labels, pairs=(), fibers=None):
    glue_lbl, twin_lbl = labels
    twin_area = glue_area + fiber.scale(Fraction(twin_idx - glue_idx, 2))
    return make_ruled_atom(
        g,
        fiber,
        {glue_lbl: (glue_idx, glue_area), twin_lbl: (twin_idx, twin_area)},
        fibers=fibers,
        pairs=pairs,
    )


def _resolve_rule(name: str, w_side: int, glue_default: str, twin_default: str):
    """R3 (w_side 0) sums the ruled surface onto S from the left; R3b
    (w_side 1) is its mirror image, summing onto T from the right."""

    @rule(name)
    def handler(sub, b, rev):
        fiber = b.area("fiber", area(0, 1))
        glue_lbl = b.label("glue_section", glue_default)
        twin_lbl = b.label("twin_section", twin_default)
        if not rev:
            if not isinstance(sub, Desing):
                raise RuleError(f"{name} applies to a desingularized pair")
            glued = (sub.mark_s, sub.mark_t)[w_side]
            m = sub.inner.mark(glued)
            j = -m.normal_number  # the glued section's index; its twin's is 2 - j
            w = _neutral_w(
                m.genus, fiber, j, m.area, 2 - j, (glue_lbl, twin_lbl),
                pairs=((twin_lbl, glue_lbl),),
            )
            new = _pair(
                w_side, (w, glue_lbl), (sub.inner, glued),
                carry_label=b.label("carry", sub.result_label),
            )
            return new, WK, [
                f"resolved {sub.mark_s}+{sub.mark_t} through a genus-{m.genus} "
                f"ruled surface with sections {j} and {2 - j}"
            ]
        halves = _halves(sub) if isinstance(sub, PairSum) else None
        if halves is None or not isinstance(halves[w_side][0], AtomNode):
            raise RuleError(
                f"{name} (reverse) expects a ruled surface summed on the "
                + ("left", "right")[w_side]
            )
        _require_ruled(halves[w_side][0])
        x, glued = halves[1 - w_side]
        partner = _partner_label(x, glued)
        s_lbl, t_lbl = (partner, glued) if w_side else (glued, partner)
        new = Desing(x, s_lbl, t_lbl, b.label("resolve_label"))
        return new, WK, ["folded the ruled summand back into an intersection point"]


_resolve_rule("R3", 0, "Gk", "Gk2")
_resolve_rule("R3b", 1, "Gk2", "Gk")


def _require_ruled(node: AtomNode) -> RuledSurface:
    if not isinstance(node.atom.kind, RuledSurface):
        raise RuleError("expected a ruled-surface atom")
    return node.atom.kind


# ---------------------------------------------------------------------------
# R3r: the exact form of R3 through a double-fiber ruled surface
# ---------------------------------------------------------------------------


@rule("R3r")
def _r3r(sub, b, rev):
    eps = b.area("eps", area(0, 1))
    glue_lbl = b.label("glue_section", "Gk")
    twin_lbl = b.label("twin_section", "Gk2")
    if not rev:
        if not (isinstance(sub, Thicken) and isinstance(sub.inner, Desing)):
            raise RuleError("R3r applies to a thickened desingularized pair")
        if sub.amount != eps:
            raise RuleError("eps binding must equal the thickening amount")
        des = sub.inner
        s = des.inner.mark(des.mark_s)
        t = des.inner.mark(des.mark_t)
        k = -s.normal_number
        resolved = sub.mark(des.result_label + "+")
        w = make_ruled_atom(
            s.genus,
            eps.scale(2),
            {
                glue_lbl: (k, s.area + eps.scale(k + 1)),
                twin_lbl: (2 - k, t.area + eps.scale(3 - k)),
            },
            pairs=((twin_lbl, glue_lbl),),
        )
        core_x = Thicken(Thin(des.inner, des.mark_s, eps), des.mark_t + "-", eps)
        carry_lbl = b.label("carry", des.result_label + "+")
        new = PairSum(w, glue_lbl, core_x, des.mark_s + "-+", carry_label=carry_lbl)
        got = new.mark(carry_lbl)
        if got.data != resolved.data:
            raise _failed(
                f"carried mark equals the thickened resolved mark bitwise: "
                f"{got.data} vs {resolved.data}"
            )
        return new, EQ, [
            f"exact resolution: section areas {s.area + eps.scale(k + 1)} and "
            f"{t.area + eps.scale(3 - k)}, carried mark {got.area}"
        ]
    if not (isinstance(sub, PairSum) and isinstance(sub.left, AtomNode)):
        raise RuleError("R3r (reverse) expects the ruled surface summed on the left")
    _require_ruled(sub.left)
    inner = sub.right
    if not (isinstance(inner, Thicken) and isinstance(inner.inner, Thin)):
        raise RuleError("R3r (reverse) expects a thickened thinned triple")
    thin_node = inner.inner
    base = thin_node.inner
    s_lbl = thin_node.mark_label
    t_lbl = inner.mark_label[:-1]  # strip the thinning suffix
    des = Desing(base, s_lbl, t_lbl, b.label("resolve_label"))
    new = Thicken(des, des.result_label, inner.amount)
    return new, EQ, ["folded the exact resolution back into a thickening"]


# ---------------------------------------------------------------------------
# R4: a ruled surface is a neutral summand (plain and blow-up localized)
# ---------------------------------------------------------------------------


@rule("R4")
def _r4(sub, b, rev):
    fiber = b.area("fiber", area(0, 1))
    glue_lbl = b.label("glue_section", "Gn")
    twin_lbl = b.label("twin_section", "G-n")
    fiber_lbl = b.label("fiber_mark", "Fw")
    if not rev:
        if isinstance(sub, BlowUp) and sub.at_mark is not None:
            return _r4_localized_forward(sub, b, fiber, glue_lbl, twin_lbl)
        s_lbl = b.label("s")
        if s_lbl is None:
            raise RuleError("R4 needs the mark to sum along (slot s)")
        s = sub.mark(s_lbl)
        k = -s.normal_number
        fibers = {fiber_lbl: glue_lbl} if s.orthogonal_at else None
        w = _neutral_w(
            s.genus, fiber, k, s.area, -k, (glue_lbl, twin_lbl), fibers=fibers
        )
        carry = b.label("carry")
        new = PairSum(w, glue_lbl, sub, s_lbl, carry_label=carry)
        return new, WK, [
            f"inserted a neutral genus-{s.genus} ruled summand along {s_lbl}"
        ]
    # reverse: strip a neutral ruled summand (possibly blown up)
    if not isinstance(sub, PairSum):
        raise RuleError("R4 (reverse) applies to a pairwise sum")
    halves = _halves(sub)
    for (side, side_glue), (other, other_glue) in (halves, halves[::-1]):
        if isinstance(side, AtomNode) and isinstance(side.atom.kind, RuledSurface):
            _check_neutral_shape(side, side_glue)
            return other, WK, ["removed a neutral ruled summand"]
        if (
            isinstance(side, BlowUp)
            and isinstance(side.inner, AtomNode)
            and isinstance(side.inner.atom.kind, RuledSurface)
            and side.at_mark is not None
        ):
            _check_neutral_shape(side.inner, side_glue)
            new = BlowUp(
                other,
                other_glue,
                side.size,
                side.transform_label,
                side.exceptional_label,
            )
            return new, WK, [
                f"localized the blow-up of size {side.size} back onto "
                f"{other_glue}"
            ]
    raise RuleError("R4 (reverse) expects a ruled summand on one side")


def _check_neutral_shape(w: AtomNode, glue_label: str) -> None:
    """The ruled summand must consist of two sections of opposite
    self-intersection (one of them glued) plus at most fiber marks."""
    kind = w.atom.kind
    sections = [m for m in w.atom.marks if not is_ruled_fiber(m, kind)]
    if len(sections) != 2:
        raise RuleError("neutral ruled summand needs exactly two sections")
    a, b = sections
    if a.normal_number + b.normal_number != 0:
        raise RuleError(
            "neutral ruled summand needs sections of opposite self-intersection"
        )
    if glue_label not in (a.label, b.label):
        raise RuleError("the gluing mark must be one of the two sections")


def _r4_localized_forward(sub: BlowUp, b, fiber, glue_lbl, twin_lbl):
    s = sub.inner.mark(sub.at_mark)
    if s.orthogonal_at is not None:
        raise RuleError(
            "localized neutral insertion needs an unpaired blown mark"
        )
    c = -s.normal_number
    w = _neutral_w(s.genus, fiber, c, s.area, -c, (glue_lbl, twin_lbl))
    w_blown = BlowUp(
        w, twin_lbl, sub.size, sub.new_transform_label, sub.exceptional_label
    )
    new = PairSum(sub.inner, sub.at_mark, w_blown, glue_lbl)
    return new, WK, [
        f"localized the blow-up of {sub.at_mark} into a neutral ruled summand"
    ]


# ---------------------------------------------------------------------------
# R5: trading a blow-up point across a sum (deformation only)
# ---------------------------------------------------------------------------


def r5_inequalities(s: SurfaceMark, s_prime: SurfaceMark) -> tuple[str, str]:
    return (
        f"summing along ({s.label}, {s_prime.label}~) requires "
        f"area({s.label}) < area({s_prime.label}): {s.area} < {s_prime.area}",
        f"summing along ({s.label}~, {s_prime.label}) requires "
        f"area({s_prime.label}) < area({s.label})",
    )


@rule("R5")
def _r5(sub, b, rev):
    """Forward the right summand is blown up, reverse the left one; the
    blow-up moves to the other summand."""
    if not isinstance(sub, PairSum):
        raise RuleError("R5 applies to a pairwise sum")
    blown_side = 0 if rev else 1
    blow, glued = _halves(sub)[blown_side]
    x, s_lbl = _halves(sub)[1 - blown_side]
    if not (isinstance(blow, BlowUp) and blow.at_mark is not None):
        raise RuleError(
            "R5 (reverse) expects the left summand blown up"
            if rev
            else "R5 expects the right summand blown up along its mark"
        )
    if glued != blow.new_transform_label:
        raise RuleError(
            f"R5{' (reverse)' if rev else ''} expects the sum glued along the "
            "proper transform"
        )
    y, sp_lbl = blow.inner, blow.at_mark
    s, sp = x.mark(s_lbl), y.mark(sp_lbl)
    if s.genus != sp.genus:
        raise _failed(f"g({s_lbl}) = g({sp_lbl}): {s.genus} vs {sp.genus}")
    if s.normal_number != -sp.normal_number + 1:
        raise _failed(
            f"i({s_lbl}) = -i({sp_lbl})+1: {s.normal_number} vs "
            f"-{sp.normal_number}+1"
        )
    size = b.area("new_size", blow.size)
    tl = b.label("transform", s_lbl + "~")
    el = b.label("exceptional", "E2")
    y_shift = (s.area - size) - sp.area
    y_new = apply_shifts(y, {sp_lbl: y_shift}) if y_shift != area(0) else y
    x_blown = BlowUp(x, s_lbl, size, tl, el)
    new = _pair(1 - blown_side, (x_blown, tl), (y_new, sp_lbl), sub.gluing)
    ineq_a, ineq_b = r5_inequalities(s, sp)
    size_note = "" if rev else f"exceptional size {blow.size} -> {size}, "
    return new, WK, [
        f"traded the blow-up point across the sum; {size_note}"
        f"area({sp_lbl}) deformed by {y_shift}",
        "equal areas on both sides are impossible: " + ineq_a + "; " + ineq_b,
    ]


# ---------------------------------------------------------------------------
# R6: rational blow-down of a -4 sphere arising from a -3 sphere
# ---------------------------------------------------------------------------


@rule("R6")
def _r6(sub, b, rev):
    if not rev:
        if not isinstance(sub, PairSum):
            raise RuleError("R6 applies to a pairwise sum")
        blow = sub.left
        if not (isinstance(blow, BlowUp) and blow.at_mark is not None):
            raise RuleError("R6 expects a blown-up manifold on the left")
        s = blow.inner.mark(blow.at_mark)
        if s.normal_number != -3:
            raise _failed(f"i({blow.at_mark}) = -3: got {s.normal_number}")
        if s.genus != 0:
            raise _failed(f"g({blow.at_mark}) = 0: got {s.genus}")
        q_side = sub.right
        q = q_side.mark(sub.right_mark)
        if (q.genus, q.normal_number) != (0, 4):
            raise _failed(
                f"quadric mark needs (g, i) = (0, 4): got ({q.genus}, "
                f"{q.normal_number})"
            )
        if not _is_plane_side(q_side):
            raise RuleError("R6 expects the quadric side to be a plane")
        return blow.inner, WK, [
            f"rational blow-down along {sub.right_mark} undoes the blow-up "
            f"of {blow.at_mark}"
        ]
    s_lbl = b.label("s")
    if s_lbl is None:
        raise RuleError("R6 (reverse) needs the -3 sphere mark (slot s)")
    s = sub.mark(s_lbl)
    if s.normal_number != -3:
        raise _failed(f"i({s_lbl}) = -3: got {s.normal_number}")
    size = b.area("size")
    if size is None:
        raise RuleError("R6 (reverse) needs a blow-up size")
    q_lbl = b.label("quadric", "Q")
    tl = b.label("transform", s_lbl + "~")
    plane = AtomNode(
        Atom(ProjectivePlane(), (SurfaceMark(q_lbl, 0, 4, s.area - size),))
    )
    new = PairSum(
        BlowUp(sub, s_lbl, size, tl, b.label("exceptional", "E")),
        tl,
        plane,
        q_lbl,
    )
    return new, WK, ["introduced a quadric sum undoing a blow-up"]


def _is_plane_side(e: ManifoldExpr) -> bool:
    if isinstance(e, AtomNode):
        return isinstance(e.atom.kind, ProjectivePlane)
    if isinstance(e, Desing):
        return _is_plane_side(e.inner)
    return False


# ---------------------------------------------------------------------------
# R7: blow-down as a sum with the plane along a line
# ---------------------------------------------------------------------------


@rule("R7")
def _r7(sub, b, rev):
    if not rev:
        if not isinstance(sub, PairSum):
            raise RuleError("R7 applies to a pairwise sum")
        plane = sub.right
        if not (
            isinstance(plane, AtomNode)
            and isinstance(plane.atom.kind, ProjectivePlane)
        ):
            raise RuleError("R7 expects a plane as the right summand")
        lines = plane.atom.marks
        if len(lines) != 2 or any(m.normal_number != 1 for m in lines):
            raise RuleError("R7 expects the plane to carry exactly two lines")
        ex = sub.left.mark(sub.left_mark)
        if (ex.genus, ex.normal_number) != (0, -1):
            raise RuleError(
                f"R7 expects the gluing mark to be exceptional (g=0, i=-1); "
                f"got (g={ex.genus}, i={ex.normal_number})"
            )
        if isinstance(sub.left, BlowUp) and sub.left.exceptional_label == ex.label:
            # exact inverse of the blow-up
            blow = sub.left
            if blow.at_mark is not None and blow.pair_exceptional:
                restored = sub.mark(sub.carry_name)
                original = blow.inner.mark(blow.at_mark)
                if restored.data != original.data:
                    raise _failed(
                        f"carried transform#line equals the original mark bitwise: "
                        f"{restored.data} vs {original.data}"
                    )
            return blow.inner, EQ, ["blow-down undoes the blow-up exactly"]
        if isinstance(sub.left, AtomNode):
            return _r7_fold_atom(sub, b, ex)
        raise RuleError(
            "R7 expects the left summand to be a blow-up or an atom with an "
            "exceptional mark"
        )
    # reverse: re-introduce the plane-sum form of a blow-down
    at = b.label("at_mark")
    size = b.area("size")
    if size is None:
        raise RuleError("R7 (reverse) needs a blow-up size")
    el = b.label("exceptional", "E")
    tl = b.label("transform")
    pair_ex = bool(b.integer("pair_exceptional", 0))
    blown = BlowUp(sub, at, size, tl, el, pair_ex)
    l1 = b.label("line1", "L1")
    l2 = b.label("line2", "L2")
    plane = AtomNode(
        Atom(
            ProjectivePlane(),
            (
                SurfaceMark(l1, 0, 1, size, l2),
                SurfaceMark(l2, 0, 1, size, l1),
            ),
        )
    )
    new = PairSum(blown, el, plane, l1, carry_label=b.label("carry"))
    return new, EQ, ["expressed a blow-up/blow-down pair as a plane sum"]


def _r7_fold_atom(sub: PairSum, b, ex: SurfaceMark):
    kind = sub.left.atom.kind
    if isinstance(kind, EllipticSurface) and kind.n == 1:
        new_kind = RationalSurface(8)
    elif isinstance(kind, RationalSurface) and kind.blowups >= 1:
        new_kind = RationalSurface(kind.blowups - 1)
    else:
        raise RuleError(
            "blow-down folds only the rational elliptic surface or an "
            "iterated blow-up of the plane"
        )
    relabel = {}
    result_label = b.label("mark")
    if result_label and all(sub.partners):
        relabel[sub.carry_name] = result_label
    marks = tuple(
        m.replace(
            label=rename(relabel, m.label),
            orthogonal_at=rename(relabel, m.orthogonal_at),
        )
        for m in sub.marks
    )
    new = AtomNode(Atom(new_kind, marks))
    notes = [
        f"blow-down of {ex.label} folds the summand into a plane with "
        f"{new_kind.blowups} reversed summands"
    ]
    return new, WK, notes, relabel


# ---------------------------------------------------------------------------
# R8: trading a collar across a gluing by thinning one side and
# thickening the other
# ---------------------------------------------------------------------------


@rule("R8")
def _r8(sub, b, rev):
    if not isinstance(sub, PairSum):
        raise RuleError("R8 applies to a pairwise sum")
    if not rev:
        eps = b.area("eps")
        if eps is None:
            raise RuleError("R8 needs the amount to trade (slot eps)")
        thin_side = Thin(sub.left, sub.left_mark, eps)
        thick_side = Thicken(sub.right, sub.right_mark, eps)
        new = PairSum(
            thin_side,
            sub.left_mark + "-",
            thick_side,
            sub.right_mark + "+",
            sub.gluing,
            carry_label=b.label("carry"),
        )
        if all(sub.partners):
            old_carry = sub.mark(sub.carry_name)
            new_carry = new.mark(new.carry_name)
            if old_carry.data != new_carry.data:
                raise _failed(
                    f"carried mark survives the trade bitwise: {new_carry.data} "
                    f"vs {old_carry.data}"
                )
        return new, EQ, [
            f"traded a collar of size {eps} across the gluing "
            f"({sub.left_mark} thinned, {sub.right_mark} thickened)"
        ]
    if not (isinstance(sub.left, Thin) and isinstance(sub.right, Thicken)):
        raise RuleError("R8 (reverse) expects a thinned left and thickened right")
    if sub.left.amount != sub.right.amount:
        raise RuleError("R8 (reverse) needs equal thinning and thickening amounts")
    new = PairSum(
        sub.left.inner,
        sub.left.mark_label,
        sub.right.inner,
        sub.right.mark_label,
        sub.gluing,
        carry_label=b.label("carry"),
    )
    return new, EQ, ["removed a traded collar"]


# ---------------------------------------------------------------------------
# R9: the inductive structure of the elliptic surfaces
# ---------------------------------------------------------------------------


@rule("R9")
def _r9(sub, b, rev):
    if not rev:
        if not (isinstance(sub, AtomNode) and isinstance(sub.atom.kind, EllipticSurface)):
            raise RuleError("R9 applies to an elliptic-surface atom")
        n = sub.atom.kind.n
        if n < 2:
            raise RuleError("the inductive step needs n >= 2")
        sections = [m for m in sub.atom.marks if m.genus == 0]
        fibers = [m for m in sub.atom.marks if m.genus == 1]
        if len(sections) != 1:
            raise RuleError("R9 expects exactly one section mark to split")
        sec = sections[0]
        fiber = b.area("fiber", area(1))
        lsa = b.area("left_section_area")
        if lsa is None:
            raise RuleError("R9 needs the left section area (slot left_section_area)")
        rsa = sec.area - lsa
        ls = b.label("left_section", "Sigma-" + str(n - 1))
        rs_lbl = b.label("right_section", "Sigma-1")
        lf = b.label("left_fiber", "F" + str(n - 1))
        rf = b.label("right_fiber", "F1")
        left_marks = [
            SurfaceMark(ls, 0, -(n - 1), lsa, lf),
            SurfaceMark(lf, 1, 0, fiber, ls),
        ]
        for fm in fibers:
            left_marks.append(fm.replace(orthogonal_at=None))
        right_marks = (
            SurfaceMark(rs_lbl, 0, -1, rsa, rf),
            SurfaceMark(rf, 1, 0, fiber, rs_lbl),
        )
        left = AtomNode(Atom(EllipticSurface(n - 1), tuple(left_marks)))
        right = AtomNode(Atom(EllipticSurface(1), right_marks))
        carry = b.label("carry", sec.label)
        pairs = ()
        if sec.orthogonal_at is not None:
            pairs = ((carry, sec.orthogonal_at),)
        new = PairSum(left, lf, right, rf, carry_label=carry, pairs=pairs)
        return new, WK, [
            f"split E({n}) into E({n - 1}) and E(1) along a fiber; section "
            f"areas {lsa} + {rsa}"
        ]
    if not isinstance(sub, PairSum):
        raise RuleError("R9 (reverse) applies to a pairwise sum")
    left, right = sub.left, sub.right
    if not (
        isinstance(left, AtomNode)
        and isinstance(right, AtomNode)
        and isinstance(left.atom.kind, EllipticSurface)
        and isinstance(right.atom.kind, EllipticSurface)
        and right.atom.kind.n == 1
    ):
        raise RuleError("R9 (reverse) expects E(m) summed with E(1) along fibers")
    m = left.atom.kind.n
    marks = tuple(sub.marks)
    new = AtomNode(Atom(EllipticSurface(m + 1), marks))
    return new, WK, [f"folded the fiber sum into E({m + 1})"]


# ---------------------------------------------------------------------------
# R10: a ruled surface with a doubled fiber splits into two copies
# ---------------------------------------------------------------------------


@rule("R10")
def _r10(sub, b, rev):
    if not rev:
        if not isinstance(sub, AtomNode):
            raise RuleError("R10 applies to a ruled-surface atom")
        _require_ruled(sub)
        plus = b.label("plus")
        minus = b.label("minus")
        if plus is None or minus is None:
            raise RuleError("R10 needs the section labels (slots plus, minus)")
        cut1 = b.label("cut1", "cut1")
        cut2 = b.label("cut2", "cut2")
        new = split_ruled(sub, plus, minus, (cut1, cut2))
        _expect_same_marks(new, sub, "outer marks of the split reproduce the atom bitwise")
        return new, EQ, ["split the ruled surface into two half-fiber copies"]
    if not isinstance(sub, PairSum):
        raise RuleError("R10 (reverse) applies to a pairwise sum")
    left, right = sub.left, sub.right
    if not (isinstance(left, AtomNode) and isinstance(right, AtomNode)):
        raise RuleError("R10 (reverse) expects two ruled-surface atoms")
    k1, k2 = _require_ruled(left), _require_ruled(right)
    if k1.fiber_area != k2.fiber_area or k1.genus != k2.genus:
        raise RuleError("R10 (reverse) needs equal genus and fiber areas")
    doubled = k1.fiber_area.scale(2)
    marks = []
    for m in sub.marks:
        if m.genus == 0 and m.normal_number == 0:
            marks.append(m.replace(area=doubled, orthogonal_at=None))
        else:
            marks.append(m.replace(orthogonal_at=None))
    twist = min_twist(*(m.normal_number for m in marks if m.genus == k1.genus))
    new = AtomNode(Atom(RuledSurface(k1.genus, twist, doubled), tuple(marks)))
    _expect_same_marks(new, sub, "merged atom reproduces the sum's marks bitwise")
    return new, EQ, ["merged two half-fiber ruled copies"]


# ---------------------------------------------------------------------------
# R11: blowing up either section of a ruled pair gives diffeomorphic results
# ---------------------------------------------------------------------------


@rule("R11")
def _r11(sub, b, rev):
    if not (
        isinstance(sub, BlowUp)
        and sub.at_mark is not None
        and isinstance(sub.inner, AtomNode)
    ):
        raise RuleError("R11 applies to a blown-up ruled-surface atom")
    kind = _require_ruled(sub.inner)
    sections = [m for m in sub.inner.atom.marks if not is_ruled_fiber(m, kind)]
    if len(sections) != 2:
        raise RuleError("R11 expects exactly two disjoint sections")
    blown = sub.inner.mark(sub.at_mark)
    other = next(m for m in sections if m.label != sub.at_mark)
    if blown.normal_number + other.normal_number != 0:
        raise RuleError("R11 expects sections of opposite self-intersection")
    if blown.orthogonal_at or other.orthogonal_at:
        raise RuleError("R11 expects the two sections to be disjoint")
    new_fiber = b.area("new_fiber", kind.fiber_area)
    new_size = b.area("new_size", sub.size)
    bnum = blown.normal_number
    # the untouched section becomes the blown one and vice versa
    new_blown_idx = other.normal_number + 1
    new_keep_idx = bnum - 1
    pre_area = other.area + new_size
    keep_area = pre_area + new_fiber.scale(
        Fraction(new_keep_idx - new_blown_idx, 2)
    )
    pre_lbl = b.label("pre", other.label + "^pre")
    w_new = make_ruled_atom(
        kind.genus,
        new_fiber,
        {
            sub.new_transform_label: (new_keep_idx, keep_area),
            pre_lbl: (new_blown_idx, pre_area),
        },
    )
    new = BlowUp(
        w_new, pre_lbl, new_size, other.label, sub.exceptional_label
    )
    # sanity: mark identities are preserved up to area deformation
    old = {m.label: m for m in sub.marks}
    for m in new.marks:
        if m.label == sub.exceptional_label:
            continue
        if (m.genus, m.normal_number) != (old[m.label].genus, old[m.label].normal_number):
            raise _failed(
                f"mark {m.label} keeps (g, i): ({m.genus}, {m.normal_number}) vs "
                f"({old[m.label].genus}, {old[m.label].normal_number})"
            )
    return new, WK, [
        f"moved the blow-up to the companion ruled surface: sections "
        f"{new_keep_idx}, {new_blown_idx}, blown at {pre_lbl}"
    ]


# ---------------------------------------------------------------------------
# regroup: re-associate across a middle summand with disjoint gluing marks
# ---------------------------------------------------------------------------


@rule("regroup")
def _regroup(sub, b, rev):
    """Forward the nested sum is on the left, reverse on the right; it
    moves to the other side."""
    if not isinstance(sub, PairSum):
        raise RuleError("regroup applies to a pairwise sum")
    nested = 1 if rev else 0
    inner, m_out = _halves(sub)[nested]  # m_out: glued to the far side
    far = _halves(sub)[1 - nested]
    if not isinstance(inner, PairSum):
        raise RuleError(
            "regroup (reverse) expects a nested sum on the right"
            if rev
            else "regroup expects a nested sum on the left"
        )
    near = _halves(inner)[nested]
    middle, m_in = _halves(inner)[1 - nested]  # m_in: glued to the near side
    m1, m2 = (m_out, m_in) if rev else (m_in, m_out)
    if not middle.has_mark(m_out):
        raise RuleError(
            f"gluing marks {m1!r} and {m2!r} are not on a common middle summand"
        )
    if middle.mark(m1).orthogonal_at == m2:
        raise RuleError(
            f"marks {m1!r} and {m2!r} are recorded as intersecting; "
            "regrouping needs them disjoint"
        )
    new_inner = _pair(nested, (middle, m_out), far, sub.gluing)
    new = _pair(nested, near, (new_inner, m_in), inner.gluing)
    return new, EQ, [
        f"regrouped across the middle summand (disjoint marks {m1}, {m2})"
    ]


# ---------------------------------------------------------------------------
# deform: explicit area deformation (rescale and/or shifts)
# ---------------------------------------------------------------------------


@rule("deform")
def _deform(sub, b, rev):
    notes = []
    new = sub
    f = b.fraction("rescale")
    if f is not None:
        new = rescale(sub, f)
        notes.append(f"rescaled every area by {f}")
    if not notes and not b.has("shift1"):
        raise RuleError("deform needs a rescale factor or shift slots")
    return new, WK, notes


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

    def header(self) -> str:
        lvl = self.level.symbol if self.level else "start"
        return (
            f"step {self.index}: {self.rule} level={lvl} "
            f"chi={self.invariants.euler} sigma={self.invariants.signature}"
        )


class Verdict(Record):
    def __init__(
        self, verified: bool, level: Optional[EquivLevel], trace: list[StepRecord],
        failure: Optional[str] = None, failed_step: Optional[int] = None,
    ):
        self.verified, self.level, self.trace = verified, level, trace
        self.failure, self.failed_step = failure, failed_step

    @property
    def invariants(self) -> InvariantVector:
        return self.trace[0].invariants


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
            len(steps) + 1 if steps else 1,
        )
    return Verdict(True, level, trace)
