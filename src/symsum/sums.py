"""Constructive operations of the calculus: pairwise and 4-fold sums,
desingularization, blow-up/-down, thickening/thinning, rescaling, and
the splitting of a ruled surface into two thinner copies."""

from __future__ import annotations

from fractions import Fraction
from operator import is_
from typing import Optional

from .areas import AreaValue
from .core import (
    AdmissibilityError,
    Atom,
    AtomNode,
    BlowUp,
    EllipticSurface,
    FourSum,
    GluingChoice,
    ManifoldExpr,
    MarkError,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    QuadEntry,
    RuledSurface,
    STD_GLUE,
    SurfaceMark,
    Thicken,
    Thin,
    Violation,
    fourfold_violations,
    is_ruled_fiber,
    pairwise_violations,
)

# the admissibility checks live with the mark types; re-exported here as
# the public operation names
check_pairwise_admissible = pairwise_violations
check_fourfold_admissible = fourfold_violations

Triple = tuple[ManifoldExpr, Optional[str], Optional[str]]  # (expr, S, T)


def pairwise_sum(
    x1: Triple,
    x2: Triple,
    gluing: GluingChoice = STD_GLUE,
    carry_label: Optional[str] = None,
) -> PairSum:
    """Sum (expr1, S1, T1) with (expr2, S2, T2) along T1 = S2.  When both
    S1 and T2 are given they must be the orthogonal partners of the glued
    marks, and the result carries the connected sum S1 # T2."""
    e1, s1, t1 = x1
    e2, s2, t2 = x2
    if t1 is None or s2 is None:
        raise MarkError("both gluing marks must be given")
    for expr, carried, glue, side in ((e1, s1, t1, "left"), (e2, t2, s2, "right")):
        if carried is None:
            continue
        partner = expr.mark(glue).orthogonal_at
        if partner != carried:
            raise MarkError(
                f"{side} mark {carried!r} is not the orthogonal partner of "
                f"the glued mark {glue!r} (declared partner: {partner!r})"
            )
    if (s1 is None) != (t2 is None):
        raise MarkError(
            "a carried connected-sum mark needs an orthogonal partner on "
            "both sides of the gluing"
        )
    return PairSum(e1, t1, e2, s2, gluing, carry_label=carry_label)


def fourfold_sum(
    quad: tuple[QuadEntry, ...],
    gluings: tuple[GluingChoice, ...] = (STD_GLUE,) * 4,
) -> FourSum:
    return FourSum(tuple(quad), tuple(gluings))


def desingularize(s: SurfaceMark, t: SurfaceMark, label: Optional[str] = None) -> SurfaceMark:
    """The smoothed surface in the class [S]+[T]: genus g_S + g_T, normal
    number i_S + i_T + 2, area the sum."""
    if s.orthogonal_at != t.label or t.orthogonal_at != s.label:
        raise MarkError(f"marks {s.label}, {t.label} are not orthogonally paired")
    return SurfaceMark(
        label or f"{s.label}+{t.label}",
        s.genus + t.genus,
        s.normal_number + t.normal_number + 2,
        s.area + t.area,
    )


def blow_up(
    e: ManifoldExpr,
    at: Optional[str],
    size: AreaValue,
    transform_label: Optional[str] = None,
    exceptional_label: str = "E",
    pair_exceptional: bool = False,
) -> BlowUp:
    return BlowUp(e, at, size, transform_label, exceptional_label, pair_exceptional)


def blow_down(
    e: ManifoldExpr,
    exceptional: str,
    line_labels: tuple[str, str] = ("L1", "L2"),
    gluing: GluingChoice = STD_GLUE,
    carry_label: Optional[str] = None,
) -> PairSum:
    """Blowing down a (-1)-sphere mark is the sum with CP^2 along a line
    of the same area; a mark meeting the sphere once connects with the
    second line and gains one in self-intersection."""
    ex = e.mark(exceptional)
    if ex.genus != 0 or ex.normal_number != -1:
        raise MarkError(
            f"{exceptional!r} is not an exceptional mark (needs g=0, i=-1; "
            f"got g={ex.genus}, i={ex.normal_number})"
        )
    l1, l2 = line_labels
    plane = AtomNode(
        Atom(
            ProjectivePlane(),
            (
                SurfaceMark(l1, 0, 1, ex.area, l2),
                SurfaceMark(l2, 0, 1, ex.area, l1),
            ),
        )
    )
    return PairSum(e, exceptional, plane, l1, gluing, carry_label=carry_label)


def thin(e: ManifoldExpr, mark: str, amount: AreaValue) -> Thin:
    return Thin(e, mark, amount)


def thicken(e: ManifoldExpr, mark: str, amount: AreaValue) -> Thicken:
    return Thicken(e, mark, amount)


def min_twist(*indices: int) -> int:
    """Smallest ruled-surface twist carrying sections of the given
    self-intersections (all of one parity)."""
    m = max(abs(k) for k in indices)
    if m == 0:
        return 2
    return m


def make_ruled_atom(
    genus: int,
    fiber_area: AreaValue,
    sections: dict[str, tuple[int, AreaValue]],
    fibers: dict[str, Optional[str]] | None = None,
    pairs: tuple[tuple[str, str], ...] = (),
    twist: Optional[int] = None,
) -> AtomNode:
    """Ruled-surface atom with the given sections {label: (k, area)} and
    fiber marks {label: partner-or-None}; `pairs` orthogonally pairs two
    sections."""
    if twist is None:
        twist = min_twist(*(k for k, _ in sections.values()))
    paired: dict[str, str] = {}
    for a, b in pairs:
        paired[a], paired[b] = b, a
    marks = []
    for label, (k, a) in sections.items():
        marks.append(SurfaceMark(label, genus, k, a, paired.get(label)))
    for label, partner in (fibers or {}).items():
        marks.append(SurfaceMark(label, 0, 0, fiber_area, partner))
        if partner is not None:
            k, a = sections[partner]
            marks = [
                m if m.label != partner else m.replace(orthogonal_at=label)
                for m in marks
            ]
    return AtomNode(Atom(RuledSurface(genus, twist, fiber_area), tuple(marks)))


def thicken_as_w_sum(node: Thicken, labels: tuple[str, str, str] = ("Gk", "G-k", "Fw")) -> PairSum:
    """The explicit form of a thickening: the sum with a ruled surface of
    fiber area equal to the thickening amount, glued along the section of
    opposite self-intersection."""
    m = node.inner.mark(node.mark_label)
    k = -m.normal_number
    glue_label, twin_label, fiber_label = labels
    w = make_ruled_atom(
        m.genus,
        node.amount,
        {
            glue_label: (k, m.area),
            twin_label: (-k, m.area - node.amount.scale(k)),
        },
        fibers={fiber_label: glue_label},
    )
    return PairSum(node.inner, node.mark_label, w, glue_label)


def rescale(e: ManifoldExpr, factor: Fraction) -> ManifoldExpr:
    """Multiply every area in the subtree (marks, fiber areas, blow-up
    sizes, thickening amounts) by a positive rational."""
    f = Fraction(factor)
    if f <= 0:
        raise MarkError(f"rescale factor must be positive, got {f}")
    return _map_areas(e, lambda a: a.scale(f))


def _map_areas(e: ManifoldExpr, fn) -> ManifoldExpr:
    def atom(a: AtomNode) -> AtomNode:
        kind = a.atom.kind
        if isinstance(kind, RuledSurface):
            kind = kind.replace(fiber_area=fn(kind.fiber_area))
        marks = tuple(m.replace(area=fn(m.area)) for m in a.atom.marks)
        return AtomNode(Atom(kind, marks))

    def own_areas(n: ManifoldExpr) -> dict:
        # blow-up sizes, thinning and thickening amounts
        return {f: fn(getattr(n, f)) for f in ("size", "amount") if hasattr(n, f)}

    return _rebuild_up(e, atom, own_areas)


def _rebuild_up(e: ManifoldExpr, atom_fn, changes=lambda n: {}, done=lambda: False):
    """`e` rebuilt bottom-up by a loop, so trees of any depth walk: each
    atom `a`, left to right, becomes `atom_fn(a)`, and each other node
    whose children changed is rebuilt with the field values `changes(node)`.
    Once `done()` holds, the nodes not yet visited are kept as they are."""
    top = (None, (e,), [])  # a parent above the root collects the result
    stack = [top]
    while stack:
        node, children, kids = stack[-1]
        if len(kids) == len(children):
            stack.pop()
            if stack:
                same = all(map(is_, kids, children))
                new = node if same else node.with_children(kids, **changes(node))
                stack[-1][2].append(new)
            continue
        c = children[len(kids)]
        if done():
            kids.append(c)
        elif isinstance(c, AtomNode):
            kids.append(atom_fn(c))
        else:
            stack.append((c, c.children(), []))
    return top[2][0]


def apply_shifts(e: ManifoldExpr, shifts: dict[str, AreaValue]) -> ManifoldExpr:
    """Shift the areas of atom-level marks by label, atomically across
    the whole expression (the tree is rebuilt once, so gluing checks see
    only the final state).  Raises if a label is not found on any atom."""
    remaining = dict(shifts)
    out = _shift_walk(e, remaining)
    check_shifts_found(remaining)
    return out


def check_shifts_found(remaining: dict[str, AreaValue]) -> None:
    """Raise if `_shift_walk` left shift targets that no atom carries."""
    if remaining:
        raise MarkError(
            f"shift targets not found on any atom: {sorted(remaining)}"
        )


def _shift_walk(e: ManifoldExpr, remaining: dict[str, AreaValue]) -> ManifoldExpr:
    """`e` with the atom marks named in `remaining` shifted by their
    amounts; each target found is removed from `remaining`, atoms taking
    them from left to right.  Subtrees without a target are shared."""
    if not remaining:
        return e
    return _rebuild_up(
        e, lambda a: _shift_atom(a, remaining), done=lambda: not remaining
    )


def _shift_atom(e: AtomNode, remaining: dict[str, AreaValue]) -> AtomNode:
    hits = [m for m in e.atom.marks if m.label in remaining]
    if not hits:
        return e
    new_marks = list(e.atom.marks)
    kind = e.atom.kind
    for m in hits:
        delta = remaining.pop(m.label)
        _check_shift_allowed(kind, e.atom.marks, m)
        if isinstance(kind, RuledSurface):
            # pullback from the base moves every section in step
            new_marks = [
                nm
                if is_ruled_fiber(nm, kind)
                else nm.replace(area=nm.area + delta)
                for nm in new_marks
            ]
        else:
            new_marks = [
                nm if nm.label != m.label else nm.replace(area=nm.area + delta)
                for nm in new_marks
            ]
    return AtomNode(Atom(kind, tuple(new_marks)))


def _check_shift_allowed(kind, marks, m: SurfaceMark) -> None:
    if isinstance(kind, EllipticSurface):
        if m.genus != 0:
            raise MarkError(
                f"area shifts on an elliptic surface apply to sections only, "
                f"not to the fiber mark {m.label!r}"
            )
    elif isinstance(kind, ProjectivePlane):
        if len(marks) > 1:
            raise MarkError(
                "cannot shift one CP^2 mark independently; use rescale"
            )
    elif isinstance(kind, ProjectivePlaneReversed):
        raise MarkError("reversed CP^2 has no marks to shift")


def shift_section_area(e: ManifoldExpr, mark: str, delta: AreaValue) -> ManifoldExpr:
    """Shift one atom-level mark's area (sections move together on a
    ruled surface)."""
    return apply_shifts(e, {mark: delta})


def split_ruled(
    w: AtomNode,
    plus_label: str,
    minus_label: str,
    cut_labels: tuple[str, str] = ("cut1", "cut2"),
    gluing: GluingChoice = STD_GLUE,
) -> PairSum:
    """Split a ruled surface with an even fiber area into the sum of two
    copies with half the fiber, cutting between the named disjoint
    sections G_k (plus) and G_-k (minus).  The outer sections of the sum
    reproduce the original marks exactly."""
    kind = w.atom.kind
    if not isinstance(kind, RuledSurface):
        raise MarkError("split applies to a ruled-surface atom")
    plus = w.mark(plus_label)
    minus = w.mark(minus_label)
    k = plus.normal_number
    if minus.normal_number != -k or k < 0:
        raise MarkError(
            f"split needs disjoint sections of opposite self-intersection, "
            f"got {plus.normal_number} and {minus.normal_number}"
        )
    extra = [m for m in w.atom.marks if m.label not in (plus_label, minus_label)]
    if any(not is_ruled_fiber(m, kind) for m in extra):
        raise MarkError("split tracks only the two named sections and fibers")
    if len(extra) > 1 or any(m.orthogonal_at for m in extra):
        raise MarkError("split carries at most one unpaired fiber mark")
    half = kind.fiber_area.scale(Fraction(1, 2))
    mid_area = minus.area + half.scale(k)
    if plus.area != mid_area + half.scale(k):
        raise AdmissibilityError(
            [Violation("area", plus.area, mid_area + half.scale(k))]
        )
    cut1, cut2 = cut_labels
    piece1 = make_ruled_atom(
        kind.genus,
        half,
        {minus_label: (-k, minus.area), cut1: (k, mid_area)},
        fibers={m.label + "^1": cut1 for m in extra},
    )
    piece2 = make_ruled_atom(
        kind.genus,
        half,
        {cut2: (-k, mid_area), plus_label: (k, plus.area)},
        fibers={m.label + "^2": cut2 for m in extra},
    )
    carry = None
    if extra:
        carry = extra[0].label
    return PairSum(piece1, cut1, piece2, cut2, gluing, carry_label=carry)
