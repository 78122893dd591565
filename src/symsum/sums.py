"""Constructive operations of the calculus beyond the node constructors:
the 4-fold sum of four triples, blow-down, the explicit form of a
thickening, rescaling, area shifts, and the splitting of a ruled surface
into two thinner copies."""

from __future__ import annotations

from fractions import Fraction
from operator import is_
from typing import Optional

from .areas import AreaValue, exact_str
from .core import (
    AdmissibilityError,
    AtomNode,
    FourSum,
    GluingChoice,
    ManifoldExpr,
    MarkError,
    PairSum,
    ProjectivePlane,
    QuadEntry,
    RuledSurface,
    STD_GLUE,
    SurfaceMark,
    Violation,
    is_ruled_fiber,
)


def fourfold_sum(
    quad: tuple[QuadEntry, ...],
    gluings: tuple[GluingChoice, ...] = (STD_GLUE,) * 4,
) -> FourSum:
    """The 4-fold sum of the four triples (expr, S, T) of `quad`."""
    if len(quad) != 4:
        raise MarkError("a 4-fold sum needs exactly four triples")
    return FourSum(*(v for triple in quad for v in triple), tuple(gluings))


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
            f"got g={exact_str(ex.genus)}, i={exact_str(ex.normal_number)})"
        )
    l1, l2 = line_labels
    plane = AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark(l1, 0, 1, ex.area, l2),
            SurfaceMark(l2, 0, 1, ex.area, l1),
        ),
    )
    return PairSum(e, exceptional, plane, l1, gluing, carry_label=carry_label)


def min_twist(*indices: int) -> int:
    """Smallest ruled-surface twist carrying sections of the given
    self-intersections (all of one parity)."""
    if not indices:
        raise MarkError("the least twist needs at least one section")
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
) -> AtomNode:
    """Ruled-surface atom of the least twist with the given sections
    {label: (k, area)} and fiber marks {label: partner-or-None}; `pairs`
    orthogonally pairs two sections."""
    twist = min_twist(*(k for k, _ in sections.values()))
    fibers = fibers or {}
    paired: dict[str, str] = {}
    for a, b in (*pairs, *fibers.items()):
        if b is not None:
            paired[a], paired[b] = b, a
    marks = [SurfaceMark(s, genus, k, a, paired.get(s)) for s, (k, a) in sections.items()]
    marks += [SurfaceMark(f, 0, 0, fiber_area, paired.get(f)) for f in fibers]
    return AtomNode(RuledSurface(genus, twist, fiber_area), tuple(marks))


def _neutral_w(g, fiber, glue_idx, glue_area, twin_idx, labels, pairs=(), fibers=None):
    """The ruled atom with the given fiber area and two sections, the
    glued one and its twin, whose area follows from their indices."""
    glue_lbl, twin_lbl = labels
    twin_area = glue_area + fiber.scale(Fraction(twin_idx - glue_idx, 2))
    return make_ruled_atom(
        g,
        fiber,
        {glue_lbl: (glue_idx, glue_area), twin_lbl: (twin_idx, twin_area)},
        fibers=fibers,
        pairs=pairs,
    )


def rescale(e: ManifoldExpr, factor: Fraction) -> ManifoldExpr:
    """Multiply every area in the subtree (marks, fiber areas, blow-up
    sizes, thickening amounts) by a positive rational."""
    f = Fraction(factor)
    if f <= 0:
        raise MarkError(f"rescale factor must be positive, got {f}")
    return _map_areas(e, lambda a: a.scale(f))


def _map_areas(e: ManifoldExpr, fn) -> ManifoldExpr:
    def atom(a: AtomNode) -> AtomNode:
        marks = tuple(m.replace(area=fn(m.area)) for m in a.marks)
        return AtomNode(a.kind.scaled(fn), marks)

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
    hits = [m for m in e.marks if m.label in remaining]
    if not hits:
        return e
    new_marks = list(e.marks)
    kind = e.kind
    for m in hits:
        new_marks = kind.shifted(new_marks, m, remaining.pop(m.label))
    return AtomNode(kind, tuple(new_marks))


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
    kind = w.kind
    if not isinstance(kind, RuledSurface):
        raise MarkError("split applies to a ruled-surface atom")
    plus = w.mark(plus_label)
    minus = w.mark(minus_label)
    k = plus.normal_number
    if minus.normal_number != -k or k < 0:
        raise MarkError(
            f"split needs disjoint sections of opposite self-intersection, "
            f"got {exact_str(plus.normal_number)} and {exact_str(minus.normal_number)}"
        )
    extra = [m for m in w.marks if m.label not in (plus_label, minus_label)]
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
    piece1 = _neutral_w(
        kind.genus, half, -k, minus.area, k, (minus_label, cut1),
        fibers={m.label + "^1": cut1 for m in extra},
    )
    piece2 = _neutral_w(
        kind.genus, half, -k, mid_area, k, (cut2, plus_label),
        fibers={m.label + "^2": cut2 for m in extra},
    )
    carry = None
    if extra:
        carry = extra[0].label
    return PairSum(piece1, cut1, piece2, cut2, gluing, carry_label=carry)
