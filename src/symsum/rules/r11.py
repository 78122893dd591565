"""R11: blowing up either section of a ruled pair gives diffeomorphic
results."""

from fractions import Fraction

from ..core import AtomNode, BlowUp, is_ruled_fiber
from ..rewrite import WK, RuleError, _expect, _require_ruled, rule
from ..sums import make_ruled_atom


@rule("R11")
def _r11(sub, b, rev):
    if not (
        isinstance(sub, BlowUp)
        and sub.at_mark is not None
        and isinstance(sub.inner, AtomNode)
    ):
        raise RuleError("R11 applies to a blown-up ruled-surface atom")
    kind = _require_ruled(sub.inner)
    sections = [m for m in sub.inner.marks if not is_ruled_fiber(m, kind)]
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
    if pre_lbl == sub.new_transform_label:
        raise RuleError(f"R11 expects a pre label other than the transform {pre_lbl}")
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
    # sanity: every old mark but the exceptional curve is still there,
    # with its (g, i); only the areas deform
    new_marks = {m.label: m for m in new.marks}
    for o in sub.marks:
        if o.label != sub.exceptional_label:
            m = new_marks.get(o.label)
            got = None if m is None else (m.genus, m.normal_number)
            _expect(got, (o.genus, o.normal_number), f"mark {o.label} keeps (g, i)")
    return new, WK, [
        f"moved the blow-up to the companion ruled surface: sections "
        f"{new_keep_idx}, {new_blown_idx}, blown at {pre_lbl}"
    ]
