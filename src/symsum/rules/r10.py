"""R10: a ruled surface with a doubled fiber splits into two copies."""

from ..core import AtomNode, PairSum, RuledSurface, is_ruled_fiber
from ..rewrite import EQ, RuleError, _expect_same_marks, _require_ruled, rule
from ..sums import min_twist, split_ruled


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
        if is_ruled_fiber(m, k1):  # a fiber of the halves
            marks.append(m.replace(area=doubled, orthogonal_at=None))
        else:
            marks.append(m.replace(orthogonal_at=None))
    twist = min_twist(*(m.normal_number for m in marks if m.genus == k1.genus))
    new = AtomNode(RuledSurface(k1.genus, twist, doubled), tuple(marks))
    _expect_same_marks(new, sub, "merged atom reproduces the sum's marks bitwise")
    return new, EQ, ["merged two half-fiber ruled copies"]
