"""R9: the inductive structure of the elliptic surfaces."""

from ..areas import area, exact_str
from ..core import AtomNode, EllipticSurface, PairSum, SurfaceMark
from ..rewrite import WK, RuleError, rule


@rule("R9")
def _r9(sub, b, rev):
    if not rev:
        if not (isinstance(sub, AtomNode) and isinstance(sub.kind, EllipticSurface)):
            raise RuleError("R9 applies to an elliptic-surface atom")
        n = sub.kind.n
        if n < 2:
            raise RuleError("the inductive step needs n >= 2")
        sections = [m for m in sub.marks if m.genus == 0]
        fibers = [m for m in sub.marks if m.genus == 1]
        if len(sections) != 1:
            raise RuleError("R9 expects exactly one section mark to split")
        sec = sections[0]
        fiber = b.area("fiber", area(1))
        lsa = b.area("left_section_area")
        if lsa is None:
            raise RuleError("R9 needs the left section area (slot left_section_area)")
        rsa = sec.area - lsa
        ls = b.label("left_section", "Sigma-" + exact_str(n - 1))
        rs_lbl = b.label("right_section", "Sigma-1")
        lf = b.label("left_fiber", "F" + exact_str(n - 1))
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
        left = AtomNode(EllipticSurface(n - 1), tuple(left_marks))
        right = AtomNode(EllipticSurface(1), right_marks)
        carry = b.label("carry", sec.label)
        pairs = ()
        if sec.orthogonal_at is not None:
            pairs = ((carry, sec.orthogonal_at),)
        new = PairSum(left, lf, right, rf, carry_label=carry, pairs=pairs)
        return new, WK, [
            f"split E({exact_str(n)}) into E({exact_str(n - 1)}) and E(1) along a fiber; section "
            f"areas {lsa} + {rsa}"
        ]
    if not isinstance(sub, PairSum):
        raise RuleError("R9 (reverse) applies to a pairwise sum")
    left, right = sub.left, sub.right
    if not (
        isinstance(left, AtomNode)
        and isinstance(right, AtomNode)
        and isinstance(left.kind, EllipticSurface)
        and isinstance(right.kind, EllipticSurface)
        and right.kind.n == 1
    ):
        raise RuleError("R9 (reverse) expects E(m) summed with E(1) along fibers")
    m = left.kind.n
    marks = tuple(sub.marks)
    new = AtomNode(EllipticSurface(m + 1), marks)
    return new, WK, [f"folded the fiber sum into E({exact_str(m + 1)})"]
