"""R6: rational blow-down of a -4 sphere arising from a -3 sphere."""

from __future__ import annotations

from ..areas import exact_str
from ..core import (
    AtomNode,
    BlowUp,
    Desing,
    ManifoldExpr,
    PairSum,
    ProjectivePlane,
    SurfaceMark,
)
from ..rewrite import WK, RuleError, _failed, rule


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
            raise _failed(f"i({blow.at_mark}) = -3: got {exact_str(s.normal_number)}")
        if s.genus != 0:
            raise _failed(f"g({blow.at_mark}) = 0: got {exact_str(s.genus)}")
        if sub.left_mark != blow.new_transform_label:
            raise RuleError("R6 expects the sum glued along the proper transform")
        # the quadric mark is (0, 4): PairSum admitted it against the transform, (0, -4)
        if not _is_plane_side(sub.right):
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
        raise _failed(f"i({s_lbl}) = -3: got {exact_str(s.normal_number)}")
    size = b.area("size")
    if size is None:
        raise RuleError("R6 (reverse) needs a blow-up size")
    q_lbl = b.label("quadric", "Q")
    tl = b.label("transform", s_lbl + "~")
    plane = AtomNode(ProjectivePlane(), (SurfaceMark(q_lbl, 0, 4, s.area - size),))
    new = PairSum(
        BlowUp(sub, s_lbl, size, tl, b.label("exceptional", "E")),
        tl,
        plane,
        q_lbl,
    )
    return new, WK, ["introduced a quadric sum undoing a blow-up"]


def _is_plane_side(e: ManifoldExpr) -> bool:
    if isinstance(e, AtomNode):
        return isinstance(e.kind, ProjectivePlane)
    if isinstance(e, Desing):
        return _is_plane_side(e.inner)
    return False
