"""R7: blow-down as a sum with the plane along a line."""

from __future__ import annotations

from ..areas import exact_str
from ..core import (
    AtomNode,
    BlowUp,
    EllipticSurface,
    PairSum,
    ProjectivePlane,
    RationalSurface,
    rename,
)
from ..rewrite import EQ, WK, RuleError, _expect, rule
from ..sums import blow_down


@rule("R7")
def _r7(sub, b, rev):
    if not rev:
        if not isinstance(sub, PairSum):
            raise RuleError("R7 applies to a pairwise sum")
        plane = sub.right
        if not (isinstance(plane, AtomNode) and isinstance(plane.kind, ProjectivePlane)):
            raise RuleError("R7 expects a plane as the right summand")
        lines = plane.marks
        if len(lines) != 2 or any(m.normal_number != 1 for m in lines):
            raise RuleError("R7 expects the plane to carry exactly two lines")
        # the glued mark is (0, -1): PairSum admitted it against a CP2 line, which is (0, 1)
        if isinstance(sub.left, BlowUp) and sub.left.exceptional_label == sub.left_mark:
            # exact inverse of the blow-up
            blow = sub.left
            if blow.at_mark is not None and blow.pair_exceptional:
                if sub.carried is None:
                    raise RuleError(
                        "R7 expects the plane's lines to be orthogonally paired, "
                        "so that the sum carries the transform"
                    )
                restored = sub.mark(sub.carried)
                original = blow.inner.mark(blow.at_mark)
                _expect(
                    restored.data, original.data,
                    "carried transform#line equals the original mark bitwise",
                )
            return blow.inner, EQ, ["blow-down undoes the blow-up exactly"]
        if isinstance(sub.left, AtomNode):
            return _r7_fold_atom(sub, b)
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
    lines = (b.label("line1", "L1"), b.label("line2", "L2"))
    new = blow_down(blown, el, lines, carry_label=b.label("carry"))
    return new, EQ, ["expressed a blow-up/blow-down pair as a plane sum"]


def _r7_fold_atom(sub: PairSum, b):
    kind = sub.left.kind
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
    if result_label and sub.carried is not None:
        relabel[sub.carried] = result_label
    marks = tuple(
        m.replace(
            label=rename(relabel, m.label),
            orthogonal_at=rename(relabel, m.orthogonal_at),
        )
        for m in sub.marks
    )
    new = AtomNode(new_kind, marks)
    notes = [
        f"blow-down of {sub.left_mark} folds the summand into a plane with "
        f"{exact_str(new_kind.blowups)} reversed summands"
    ]
    return new, WK, notes, relabel
