"""R1: the 4-fold sum is invariant under cyclic permutation."""

from __future__ import annotations

from ..core import FourSum, PairSum, STD_GLUE
from ..rewrite import EQ, RuleError, rule
from ..sums import fourfold_sum


@rule("R1")
def _r1(sub, b, rev):
    if isinstance(sub, FourSum):
        r = b.integer("rotate", 1)
        if rev:
            r = -r
        r %= 4
        new = fourfold_sum(
            sub.entries[r:] + sub.entries[:r], sub.gluings[r:] + sub.gluings[:r]
        )
        return new, EQ, [f"rotated the four summands by {r}"]
    if isinstance(sub, PairSum) and isinstance(sub.left, PairSum) and isinstance(
        sub.right, PairSum
    ):
        grand = _grand_of_nested(sub)
        if (sub.left_mark, sub.right_mark) != (sub.left.carried, sub.right.carried):
            raise RuleError("R1 expects the grand sum glued along the carried marks")
        r = b.integer("rotate", 3)
        if rev:
            r = -r
        r %= 4
        return grand.evaluated(r), EQ, [f"regrouped the grand sum, starting at summand {r + 1}"]
    raise RuleError("R1 applies to a 4-fold sum or a sum of two pairwise sums")


def _grand_of_nested(sub: PairSum) -> FourSum:
    """The four-fold sum of the four summands of `sub`, in their order,
    that the two inner sums glue along their carried marks' partners."""
    inner1, inner2 = sub.left, sub.right
    quad = []
    for ps in (inner1, inner2):
        lp = ps.left.mark(ps.left_mark).orthogonal_at
        rp = ps.right.mark(ps.right_mark).orthogonal_at
        if lp is None or rp is None:
            raise RuleError("grand-sum form needs carried marks on both inner sums")
        quad.append((ps.left, lp, ps.left_mark))
        quad.append((ps.right, ps.right_mark, rp))
    return fourfold_sum(quad, (inner1.gluing, sub.gluing, inner2.gluing, STD_GLUE))
