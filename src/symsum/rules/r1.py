"""R1: the 4-fold sum is invariant under cyclic permutation."""

from __future__ import annotations

from ..core import AdmissibilityError, FourSum, PairSum, STD_GLUE, fourfold_violations
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
        quad, gluings = _quad_of_nested(sub)
        r = b.integer("rotate", 3)
        if rev:
            r = -r
        r %= 4
        rot = quad[r:] + quad[:r]
        grot = gluings[r:] + gluings[:r]
        new = fourfold_sum(rot, grot).evaluated()
        return new, EQ, [f"regrouped the grand sum, starting at summand {r + 1}"]
    raise RuleError("R1 applies to a 4-fold sum or a sum of two pairwise sums")


def _quad_of_nested(sub: PairSum):
    inner1, inner2 = sub.left, sub.right
    quad = []
    for ps in (inner1, inner2):
        lp = ps.left.mark(ps.left_mark).orthogonal_at
        rp = ps.right.mark(ps.right_mark).orthogonal_at
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
