"""regroup: re-associate across a middle summand with disjoint gluing
marks."""

from ..core import PairSum
from ..rewrite import EQ, RuleError, _halves, _pair, rule


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
