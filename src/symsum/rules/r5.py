"""R5: trading a blow-up point across a sum (deformation only)."""

from __future__ import annotations

from ..areas import area
from ..core import BlowUp, PairSum, SurfaceMark
from ..rewrite import WK, RuleError, _halves, _pair, rule
from ..sums import apply_shifts


def r5_inequalities(s: SurfaceMark, s_prime: SurfaceMark) -> tuple[str, str]:
    return (
        f"summing along ({s.label}, {s_prime.label}~) requires "
        f"area({s.label}) < area({s_prime.label}): {s.area} < {s_prime.area}",
        f"summing along ({s.label}~, {s_prime.label}) requires "
        f"area({s_prime.label}) < area({s.label})",
    )


@rule("R5")
def _r5(sub, b, rev):
    """Forward the right summand is blown up, reverse the left one; the
    blow-up moves to the other summand."""
    if not isinstance(sub, PairSum):
        raise RuleError("R5 applies to a pairwise sum")
    blown_side = 0 if rev else 1
    blow, glued = _halves(sub)[blown_side]
    x, s_lbl = _halves(sub)[1 - blown_side]
    if not (isinstance(blow, BlowUp) and blow.at_mark is not None):
        raise RuleError(
            "R5 (reverse) expects the left summand blown up"
            if rev
            else "R5 expects the right summand blown up along its mark"
        )
    if glued != blow.new_transform_label:
        raise RuleError(
            f"R5{' (reverse)' if rev else ''} expects the sum glued along the "
            "proper transform"
        )
    y, sp_lbl = blow.inner, blow.at_mark
    # g(S) = g(S') and i(S) = -i(S')+1: PairSum admitted S against the transform of S'
    s, sp = x.mark(s_lbl), y.mark(sp_lbl)
    size = b.area("new_size", blow.size)
    tl = b.label("transform", s_lbl + "~")
    el = b.label("exceptional", "E2")
    y_shift = (s.area - size) - sp.area
    y_new = apply_shifts(y, {sp_lbl: y_shift}) if y_shift != area(0) else y
    x_blown = BlowUp(x, s_lbl, size, tl, el)
    new = _pair(1 - blown_side, (x_blown, tl), (y_new, sp_lbl), sub.gluing)
    ineq_a, ineq_b = r5_inequalities(s, sp)
    size_note = "" if rev else f"exceptional size {blow.size} -> {size}, "
    return new, WK, [
        f"traded the blow-up point across the sum; {size_note}"
        f"area({sp_lbl}) deformed by {y_shift}",
        "equal areas on both sides are impossible: " + ineq_a + "; " + ineq_b,
    ]
