"""R3 / R3b: resolving an intersection point by summing with a ruled
surface."""

from __future__ import annotations

from ..areas import area, exact_str
from ..core import AtomNode, Desing, PairSum
from ..rewrite import (
    WK,
    RuleError,
    _halves,
    _pair,
    _partner_label,
    _require_ruled,
    rule,
)
from ..sums import _neutral_w


def _resolve_rule(name: str, w_side: int, glue_default: str, twin_default: str):
    """R3 (w_side 0) sums the ruled surface onto S from the left; R3b
    (w_side 1) is its mirror image, summing onto T from the right."""

    @rule(name)
    def handler(sub, b, rev):
        fiber = b.area("fiber", area(0, 1))
        glue_lbl = b.label("glue_section", glue_default)
        twin_lbl = b.label("twin_section", twin_default)
        if not rev:
            if not isinstance(sub, Desing):
                raise RuleError(f"{name} applies to a desingularized pair")
            glued = (sub.mark_s, sub.mark_t)[w_side]
            m = sub.inner.mark(glued)
            j = -m.normal_number  # the glued section's index; its twin's is 2 - j
            w = _neutral_w(
                m.genus, fiber, j, m.area, 2 - j, (glue_lbl, twin_lbl),
                pairs=((twin_lbl, glue_lbl),),
            )
            new = _pair(
                w_side, (w, glue_lbl), (sub.inner, glued),
                carry_label=b.label("carry", sub.result_label),
            )
            return new, WK, [
                f"resolved {sub.mark_s}+{sub.mark_t} through a genus-{exact_str(m.genus)} "
                f"ruled surface with sections {j} and {2 - j}"
            ]
        halves = _halves(sub) if isinstance(sub, PairSum) else None
        if halves is None or not isinstance(halves[w_side][0], AtomNode):
            raise RuleError(
                f"{name} (reverse) expects a ruled surface summed on the "
                + ("left", "right")[w_side]
            )
        _require_ruled(halves[w_side][0])
        x, glued = halves[1 - w_side]
        partner = _partner_label(x, glued)
        s_lbl, t_lbl = (partner, glued) if w_side else (glued, partner)
        new = Desing(x, s_lbl, t_lbl, b.label("resolve_label"))
        return new, WK, ["folded the ruled summand back into an intersection point"]


_resolve_rule("R3", 0, "Gk", "Gk2")
_resolve_rule("R3b", 1, "Gk2", "Gk")
