"""R3r: the exact form of R3 through a double-fiber ruled surface."""

from ..areas import area
from ..core import AtomNode, Desing, PairSum, Thicken, Thin
from ..rewrite import EQ, RuleError, _expect, _require_ruled, rule
from ..sums import make_ruled_atom


@rule("R3r")
def _r3r(sub, b, rev):
    eps = b.area("eps", area(0, 1))
    glue_lbl = b.label("glue_section", "Gk")
    twin_lbl = b.label("twin_section", "Gk2")
    if not rev:
        if not (isinstance(sub, Thicken) and isinstance(sub.inner, Desing)):
            raise RuleError("R3r applies to a thickened desingularized pair")
        if sub.amount != eps:
            raise RuleError("eps binding must equal the thickening amount")
        des = sub.inner
        s = des.inner.mark(des.mark_s)
        t = des.inner.mark(des.mark_t)
        k = -s.normal_number
        resolved = sub.mark(des.result_label + "+")
        w = make_ruled_atom(
            s.genus,
            eps.scale(2),
            {
                glue_lbl: (k, s.area + eps.scale(k + 1)),
                twin_lbl: (2 - k, t.area + eps.scale(3 - k)),
            },
            pairs=((twin_lbl, glue_lbl),),
        )
        core_x = Thicken(Thin(des.inner, des.mark_s, eps), des.mark_t + "-", eps)
        carry_lbl = b.label("carry", des.result_label + "+")
        new = PairSum(w, glue_lbl, core_x, des.mark_s + "-+", carry_label=carry_lbl)
        got = new.mark(carry_lbl)
        claim = "carried mark equals the thickened resolved mark bitwise"
        _expect(got.data, resolved.data, claim)
        return new, EQ, [
            f"exact resolution: section areas {s.area + eps.scale(k + 1)} and "
            f"{t.area + eps.scale(3 - k)}, carried mark {got.area}"
        ]
    if not (isinstance(sub, PairSum) and isinstance(sub.left, AtomNode)):
        raise RuleError("R3r (reverse) expects the ruled surface summed on the left")
    _require_ruled(sub.left)
    inner = sub.right
    if not (isinstance(inner, Thicken) and isinstance(inner.inner, Thin)):
        raise RuleError("R3r (reverse) expects a thickened thinned triple")
    thin_node = inner.inner
    base = thin_node.inner
    s_lbl = thin_node.mark_label
    t_lbl = inner.mark_label[:-1]  # strip the thinning suffix
    des = Desing(base, s_lbl, t_lbl, b.label("resolve_label"))
    new = Thicken(des, des.result_label, inner.amount)
    return new, EQ, ["folded the exact resolution back into a thickening"]
