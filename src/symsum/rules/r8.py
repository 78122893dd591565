"""R8: trading a collar across a gluing by thinning one side and
thickening the other."""

from ..core import PairSum, Thicken, Thin
from ..rewrite import EQ, RuleError, _expect, rule


@rule("R8")
def _r8(sub, b, rev):
    if not isinstance(sub, PairSum):
        raise RuleError("R8 applies to a pairwise sum")
    if not rev:
        eps = b.area("eps")
        if eps is None:
            raise RuleError("R8 needs the amount to trade (slot eps)")
        thin_side = Thin(sub.left, sub.left_mark, eps)
        thick_side = Thicken(sub.right, sub.right_mark, eps)
        new = PairSum(
            thin_side,
            sub.left_mark + "-",
            thick_side,
            sub.right_mark + "+",
            sub.gluing,
            carry_label=b.label("carry"),
        )
        if sub.carried is not None:
            old_carry = sub.mark(sub.carried)
            new_carry = new.mark(new.carried)
            _expect(new_carry.data, old_carry.data, "carried mark survives the trade bitwise")
        return new, EQ, [
            f"traded a collar of size {eps} across the gluing "
            f"({sub.left_mark} thinned, {sub.right_mark} thickened)"
        ]
    if not (isinstance(sub.left, Thin) and isinstance(sub.right, Thicken)):
        raise RuleError("R8 (reverse) expects a thinned left and thickened right")
    if sub.left.amount != sub.right.amount:
        raise RuleError("R8 (reverse) needs equal thinning and thickening amounts")
    new = PairSum(
        sub.left.inner,
        sub.left.mark_label,
        sub.right.inner,
        sub.right.mark_label,
        sub.gluing,
        carry_label=b.label("carry"),
    )
    return new, EQ, ["removed a traded collar"]
