"""R4: a ruled surface is a neutral summand (plain and blow-up localized)."""

from __future__ import annotations

from ..areas import area, exact_str
from ..core import AtomNode, BlowUp, PairSum, RuledSurface, is_ruled_fiber
from ..rewrite import WK, RuleError, _halves, rule
from ..sums import _neutral_w


@rule("R4")
def _r4(sub, b, rev):
    fiber = b.area("fiber", area(0, 1))
    glue_lbl = b.label("glue_section", "Gn")
    twin_lbl = b.label("twin_section", "G-n")
    fiber_lbl = b.label("fiber_mark", "Fw")
    if not rev:
        if isinstance(sub, BlowUp) and sub.at_mark is not None:
            return _r4_localized_forward(sub, b, fiber, glue_lbl, twin_lbl)
        s_lbl = b.label("s")
        if s_lbl is None:
            raise RuleError("R4 needs the mark to sum along (slot s)")
        s = sub.mark(s_lbl)
        k = -s.normal_number
        fibers = {fiber_lbl: glue_lbl} if s.orthogonal_at else None
        w = _neutral_w(
            s.genus, fiber, k, s.area, -k, (glue_lbl, twin_lbl), fibers=fibers
        )
        carry = b.label("carry")
        new = PairSum(w, glue_lbl, sub, s_lbl, carry_label=carry)
        return new, WK, [
            f"inserted a neutral genus-{exact_str(s.genus)} ruled summand along {s_lbl}"
        ]
    # reverse: strip a neutral ruled summand (possibly blown up)
    if not isinstance(sub, PairSum):
        raise RuleError("R4 (reverse) applies to a pairwise sum")
    halves = _halves(sub)
    for (side, side_glue), (other, other_glue) in (halves, halves[::-1]):
        if isinstance(side, AtomNode) and isinstance(side.kind, RuledSurface):
            _check_neutral_shape(side, side_glue)
            return other, WK, ["removed a neutral ruled summand"]
        if (
            isinstance(side, BlowUp)
            and isinstance(side.inner, AtomNode)
            and isinstance(side.inner.kind, RuledSurface)
            and side.at_mark is not None
        ):
            _check_neutral_shape(side.inner, side_glue)
            new = BlowUp(
                other,
                other_glue,
                side.size,
                side.transform_label,
                side.exceptional_label,
            )
            return new, WK, [
                f"localized the blow-up of size {side.size} back onto "
                f"{other_glue}"
            ]
    raise RuleError("R4 (reverse) expects a ruled summand on one side")


def _check_neutral_shape(w: AtomNode, glue_label: str) -> None:
    """The ruled summand must consist of two sections of opposite
    self-intersection (one of them glued) plus at most fiber marks."""
    kind = w.kind
    sections = [m for m in w.marks if not is_ruled_fiber(m, kind)]
    if len(sections) != 2:
        raise RuleError("neutral ruled summand needs exactly two sections")
    a, b = sections
    if a.normal_number + b.normal_number != 0:
        raise RuleError(
            "neutral ruled summand needs sections of opposite self-intersection"
        )
    if glue_label not in (a.label, b.label):
        raise RuleError("the gluing mark must be one of the two sections")


def _r4_localized_forward(sub: BlowUp, b, fiber, glue_lbl, twin_lbl):
    s = sub.inner.mark(sub.at_mark)
    if s.orthogonal_at is not None:
        raise RuleError(
            "localized neutral insertion needs an unpaired blown mark"
        )
    c = -s.normal_number
    w = _neutral_w(s.genus, fiber, c, s.area, -c, (glue_lbl, twin_lbl))
    w_blown = BlowUp(
        w, twin_lbl, sub.size, sub.new_transform_label, sub.exceptional_label
    )
    new = PairSum(sub.inner, sub.at_mark, w_blown, glue_lbl)
    return new, WK, [
        f"localized the blow-up of {sub.at_mark} into a neutral ruled summand"
    ]
