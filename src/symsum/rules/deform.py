"""deform: explicit area deformation (rescale and/or shifts)."""

from ..rewrite import WK, RuleError, rule
from ..sums import rescale


@rule("deform")
def _deform(sub, b, rev):
    notes = []
    new = sub
    f = b.fraction("rescale")
    if f is not None:
        new = rescale(sub, f)
        notes.append(f"rescaled every area by {f}")
    if not notes and not b.has("shift1"):
        raise RuleError("deform needs a rescale factor or shift slots")
    return new, WK, notes
