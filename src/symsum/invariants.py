"""Euler characteristic and signature bookkeeping.

These two integers are the independent consistency oracle of the whole
calculus: every rewrite must preserve them exactly.  The rules are the
standard ones: the sum along a genus-g surface has
chi = chi_1 + chi_2 - 2*(2-2g) and additive signature, a blow-up adds
(+1, -1), and thickening/thinning/desingularizing change nothing.
"""

from __future__ import annotations

from .core import (
    Atom,
    AtomNode,
    BlowUp,
    Desing,
    EllipticSurface,
    FourSum,
    ManifoldExpr,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SymsumError,
    Thicken,
    Thin,
    fill_memo,
)
from .record import Frozen, set_field


class InvariantVector(Frozen):
    def __init__(self, euler: int, signature: int):
        set_field(self, "euler", euler)
        set_field(self, "signature", signature)

    def __add__(self, other: "InvariantVector") -> "InvariantVector":
        return InvariantVector(self.euler + other.euler, self.signature + other.signature)

    def __str__(self) -> str:
        return f"chi={self.euler} sigma={self.signature}"


CP2 = InvariantVector(3, 1)
CP2_REVERSED = InvariantVector(3, -1)


def connected_sum(a: InvariantVector, b: InvariantVector) -> InvariantVector:
    return InvariantVector(a.euler + b.euler - 2, a.signature + b.signature)


def atom_invariants(a: Atom) -> InvariantVector:
    k = a.kind
    if isinstance(k, ProjectivePlane):
        return CP2
    if isinstance(k, ProjectivePlaneReversed):
        return CP2_REVERSED
    if isinstance(k, RationalSurface):
        return InvariantVector(3 + k.blowups, 1 - k.blowups)
    if isinstance(k, EllipticSurface):
        return InvariantVector(12 * k.n, -8 * k.n)
    if isinstance(k, RuledSurface):
        return InvariantVector(4 - 4 * k.genus, 0)
    raise SymsumError(f"unknown atom kind {k!r}")


def _fiber_sum(a: InvariantVector, b: InvariantVector, genus: int) -> InvariantVector:
    return InvariantVector(
        a.euler + b.euler - 2 * (2 - 2 * genus), a.signature + b.signature
    )


def expr_invariants(e: ManifoldExpr) -> InvariantVector:
    """chi and sigma of the expression, memoized per node and computed
    bottom-up from the children's, without recursion."""
    if e._inv is None:
        fill_memo(e, "_inv", _node_invariants)
    return e._inv


def _node_invariants(e: ManifoldExpr) -> InvariantVector:
    # every child's invariants are memoized already
    if isinstance(e, AtomNode):
        return atom_invariants(e.atom)
    if isinstance(e, PairSum):
        return _fiber_sum(e.left._inv, e.right._inv, e.glue_genus)
    if isinstance(e, FourSum):
        # the entries are done, so this only visits the three new sums
        return expr_invariants(e.evaluated())
    if isinstance(e, BlowUp):
        inner = e.inner._inv
        return InvariantVector(inner.euler + 1, inner.signature - 1)
    if isinstance(e, (Thin, Thicken, Desing)):
        return e.inner._inv
    raise SymsumError(f"unknown expression node {type(e).__name__}")


def en_inductive_invariants(n: int) -> InvariantVector:
    """Invariants of E(n) computed from the inductive definition
    E(n) = E(n-1) summed with E(1) along a torus fiber, never from the
    closed-form catalog.  The base E(1) is CP^2 with nine reversed
    connected summands."""
    if n < 2:
        raise SymsumError("inductive definition needs n >= 2")
    e1 = CP2
    for _ in range(9):
        e1 = connected_sum(e1, CP2_REVERSED)
    result = e1
    for _ in range(n - 1):
        result = _fiber_sum(result, e1, genus=1)
    return result
