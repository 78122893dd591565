"""Euler characteristic and signature bookkeeping."""

import pytest

from symsum.areas import area
from symsum.core import (
    AtomNode,
    EllipticSurface,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
)
from symsum.invariants import (
    InvariantVector,
    atom_invariants,
    en_inductive_invariants,
    expr_invariants,
)
from symsum.sums import make_ruled_atom


def _atom(kind, *marks):
    return AtomNode(kind, marks)


def test_catalog_values():
    assert atom_invariants(AtomNode(ProjectivePlane())) == InvariantVector(3, 1)
    assert atom_invariants(AtomNode(ProjectivePlaneReversed())) == InvariantVector(3, -1)
    assert atom_invariants(AtomNode(RationalSurface(9))) == InvariantVector(12, -8)
    assert atom_invariants(AtomNode(RationalSurface(8))) == InvariantVector(11, -7)
    assert atom_invariants(AtomNode(EllipticSurface(4))) == InvariantVector(48, -32)
    assert atom_invariants(
        AtomNode(RuledSurface(1, 2, area(0, 1)))
    ) == InvariantVector(0, 0)


def test_e4_plane_sum():
    e4 = _atom(EllipticSurface(4), SurfaceMark("S4", 0, -4, area(2)))
    p = _atom(ProjectivePlane(), SurfaceMark("Q", 0, 4, area(2)))
    s = PairSum(e4, "S4", p, "Q")
    assert expr_invariants(s) == InvariantVector(47, -31)


def test_torus_sum_with_y():
    # gluing along genus-1 marks subtracts nothing from chi
    x = _atom(RationalSurface(0), SurfaceMark("T-1", 1, -1, area(2)))
    y = _atom(RationalSurface(8), SurfaceMark("T1", 1, 1, area(2)))
    s = PairSum(x, "T-1", y, "T1")
    assert expr_invariants(s) == InvariantVector(3 + 11, 1 - 7)


def test_gompf_stipsicz_desk_check():
    """Both sides of the headline equivalence hit (47, -31)."""
    e4_side = InvariantVector(48, -32) + InvariantVector(3, 1)
    e4_side = InvariantVector(e4_side.euler - 2 * (2 - 0), e4_side.signature)
    e3_side = InvariantVector(36, -24) + InvariantVector(11, -7)
    assert e4_side == InvariantVector(47, -31)
    assert e3_side == InvariantVector(47, -31)


def test_neutral_ruled_summand_changes_nothing():
    e3 = _atom(
        EllipticSurface(3),
        SurfaceMark("S", 0, -3, area(1), "F"),
        SurfaceMark("F", 1, 0, area(1), "S"),
    )
    w = make_ruled_atom(
        0, area(0, 1), {"G3": (3, area(1)), "G-3": (-3, area(1, -3))}
    )
    s = PairSum(w, "G3", e3, "S")
    assert expr_invariants(s) == expr_invariants(e3)


def test_inductive_base_cases():
    assert en_inductive_invariants(2) == InvariantVector(24, -16)
    assert en_inductive_invariants(3) == InvariantVector(36, -24)
    assert en_inductive_invariants(4) == InvariantVector(48, -32)


def test_inductive_matches_catalog():
    for n in range(2, 9):
        assert en_inductive_invariants(n) == atom_invariants(
            AtomNode(EllipticSurface(n))
        )


def test_inductive_needs_two():
    with pytest.raises(Exception):
        en_inductive_invariants(1)
