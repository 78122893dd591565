"""Atom catalog validation: mark constraints per atom kind."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import positive_fractions
from symsum.areas import area
from symsum.core import (
    Atom,
    EllipticSurface,
    MarkError,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
    validate_ruled,
)


def test_validate_ruled_genus_one_negative_section():
    assert validate_ruled(1, -3, area(1), area(0, 1))


def test_validate_ruled_genus_zero_odd_boundary_rejected():
    # g = 0 and k odd needs area strictly above (k+1) eps / 2
    assert not validate_ruled(0, 1, area(0, 1), area(0, 1))


def test_validate_ruled_trivial_positive():
    assert validate_ruled(0, 0, area(1), area(0, 1))


def test_validate_ruled_needs_positive_fiber():
    with pytest.raises(MarkError):
        validate_ruled(0, 0, area(1), area(0, 0))


def test_elliptic_marks():
    Atom(
        EllipticSurface(3),
        (
            SurfaceMark("S", 0, -3, area(1), "F"),
            SurfaceMark("F", 1, 0, area(1), "S"),
        ),
    )
    with pytest.raises(MarkError):
        Atom(EllipticSurface(3), (SurfaceMark("S", 0, -2, area(1)),))


def test_elliptic_allows_extra_fibers():
    Atom(
        EllipticSurface(2),
        (
            SurfaceMark("S", 0, -2, area(2), "F"),
            SurfaceMark("F", 1, 0, area(1), "S"),
            SurfaceMark("F2", 1, 0, area(1)),
        ),
    )


def test_plane_degree_shadows():
    Atom(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, area(1), "L2"),
            SurfaceMark("L2", 0, 1, area(1), "L1"),
            SurfaceMark("Q", 0, 4, area(2)),
        ),
    )
    with pytest.raises(MarkError):
        Atom(ProjectivePlane(), (SurfaceMark("bad", 0, 2, area(1)),))


def test_plane_areas_proportional_to_degree():
    with pytest.raises(MarkError):
        Atom(
            ProjectivePlane(),
            (
                SurfaceMark("L1", 0, 1, area(1)),
                SurfaceMark("Q", 0, 4, area(3)),
            ),
        )


def test_plane_line_quadric_cannot_pair():
    with pytest.raises(MarkError):
        Atom(
            ProjectivePlane(),
            (
                SurfaceMark("L1", 0, 1, area(1), "Q"),
                SurfaceMark("Q", 0, 4, area(2), "L1"),
            ),
        )


def test_reversed_plane_carries_no_marks():
    Atom(ProjectivePlaneReversed(), ())
    with pytest.raises(MarkError):
        Atom(ProjectivePlaneReversed(), (SurfaceMark("E", 0, -1, area(1)),))


def test_pairing_must_be_symmetric():
    with pytest.raises(MarkError):
        Atom(
            RationalSurface(1),
            (
                SurfaceMark("A", 0, 1, area(1), "B"),
                SurfaceMark("B", 0, -1, area(1)),
            ),
        )


def test_duplicate_labels_rejected():
    with pytest.raises(MarkError):
        Atom(
            RationalSurface(1),
            (SurfaceMark("A", 0, 1, area(1)), SurfaceMark("A", 0, 2, area(2))),
        )


def test_ruled_section_spread_enforced():
    fiber = area(0, 1)
    Atom(
        RuledSurface(0, 1, fiber),
        (
            SurfaceMark("G-1", 0, -1, area(1)),
            SurfaceMark("G1", 0, 1, area(1, 1)),
        ),
    )
    with pytest.raises(MarkError):
        Atom(
            RuledSurface(0, 1, fiber),
            (
                SurfaceMark("G-1", 0, -1, area(1)),
                SurfaceMark("G1", 0, 1, area(1, 2)),
            ),
        )


def _first_spread_failure(fiber, sections):
    """The message of the first ordered pair of sections, in the order of
    a nested loop over all pairs, whose areas do not differ by the spread."""
    for a in sections:
        for b in sections:
            spread = fiber.scale(Fraction(a.normal_number - b.normal_number, 2))
            if a.area - b.area != spread:
                return (
                    f"sections {a.label}, {b.label}: areas must differ by "
                    f"{spread}, got {a.area - b.area}"
                )
    return None


@pytest.mark.parametrize("off", [(-1,), (1,), (3, -3)])
def test_ruled_spread_reports_the_first_failing_pair(off):
    fiber = area(0, 1)
    for labels in permutations("ABCD"):  # atoms keep their marks by label
        sections = sorted(
            (
                SurfaceMark(label, 0, k, area(1, Fraction(k, 2) + (k in off)))
                for label, k in zip(labels, (3, 1, -1, -3))
            ),
            key=lambda m: m.label,
        )
        with pytest.raises(MarkError) as exc:
            Atom(RuledSurface(0, 3, fiber), tuple(sections))
        assert str(exc.value) == _first_spread_failure(fiber, sections)


def test_ruled_parity_and_twist_bound():
    fiber = area(0, 1)
    with pytest.raises(MarkError):
        Atom(RuledSurface(0, 2, fiber), (SurfaceMark("G1", 0, 1, area(1)),))
    with pytest.raises(MarkError):
        Atom(RuledSurface(0, 1, fiber), (SurfaceMark("G3", 0, 3, area(1)),))


def test_ruled_paired_sections_must_meet_once():
    fiber = area(0, 1)
    Atom(
        RuledSurface(0, 3, fiber),
        (
            SurfaceMark("G3", 0, 3, area(1), "G-1"),
            SurfaceMark("G-1", 0, -1, area(1, -2), "G3"),
        ),
    )
    with pytest.raises(MarkError):
        Atom(
            RuledSurface(0, 3, fiber),
            (
                SurfaceMark("G3", 0, 3, area(1), "G-3"),
                SurfaceMark("G-3", 0, -3, area(1, -3), "G3"),
            ),
        )


@given(
    g=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=-6, max_value=6),
    a=positive_fractions,
    f=positive_fractions,
)
def test_underfed_section_unconstructible(g, k, a, f):
    """Sections violating the area bound can never be built."""
    fiber = area(0, f)
    sect = area(a)
    kind = RuledSurface(g, max(abs(k), 2 - (k % 2)), fiber)
    ok = validate_ruled(g, k, sect, fiber)
    try:
        Atom(kind, (SurfaceMark("G", g, k, sect),))
        built = True
    except MarkError:
        built = False
    assert built == ok


def test_genus_negative_rejected():
    with pytest.raises(MarkError):
        SurfaceMark("S", -1, 0, area(1))


def test_nonpositive_area_rejected():
    with pytest.raises(MarkError):
        SurfaceMark("S", 0, 0, area(0, 0))
