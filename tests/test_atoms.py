"""Atom catalog validation: mark constraints per atom kind."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import (
    area_values,
    genera,
    normal_numbers,
    positive_areas,
    positive_fractions,
)
from symsum.areas import area
from symsum.core import (
    AtomNode,
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
    AtomNode(
        EllipticSurface(3),
        (
            SurfaceMark("S", 0, -3, area(1), "F"),
            SurfaceMark("F", 1, 0, area(1), "S"),
        ),
    )
    with pytest.raises(MarkError):
        AtomNode(EllipticSurface(3), (SurfaceMark("S", 0, -2, area(1)),))


def test_elliptic_allows_extra_fibers():
    AtomNode(
        EllipticSurface(2),
        (
            SurfaceMark("S", 0, -2, area(2), "F"),
            SurfaceMark("F", 1, 0, area(1), "S"),
            SurfaceMark("F2", 1, 0, area(1)),
        ),
    )


def test_plane_degree_shadows():
    AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, area(1), "L2"),
            SurfaceMark("L2", 0, 1, area(1), "L1"),
            SurfaceMark("Q", 0, 4, area(2)),
        ),
    )
    with pytest.raises(MarkError):
        AtomNode(ProjectivePlane(), (SurfaceMark("bad", 0, 2, area(1)),))


def test_plane_areas_proportional_to_degree():
    with pytest.raises(MarkError):
        AtomNode(
            ProjectivePlane(),
            (
                SurfaceMark("L1", 0, 1, area(1)),
                SurfaceMark("Q", 0, 4, area(3)),
            ),
        )


def test_plane_line_quadric_cannot_pair():
    with pytest.raises(MarkError):
        AtomNode(
            ProjectivePlane(),
            (
                SurfaceMark("L1", 0, 1, area(1), "Q"),
                SurfaceMark("Q", 0, 4, area(2), "L1"),
            ),
        )


def test_reversed_plane_carries_no_marks():
    AtomNode(ProjectivePlaneReversed(), ())
    with pytest.raises(MarkError):
        AtomNode(ProjectivePlaneReversed(), (SurfaceMark("E", 0, -1, area(1)),))


def test_pairing_must_be_symmetric():
    with pytest.raises(MarkError, match=r"^orthogonal pairing A <-> B must be symmetric$"):
        AtomNode(
            RationalSurface(1),
            (
                SurfaceMark("A", 0, 1, area(1), "B"),
                SurfaceMark("B", 0, -1, area(1)),
            ),
        )


def test_a_partner_that_is_no_mark_is_named():
    with pytest.raises(MarkError, match=r"^mark A declares partner 'Z' which does not exist$"):
        AtomNode(RationalSurface(1), (SurfaceMark("A", 0, 1, area(1), "Z"),))


def test_the_first_duplicate_label_in_label_order_is_named():
    marks = [SurfaceMark(label, 0, 1, area(1)) for label in ("C", "B", "C", "A", "B")]
    with pytest.raises(MarkError, match=r"^duplicate mark label 'B'$"):
        AtomNode(RationalSurface(1), marks)


def test_duplicate_labels_rejected():
    with pytest.raises(MarkError):
        AtomNode(
            RationalSurface(1),
            (SurfaceMark("A", 0, 1, area(1)), SurfaceMark("A", 0, 2, area(2))),
        )


def test_ruled_section_spread_enforced():
    fiber = area(0, 1)
    AtomNode(
        RuledSurface(0, 1, fiber),
        (
            SurfaceMark("G-1", 0, -1, area(1)),
            SurfaceMark("G1", 0, 1, area(1, 1)),
        ),
    )
    with pytest.raises(MarkError):
        AtomNode(
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
            AtomNode(RuledSurface(0, 3, fiber), tuple(sections))
        assert str(exc.value) == _first_spread_failure(fiber, sections)


def test_ruled_parity_and_twist_bound():
    fiber = area(0, 1)
    with pytest.raises(MarkError):
        AtomNode(RuledSurface(0, 2, fiber), (SurfaceMark("G1", 0, 1, area(1)),))
    with pytest.raises(MarkError):
        AtomNode(RuledSurface(0, 1, fiber), (SurfaceMark("G3", 0, 3, area(1)),))


def test_ruled_paired_sections_must_meet_once():
    fiber = area(0, 1)
    AtomNode(
        RuledSurface(0, 3, fiber),
        (
            SurfaceMark("G3", 0, 3, area(1), "G-1"),
            SurfaceMark("G-1", 0, -1, area(1, -2), "G3"),
        ),
    )
    with pytest.raises(MarkError):
        AtomNode(
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
        AtomNode(kind, (SurfaceMark("G", g, k, sect),))
        built = True
    except MarkError:
        built = False
    assert built == ok


@given(g=genera, k=normal_numbers, section=area_values, fiber=positive_areas)
def test_validate_ruled_is_the_half_fiber_bound(g, k, section, fiber):
    """section > k'/2 * fiber, with k' = k + 1 for an odd k on a genus-0
    base and k' = k otherwise, written with a Fraction."""
    k_eff = k + 1 if g == 0 and k % 2 else k
    assert validate_ruled(g, k, section, fiber) == (section > fiber.scale(Fraction(k_eff, 2)))


@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
    fiber=positive_areas,
    a=positive_areas,
)
@settings(deadline=None)
def test_ruled_spread_is_half_a_fiber_per_index(n, data, fiber, a):
    """Two sections on a genus-1 base build exactly when each is above its
    bound and their areas differ by (k_A - k_B)/2 fibers; the failure
    names the first broken condition, with the spread as a Fraction."""
    ka, kb = (data.draw(st.sampled_from(range(-n, n + 1, 2))) for _ in "AB")
    spread = fiber.scale(Fraction(ka - kb, 2))
    b = data.draw(st.one_of(st.just(a - spread), positive_areas))
    assume(b.is_positive)
    sections = (SurfaceMark("A", 1, ka, a), SurfaceMark("B", 1, kb, b))
    expected = None
    for m in sections:
        if expected is None and not m.area > fiber.scale(Fraction(m.normal_number, 2)):
            expected = (
                f"mark {m.label}: section area {m.area} too small for "
                f"index {m.normal_number} and fiber {fiber}"
            )
    if expected is None and a - b != spread:
        expected = f"sections A, B: areas must differ by {spread}, got {a - b}"
    try:
        AtomNode(RuledSurface(1, n, fiber), sections)
        got = None
    except MarkError as exc:
        got = str(exc)
    assert got == expected


@given(
    g=genera,
    k=normal_numbers,
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
    fiber=positive_areas,
    a=positive_areas,
)
def test_the_integer_ruled_checks_are_the_area_formulas(g, k, n, data, fiber, a):
    """`validate_ruled` and the section spread of a ruled surface compare
    ints; they agree with the area formulas they replace, `2a > k'f` and
    `2(a - b) == (k_A - k_B) f`, on areas with any denominators and eps
    coefficients of either sign."""
    k_eff = k + 1 if g == 0 and k % 2 else k
    assert validate_ruled(g, k, a, fiber) == (a.scale(2) > fiber.scale(k_eff))
    ka, kb = (data.draw(st.sampled_from(range(-n, n + 1, 2))) for _ in "AB")
    spread = fiber.scale(Fraction(ka - kb, 2))
    b = data.draw(st.one_of(st.just(a - spread), positive_areas))
    assume(b.is_positive and fiber not in (a, b))
    assume(validate_ruled(g, ka, a, fiber) and validate_ruled(g, kb, b, fiber))
    sections = (SurfaceMark("A", g, ka, a), SurfaceMark("B", g, kb, b))
    if (a - b).scale(2) == fiber.scale(ka - kb):
        AtomNode(RuledSurface(g, n, fiber), sections)
        return
    with pytest.raises(MarkError) as exc:
        AtomNode(RuledSurface(g, n, fiber), sections)
    assert str(exc.value) == f"sections A, B: areas must differ by {spread}, got {a - b}"


def test_an_underfed_section_names_its_area_index_and_fiber():
    with pytest.raises(MarkError) as exc:
        AtomNode(
            RuledSurface(0, 3, area(Fraction(1, 2), 1)),
            (SurfaceMark("G", 0, 3, area(1, 2)),),
        )
    assert str(exc.value) == (
        "mark G: section area 1 + 2*eps too small for index 3 and fiber 1/2 + 1*eps"
    )


def test_genus_negative_rejected():
    with pytest.raises(MarkError):
        SurfaceMark("S", -1, 0, area(1))


def test_nonpositive_area_rejected():
    with pytest.raises(MarkError):
        SurfaceMark("S", 0, 0, area(0, 0))
