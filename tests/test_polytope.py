"""SVG moment-map figures: determinism, slope annotations, goldens."""

import pathlib

import pytest

from figures import FIGURES, plane_triple, rational_quad
from symsum.areas import area
from symsum.core import (
    AdmissibilityError,
    AtomNode,
    MarkError,
    RationalSurface,
    SurfaceMark,
)
from symsum.polytope import STYLES, render_pair_sum, render_triple

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _triple(g_s, i_s, a_s, g_t, i_t, a_t):
    x = AtomNode(
        RationalSurface(0),
        (
            SurfaceMark("S", g_s, i_s, a_s, "T"),
            SurfaceMark("T", g_t, i_t, a_t, "S"),
        ),
    )
    return (x, "S", "T")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_rendering_is_deterministic(name):
    assert FIGURES[name]() == FIGURES[name]()


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_golden_files(name):
    frozen = (GOLDEN / f"{name}.svg").read_bytes()
    assert FIGURES[name]().encode("utf-8") == frozen


def test_plane_triple_slopes():
    svg = render_triple(plane_triple())
    # both lines have self-intersection one: slopes -1 and -1
    assert svg.count("slope=-1<") == 2


def test_slope_lowest_terms():
    svg = render_triple(_triple(0, -3, area(1), 1, -2, area(1)))
    assert "slope=1/2" in svg  # -1 / -2
    assert "slope=3" in svg  # -(-3)


def test_vertical_convention_for_zero():
    svg = render_triple(_triple(0, -3, area(1), 1, 0, area(1)))
    assert "slope=-1/0 (vertical)" in svg
    assert "slope=3" in svg


def test_horizontal_convention_for_zero():
    svg = render_triple(_triple(1, 0, area(1), 0, -1, area(1)))
    # the light edge over the T end, at (60, 100), runs level with it
    assert '<line x1="60.00" y1="100.00" x2="100.00" y2="100.00" ' + STYLES["light"] in svg
    assert "slope=0<" in svg and "slope=1<" in svg


def test_concavity_annotation():
    svg = render_triple(_triple(0, 2, area(1), 0, -2, area(1)))
    assert "concave side" in svg
    svg2 = render_triple(_triple(0, -2, area(1), 0, -2, area(1)))
    assert "concave side" not in svg2


def test_pair_sum_requires_pairing():
    x = AtomNode(
        RationalSurface(0),
        (
            SurfaceMark("S", 0, 1, area(1)),
            SurfaceMark("T", 0, -1, area(1)),
        ),
    )
    with pytest.raises(MarkError):
        render_triple((x, "S", "T"))


def test_pair_sum_admissibility_checked_before_rendering():
    t1 = _triple(0, 1, area(1), 0, 2, area(1))
    t2 = _triple(0, 1, area(1), 0, 2, area(1))
    with pytest.raises(AdmissibilityError):
        render_pair_sum(t1, t2)


def _mirror_pair():
    """Two admissible triples and the pair describing their mirror image
    (swap the roles of the carried marks and reverse the gluing)."""
    t1 = _triple(0, -3, area(1), 1, 0, area(1))
    t2 = (
        AtomNode(
            RationalSurface(1),
            (
                SurfaceMark("S2", 1, 0, area(1), "T2"),
                SurfaceMark("T2", 0, 3, area(2), "S2"),
            ),
        ),
        "S2",
        "T2",
    )
    m1 = (
        AtomNode(
            RationalSurface(2),
            (
                SurfaceMark("S", 0, 3, area(2), "T"),
                SurfaceMark("T", 1, 0, area(1), "S"),
            ),
        ),
        "S",
        "T",
    )
    m2 = (
        AtomNode(
            RationalSurface(3),
            (
                SurfaceMark("S2", 1, 0, area(1), "T2"),
                SurfaceMark("T2", 0, -3, area(1), "S2"),
            ),
        ),
        "S2",
        "T2",
    )
    return (t1, t2), (m1, m2)


def test_pair_sum_mirror_symmetry():
    (t1, t2), (m1, m2) = _mirror_pair()
    a = render_pair_sum(t1, t2)
    b = render_pair_sum(m1, m2)

    def junction(svg):
        for line in svg.splitlines():
            if 'stroke-dasharray="7,5"' in line:
                return float(line.split('x1="')[1].split('"')[0])
        raise AssertionError("no junction line")

    def width(svg):
        return float(svg.split('width="')[1].split('"')[0])

    # equal canvas, junction positions mirror images of each other
    assert width(a) == width(b)
    pad = 60.0
    base = width(a) - 2 * pad
    assert junction(a) - pad == pytest.approx(base - (junction(b) - pad))


def test_four_sum_figure_contains_all_summands():
    from symsum.polytope import render_four_sum

    svg = render_four_sum(rational_quad())
    for i in range(1, 5):
        assert f"summand {i}" in svg
