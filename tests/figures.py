"""Shared figure definitions for the SVG golden tests and regeneration."""

from symsum.areas import area
from symsum.core import AtomNode, EllipticSurface, ProjectivePlane, RationalSurface, SurfaceMark
from symsum.polytope import render_four_sum, render_pair_sum, render_triple


def plane_triple():
    p = AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, area(1), "L2"),
            SurfaceMark("L2", 0, 1, area(1), "L1"),
        ),
    )
    return (p, "L1", "L2")


def elliptic_triples():
    e3 = AtomNode(
        EllipticSurface(3),
        (
            SurfaceMark("Sigma-3", 0, -3, area(1), "F3"),
            SurfaceMark("F3", 1, 0, area(1), "Sigma-3"),
        ),
    )
    e1 = AtomNode(
        EllipticSurface(1),
        (
            SurfaceMark("F1", 1, 0, area(1), "Sigma-1"),
            SurfaceMark("Sigma-1", 0, -1, area(1), "F1"),
        ),
    )
    return (e3, "Sigma-3", "F3"), (e1, "F1", "Sigma-1")


def rational_quad():
    quad = []
    for i, k in enumerate((5, 6, 7, 8), start=1):
        x = AtomNode(
            RationalSurface(k),
            (
                SurfaceMark(f"A{i}", 1, 2, area(1), f"B{i}"),
                SurfaceMark(f"B{i}", 1, -2, area(1), f"A{i}"),
            ),
        )
        quad.append((x, f"A{i}", f"B{i}"))
    return tuple(quad)


FIGURES = {
    "triple_cp2": lambda: render_triple(plane_triple()),
    "pairsum_elliptic": lambda: render_pair_sum(*elliptic_triples()),
    "foursum_rational": lambda: render_four_sum(rational_quad()),
}
