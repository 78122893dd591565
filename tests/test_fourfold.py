"""The 4-fold sum: admissibility, both evaluation groupings, rejection."""

import random
from fractions import Fraction

import pytest

from symsum.areas import AreaValue, area
from symsum.core import (
    AdmissibilityError,
    AtomNode,
    RationalSurface,
    SurfaceMark,
    fourfold_violations,
)
from symsum.invariants import expr_invariants
from symsum.sums import fourfold_sum, make_ruled_atom


def random_quad(rng: random.Random, extras: bool = True):
    """An admissible quadruple on rational-surface atoms: T_i data is
    free, S_{i+1} mirrors it."""
    t_data = []
    for _ in range(4):
        g = rng.randint(0, 3)
        i = rng.randint(-6, 6)
        a = AreaValue(
            Fraction(rng.randint(1, 60), rng.randint(1, 12)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
        )
        t_data.append((g, i, a))
    quad = []
    for i in range(4):
        tg, ti, ta = t_data[i]
        sg, si, sa = t_data[(i - 1) % 4]
        marks = [
            SurfaceMark(f"S{i + 1}", sg, -si, sa, f"T{i + 1}"),
            SurfaceMark(f"T{i + 1}", tg, ti, ta, f"S{i + 1}"),
        ]
        if extras and rng.random() < 0.5:
            marks.append(
                SurfaceMark(
                    f"U{i + 1}",
                    rng.randint(0, 3),
                    rng.randint(-6, 6),
                    area(rng.randint(1, 5)),
                )
            )
        x = AtomNode(RationalSurface(rng.randint(0, 9)), tuple(marks))
        quad.append((x, f"S{i + 1}", f"T{i + 1}"))
    return tuple(quad)


def test_symmetric_quadruple_admissible():
    rng = random.Random(7)
    quad = random_quad(rng, extras=False)
    assert fourfold_violations(quad) == []


def test_resolution_style_quadruple():
    """The quadruple completing three triples with a ruled fourth."""
    e3 = AtomNode(
        RationalSurface(0),
        (
            SurfaceMark("S1", 0, -3, area(1, 2), "T1"),
            SurfaceMark("T1", 1, 0, area(1), "S1"),
        ),
    )
    e1 = AtomNode(
        RationalSurface(1),
        (
            SurfaceMark("S2", 1, 0, area(1), "T2"),
            SurfaceMark("T2", 0, -1, area(1), "S2"),
        ),
    )
    p = AtomNode(
        RationalSurface(2),
        (
            SurfaceMark("S3", 0, 1, area(1), "T3"),
            SurfaceMark("T3", 0, 1, area(1), "S3"),
        ),
    )
    # the fourth summand: sections of self-intersection 2-k and k, k=3
    w = make_ruled_atom(
        0,
        area(0, 1),
        {"S4": (-1, area(1)), "T4": (3, area(1, 2))},
        pairs=(("S4", "T4"),),
    )
    quad = ((e3, "S1", "T1"), (e1, "S2", "T2"), (p, "S3", "T3"), (w, "S4", "T4"))
    assert fourfold_violations(quad) == []
    fs = fourfold_sum(quad)
    assert expr_invariants(fs.evaluated(0)) == expr_invariants(fs.evaluated(3))


def test_perturbed_area_reports_index():
    rng = random.Random(11)
    quad = list(random_quad(rng, extras=False))
    x2, s2, t2 = quad[1]
    marks = [
        m if m.label != t2 else SurfaceMark(t2, m.genus, m.normal_number, m.area + area(0, 1), m.orthogonal_at)
        for m in x2.marks
    ]
    quad[1] = (AtomNode(x2.kind, tuple(marks)), s2, t2)
    bad = fourfold_violations(tuple(quad))
    assert len(bad) == 1
    assert bad[0].condition == "area"
    assert bad[0].index == 2


def test_both_groupings_agree():
    rng = random.Random(2026)
    for _ in range(50):
        quad = random_quad(rng)
        fs = fourfold_sum(quad)
        a = fs.evaluated(0)
        b = fs.evaluated(3)
        assert expr_invariants(a) == expr_invariants(b)
        assert sorted(m.data for m in a.marks) == sorted(m.data for m in b.marks)


def test_inadmissible_foursum_rejected():
    rng = random.Random(5)
    quad = list(random_quad(rng, extras=False))
    x1, s1, t1 = quad[0]
    marks = [
        m if m.label != t1 else SurfaceMark(t1, m.genus + 1, m.normal_number, m.area, m.orthogonal_at)
        for m in x1.marks
    ]
    quad[0] = (AtomNode(x1.kind, tuple(marks)), s1, t1)
    with pytest.raises(AdmissibilityError) as exc:
        fourfold_sum(quad)
    assert any(v.condition == "genus" and v.index == 1 for v in exc.value.violations)


def test_unpaired_triple_rejected():
    quad = []
    for i in range(1, 5):
        x = AtomNode(
            RationalSurface(0),
            (
                SurfaceMark(f"S{i}", 0, -1, area(1)),
                SurfaceMark(f"T{i}", 0, 1, area(1)),
            ),
        )
        quad.append((x, f"S{i}", f"T{i}"))
    with pytest.raises(Exception, match="orthogonally paired"):
        fourfold_sum(quad)
