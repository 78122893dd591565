"""The 4-fold sum: admissibility, both evaluation groupings, rejection,
and the marks and chi/sigma that it reads off its entries."""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symsum.areas import AreaValue, area
from symsum.core import (
    AdmissibilityError,
    AtomNode,
    FourSum,
    PairSum,
    RationalSurface,
    SurfaceMark,
    fourfold_violations,
)
from symsum.demos import CORPUS
from symsum.invariants import expr_invariants
from symsum.script import run
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
            # numbered against the entries' order, which a sum's marks
            # are not in, as they are sorted by label
            marks.append(
                SurfaceMark(
                    f"U{4 - i}",
                    rng.randint(0, 3),
                    rng.randint(-6, 6),
                    area(rng.randint(1, 5)),
                )
            )
        x = AtomNode(RationalSurface(rng.randint(0, 9)), tuple(marks))
        quad.append((x, f"S{i + 1}", f"T{i + 1}"))
    return tuple(quad)


def _built_from_its_entries(build) -> FourSum:
    """The four-fold sum `build()` makes, checked to construct no pairwise
    sum and to have the marks and chi/sigma of each of its four pairwise
    evaluations."""
    made = []
    init = PairSum.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    with patch.object(PairSum, "__init__", counting_init):
        fs = build()
    assert made == []
    for r in range(4):
        grouping = fs.evaluated(r)
        assert fs.marks == grouping.marks
        assert expr_invariants(fs) == expr_invariants(grouping)
    return fs


def test_symmetric_quadruple_admissible():
    rng = random.Random(7)
    quad = random_quad(rng, extras=False)
    assert fourfold_violations(quad) == []
    _built_from_its_entries(lambda: fourfold_sum(quad))


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
    _built_from_its_entries(lambda: fourfold_sum(quad))


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
        _built_from_its_entries(lambda: fourfold_sum(quad))


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


@given(st.randoms(use_true_random=False))
def test_random_quadruples_take_marks_and_invariants_from_their_entries(rng):
    _built_from_its_entries(lambda: fourfold_sum(random_quad(rng)))


def test_the_corpus_four_fold_sums_take_marks_and_invariants_from_their_entries():
    """Every four-fold sum a corpus run builds: parsed, regrouped by R1
    and the perturbed grand sums of R2, each built again from its fields."""
    built = []
    init = FourSum.__init__

    def collecting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with patch.object(FourSum, "__init__", collecting_init):
        for source in CORPUS.values():
            run(source)
    assert len(built) >= 4
    for fs in built:
        assert _built_from_its_entries(fs.replace) == fs
