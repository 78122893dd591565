"""Constructive operations: sums, desingularization, blow-ups,
thickening/thinning, rescaling, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import marked_atoms
from test_memo import nodes
from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES
from symsum import sums
from symsum.areas import area
from symsum.core import (
    AdmissibilityError,
    AtomNode,
    BlowUp,
    EllipticSurface,
    MarkError,
    PairSum,
    ProjectivePlane,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
    Thicken,
    Thin,
    desingularize,
    pairwise_violations,
)
from symsum.demos import CORPUS
from symsum.invariants import expr_invariants
from symsum.script import parse, run
from symsum.sums import (
    _neutral_w,
    apply_shifts,
    blow_down,
    make_ruled_atom,
    rescale,
    split_ruled,
)

EPS = area(0, 1)


def e3_atom():
    return AtomNode(
        EllipticSurface(3),
        (
            SurfaceMark("Sigma-3", 0, -3, area(1), "F3"),
            SurfaceMark("F3", 1, 0, area(1), "Sigma-3"),
        ),
    )


def e1_atom():
    return AtomNode(
        EllipticSurface(1),
        (
            SurfaceMark("F1", 1, 0, area(1), "Sigma-1"),
            SurfaceMark("Sigma-1", 0, -1, area(1), "F1"),
        ),
    )


# -- pairwise admissibility ------------------------------------------------


def test_fibers_admissible():
    f3 = SurfaceMark("F3", 1, 0, area(1))
    f1 = SurfaceMark("F1", 1, 0, area(1))
    assert pairwise_violations(f3, f1) == []


def test_section_quadric_admissible():
    s4 = SurfaceMark("S4", 0, -4, area(2))
    q = SurfaceMark("Q", 0, 4, area(2))
    assert pairwise_violations(s4, q) == []


def test_genus_mismatch_named():
    a = SurfaceMark("A", 0, 1, area(1))
    b = SurfaceMark("B", 1, -1, area(1))
    bad = pairwise_violations(a, b)
    assert [v.condition for v in bad] == ["genus"]
    assert (bad[0].left, bad[0].right) == (0, 1)


# -- pairwise sum ----------------------------------------------------------


def test_inductive_sum_carries_joined_section():
    s = PairSum(e3_atom(), "F3", e1_atom(), "F1")
    carried = s.mark("Sigma-3#Sigma-1")
    assert carried.genus == 0
    assert carried.normal_number == -4
    assert carried.area == area(2)


def test_bare_sum_without_partners():
    a = AtomNode(EllipticSurface(3), (SurfaceMark("F3", 1, 0, area(1)),))
    b = AtomNode(EllipticSurface(1), (SurfaceMark("F1", 1, 0, area(1)),))
    s = PairSum(a, "F3", b, "F1")
    assert s.marks == ()
    assert expr_invariants(s).euler == 36 + 12


def test_inadmissible_sum_reports_area():
    a = AtomNode(EllipticSurface(3), (SurfaceMark("F3", 1, 0, area(1)),))
    b = AtomNode(EllipticSurface(1), (SurfaceMark("F1", 1, 0, area(2)),))
    with pytest.raises(AdmissibilityError) as exc:
        PairSum(a, "F3", b, "F1")
    assert [v.condition for v in exc.value.violations] == ["area"]


def _assert_paired_both_ways(node):
    """Each mark's partner is a mark of the same node that names it back,
    so no two marks share a partner."""
    by_label = {m.label: m for m in node.marks}
    for m in node.marks:
        if m.orthogonal_at is not None:
            partner = by_label.get(m.orthogonal_at)
            assert partner is not None and partner.orthogonal_at == m.label, (m, node.marks)


def test_every_traced_node_pairs_its_marks_both_ways():
    """The pairing that `AtomNode` checks holds at every node of every
    trace of the corpus and the tables, so a sum drops a glued mark's
    partner and no other mark names it."""
    paired = 0
    for table in (CORPUS, MALFORMED, RULE_SHAPES, RULE_MESSAGES):
        for source in table.values():
            verdict = run(source).verdict
            for node in nodes(*(rec.expr for rec in verdict.trace)) if verdict else ():
                _assert_paired_both_ways(node)
                paired += any(m.orthogonal_at for m in node.marks)
    assert paired > 100


@given(marked_atoms(), st.sampled_from("ST"))
def test_a_blow_up_and_a_collar_at_a_paired_mark_pair_both_ways(x, at):
    """The transform of a paired mark and a collared paired mark keep
    their partners, renamed with them, through further operations."""
    blown = BlowUp(x, at, x.mark(at).area.scale(Fraction(1, 2)))
    built = [
        blown,
        Thin(x, at, EPS),
        Thicken(x, at, EPS),
        Thin(blown, f"{at}~", EPS),
        BlowUp(Thicken(x, at, EPS), f"{at}+", area(Fraction(1, 100)), exceptional_label="E2"),
    ]
    for node in built:
        _assert_paired_both_ways(node)
    assert all(any(m.orthogonal_at for m in node.marks) for node in built)


@given(marked_atoms(s_label="S1", t_label="T1"), marked_atoms(s_label="S2", t_label="T2"))
def test_carried_mark_additivity(x1, x2):
    t1 = x1.mark("T1")
    s2 = x2.mark("S2")
    if pairwise_violations(t1, s2):
        return
    s = PairSum(x1, "T1", x2, "S2")
    carried = s.mark("S1#T2")
    s1, t2 = x1.mark("S1"), x2.mark("T2")
    assert carried.normal_number == s1.normal_number + t2.normal_number
    assert carried.genus == s1.genus + t2.genus
    assert carried.area == s1.area + t2.area


# -- desingularization -----------------------------------------------------


def test_desingularize_torus():
    e3 = e3_atom()
    m = desingularize(e3.mark("Sigma-3"), e3.mark("F3"), "T-1")
    assert (m.genus, m.normal_number) == (1, -1)
    assert m.area == area(2)


def test_desingularize_two_lines():
    l1 = SurfaceMark("L1", 0, 1, area(1), "L2")
    l2 = SurfaceMark("L2", 0, 1, area(1), "L1")
    q = desingularize(l1, l2)
    assert (q.genus, q.normal_number, q.label) == (0, 4, "L1+L2")


def test_desingularize_doubles_genus():
    a = SurfaceMark("A", 2, -1, area(1), "B")
    b = SurfaceMark("B", 2, -1, area(1), "A")
    m = desingularize(a, b)
    assert (m.genus, m.normal_number) == (4, 0)


def test_desingularize_requires_pairing():
    a = SurfaceMark("A", 0, 1, area(1))
    b = SurfaceMark("B", 0, 1, area(1))
    with pytest.raises(MarkError):
        desingularize(a, b)


@given(marked_atoms())
def test_desing_self_intersection_jump(x):
    s, t = x.mark("S"), x.mark("T")
    m = desingularize(s, t)
    assert m.normal_number - s.normal_number - t.normal_number == 2


def test_torus_square_from_intersection_table():
    # square of [S]+[F] from S.S = -3, S.F = 1, F.F = 0
    assert -3 + 2 * 1 + 0 == -1


# -- blow-up / blow-down ---------------------------------------------------


def test_blow_up_on_mark():
    e3 = e3_atom()
    b = BlowUp(e3, "Sigma-3", area(Fraction(1, 4)))
    tr = b.mark("Sigma-3~")
    assert (tr.genus, tr.normal_number) == (0, -4)
    assert tr.area == area(Fraction(3, 4))
    ex = b.mark("E")
    assert (ex.genus, ex.normal_number) == (0, -1)
    assert ex.area == area(Fraction(1, 4))
    assert tr.orthogonal_at == "F3"
    assert b.mark("F3").orthogonal_at == "Sigma-3~"


def test_blow_up_quadric():
    p = AtomNode(ProjectivePlane(), (SurfaceMark("Q", 0, 4, area(2)),))
    b = BlowUp(p, "Q", area(Fraction(1, 2)))
    assert b.mark("Q~").normal_number == 3


def test_blow_up_generic_point():
    e3 = e3_atom()
    b = BlowUp(e3, None, area(Fraction(1, 8)))
    assert b.mark("Sigma-3") == e3.mark("Sigma-3")
    inv, binv = expr_invariants(e3), expr_invariants(b)
    assert (binv.euler, binv.signature) == (inv.euler + 1, inv.signature - 1)


def test_blow_up_size_too_large():
    with pytest.raises(MarkError):
        BlowUp(e3_atom(), "Sigma-3", area(1))


def test_blow_down_rational_elliptic():
    s = blow_down(e1_atom(), "Sigma-1")
    carried = s.mark("F1#L2")
    assert (carried.genus, carried.normal_number) == (1, 1)
    assert carried.area == area(2)


def test_blow_down_requires_exceptional():
    with pytest.raises(MarkError):
        blow_down(e3_atom(), "Sigma-3")


def test_blow_down_inverts_generic_blow_up():
    e3 = e3_atom()
    b = BlowUp(e3, None, area(Fraction(1, 8)))
    down = blow_down(b, "E")
    assert expr_invariants(down) == expr_invariants(e3)


def test_blow_down_restores_paired_transform():
    x = AtomNode(RationalSurface(2), (SurfaceMark("S", 0, -2, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 3)), pair_exceptional=True)
    down = blow_down(b, "E")
    restored = down.mark("S~#L2")
    assert restored.data == x.mark("S").data


# -- thin / thicken --------------------------------------------------------


def test_thin_area_formulas():
    e3 = e3_atom()
    t = Thin(e3, "Sigma-3", EPS)
    assert t.mark("Sigma-3-").area == area(1, 3)
    assert t.mark("F3-").area == area(1, -1)
    assert t.volume_flag == "decreased"


def test_thin_zero_normal_number():
    e3 = e3_atom()
    t = Thin(e3, "F3", EPS)
    assert t.mark("F3-").area == area(1)
    assert t.mark("Sigma-3-").area == area(1, -1)


def test_thicken_area_formulas():
    x = AtomNode(RationalSurface(0), (SurfaceMark("S", 0, 2, area(1)),))
    t = Thicken(x, "S", EPS)
    assert t.mark("S+").area == area(1, 2)
    assert t.volume_flag == "increased"


def test_thicken_then_thin_restores_data():
    e3 = e3_atom()
    t = Thin(Thicken(e3, "Sigma-3", EPS), "Sigma-3+", EPS)
    got = sorted(m.data for m in t.marks)
    want = sorted(m.data for m in e3.marks)
    assert got == want


def test_thicken_thin_commute():
    e3 = e3_atom()
    route1 = Thicken(Thin(e3, "Sigma-3", EPS), "F3-", EPS)
    route2 = Thin(Thicken(e3, "F3", EPS), "Sigma-3+", EPS)
    assert sorted(m.data for m in route1.marks) == sorted(
        m.data for m in route2.marks
    )


def test_thicken_validates_section_bound():
    x = AtomNode(RationalSurface(0), (SurfaceMark("S", 0, -3, area(0, 1)),))
    with pytest.raises(AdmissibilityError):
        Thicken(x, "S", area(0, 1))


def test_amounts_live_in_the_eps_lattice():
    with pytest.raises(MarkError):
        Thin(e3_atom(), "Sigma-3", area(1))
    with pytest.raises(MarkError):
        Thin(e3_atom(), "Sigma-3", area(0, -1))


@pytest.mark.parametrize("amount", [area(1), area(0), area(0, -1), area(1, 1)], ids=str)
@pytest.mark.parametrize("collar", [Thin, Thicken], ids=["thin", "thicken"])
def test_an_amount_off_the_positive_eps_ray_fails_with_its_message(collar, amount):
    message = f"thickening/thinning amount must be a positive multiple of eps, got {amount}"
    with pytest.raises(MarkError) as got:
        collar(e3_atom(), "Sigma-3", amount)
    assert str(got.value) == message


@pytest.mark.parametrize("collar", [Thin, Thicken], ids=["thin", "thicken"])
def test_a_fractional_eps_amount_builds(collar):
    node = collar(e3_atom(), "Sigma-3", area(0, Fraction(1, 2)))
    assert node.amount == area(0, Fraction(1, 2)) and node.amount._d == 2


def thicken_as_w_sum(node: Thicken) -> PairSum:
    """The explicit form of a thickening: the sum with a ruled surface of
    fiber area equal to the thickening amount, glued along the section of
    opposite self-intersection."""
    m = node.inner.mark(node.mark_label)
    k = -m.normal_number
    w = _neutral_w(m.genus, node.amount, k, m.area, -k, ("Gk", "G-k"), fibers={"Fw": "Gk"})
    return PairSum(node.inner, node.mark_label, w, "Gk")


def test_thicken_as_w_sum_matches_node():
    e3 = e3_atom()
    node = Thicken(e3, "Sigma-3", EPS)
    s = thicken_as_w_sum(node)
    got = sorted(m.data for m in s.marks)
    want = sorted(m.data for m in node.marks)
    assert got == want
    assert expr_invariants(s) == expr_invariants(node)


# -- rescale / shift -------------------------------------------------------


def test_rescale_makes_fibers_match():
    e3 = AtomNode(EllipticSurface(3), (SurfaceMark("F3", 1, 0, area(2)),))
    e1 = AtomNode(EllipticSurface(1), (SurfaceMark("F1", 1, 0, area(1)),))
    scaled = rescale(e3, Fraction(1, 2))
    s = PairSum(scaled, "F3", e1, "F1")
    assert expr_invariants(s).euler == 48


def test_rescale_identity():
    e3 = e3_atom()
    assert rescale(e3, Fraction(1)) == e3


def test_rescale_positive_only():
    with pytest.raises(MarkError):
        rescale(e3_atom(), Fraction(-1))


def test_shift_section_keeps_fiber():
    e3 = e3_atom()
    shifted = apply_shifts(e3, {"Sigma-3": area(1)})
    assert shifted.mark("Sigma-3").area == area(2)
    assert shifted.mark("F3").area == area(1)


def test_shift_fiber_rejected():
    with pytest.raises(MarkError):
        apply_shifts(e3_atom(), {"F3": area(1)})


def test_shift_ruled_moves_sections_together():
    w = make_ruled_atom(
        0, EPS, {"G3": (3, area(1)), "G-3": (-3, area(1, -3))}
    )
    shifted = apply_shifts(w, {"G3": area(1)})
    assert shifted.mark("G3").area == area(2)
    assert shifted.mark("G-3").area == area(2, -3)


def test_shift_unknown_label():
    with pytest.raises(MarkError):
        apply_shifts(e3_atom(), {"nope": area(1)})


def test_a_shift_keeps_the_nodes_after_its_last_target(monkeypatch):
    """Once every target is found, the walk visits no further node: the
    right summand of thicken-thin's lhs comes back as the same object."""
    lhs = parse(CORPUS["thicken-thin"]).lhs
    calls = []

    def counted(atom, remaining):
        calls.append(atom)
        return shift_atom(atom, remaining)

    shift_atom = sums._shift_atom
    monkeypatch.setattr(sums, "_shift_atom", counted)
    shifted = apply_shifts(lhs, {"Sigma-3": EPS})
    assert calls == [lhs.left]
    assert shifted.right is lhs.right
    assert shifted.left.mark("Sigma-3").area == area(1, 1)


@pytest.mark.parametrize(
    "atom, label, message",
    [
        (
            AtomNode(
                ProjectivePlane(),
                (
                    SurfaceMark("L1", 0, 1, area(1), "L2"),
                    SurfaceMark("L2", 0, 1, area(1), "L1"),
                ),
            ),
            "L1",
            "cannot shift one CP^2 mark independently; use rescale",
        ),
        (
            e3_atom(),
            "F3",
            "area shifts on an elliptic surface apply to sections only, "
            "not to the fiber mark 'F3'",
        ),
    ],
)
def test_a_refused_shift_says_why(atom, label, message):
    with pytest.raises(MarkError) as exc:
        apply_shifts(atom, {label: area(1)})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "kind, marks",
    [
        (ProjectivePlane(), (SurfaceMark("L", 0, 1, area(1)),)),
        (
            RationalSurface(1),
            (SurfaceMark("A", 0, -1, area(1)), SurfaceMark("B", 0, 1, area(2), "C"),
             SurfaceMark("C", 1, 0, area(3), "B")),
        ),
    ],
)
def test_a_shift_moves_only_its_mark(kind, marks):
    shifted = apply_shifts(AtomNode(kind, marks), {marks[0].label: area(0, 1)})
    assert shifted.kind == kind
    assert shifted.marks == (marks[0].replace(area=marks[0].area + area(0, 1)), *marks[1:])


def test_shift_ruled_keeps_its_fibers():
    w = make_ruled_atom(0, area(2), {"G1": (1, area(3)), "G-1": (-1, area(1))}, {"F": "G1"})
    shifted = apply_shifts(w, {"G-1": area(1)})
    assert [(m.label, m.area) for m in shifted.marks] == [
        ("F", area(2)), ("G-1", area(2)), ("G1", area(4))
    ]
    assert shifted.kind == w.kind


def test_rescale_scales_a_ruled_fiber_area_with_its_marks():
    w = make_ruled_atom(0, area(2), {"G1": (1, area(3)), "G-1": (-1, area(1))}, {"F": "G1"})
    scaled = rescale(w, Fraction(3, 2))
    assert scaled.kind == RuledSurface(0, 1, area(3))
    assert [(m.label, m.area) for m in scaled.marks] == [
        ("F", area(3)), ("G-1", area("3/2")), ("G1", area("9/2"))
    ]
    assert rescale(scaled, Fraction(2, 3)) == w


# -- splitting a ruled surface ---------------------------------------------


def _w2eps(g=0, k=1):
    doubled = area(0, 2)
    lo = area(1)
    hi = lo + doubled.scale(Fraction(k, 1))
    return make_ruled_atom(g, doubled, {f"G{k}": (k, hi), f"G-{k}": (-k, lo)})


def test_split_outer_marks():
    s = split_ruled(_w2eps(0, 1), "G1", "G-1")
    assert s.mark("G-1").normal_number == -1
    assert s.mark("G1").normal_number == 1
    assert s.mark("G-1").area == area(1)
    assert s.mark("G1").area == area(1, 2)


def test_split_genus_one_euler():
    s = split_ruled(_w2eps(1, 2), "G2", "G-2")
    assert expr_invariants(s).euler == 0


def test_split_fiber_accounting():
    w = AtomNode(
        RuledSurface(0, 1, area(0, 2)),
        (
            SurfaceMark("G-1", 0, -1, area(1)),
            SurfaceMark("G1", 0, 1, area(1, 2)),
            SurfaceMark("F", 0, 0, area(0, 2)),
        ),
    )
    s = split_ruled(w, "G1", "G-1")
    assert s.mark("F").area == area(0, 2)
    assert s.mark("F").normal_number == 0


def test_split_needs_opposite_sections():
    w = make_ruled_atom(0, area(0, 2), {"G1": (1, area(1, 1)), "G3": (3, area(1, 3))})
    with pytest.raises(MarkError):
        split_ruled(w, "G3", "G1")
