"""The rewrite rule catalog and the equivalence checker."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import symsum

from test_fourfold import random_quad

from symsum.areas import area
from symsum.core import (
    AtomNode,
    BlowUp,
    Desing,
    EllipticSurface,
    EquivLevel,
    FourSum,
    PairSum,
    ProjectivePlane,
    RationalSurface,
    SurfaceMark,
    Thicken,
    Thin,
)
from symsum.invariants import atom_invariants, en_inductive_invariants, expr_invariants
from symsum.rewrite import (
    RULE_IDS,
    RULE_MODULES,
    ProofStep,
    RuleError,
    apply_rule,
    check_equiv,
)
from symsum.sums import fourfold_sum, make_ruled_atom

EQ = EquivLevel.SYMPLECTOMORPHIC
WK = EquivLevel.WEAK_DEFORMATION
EPS = area(0, 1)


def e3_atom(section="Sigma-3", fiber="F3", sa=area(1), fa=area(1)):
    return AtomNode(
        EllipticSurface(3),
        (
            SurfaceMark(section, 0, -3, sa, fiber),
            SurfaceMark(fiber, 1, 0, fa, section),
        ),
    )


def e1_atom(section="Sigma-1", fiber="F1", sa=area(1), fa=area(1)):
    return AtomNode(
        EllipticSurface(1),
        (
            SurfaceMark(fiber, 1, 0, fa, section),
            SurfaceMark(section, 0, -1, sa, fiber),
        ),
    )


def plane_atom(a=area(1)):
    return AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, a, "L2"),
            SurfaceMark("L2", 0, 1, a, "L1"),
        ),
    )


def assoc_lhs():
    inner = PairSum(e3_atom(), "F3", e1_atom(), "F1")
    des = Desing(plane_atom(), "L1", "L2", "Q")
    return PairSum(inner, "Sigma-3#Sigma-1", des, "Q")


# -- the registry ------------------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_applying_a_rule_registers_exactly_its_module(rule_id):
    """In a fresh interpreter no rule is registered until a step names
    one; applying `rule_id` (here a shape error) loads its module alone,
    which registers exactly the ids that the table maps to it."""
    code = (
        "import sys\n"
        "from symsum.core import AtomNode, ProjectivePlane\n"
        "from symsum.rewrite import RULES, RuleError, apply_rule\n"
        "assert not RULES\n"
        "try:\n"
        f"    apply_rule(AtomNode(ProjectivePlane(), ()), {rule_id!r}, {{}})\n"
        "except RuleError:\n"
        "    pass\n"
        "print(sorted(RULES), sorted(m for m in sys.modules if m.startswith('symsum.rules.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    module = RULE_MODULES[rule_id]
    ids = sorted(r for r, m in RULE_MODULES.items() if m == module)
    assert proc.stdout == f"{ids} {[f'symsum.rules.{module}']}\n"


def test_unknown_rule_id_loads_nothing():
    before = set(sys.modules)
    with pytest.raises(RuleError, match="unknown rule id 'R99'"):
        apply_rule(plane_atom(), "R99", {})
    assert set(sys.modules) == before


# -- R1 ----------------------------------------------------------------------


def test_r1_foursum_rotation():
    quad = random_quad(random.Random(3), extras=False)
    fs = fourfold_sum(quad)
    app = apply_rule(fs, "R1", {"rotate": 1})
    assert app.level == EQ
    assert isinstance(app.expr, FourSum)
    assert app.expr.entries == quad[1:] + quad[:1]
    assert expr_invariants(app.expr) == expr_invariants(fs)


def test_r1_nested_regrouping():
    quad = random_quad(random.Random(4), extras=False)
    nested = fourfold_sum(quad).evaluated(0)
    app = apply_rule(nested, "R1", {})
    assert app.level == EQ
    # default rotation starts the grouping at the fourth summand
    assert app.expr == fourfold_sum(quad).evaluated(3)


def test_r1_shape_error():
    with pytest.raises(RuleError):
        apply_rule(e3_atom(), "R1", {})


# -- R2 ----------------------------------------------------------------------


def test_r2_forward_structure():
    app = apply_rule(assoc_lhs(), "R2", {"resolve_label": "T-1"})
    assert app.level == WK
    out = app.expr
    assert isinstance(out, PairSum)
    assert isinstance(out.left, Desing)
    assert out.left_mark == "T-1"
    assert out.right_mark == "F1#L2"
    assert expr_invariants(out) == expr_invariants(assoc_lhs())


def test_r2_reverse_recovers_grouping():
    fwd = apply_rule(assoc_lhs(), "R2", {"resolve_label": "T-1"}).expr
    back = apply_rule(fwd, "R2", {"resolve_label": "Q"}, rev=True).expr
    assert back == assoc_lhs()


def test_r2_side_condition_reported():
    # a quadric in place of the two lines has i = 4, breaking i(T3) = -(i(S1)+2)
    inner = PairSum(e3_atom(), "F3", e1_atom(), "F1")
    bad_plane = AtomNode(
        RationalSurface(0),
        (
            SurfaceMark("L1", 0, 1, area(1), "L2"),
            SurfaceMark("L2", 0, 3, area(1), "L1"),
        ),
    )
    # keep the outer admissible: desing mark has i = 1+3+2 = 6 vs -4: not
    # admissible, so construction itself refuses; check the condition path
    with pytest.raises(Exception):
        PairSum(inner, "Sigma-3#Sigma-1", Desing(bad_plane, "L1", "L2", "Q"), "Q")


def test_r2_exact_expansion_notes():
    app = apply_rule(assoc_lhs(), "R2", {"resolve_label": "T-1", "eps": EPS})
    assert app.level == EQ
    joined = "\n".join(app.notes)
    assert "2(1-k)*eps = 0 - 4*eps with k=3" in joined
    assert "match the thinned/thickened outer marks bitwise" in joined
    assert "half-fiber" in joined


def test_r2_shape_error():
    with pytest.raises(RuleError):
        apply_rule(PairSum(e3_atom(), "F3", e1_atom(), "F1"), "R2", {})


# -- R3 / R3b / R3r ----------------------------------------------------------


def test_r3_resolves_through_ruled():
    des = Desing(e3_atom(), "Sigma-3", "F3", "T-1")
    app = apply_rule(des, "R3", {"fiber": EPS, "carry": "T-1"})
    assert app.level == WK
    out = app.expr
    carried = out.mark("T-1")
    assert (carried.genus, carried.normal_number) == (1, -1)
    back = apply_rule(out, "R3", {"resolve_label": "T-1"}, rev=True).expr
    assert back == des


def test_r3b_mirrored():
    des = Desing(e3_atom(), "Sigma-3", "F3", "T-1")
    app = apply_rule(des, "R3b", {"fiber": EPS, "carry": "T-1"})
    out = app.expr
    assert isinstance(out, PairSum)
    assert out.left_mark == "F3"
    carried = out.mark("T-1")
    assert (carried.genus, carried.normal_number) == (1, -1)


def test_r3r_exact_resolution():
    lhs = Thicken(Desing(e3_atom(), "Sigma-3", "F3", "ST"), "ST", EPS)
    app = apply_rule(lhs, "R3r", {"eps": EPS})
    assert app.level == EQ
    got = app.expr.mark("ST+")
    assert got.data == lhs.mark("ST+").data
    back = apply_rule(app.expr, "R3r", {"resolve_label": "ST"}, rev=True).expr
    assert back == lhs


# -- R4 ----------------------------------------------------------------------


def test_r4_plain_insert_and_strip():
    e3 = e3_atom()
    app = apply_rule(e3, "R4", {"s": "Sigma-3", "fiber": EPS})
    assert app.level == WK
    out = app.expr
    twin = out.mark("G-n")
    assert (twin.genus, twin.normal_number) == (0, -3)
    fused = out.mark("Fw#F3")
    assert (fused.genus, fused.normal_number) == (1, 0)
    back = apply_rule(out, "R4", {}, rev=True).expr
    assert back == e3


def test_r4_localized_roundtrip():
    blown = BlowUp(e1_atom(section="S", fiber="F"), None, area(Fraction(1, 5)))
    # localization needs a marked point; use an unpaired -3 sphere
    x = AtomNode(EllipticSurface(3), (SurfaceMark("S", 0, -3, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 4)), "St", "E")
    app = apply_rule(b, "R4", {"fiber": EPS})
    out = app.expr
    assert isinstance(out, PairSum)
    assert isinstance(out.right, BlowUp)
    assert out.mark("St").normal_number == -4
    back = apply_rule(out, "R4", {}, rev=True).expr
    assert back == b


def test_r4_localized_needs_unpaired():
    b = BlowUp(e3_atom(), "Sigma-3", area(Fraction(1, 4)))
    with pytest.raises(RuleError):
        apply_rule(b, "R4", {"fiber": EPS})


def test_r4_reverse_rejects_non_neutral():
    w = make_ruled_atom(0, EPS, {"G3": (3, area(1)), "G1": (1, area(1, -1))})
    x = AtomNode(EllipticSurface(3), (SurfaceMark("S", 0, -3, area(1)),))
    s = PairSum(w, "G3", x, "S")
    with pytest.raises(RuleError):
        apply_rule(s, "R4", {}, rev=True)


# -- R5 ----------------------------------------------------------------------


def _trade_lhs():
    x = AtomNode(EllipticSurface(3), (SurfaceMark("S", 0, -3, area(1)),))
    p = AtomNode(ProjectivePlane(), (SurfaceMark("Q", 0, 4, area(Fraction(5, 4))),))
    blown = BlowUp(p, "Q", area(Fraction(1, 4)), "Qt", "E")
    return PairSum(x, "S", blown, "Qt")


def test_r5_trade_forward():
    lhs = _trade_lhs()
    app = apply_rule(lhs, "R5", {"new_size": area(Fraction(1, 4))})
    assert app.level == WK
    out = app.expr
    assert isinstance(out.left, BlowUp)
    assert out.left.at_mark == "S"
    # the opposite inequalities are reported
    joined = "\n".join(app.notes)
    assert "requires area(S) < area(Q)" in joined
    assert "requires area(Q) < area(S)" in joined
    assert expr_invariants(out) == expr_invariants(lhs)


def test_r5_shape_error():
    # gluing along the exceptional sphere instead of the proper transform
    x = AtomNode(RationalSurface(0), (SurfaceMark("S", 0, 1, area(Fraction(1, 4))),))
    p = AtomNode(ProjectivePlane(), (SurfaceMark("Q", 0, 4, area(2)),))
    blown = BlowUp(p, "Q", area(Fraction(1, 4)), "Qt", "Ex")
    lhs = PairSum(x, "S", blown, "Ex")
    with pytest.raises(RuleError, match="proper transform"):
        apply_rule(lhs, "R5", {})


# -- R6 ----------------------------------------------------------------------


def test_r6_rational_blowdown():
    x = AtomNode(EllipticSurface(3), (SurfaceMark("S", 0, -3, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 4)), "St", "E")
    p = AtomNode(ProjectivePlane(), (SurfaceMark("Q", 0, 4, area(Fraction(3, 4))),))
    lhs = PairSum(b, "St", p, "Q")
    app = apply_rule(lhs, "R6", {})
    assert app.expr == x
    assert expr_invariants(app.expr) == atom_invariants(x)


def test_r6_requires_minus_three():
    # a -2 sphere blown up and glued to a non-quadric (0, 3) mark
    x = AtomNode(RationalSurface(0), (SurfaceMark("S", 0, -2, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 4)), "St", "E")
    q_side = AtomNode(RationalSurface(1), (SurfaceMark("Q", 0, 3, area(Fraction(3, 4))),))
    lhs = PairSum(b, "St", q_side, "Q")
    with pytest.raises(RuleError, match=r"i\(S\) = -3"):
        apply_rule(lhs, "R6", {})


def test_r6_requires_sphere():
    x = AtomNode(RationalSurface(0), (SurfaceMark("S", 1, -3, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 4)), "St", "E")
    q_side = AtomNode(RationalSurface(1), (SurfaceMark("Q", 1, 4, area(Fraction(3, 4))),))
    lhs = PairSum(b, "St", q_side, "Q")
    with pytest.raises(RuleError, match=r"g\(S\) = 0"):
        apply_rule(lhs, "R6", {})


# -- R7 ----------------------------------------------------------------------


def test_r7_generic_inverse():
    x = e3_atom()
    b = BlowUp(x, None, area(Fraction(1, 4)))
    p = AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, area(Fraction(1, 4)), "L2"),
            SurfaceMark("L2", 0, 1, area(Fraction(1, 4)), "L1"),
        ),
    )
    lhs = PairSum(b, "E", p, "L1")
    app = apply_rule(lhs, "R7", {})
    assert app.level == EQ
    assert app.expr == x


def test_r7_paired_inverse_bitwise():
    x = AtomNode(RationalSurface(2), (SurfaceMark("S", 0, -2, area(1)),))
    b = BlowUp(x, "S", area(Fraction(1, 3)), pair_exceptional=True)
    p = AtomNode(
        ProjectivePlane(),
        (
            SurfaceMark("L1", 0, 1, area(Fraction(1, 3)), "L2"),
            SurfaceMark("L2", 0, 1, area(Fraction(1, 3)), "L1"),
        ),
    )
    lhs = PairSum(b, "E", p, "L1")
    app = apply_rule(lhs, "R7", {})
    assert app.expr == x


def test_r7_fold_elliptic_to_rational():
    lhs = PairSum(e1_atom(), "Sigma-1", plane_atom(), "L1")
    app = apply_rule(lhs, "R7", {"mark": "T1"})
    assert app.level == WK
    out = app.expr
    assert out.kind == RationalSurface(8)
    t1 = out.mark("T1")
    assert (t1.genus, t1.normal_number) == (1, 1)
    assert t1.area == area(2)
    assert app.relabel == {"F1#L2": "T1"}


def test_r7_reverse_builds_plane_sum():
    x = e3_atom()
    app = apply_rule(
        x, "R7", {"size": area(Fraction(1, 4)), "exceptional": "E"}, rev=True
    )
    assert app.level == EQ
    out = app.expr
    assert isinstance(out.left, BlowUp)
    assert out.left.at_mark is None
    back = apply_rule(out, "R7", {}).expr
    assert back == x


# -- R8 ----------------------------------------------------------------------


def test_r8_round_trip_bitwise():
    lhs = PairSum(e3_atom(), "F3", e1_atom(), "F1")
    app = apply_rule(lhs, "R8", {"eps": EPS})
    assert app.level == EQ
    out = app.expr
    assert isinstance(out.left, Thin) and isinstance(out.right, Thicken)
    old = lhs.mark("Sigma-3#Sigma-1")
    new = out.mark("Sigma-3-#Sigma-1+")
    assert old.data == new.data
    back = apply_rule(out, "R8", {}, rev=True).expr
    assert back == lhs


def test_r8_reverse_needs_equal_amounts():
    left = Thin(e3_atom(), "F3", EPS)
    right = Thicken(e1_atom(), "F1", area(0, 2))
    with pytest.raises(Exception):
        s = PairSum(left, "F3-", right, "F1+")
        apply_rule(s, "R8", {}, rev=True)


# -- R9 ----------------------------------------------------------------------


def _en_atom(n, section_area):
    return AtomNode(
        EllipticSurface(n),
        (SurfaceMark(f"Sigma-{n}", 0, -n, section_area),),
    )


def test_r9_soundness_up_to_eight():
    for n in range(2, 9):
        atom = _en_atom(n, area(n))
        app = apply_rule(
            atom,
            "R9",
            {
                "fiber": area(1),
                "left_section_area": area(n - 1),
                "left_section": f"Sigma-{n - 1}",
                "right_section": "Sigma-1r",
                "left_fiber": f"F{n - 1}",
                "right_fiber": "F1r",
            },
        )
        inv = expr_invariants(app.expr)
        assert inv == en_inductive_invariants(n)
        carried = app.expr.mark(f"Sigma-{n}")
        assert carried.normal_number == -n
        assert carried.area == area(n)


def test_r9_reverse_folds():
    atom = _en_atom(4, area(2))
    app = apply_rule(
        atom,
        "R9",
        {
            "fiber": area(1),
            "left_section_area": area(1),
            "left_section": "Sigma-3",
            "right_section": "Sigma-1",
            "left_fiber": "F3",
            "right_fiber": "F1",
        },
    )
    back = apply_rule(app.expr, "R9", {}, rev=True).expr
    assert back == atom


def test_r9_needs_n_at_least_two():
    with pytest.raises(RuleError):
        apply_rule(
            _en_atom(1, area(1)),
            "R9",
            {"left_section_area": area(Fraction(1, 2))},
        )


# -- R10 ---------------------------------------------------------------------


def test_r10_split_and_merge():
    w2 = make_ruled_atom(
        0, area(0, 2), {"G1": (1, area(1, 2)), "G-1": (-1, area(1))}
    )
    app = apply_rule(w2, "R10", {"plus": "G1", "minus": "G-1"})
    assert app.level == EQ
    out = app.expr
    assert sorted(m.data for m in out.marks) == sorted(m.data for m in w2.marks)
    back = apply_rule(out, "R10", {}, rev=True).expr
    assert sorted(m.data for m in back.marks) == sorted(m.data for m in w2.marks)
    assert back.kind.fiber_area == area(0, 2)


# -- R11 ---------------------------------------------------------------------


def test_r11_flips_blown_section():
    w = make_ruled_atom(0, EPS, {"Qt": (3, area(1)), "Gm": (-3, area(1, -3))})
    blown = BlowUp(w, "Gm", area(Fraction(1, 4)), "St", "E")
    app = apply_rule(
        blown,
        "R11",
        {"new_fiber": EPS, "new_size": area(Fraction(1, 4), 1), "pre": "Qpre"},
    )
    assert app.level == WK
    out = app.expr
    assert isinstance(out, BlowUp)
    assert out.at_mark == "Qpre"
    st = out.mark("St")
    assert (st.genus, st.normal_number) == (0, -4)
    qt = out.mark("Qt")
    assert (qt.genus, qt.normal_number) == (0, 3)
    assert qt.area == area(1)  # the enclosing gluing keeps its area


def test_r11_needs_disjoint_pair():
    w = make_ruled_atom(
        0, EPS, {"A": (3, area(1)), "B": (-1, area(1, -2))}, pairs=(("A", "B"),)
    )
    blown = BlowUp(w, "A", area(Fraction(1, 8)))
    with pytest.raises(RuleError):
        apply_rule(blown, "R11", {})


def test_r11_keeps_every_mark():
    """R11 fails rather than drop a mark: the `pre` label may not be the
    transform label, and a fiber mark has no place on the companion."""
    w = make_ruled_atom(0, EPS, {"Gk": (3, area(1)), "Gm": (-3, area(1, -3))})
    blown = BlowUp(w, "Gk", area(Fraction(1, 4)))
    with pytest.raises(RuleError, match="pre label other than the transform Gk~"):
        apply_rule(blown, "R11", {"pre": "Gk~"})
    with_fiber = make_ruled_atom(
        0, EPS, {"Gk": (3, area(1)), "Gm": (-3, area(1, -3))}, fibers={"F": None}
    )
    with pytest.raises(RuleError, match=r"mark F keeps \(g, i\): None vs \(0, 0\)"):
        apply_rule(BlowUp(with_fiber, "Gk", area(Fraction(1, 4))), "R11", {})


# -- regroup / deform --------------------------------------------------------


def _regroup_instance():
    a = AtomNode(RationalSurface(0), (SurfaceMark("SA", 0, -1, area(1)),))
    m = make_ruled_atom(0, EPS, {"M1": (1, area(1)), "M2": (-1, area(1, -1))})
    b = AtomNode(RationalSurface(1), (SurfaceMark("SB", 0, 1, area(1, -1)),))
    inner = PairSum(a, "SA", m, "M1")
    return PairSum(inner, "M2", b, "SB")


def test_regroup_round_trip():
    lhs = _regroup_instance()
    app = apply_rule(lhs, "regroup", {})
    assert app.level == EQ
    out = app.expr
    assert isinstance(out.right, PairSum)
    back = apply_rule(out, "regroup", {}, rev=True).expr
    assert back == lhs


def test_regroup_intersecting_guard():
    """Paired middle marks never both survive to be regrouped: the
    partner of a glued mark is consumed or dropped, so the reachable
    failure is the missing-mark one; the disjointness guard itself is
    exercised directly on the middle's data."""
    a = AtomNode(RationalSurface(0), (SurfaceMark("SA", 0, -1, area(1)),))
    m = make_ruled_atom(
        0, EPS, {"M1": (1, area(1)), "M2": (1, area(1))}, pairs=(("M1", "M2"),)
    )
    inner = PairSum(a, "SA", m, "M1")
    assert not inner.has_mark("M2")  # consumed with the gluing
    assert m.mark("M1").orthogonal_at == "M2"


def test_regroup_needs_common_middle():
    a = AtomNode(
        RationalSurface(0),
        (
            SurfaceMark("SA", 0, -1, area(1)),
            SurfaceMark("UA", 0, 1, area(1)),
        ),
    )
    m = make_ruled_atom(0, EPS, {"M1": (1, area(1)), "M2": (-1, area(1, -1))})
    b = AtomNode(RationalSurface(1), (SurfaceMark("SB", 0, -1, area(1)),))
    inner = PairSum(a, "SA", m, "M1")
    lhs = PairSum(inner, "UA", b, "SB")
    with pytest.raises(RuleError, match="common middle"):
        apply_rule(lhs, "regroup", {})


def test_deform_rescale_and_shift():
    e3 = e3_atom()
    app = apply_rule(e3, "deform", {"rescale": Fraction(2)})
    assert app.level == WK
    assert app.expr.mark("F3").area == area(2)
    app2 = apply_rule(e3, "deform", {"shift1": "Sigma-3", "by1": area(1)})
    assert app2.expr.mark("Sigma-3").area == area(2)
    with pytest.raises(RuleError):
        apply_rule(e3, "deform", {})


# -- checker -----------------------------------------------------------------


def test_check_equiv_reflexive():
    e3 = e3_atom()
    v = check_equiv(e3, e3, [])
    assert v.verified and v.level == EQ
    assert len(v.trace) == 1


def test_check_equiv_mismatch_without_steps():
    v = check_equiv(e3_atom(), e1_atom(), [])
    assert not v.verified
    assert "does not match" in v.failure


def test_level_monotonicity():
    lhs = PairSum(e3_atom(), "F3", e1_atom(), "F1")
    eq_only = check_equiv(
        lhs,
        apply_rule(lhs, "R8", {"eps": EPS}).expr,
        [ProofStep("R8", {"eps": EPS})],
    )
    assert eq_only.verified and eq_only.level == EQ
    des = Desing(e3_atom(), "Sigma-3", "F3", "T-1")
    mixed_rhs = apply_rule(des, "R3", {"fiber": EPS, "carry": "T-1"}).expr
    mixed = check_equiv(des, mixed_rhs, [ProofStep("R3", {"fiber": EPS, "carry": "T-1"})])
    assert mixed.verified and mixed.level == WK


def test_failing_step_reported():
    e3 = e3_atom()
    v = check_equiv(e3, e3, [ProofStep("R9", {"left_section_area": area(1)})])
    assert not v.verified
    assert v.failed_step == 1
    assert "R9" in v.failure


def test_rule_soundness_random_r8():
    rng = random.Random(99)
    for _ in range(60):
        g = rng.randint(0, 3)
        i = rng.randint(-6, 6)
        a = area(Fraction(rng.randint(1, 30), rng.randint(1, 6)))
        x1 = AtomNode(
            RationalSurface(rng.randint(0, 5)),
            (
                SurfaceMark("S1", rng.randint(0, 3), rng.randint(-6, 6), area(1), "T1"),
                SurfaceMark("T1", g, i, a, "S1"),
            ),
        )
        x2 = AtomNode(
            RationalSurface(rng.randint(0, 5)),
            (
                SurfaceMark("S2", g, -i, a, "T2"),
                SurfaceMark("T2", rng.randint(0, 3), rng.randint(-6, 6), area(1), "S2"),
            ),
        )
        lhs = PairSum(x1, "T1", x2, "S2")
        app = apply_rule(lhs, "R8", {"eps": EPS})
        assert expr_invariants(app.expr) == expr_invariants(lhs)
        old, new = lhs.mark("S1#T2"), app.expr.mark("S1-#T2+")
        assert old.data == new.data
