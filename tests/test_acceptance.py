"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance
(exact integer and bitwise-rational equality throughout; the only
tolerances are the two sub-second runtime bounds) and prints one
PASS line on success.
"""

import pathlib
import random
import time
from fractions import Fraction

import pytest

from figures import FIGURES
from test_fourfold import random_quad

from symsum.areas import AreaValue, area
from symsum.core import (
    AtomNode,
    EquivLevel,
    RationalSurface,
    SurfaceMark,
    Thicken,
    Thin,
    fourfold_violations,
)
from symsum.demos import CORPUS, DEMOS
from symsum.invariants import (
    InvariantVector,
    atom_invariants,
    en_inductive_invariants,
    expr_invariants,
)
from symsum.core import EllipticSurface
from symsum.script import parse, print_script, run
from symsum.sums import fourfold_sum

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _announce(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_headline_equivalence():
    start = time.perf_counter()
    result = run(DEMOS["gompf-stipsicz"])
    elapsed = time.perf_counter() - start
    assert result.code == 0
    assert result.verdict.level == EquivLevel.WEAK_DEFORMATION
    for rec in result.verdict.trace:
        assert rec.invariants == InvariantVector(47, -31)
    assert elapsed < 1.0
    _announce(
        1,
        "E(4)#CP2 to E(3)#Y verified at level ~ with chi=47 sigma=-31 at "
        f"every step ({elapsed:.3f}s)",
    )


def test_acceptance_2_inductive_invariants():
    start = time.perf_counter()
    for n in range(2, 9):
        assert en_inductive_invariants(n) == InvariantVector(12 * n, -8 * n)
        assert en_inductive_invariants(n) == atom_invariants(
            AtomNode(EllipticSurface(n))
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, f"E(n) induction matches the catalog for 2 <= n <= 8 ({elapsed:.3f}s)")


def test_acceptance_3_fourfold_property_suite():
    rng = random.Random(0x4F0)
    failures = 0
    for _ in range(1000):
        quad = random_quad(rng)
        fs = fourfold_sum(quad)
        a, b = fs.evaluated(0), fs.evaluated(3)
        if expr_invariants(a) != expr_invariants(b):
            failures += 1
        if sorted(m.data for m in a.marks) != sorted(m.data for m in b.marks):
            failures += 1
    assert failures == 0

    # deliberately broken quadruples name the violated condition
    for idx in range(4):
        for cond in ("genus", "normal_number", "area"):
            for trial in range(10):
                quad = list(random_quad(rng, extras=False))
                x, s, t = quad[idx]
                broken = []
                for m in x.marks:
                    if m.label != t:
                        broken.append(m)
                        continue
                    if cond == "genus":
                        m = SurfaceMark(
                            m.label, m.genus + 1, m.normal_number, m.area,
                            m.orthogonal_at,
                        )
                    elif cond == "normal_number":
                        m = SurfaceMark(
                            m.label, m.genus, m.normal_number + 1, m.area,
                            m.orthogonal_at,
                        )
                    else:
                        m = SurfaceMark(
                            m.label, m.genus, m.normal_number,
                            m.area + area(0, Fraction(1, 7)), m.orthogonal_at,
                        )
                    broken.append(m)
                quad[idx] = (AtomNode(x.kind, tuple(broken)), s, t)
                bad = fourfold_violations(tuple(quad))
                assert len(bad) == 1
                assert bad[0].condition == cond
                assert bad[0].index == idx + 1
    _announce(
        3,
        "1000 random quadruples agree in both groupings; 120 broken ones "
        "rejected naming the violated condition",
    )


def test_acceptance_4_exact_associativity():
    result = run(DEMOS["assoc-sym"])
    assert result.code == 0
    assert result.verdict.level == EquivLevel.SYMPLECTOMORPHIC
    notes = [n for rec in result.verdict.trace for n in rec.notes]
    joined = "\n".join(notes)
    # the expansion ran with every identity checked bitwise, including
    # the 2(1-k) eps section-area difference (k = 3 here)
    assert "2(1-k)*eps = 0 - 4*eps with k=3" in joined
    assert "perturbed quadruple admissible; all four gluing areas exact" in joined
    assert "match the thinned/thickened outer marks bitwise" in joined
    assert "match the thickened/thinned outer marks bitwise" in joined
    assert "outer section data matches bitwise" in joined
    _announce(
        4,
        "assoc-sym reaches verdict = through the thicken/thin expansion "
        "with exact 2(1-k)*eps bookkeeping",
    )


def test_acceptance_5_blowup_trading():
    result = run(DEMOS["blowup-trade"])
    assert result.code == 0
    assert result.verdict.level == EquivLevel.WEAK_DEFORMATION

    negative = run(CORPUS["blowup-trade-eq"])
    assert negative.code == 1
    joined = "\n".join(negative.messages)
    assert "requires area(Q) < area(Sigma-3)" in joined
    assert "requires area(Sigma-3) < area(Q)" in joined
    _announce(
        5,
        "blowup-trade verifies at ~; demanding = fails reporting the "
        "opposite strict area inequalities",
    )


def test_acceptance_6_rational_blowdown():
    result = run(DEMOS["rational-blowdown"])
    assert result.code == 0
    trace = result.verdict.trace
    assert trace[0].invariants == trace[-1].invariants == InvariantVector(36, -24)
    final = trace[-1].expr
    assert isinstance(final, AtomNode)
    assert final.kind == EllipticSurface(3)
    _announce(
        6,
        "rational blow-down along the quadric restores the original "
        "manifold with chi=36 sigma=-24",
    )


def test_acceptance_7_thicken_thin_algebra():
    rng = random.Random(0x7A1)
    for _ in range(1000):
        g = rng.randint(0, 3)
        i = rng.randint(-6, 6)
        a = AreaValue(
            Fraction(rng.randint(2, 60), rng.randint(1, 12)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
        )
        pa = AreaValue(
            Fraction(rng.randint(2, 60), rng.randint(1, 12)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
        )
        eps1 = area(0, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        eps2 = area(0, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        x = AtomNode(
            RationalSurface(rng.randint(0, 9)),
            (
                SurfaceMark("S", g, i, a, "T"),
                SurfaceMark(
                    "T", rng.randint(0, 3), rng.randint(-6, 6), pa, "S"
                ),
            ),
        )
        s, t = x.mark("S"), x.mark("T")

        thinned = Thin(x, "S", eps1)
        assert thinned.mark("S-").area == s.area - eps1.scale(i)
        assert thinned.mark("T-").area == t.area - eps1

        thickened = Thicken(x, "S", eps1)
        assert thickened.mark("S+").area == s.area + eps1.scale(i)
        assert thickened.mark("T+").area == t.area + eps1

        # thicken then thin restores every mark's data
        back = Thin(thickened, "S+", eps1)
        assert sorted(m.data for m in back.marks) == sorted(
            m.data for m in x.marks
        )

        # the order of thickening and thinning does not matter
        route1 = Thicken(Thin(x, "S", eps1), "T-", eps2)
        route2 = Thin(Thicken(x, "T", eps2), "S+", eps1)
        assert sorted(m.data for m in route1.marks) == sorted(
            m.data for m in route2.marks
        )
    _announce(7, "thicken/thin area formulas hold bitwise over 1000 random marks")


def test_acceptance_8_roundtrips_and_goldens():
    assert len(CORPUS) >= 10
    for name, src in CORPUS.items():
        ast = parse(src)
        printed = print_script(ast)
        assert parse(printed) == ast, name
        assert print_script(parse(printed)) == printed, name
    for name, render in FIGURES.items():
        frozen = (GOLDEN / f"{name}.svg").read_bytes()
        assert render().encode("utf-8") == frozen
        assert render().encode("utf-8") == frozen  # byte-identical across runs
    _announce(
        8,
        f"{len(CORPUS)} scripts round-trip; {len(FIGURES)} SVG goldens "
        "byte-identical across runs",
    )
