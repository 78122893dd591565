"""The record classes: their reprs, equality, hashing and immutability.

The repr strings were written down from the generated dataclass reprs of
the same instances; users see them, e.g. in R2's side-condition
failures, so they stay byte-identical.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import symsum
from symsum.areas import area
from symsum.core import (
    Atom,
    AtomNode,
    BlowUp,
    EllipticSurface,
    GluingChoice,
    MarkError,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
    Thin,
    Violation,
)
from symsum.invariants import InvariantVector
from symsum.rewrite import ProofStep
from symsum.script import (
    AtomDecl,
    AtomExpr,
    ExprFileAst,
    MarkSpec,
    OpExpr,
    Pos,
    RefExpr,
    ScriptAst,
    StepNode,
    TripleDecl,
)

S = SurfaceMark("S", 0, -1, area(1), "T")
T = SurfaceMark("T", 1, 0, area("1/2", -3), "S")
E1 = AtomNode(Atom(EllipticSurface(1), (SurfaceMark("S", 0, -1, area(1)),)))
CP2 = AtomNode(Atom(ProjectivePlane(), (SurfaceMark("L", 0, 1, area(1)),)))

ONE = "AreaValue(const=Fraction(1, 1), eps_coeff=Fraction(0, 1))"
EPS = "AreaValue(const=Fraction(0, 1), eps_coeff=Fraction(1, 1))"
MARK_S = f"SurfaceMark(label='S', genus=0, normal_number=-1, area={ONE}, orthogonal_at='T')"
MARK_T = (
    "SurfaceMark(label='T', genus=1, normal_number=0, "
    "area=AreaValue(const=Fraction(1, 2), eps_coeff=Fraction(-3, 1)), orthogonal_at='S')"
)
ATOM_E1 = (
    "AtomNode(atom=Atom(kind=EllipticSurface(n=1), marks=(SurfaceMark(label='S', "
    f"genus=0, normal_number=-1, area={ONE}, orthogonal_at=None),)))"
)
ATOM_CP2 = (
    "AtomNode(atom=Atom(kind=ProjectivePlane(), marks=(SurfaceMark(label='L', "
    f"genus=0, normal_number=1, area={ONE}, orthogonal_at=None),)))"
)

REPRS = [
    (lambda: area(2, 4), "AreaValue(const=Fraction(2, 1), eps_coeff=Fraction(4, 1))"),
    (lambda: area(1), ONE),
    (lambda: S, MARK_S),
    (lambda: T, MARK_T),
    (lambda: GluingChoice(), "GluingChoice(label='std')"),
    (lambda: GluingChoice("twist"), "GluingChoice(label='twist')"),
    (
        lambda: Violation("area", area(1), area(2)),
        f"Violation(condition='area', left={ONE}, "
        "right=AreaValue(const=Fraction(2, 1), eps_coeff=Fraction(0, 1)), index=None)",
    ),
    (lambda: Violation("genus", 0, 1, 3), "Violation(condition='genus', left=0, right=1, index=3)"),
    (lambda: EllipticSurface(1), "EllipticSurface(n=1)"),
    (lambda: ProjectivePlane(), "ProjectivePlane()"),
    (lambda: ProjectivePlaneReversed(), "ProjectivePlaneReversed()"),
    (
        lambda: RuledSurface(0, 2, area(0, 1)),
        f"RuledSurface(genus=0, twist=2, fiber_area={EPS})",
    ),
    (lambda: RationalSurface(9), "RationalSurface(blowups=9)"),
    (
        lambda: Atom(EllipticSurface(1), (T, S)),
        f"Atom(kind=EllipticSurface(n=1), marks=({MARK_S}, {MARK_T}))",
    ),
    (
        lambda: AtomNode(Atom(EllipticSurface(1), (S, T))),
        f"AtomNode(atom=Atom(kind=EllipticSurface(n=1), marks=({MARK_S}, {MARK_T})))",
    ),
    (
        lambda: PairSum(E1, "S", CP2, "L"),
        f"PairSum(left={ATOM_E1}, left_mark='S', right={ATOM_CP2}, right_mark='L', "
        "gluing=GluingChoice(label='std'), carry_label=None, pairs=())",
    ),
    (
        lambda: BlowUp(CP2, "L", area("1/2")),
        f"BlowUp(inner={ATOM_CP2}, at_mark='L', "
        "size=AreaValue(const=Fraction(1, 2), eps_coeff=Fraction(0, 1)), "
        "transform_label=None, exceptional_label='E', pair_exceptional=False)",
    ),
    (lambda: InvariantVector(12, -8), "InvariantVector(euler=12, signature=-8)"),
    (lambda: Pos(3, 4), "Pos(line=3, col=4)"),
    (
        lambda: MarkSpec("S", 0, -1, area(1), None, Pos(1, 2)),
        f"MarkSpec(label='S', genus=0, normal_number=-1, area={ONE}, orthogonal_at=None)",
    ),
    (
        lambda: AtomDecl("X", EllipticSurface(1), [MarkSpec("F", 1, 0, area(1))], Pos(5, 6)),
        "AtomDecl(name='X', kind=EllipticSurface(n=1), marks=[MarkSpec(label='F', "
        f"genus=1, normal_number=0, area={ONE}, orthogonal_at=None)])",
    ),
    (
        lambda: TripleDecl("T1", RefExpr("X", Pos(1, 1)), "S", "F", Pos(2, 2)),
        "TripleDecl(name='T1', expr=RefExpr(name='X'), s='S', t='F')",
    ),
    (lambda: RefExpr("X", Pos(7, 8)), "RefExpr(name='X')"),
    (lambda: AtomExpr(ProjectivePlane(), [], Pos(1, 1)), "AtomExpr(kind=ProjectivePlane(), marks=[])"),
    (
        lambda: OpExpr(
            Thin, {"inner": RefExpr("X"), "mark_label": "S", "amount": area(0, 1)}, Pos(9, 9)
        ),
        "OpExpr(cls=<class 'symsum.core.Thin'>, args={'inner': RefExpr(name='X'), "
        f"'mark_label': 'S', 'amount': {EPS}}})",
    ),
    (
        lambda: StepNode(
            "R2", {"at": ("name", "root"), "eps": ("area", area(0, 1))}, True, "why", Pos(1, 1)
        ),
        "StepNode(rule='R2', slots={'at': ('name', 'root'), "
        f"'eps': ('area', {EPS})}}, rev=True, note='why')",
    ),
    (
        lambda: ScriptAst([], RefExpr("A"), RefExpr("B"), "=", []),
        "ScriptAst(decls=[], lhs=RefExpr(name='A'), rhs=RefExpr(name='B'), target='=', steps=[])",
    ),
    (lambda: ExprFileAst([], RefExpr("A")), "ExprFileAst(decls=[], expr=RefExpr(name='A'))"),
    (lambda: ProofStep("R8", {"at": "root"}), "ProofStep(rule='R8', bindings={'at': 'root'}, rev=False, note=None)"),
    (
        lambda: ProofStep("R2", {"eps": area(0, 1)}, True, "note"),
        f"ProofStep(rule='R2', bindings={{'eps': {EPS}}}, rev=True, note='note')",
    ),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[e.split("(")[0] for _, e in REPRS])
def test_repr_is_unchanged(make, expected):
    assert repr(make()) == expected


def test_syntax_records_compare_without_their_positions():
    assert RefExpr("X", Pos(1, 1)) == RefExpr("X", Pos(2, 5))
    assert RefExpr("X") != RefExpr("Y")
    assert MarkSpec("S", 0, -1, area(1), None, Pos(1, 2)) == MarkSpec("S", 0, -1, area(1))
    assert RefExpr("X") != TripleDecl("X", RefExpr("X"), "S", "T")
    assert Pos(1, 1) != Pos(1, 2)  # a position itself compares by value


def test_frozen_records_hash_by_value_and_refuse_assignment():
    assert hash(area(1, 2)) == hash(area(1, 2))
    assert len({S, SurfaceMark("S", 0, -1, area(1), "T"), T}) == 2
    assert InvariantVector(1, 2) == InvariantVector(1, 2) != InvariantVector(2, 1)
    for record, name in ((area(1), "const"), (S, "genus"), (E1, "atom"), (CP2, "_pool")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError):
        hash(Pos(1, 1))  # mutable records are unhashable
    p = Pos(1, 1)
    p.line = 2
    assert p == Pos(2, 1)


def test_replace_runs_the_checks_again():
    moved = S.replace(label="U", orthogonal_at=None)
    assert moved == SurfaceMark("U", 0, -1, area(1)) and S.label == "S"
    with pytest.raises(MarkError, match="genus must be >= 0"):
        S.replace(genus=-1)
    assert area(1).replace(eps_coeff=3) == area(1, 3)
    assert area(1).replace(const="1/2").const == Fraction(1, 2)
    with pytest.raises(MarkError, match="must be positive"):
        BlowUp(CP2, "L", area("1/2")).replace(size=area(-1))


def test_fields_are_the_init_parameters():
    assert SurfaceMark.FIELDS == (
        ("label", "str"),
        ("genus", "int"),
        ("normal_number", "int"),
        ("area", "AreaValue"),
        ("orthogonal_at", "Optional[str]"),
    )
    assert RuledSurface.FIELDS[2] == ("fiber_area", "AreaValue")
    assert ProjectivePlane.FIELDS == ()
    assert BlowUp.DEFAULTS == {
        "transform_label": None, "exceptional_label": "E", "pair_exceptional": False
    }
    assert [name for name, _ in RefExpr.FIELDS] == ["name", "pos"]


def test_importing_the_cli_loads_no_unneeded_modules():
    """`import symsum.cli` is most of a CLI call; the records build their
    methods without the standard library's generated-method machinery,
    and JSON and the figure renderer load only in the subcommands that
    use them."""
    code = (
        "import sys, symsum.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json', 'symsum.polytope')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
