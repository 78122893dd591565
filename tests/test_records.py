"""The record classes: their reprs, equality, hashing and immutability.

The repr strings were written down from the generated dataclass reprs of
the same instances; users see them, e.g. in R2's side-condition
failures, so they stay byte-identical.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import symsum
from symsum.areas import area
from symsum.core import (
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
    Thicken,
    Thin,
    Violation,
)
from symsum.demos import CORPUS
from symsum.invariants import InvariantVector
from symsum.rewrite import RULE_MODULES, ProofStep
from symsum.script import (
    AtomDecl,
    ExprFileAst,
    ScriptAst,
    ScriptError,
    TripleDecl,
    parse,
    run,
)
from symsum.record import Record
from test_memo import chain_script
from traces import MALFORMED, RULE_MESSAGES, RULE_SHAPES

S = SurfaceMark("S", 0, -1, area(1), "T")
T = SurfaceMark("T", 1, 0, area("1/2", -3), "S")
E1 = AtomNode(EllipticSurface(1), (SurfaceMark("S", 0, -1, area(1)),))
CP2 = AtomNode(ProjectivePlane(), (SurfaceMark("L", 0, 1, area(1)),))

ONE = "AreaValue(const=Fraction(1, 1), eps_coeff=Fraction(0, 1))"
EPS = "AreaValue(const=Fraction(0, 1), eps_coeff=Fraction(1, 1))"
MARK_S = f"SurfaceMark(label='S', genus=0, normal_number=-1, area={ONE}, orthogonal_at='T')"
MARK_T = (
    "SurfaceMark(label='T', genus=1, normal_number=0, "
    "area=AreaValue(const=Fraction(1, 2), eps_coeff=Fraction(-3, 1)), orthogonal_at='S')"
)
ATOM_E1 = (
    "AtomNode(kind=EllipticSurface(n=1), marks=(SurfaceMark(label='S', "
    f"genus=0, normal_number=-1, area={ONE}, orthogonal_at=None),))"
)
ATOM_CP2 = (
    "AtomNode(kind=ProjectivePlane(), marks=(SurfaceMark(label='L', "
    f"genus=0, normal_number=1, area={ONE}, orthogonal_at=None),))"
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
        lambda: AtomNode(EllipticSurface(1), (T, S)),
        f"AtomNode(kind=EllipticSurface(n=1), marks=({MARK_S}, {MARK_T}))",
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
    (lambda: AtomDecl("X", E1), f"AtomDecl(name='X', atom={ATOM_E1})"),
    (
        lambda: TripleDecl("T1", E1, "S", "F"),
        f"TripleDecl(name='T1', expr={ATOM_E1}, s='S', t='F')",
    ),
    (
        lambda: ScriptAst([], E1, CP2, "=", []),
        f"ScriptAst(decls=[], lhs={ATOM_E1}, rhs={ATOM_CP2}, target='=', steps=[])",
    ),
    (lambda: ExprFileAst([], E1), f"ExprFileAst(decls=[], expr={ATOM_E1})"),
    (lambda: ProofStep("R8", {"at": "root"}), "ProofStep(rule='R8', bindings={'at': 'root'}, rev=False, note=None)"),
    (
        lambda: ProofStep("R2", {"eps": area(0, 1)}, True, "note"),
        f"ProofStep(rule='R2', bindings={{'eps': {EPS}}}, rev=True, note='note')",
    ),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[e.split("(")[0] for _, e in REPRS])
def test_repr_is_unchanged(make, expected):
    assert repr(make()) == expected


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda n: InvariantVector(n, 0), "InvariantVector(euler={}, signature=0)"),
        (lambda n: InvariantVector(-7, -n), "InvariantVector(euler=-7, signature=-{})"),
        (EllipticSurface, "EllipticSurface(n={})"),
    ],
    ids=["InvariantVector euler", "InvariantVector signature", "EllipticSurface"],
)
def test_an_int_field_past_the_digit_limit_prints_in_the_repr(make, text):
    """An int field's repr is its digits at any size, as repr() writes
    them below int()'s digit limit."""
    n = 10**4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = text.format(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert repr(make(n)) == expected


def test_syntax_records_compare_without_their_positions():
    """A script's records keep no positions: the same script laid out
    otherwise parses to an equal AST."""
    source = CORPUS["assoc-sym"]
    moved = "# a comment\n\n" + source.replace(" ", "  ").replace("\n", "\n\n")
    assert parse(moved) == parse(source)
    assert AtomDecl("X", E1) != AtomDecl("Y", E1)
    assert AtomDecl("X", E1) != TripleDecl("X", E1, "S", "T")


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
        hash(AtomDecl("X", E1))  # mutable records are unhashable
    d = AtomDecl("X", E1)
    d.name = "Y"
    assert d == AtomDecl("Y", E1)


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
    assert [name for name, _ in TripleDecl.FIELDS] == ["name", "expr", "s", "t"]


def _collars():
    x = AtomNode(RationalSurface(0), (S.replace(normal_number=1), T))
    return Thin(x, "S", area(0, 1)), Thicken(x, "S", area(0, 1))


def test_thin_and_thicken_are_two_classes_on_one_base():
    """The two collars share their fields and code but are different
    node types, which compare unequal and hash differently."""
    thin, thick = _collars()
    assert thin != thick and thick != thin
    assert hash(thin) != hash(thick)
    assert thin == Thin(thin.inner, "S", area(0, 1)) and hash(thin) == hash(_collars()[0])
    fields = (("inner", "ManifoldExpr"), ("mark_label", "str"), ("amount", "AreaValue"))
    for node, flag, suffix in ((thin, "decreased", "-"), (thick, "increased", "+")):
        name = type(node).__name__
        assert type(node).FIELDS == fields and type(node).DEFAULTS == {}
        assert node.volume_flag == flag
        assert node.mark_labels == ("S" + suffix, "T" + suffix)
        assert repr(node) == (
            f"{name}(inner={node.inner!r}, mark_label='S', amount={EPS})"
        )
        assert node.replace(amount=area(0, 2)).amount == area(0, 2)
        assert type(node.replace()) is type(node)


def test_tracer_counts_each_collar_node_once():
    """perfbench's tracer counts node constructors by class name; the two
    collars share their `__init__`, and each construction counts once."""
    root = str(pathlib.Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.tracer import Tracer

    import symsum.invariants  # noqa: F401  (the tracer wraps its walks)
    import symsum.sums  # noqa: F401

    thin, thick = _collars()
    tracer = Tracer()
    tracer.install()
    try:
        Thin(thin.inner, "S", area(0, 1))
        Thicken(thick.inner, "S", area(0, 1))
    finally:
        tracer.uninstall()
    assert tracer.counts["core.nodes_created"] == 2
    _collars()
    assert tracer.counts["core.nodes_created"] == 2


def _asts():
    """The AST of every corpus and golden script that parses, and of one
    with a gluing option and a paired exceptional mark."""
    glued = (
        "atom A E(1) { F: g=1, i=0, a=1 }\natom B E(1) { G: g=1, i=0, a=1 }\n"
        "lhs sum(A, F, B, G, glue = twist) rhs blowup(A, at = F, size = 1/4, pairexc) target ="
    )
    for source in [*CORPUS.values(), *MALFORMED.values(), *RULE_SHAPES.values(),
                   *RULE_MESSAGES.values(), glued]:
        try:
            yield parse(source)
        except ScriptError:
            pass


def _recursive_repr(record) -> str:
    """The record repr written recursively, one Python frame or more per
    level of nesting: the reference for the repr written from a stack."""
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n, _ in record.FIELDS)
    return f"{type(record).__qualname__}({fields})"


def test_op_expr_repr_is_the_record_repr(monkeypatch):
    """The record repr, written from a stack, prints the bytes of the
    recursive reference repr on ASTs, whose sides are built operation
    nodes (options, pairs and FourSum's entries too), and on the trees of
    the corpus's traces."""
    values = list(_asts())
    values += [rec.expr for source in CORPUS.values() for rec in run(source).verdict.trace]
    iterative = [repr(value) for value in values]
    monkeypatch.setattr(Record, "__repr__", _recursive_repr)
    assert iterative == [repr(value) for value in values]
    for option in ("pairs=((", "gluing=GluingChoice(label='twist')", "pair_exceptional=True"):
        assert any(option in text for text in iterative), option
    assert any(text.startswith("FourSum(x1=") for text in iterative)


def test_repr_of_a_deep_built_node():
    lhs = parse(chain_script(2000, 2)).lhs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default, at which a recursive repr fails
    try:
        text = repr(lhs)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("PairSum(left=") == 1999
    assert text.startswith("PairSum(left=PairSum(left=")
    assert text.endswith(
        "right_mark='A2000', gluing=GluingChoice(label='std'), carry_label=None, pairs=())"
    )


# what `import symsum.cli` loads of symsum: the checker, `symsum.sums`
# among it, and no rule module
CHECKER = {
    "symsum", "symsum.record", "symsum.areas", "symsum.core", "symsum.invariants",
    "symsum.sums", "symsum.rewrite", "symsum.script",
}


def _imported(args, env):
    """The modules a fresh interpreter run with `args` imports, as
    `python -X importtime` reports them."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import time:.*\| +([\w.]+)$", proc.stderr, re.M))


def test_importing_the_cli_loads_no_unneeded_modules(tmp_path):
    """`import symsum.cli` is most of a CLI call; the records build their
    methods without the standard library's generated-method machinery,
    and JSON and the figure renderer load only in the subcommands that
    use them.  A call compiles the modules of its script's rules and no
    other rule module."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    resolve = tmp_path / "resolve.ssum"
    resolve.write_text(CORPUS["resolve"], encoding="utf-8")
    calls = [
        (["-c", "import symsum.cli"], None, CHECKER | {"symsum.cli"}),
        (["-m", "symsum.cli", "demo", "assoc-sym"], "assoc-sym", CHECKER | {"symsum.demos"}),
        (["-m", "symsum.cli", "check", str(resolve), "--trace", "json"], "resolve", CHECKER),
    ]
    for args, script, expected in calls:
        loaded = _imported(args, env)
        if script is not None:
            rules = {f"symsum.rules.{RULE_MODULES[s.rule]}" for s in parse(CORPUS[script]).steps}
            expected = expected | {"symsum.rules"} | rules
        assert {m for m in loaded if m.startswith("symsum")} == expected, args
        assert not loaded & {"dataclasses", "inspect", "symsum.polytope"}, args
        assert ("json" in loaded) == ("json" in args), args


def test_import_symsum_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    loaded = _imported(["-c", "import symsum"], env)
    assert {m for m in loaded if m.startswith("symsum")} == {"symsum"}
    # a submodule loads on first use, through the package's __getattr__
    loaded = _imported(["-c", "import symsum; symsum.sums"], env)
    assert {m for m in loaded if m.startswith("symsum")} >= {"symsum", "symsum.sums"}


def test_each_export_is_defined_in_its_home_module():
    """No alias or re-export: a public name is defined where `_HOMES` says."""
    for name in symsum.__all__:
        assert getattr(symsum, name).__module__ == "symsum." + symsum._HOMES[name], name


def test_lazy_exports_are_their_home_modules_attributes():
    for name in symsum.__all__:
        home = symsum._HOMES[name]
        assert getattr(symsum, name) is getattr(importlib.import_module(f"symsum.{home}"), name)
    assert set(symsum.__all__) <= set(dir(symsum))
    namespace = {}
    exec("from symsum import *", namespace)
    assert set(symsum.__all__) <= set(namespace)
    assert namespace["run"] is symsum.script.run
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        symsum.no_such_name


def test_side_conditions_that_hold_format_nothing(monkeypatch):
    """A side condition formats its failure message, which may hold mark
    data and area reprs, only once it has failed."""
    from symsum.demos import VERIFYING
    from symsum.script import run

    calls = []
    record_repr = Record.__repr__
    monkeypatch.setattr(Record, "__repr__", lambda r: calls.append(r) or record_repr(r))
    for name, source in VERIFYING.items():
        assert run(source).code == 0, name
    assert len(calls) == 0  # the count, as printing the records would call the repr
