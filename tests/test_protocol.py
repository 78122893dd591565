"""The node protocol: children, selectors, mark references and
with_children, on every node class, and a rebuild far deeper than the
recursion limit."""

import sys
from fractions import Fraction

import pytest

from test_memo import chain

from symsum.areas import area
from symsum.core import AtomNode, rename
from symsum.rewrite import RuleError, _spine, apply_rule, parse_path
from symsum.script import parse


def resolve_path(e, path):
    """The subtree of `e` at `path`."""
    return _spine(e, path)[1]


DECLS = """
atom A E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }
atom B E(1) { F1: g=1, i=0, a=1, perp Sigma-1; Sigma-1: g=0, i=-1, a=1, perp F1 }
atom C E(1) { Sigma-1c: g=0, i=-1, a=1, perp F1c; F1c: g=1, i=0, a=1, perp Sigma-1c;
              F2: g=1, i=0, a=1 }
atom D E(1) { F1d: g=1, i=0, a=1, perp Sigma-1d; Sigma-1d: g=0, i=-1, a=1, perp F1d }
atom X E(3) { Sigma-3: g=0, i=-3, a=1 }
""" + "".join(
    f"atom X{i} Rational({4 + i}) {{ A{i}: g=1, i=2, a=1, perp B{i}; "
    f"B{i}: g=1, i=-2, a=1, perp A{i} }}\n"
    for i in (1, 2, 3, 4)
)

# one node of each of the seven classes, every child an atom
NODES = {
    "AtomNode": "A",
    "PairSum": "sum(C, F1c, D, F1d, carry=Sigma-2, pair=Sigma-2:F2)",
    "FourSum": "sum4((X1, A1, B1), (X2, A2, B2), (X3, A3, B3), (X4, A4, B4))",
    "BlowUp": "blowup(X, at=Sigma-3, size=1/4, transform=St)",
    "Thin": "thin(A, F3, 0+1e)",
    "Thicken": "thicken(B, F1, 0+1e)",
    "Desing": "desing(A, Sigma-3, F3, label=T)",
}


def node(name):
    expr = NODES[name]
    return parse(f"{DECLS}lhs {expr} rhs {expr} target =").lhs


def primed(atom_node: AtomNode) -> tuple[AtomNode, dict]:
    """The atom with every mark label primed, and the label map."""
    relabel = {m.label: m.label + "'" for m in atom_node.marks}
    marks = tuple(
        m.replace(label=relabel[m.label], orthogonal_at=rename(relabel, m.orthogonal_at))
        for m in atom_node.marks
    )
    return AtomNode(atom_node.kind, marks), relabel


def data(e) -> dict:
    return {name: getattr(e, name) for name, _ in e.FIELDS if name not in e.SELECTORS}


@pytest.mark.parametrize("name", NODES)
def test_with_own_children_is_equal(name):
    e = node(name)
    assert type(e).__name__ == name
    assert len(e.children()) == len(e.SELECTORS)
    assert e.with_children(e.children()) == e


@pytest.mark.parametrize("name", NODES)
def test_a_node_compared_with_another_type_is_unequal(name):
    """A node leaves the comparison with a number or a string to the
    other operand, so `==` falls back to identity and does not raise."""
    e = node(name)
    for other in (3, "x"):
        assert e.__eq__(other) is NotImplemented
        assert e != other and other != e and not e == other


@pytest.mark.parametrize("name", NODES)
def test_each_selector_resolves_through_at(name):
    e = node(name)
    for sel, child in zip(e.SELECTORS, e.children()):
        assert resolve_path(e, parse_path(sel)) is child
    with pytest.raises(RuleError, match="path selector 'nope' does not apply"):
        resolve_path(e, parse_path("nope"))


@pytest.mark.parametrize("name", [n for n in NODES if n != "AtomNode"])
def test_relabel_renames_exactly_that_childs_mark_refs(name):
    e = node(name)
    for i, child in enumerate(e.children()):
        new_child, relabel = primed(child)
        kids = list(e.children())
        kids[i] = new_child
        new = e.with_children(kids, relabel, at=i)
        assert new.children()[i] is new_child
        old_data, new_data = data(e), data(new)
        for field_name, value in old_data.items():
            want = rename(relabel, value) if field_name in e.MARK_REFS[i] else value
            assert new_data[field_name] == want, field_name
        assert any(old_data[f] != new_data[f] for f in e.MARK_REFS[i])


def test_relabel_of_every_child_at_once():
    e = node("PairSum")
    (left, rl), (right, rr) = primed(e.left), primed(e.right)
    new = e.with_children((left, right), {**rl, **rr})
    assert (new.left_mark, new.right_mark) == ("F1c'", "F1d'")
    assert new.pairs == (("Sigma-2", "F2'"),)


def test_changes_are_applied_with_the_children():
    e = node("BlowUp")
    new = e.with_children(e.children(), size=area(Fraction(1, 8)))
    assert new.size == area(Fraction(1, 8)) and new.inner is e.inner and new.at_mark == "Sigma-3"


def test_r8_pair_at_a_1200_long_path_rebuilds_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    lhs = chain(1500)
    at = ".".join(["left"] * 1200)
    there = apply_rule(lhs, "R8", {"at": at, "eps": area(0, 1)})
    back = apply_rule(there.expr, "R8", {"at": at}, rev=True)
    assert there.expr != lhs
    assert back.expr == lhs
