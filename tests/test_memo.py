"""Per-node memos: deep proofs, iterative equality, and the label-pool
and invariant memos checked against plain recursive recomputation.

The depth tests run under the interpreter's default recursion limit:
nothing here raises it."""

import json
import sys
import tracemalloc

import pytest

from symsum.areas import area
from symsum.core import (
    Atom,
    AtomNode,
    BlowUp,
    Desing,
    FourSum,
    PairSum,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RationalSurface,
    RuledSurface,
    SurfaceMark,
    Thicken,
    Thin,
    label_pool,
)
from symsum.demos import CORPUS
from symsum.invariants import InvariantVector, atom_invariants, expr_invariants
from symsum.rewrite import apply_rule
from symsum import script
from symsum.script import (
    OpExpr,
    ScriptError,
    build_script,
    parse,
    render_trace_json,
    render_trace_text,
    run,
    serialize_expr,
)


def chain_script(depth: int, path_len: int) -> str:
    """`depth` ruled atoms W(0,1,0+1e) glued B_{i-1} = A_i into a
    left-nested chain, proved equal to itself by an R8 forward/reverse
    pair at the root and another at `left` repeated `path_len` times."""
    lines = [
        f"atom W{i} W(0,1,0+1e) {{ A{i}: g=0, i=-1, a=1+{i}e; "
        f"B{i}: g=0, i=1, a=1+{i + 1}e }}"
        for i in range(1, depth + 1)
    ]
    expr = "W1"
    for i in range(2, depth + 1):
        expr = f"sum({expr}, B{i - 1}, W{i}, A{i})"
    at = ".".join(["left"] * path_len)
    lines += [
        f"lhs {expr}",
        f"rhs {expr}",
        "target =",
        "by R8 { at = root, eps = 0+1e }",
        "by R8 { at = root } rev",
        f"by R8 {{ at = {at}, eps = 0+1e }}",
        f"by R8 {{ at = {at} }} rev",
    ]
    return "\n".join(lines) + "\n"


def ruled(i: int) -> AtomNode:
    return AtomNode(
        Atom(
            RuledSurface(0, 1, area(0, 1)),
            (
                SurfaceMark(f"A{i}", 0, -1, area(1, i)),
                SurfaceMark(f"B{i}", 0, 1, area(1, i + 1)),
            ),
        )
    )


def chain(depth: int, bottom_area=area(1)) -> PairSum:
    """A left-nested chain whose bottom atom is a rational surface with a
    free mark P of the given area, then ruled atoms 2..depth."""
    e = AtomNode(
        Atom(
            RationalSurface(1),
            (SurfaceMark("P", 0, -1, bottom_area), SurfaceMark("B1", 0, 1, area(1, 2))),
        )
    )
    for i in range(2, depth + 1):
        e = PairSum(e, f"B{i - 1}", ruled(i), f"A{i}")
    return e


def nodes(*roots):
    """Every distinct node reachable from the roots."""
    seen, stack = {}, list(roots)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(n.children())
    return list(seen.values())


def test_depth_800_proof_verifies_under_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    r = run(chain_script(800, 400))
    assert r.code == 0, r.messages
    assert r.messages[-1] == "verdict: = (symplectomorphic) chi=4 sigma=0"
    assert len(r.verdict.trace) == 5
    assert all(rec.invariants == InvariantVector(4, 0) for rec in r.verdict.trace)


def test_deep_trees_compare_without_recursion():
    a, b = chain(800), chain(800)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    c = chain(800, bottom_area=area(2))
    assert a != c and not a == c
    assert chain(800) == a  # comparing leaves the trees as they were


def _ref_pool(e) -> frozenset:
    """The label pool by a full recursive walk, from first principles."""
    if isinstance(e, AtomNode):
        return frozenset(m.label for m in e.atom.marks)
    pool = set()
    for c in e.children():
        pool |= _ref_pool(c)
    if isinstance(e, PairSum):
        lt, rs = e.left.mark(e.left_mark), e.right.mark(e.right_mark)
        if lt.orthogonal_at and rs.orthogonal_at:
            pool.add(e.carry_label or f"{lt.orthogonal_at}#{rs.orthogonal_at}")
    elif isinstance(e, BlowUp):
        pool.add(e.exceptional_label)
        if e.at_mark is not None:
            pool.add(e.transform_label or f"{e.at_mark}~")
    elif isinstance(e, Desing):
        pool.add(e.label or f"{e.mark_s}+{e.mark_t}")
    elif isinstance(e, (Thin, Thicken, FourSum)):
        pool |= set(e.mark_labels)
    return frozenset(pool)


def _ref_invariants(e) -> InvariantVector:
    if isinstance(e, AtomNode):
        return atom_invariants(e.atom)
    if isinstance(e, PairSum):
        a, b = _ref_invariants(e.left), _ref_invariants(e.right)
        genus = e.left.mark(e.left_mark).genus
        return InvariantVector(a.euler + b.euler - 2 * (2 - 2 * genus), a.signature + b.signature)
    if isinstance(e, FourSum):
        return _ref_invariants(e.evaluated())
    if isinstance(e, BlowUp):
        inner = _ref_invariants(e.inner)
        return InvariantVector(inner.euler + 1, inner.signature - 1)
    return _ref_invariants(e.inner)


def shared_atom_tree() -> PairSum:
    """A valid tree holding one markless atom twice: two generic blow-ups
    of the same reversed plane, one of them blown down again."""
    r = AtomNode(Atom(ProjectivePlaneReversed()))
    plane = AtomNode(
        Atom(
            ProjectivePlane(),
            (SurfaceMark("L1", 0, 1, area(1)), SurfaceMark("L2", 0, 1, area(1))),
        )
    )
    left = BlowUp(r, None, area(1), exceptional_label="E1")
    right = PairSum(BlowUp(r, None, area(1), exceptional_label="E2"), "E2", plane, "L1")
    return PairSum(left, "E1", right, "L2")


def test_memos_match_recomputation_on_every_corpus_node():
    trees = [(name, rec.expr) for name, src in CORPUS.items() for rec in run(src).verdict.trace]
    trees.append(("shared atom", shared_atom_tree()))
    checked = 0
    for name, tree in trees:
        all_nodes = nodes(tree)
        # memos asked for top-down, then bottom-up, so that pools are
        # both handed over and rebuilt from handed-over children
        for n in all_nodes + all_nodes[::-1]:
            assert label_pool(n) == _ref_pool(n), name
            assert expr_invariants(n) == _ref_invariants(n), name
            checked += 1
        for n in all_nodes:
            if n._pool is not None:
                assert n._pool == _ref_pool(n), name
            assert n._inv == _ref_invariants(n), name
    assert checked > 200


def test_pool_memos_stay_linear_in_depth():
    depth = 400
    built = build_script(parse(chain_script(depth, depth // 2)))
    at = ".".join(["left"] * (depth // 2))
    app = apply_rule(built.lhs, "R8", {"at": at, "eps": area(0, 1)})
    pools = [n._pool for n in nodes(built.lhs, built.rhs, app.expr) if n._pool is not None]
    # atoms keep their own two labels and a few nodes a whole tree's
    # pool; one memo per node would hold about depth^2 labels in all
    assert sum(len(p) for p in pools) < 12 * depth
    assert label_pool(app.expr) == _ref_pool(app.expr)


def test_pool_walk_memory_stays_linear_in_depth():
    e = chain(400)
    label_pool(e)  # takes over every pool below, so e.left must walk to the atoms
    tracemalloc.start()
    try:
        pool = label_pool(e.left)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pool) == 2 * 399
    # the pools of all 399 levels alive at once would take several MB
    assert peak < 500_000


def test_render_prints_each_distinct_atom_once(monkeypatch):
    calls = []
    atom_text = script._atom_text
    monkeypatch.setattr(script, "_atom_text", lambda *a: calls.append(a) or atom_text(*a))
    r = run(chain_script(50, 20))
    exprs = [rec.expr for rec in r.verdict.trace]
    atoms = [n for n in nodes(*exprs) if isinstance(n, AtomNode)]
    text, js = render_trace_text(r.verdict), render_trace_json(r.verdict)
    assert len(calls) == len(atoms) < 2 * 50
    for a in atoms:  # a fresh print of every tree agrees with the memos
        del a.__dict__["_text"]
    fresh = [serialize_expr(e) for e in exprs]
    assert len(calls) == 2 * len(atoms)
    assert all(f"  {s}" in text.splitlines() for s in fresh)
    assert [json.loads(line)["expr"] for line in js.splitlines()] == fresh


def test_nesting_past_the_recursion_limit_is_a_script_error():
    r = run(chain_script(1000, 500))
    assert r.code == 2 and r.verdict is None
    assert len(r.messages) == 1
    assert r.messages[0].endswith(": expression nested too deeply")


def test_building_past_the_recursion_limit_is_a_script_error():
    ast = parse("atom W W(0,1,0+1e) { A: g=0, i=-1, a=1 }\nlhs W rhs W target =")
    deep = ast.lhs
    for _ in range(2000):  # an AST no parse would return under the limit
        deep = OpExpr(Thin, {"inner": deep, "mark_label": "A", "amount": area(1)}, deep.pos)
    ast.lhs = deep
    with pytest.raises(ScriptError, match="^2:5: expression nested too deeply$"):
        build_script(ast)
