"""Per-node memos: deep proofs, iterative equality, and the label-pool
and invariant memos checked against plain recursive recomputation.

The depth tests run under the interpreter's default recursion limit:
nothing here raises it."""

import json
import sys
import tracemalloc
from itertools import islice

import pytest

from symsum.areas import AreaValue, area
from symsum.core import (
    AtomKind,
    AtomNode,
    BlowUp,
    Desing,
    FourSum,
    ManifoldExpr,
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
from symsum import core, script
from symsum.script import (
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
        RuledSurface(0, 1, area(0, 1)),
        (
            SurfaceMark(f"A{i}", 0, -1, area(1, i)),
            SurfaceMark(f"B{i}", 0, 1, area(1, i + 1)),
        ),
    )


def chain(depth: int, bottom_area=area(1)) -> PairSum:
    """A left-nested chain whose bottom atom is a rational surface with a
    free mark P of the given area, then ruled atoms 2..depth."""
    e = AtomNode(
        RationalSurface(1),
        (SurfaceMark("P", 0, -1, bottom_area), SurfaceMark("B1", 0, 1, area(1, 2))),
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


def test_deep_trees_compare_without_recursion(monkeypatch):
    """Equality walks an explicit stack; a node hashes its type, its own
    data and its marks, so hashing a tree of any depth lists no children,
    and nodes that compare equal hash equal."""
    a, b = chain(800), chain(800)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    c = chain(800, bottom_area=area(2))
    assert a != c and not a == c
    assert chain(800) == a  # comparing leaves the trees as they were
    by_text = {}
    for src in CORPUS.values():
        for rec in run(src).verdict.trace:
            for n in nodes(rec.expr):
                by_text.setdefault(serialize_expr(n), {})[id(n)] = n
    twins = 0
    for group in by_text.values():
        first, *rest = group.values()
        for n in rest:
            assert n == first and hash(n) == hash(first)
            twins += 1
    assert twins > 20
    deep, twin = chain(5000), chain(5000)
    listed = []
    for cls in (ManifoldExpr, PairSum, FourSum, BlowUp):
        children = cls.children
        monkeypatch.setattr(
            cls, "children", lambda node, children=children: listed.append(node) or children(node)
        )
    assert hash(deep) == hash(twin)
    assert listed == []


def _ref_pool(e) -> frozenset:
    """The label pool by a full recursive walk, from first principles."""
    if isinstance(e, AtomNode):
        return frozenset(m.label for m in e.marks)
    pool = set()
    for c in e.children():
        pool |= _ref_pool(c)
    if isinstance(e, PairSum):
        pool |= {_ref_carried(e)} - {None}
    elif isinstance(e, BlowUp):
        pool.add(e.exceptional_label)
        if e.at_mark is not None:
            pool.add(e.transform_label or f"{e.at_mark}~")
    elif isinstance(e, Desing):
        pool.add(e.label or f"{e.mark_s}+{e.mark_t}")
    elif isinstance(e, (Thin, Thicken, FourSum)):
        pool |= set(e.mark_labels)
    return frozenset(pool)


def _ref_carried(e: PairSum):
    """The label of the mark a sum carries: the connected sum of the
    partners of its glued marks, when both have one."""
    lt, rs = e.left.mark(e.left_mark), e.right.mark(e.right_mark)
    if lt.orthogonal_at and rs.orthogonal_at:
        return e.carry_label or f"{lt.orthogonal_at}#{rs.orthogonal_at}"
    return None


def _ref_invariants(e) -> InvariantVector:
    if isinstance(e, AtomNode):
        return atom_invariants(e)
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
    r = AtomNode(ProjectivePlaneReversed())
    plane = AtomNode(
        ProjectivePlane(),
        (SurfaceMark("L1", 0, 1, area(1)), SurfaceMark("L2", 0, 1, area(1))),
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
        # memos asked for top-down, then bottom-up, so that invariants
        # are both filled in below and built from filled-in children
        for n in all_nodes + all_nodes[::-1]:
            assert label_pool(n) == _ref_pool(n), name
            assert expr_invariants(n) == _ref_invariants(n), name
            checked += 1
        for n in all_nodes:
            # a pool view is the first `size` labels of its store, each
            # mapped to its position
            store, size = n._pool
            view = list(islice(store.items(), size))
            assert view == [(label, i) for i, (label, _) in enumerate(view)], name
            assert len(view) == size and {label for label, _ in view} == _ref_pool(n), name
            assert n._inv == _ref_invariants(n), name
            if isinstance(n, PairSum):
                assert n.carried == _ref_carried(n), name
                assert n.carried is None or n.has_mark(n.carried), name
    assert checked > 200


def test_pool_memos_stay_linear_in_depth():
    depth = 400
    built = build_script(chain_script(depth, depth // 2))
    at = ".".join(["left"] * (depth // 2))
    app = apply_rule(built.lhs, "R8", {"at": at, "eps": area(0, 1)})
    stores = {id(n._pool[0]): n._pool[0] for n in nodes(built.lhs, built.rhs, app.expr)}
    # a chain's sums grow one store in place and atoms copy none; a store
    # per node would hold about depth^2 labels in all
    assert sum(len(store) for store in stores.values()) < 12 * depth
    assert label_pool(app.expr) == _ref_pool(app.expr)


def _note_pools(monkeypatch) -> list:
    """The nodes that set their label pool from now on, in order: a node
    sets it once, with `set_field`, when its pool is made."""
    pooled = []
    set_field = core.set_field

    def noting(obj, name, value):
        if name == "_pool":
            pooled.append(obj)
        set_field(obj, name, value)

    monkeypatch.setattr(core, "set_field", noting)
    return pooled


def test_pool_walk_memory_stays_linear_in_depth(monkeypatch):
    e = chain(400)
    label_pool(e)
    grown = _note_pools(monkeypatch)
    tracemalloc.start()
    try:
        pool = label_pool(e.left)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grown == []  # e.left's pool was made with it; asking computes nothing
    assert len(pool) == 2 * 399
    # the pools of all 399 levels alive at once would take several MB
    assert peak < 500_000


def test_a_run_makes_one_pool_per_composite_it_builds(monkeypatch):
    grown, built = _note_pools(monkeypatch), []
    for cls in (PairSum, FourSum, BlowUp, Thin, Thicken, Desing):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, built))
    r = run(chain_script(200, 100))
    assert r.code == 0, r.messages
    # both sides' chains, and the spine that each deep-path step rebuilds
    assert len(built) > 3 * 199
    assert [id(n) for n in grown if not isinstance(n, AtomNode)] == [id(n) for n in built]
    exprs = [rec.expr for rec in r.verdict.trace]
    composites = {id(n) for n in nodes(*exprs) if not isinstance(n, AtomNode)}
    assert composites <= {id(n) for n in built}


def _counted(init, built):
    """`init`, noting each node whose construction it finishes."""
    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    return counting_init


def test_a_chain_build_makes_no_mark_beyond_its_atoms(monkeypatch):
    """A sum passes each mark whose partner it leaves unchanged through as
    its child's object, so building a chain makes no new mark."""
    made = []
    init = SurfaceMark.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceMark, "__init__", counting_init)
    built = build_script(chain_script(200, 100))
    all_nodes = nodes(built.lhs, built.rhs)
    atom_marks = [m for n in all_nodes if isinstance(n, AtomNode) for m in n.marks]
    assert len(atom_marks) == 2 * 200
    assert sorted(map(id, made)) == sorted(map(id, atom_marks))
    sums = [n for n in all_nodes if isinstance(n, PairSum)]
    assert len(sums) == 2 * 199
    for n in sums:
        for m in n.marks:
            kid = n.left if n.left.has_mark(m.label) else n.right
            assert m is kid.mark(m.label), m.label


def test_a_chain_build_looks_up_two_marks_per_sum(monkeypatch):
    """A sum reads its two glued marks once each and works out from them
    the label of the mark that it carries, `carried`; the parse alone
    builds every sum of both sides."""
    looked_up, built = [], []
    mark = ManifoldExpr.mark
    monkeypatch.setattr(
        ManifoldExpr, "mark", lambda node, label: looked_up.append(label) or mark(node, label)
    )
    monkeypatch.setattr(PairSum, "__init__", _counted(PairSum.__init__, built))
    parse(chain_script(200, 100))
    assert len(built) == 2 * 199
    assert len(looked_up) <= 2 * len(built)
    assert all(n.carried == _ref_carried(n) for n in built)


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


def test_render_prints_each_atom_kind_once(monkeypatch):
    """The 200 atoms of a chain share one kind object, whose text is
    printed once and kept on the kind."""
    r = run(chain_script(200, 100))
    kinds = []
    slots = script._slots

    def counting_slots(node):
        if isinstance(node, AtomKind):
            kinds.append(node)
        return slots(node)

    monkeypatch.setattr(script, "_slots", counting_slots)
    text = render_trace_text(r.verdict)
    assert len(kinds) == 1 and kinds[0]._text == "W(0,1,0+1e)"
    assert text.count("W(0,1,0+1e) {") == 5 * 200  # once per atom in each tree


def test_a_chain_parse_reads_its_atom_kind_once(monkeypatch):
    """The 200 atoms of a chain write one kind text; the parser builds
    that kind once and every atom holds it."""
    made = []
    init = RuledSurface.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RuledSurface, "__init__", counting_init)
    ast = parse(chain_script(200, 100))
    assert len(made) == 1
    assert all(d.atom.kind is made[0] for d in ast.decls) and len(ast.decls) == 200


def test_a_chain_parse_makes_one_area_per_area_literal_it_reads(monkeypatch):
    """The ruled checks of the 200 atoms compare ints: parsing the chain
    makes the 400 mark areas, the fiber area of its one kind text and
    the eps of its two R8 steps, and no other area."""
    made = []
    post_init = AreaValue.__post_init__

    def counting_post_init(self, *args):
        made.append(self)
        post_init(self, *args)

    text = chain_script(200, 100)
    monkeypatch.setattr(AreaValue, "__post_init__", counting_post_init)
    parse(text)
    assert len(made) == text.count("a=") + 1 + text.count("eps =") == 403


def _render_exprs(verdict) -> tuple[list[str], list[str]]:
    """The printed tree of each record in each renderer's output; in the
    text trace, a tree's line is indented and a note's starts `  - `."""
    lines = render_trace_text(verdict).splitlines()
    text = [line[2:] for line in lines if line[:2] == "  " and line[:4] != "  - "]
    js = [json.loads(line)["expr"] for line in render_trace_json(verdict).splitlines()]
    return text, js


def test_render_walks_each_distinct_operation_node_once(monkeypatch):
    """The two renderers together walk each operation node of a trace
    once, in either order: the first writes every tree, and the second
    prints the texts kept with the verdict and walks none."""
    walked = []
    slots = script._slots

    def counting_slots(node):
        if isinstance(node, ManifoldExpr):  # not an atom's kind
            walked.append(node)
        return slots(node)

    monkeypatch.setattr(script, "_slots", counting_slots)
    renderers = render_trace_text, render_trace_json
    for first, second in renderers, renderers[::-1]:
        r = run(chain_script(200, 100))
        assert r.code == 0
        exprs = [rec.expr for rec in r.verdict.trace]
        operations = [n for n in nodes(*exprs) if not isinstance(n, AtomNode)]
        walked.clear()
        first(r.verdict)
        assert sorted(map(id, walked)) == sorted(map(id, operations))
        walked.clear()
        second(r.verdict)
        assert walked == []
        # each tree of 199 sums, printed in full, would walk 5 * 199 nodes
        assert len(operations) < 3 * 199


def test_renderers_print_the_same_in_either_order():
    sources = [*CORPUS.values(), chain_script(30, 15)]
    for source in sources:
        text_first, json_first = run(source).verdict, run(source).verdict
        text = render_trace_text(text_first)
        js = render_trace_json(json_first)
        assert render_trace_json(text_first) == js
        assert render_trace_text(json_first) == text


def test_renderers_print_every_record_as_serialize_expr_does():
    results = [run(source) for source in CORPUS.values()] + [run(chain_script(300, 150))]
    assert len(results) == 14 and results[-1].code == 0
    for r in results:
        fresh = [serialize_expr(rec.expr) for rec in r.verdict.trace]
        text, js = _render_exprs(r.verdict)
        assert text == fresh and js == fresh


def test_nesting_past_the_recursion_limit_verifies():
    assert sys.getrecursionlimit() <= 1000
    r = run(chain_script(1000, 500))
    assert r.code == 0, r.messages
    assert r.messages == ["verdict: = (symplectomorphic) chi=4 sigma=0"]


def test_building_a_2000_deep_ast_under_the_recursion_limit():
    """2000 nested thinnings of the marks A, A-, A--, ..., built by their
    constructors, print and parse back to an equal node."""
    assert sys.getrecursionlimit() <= 1000
    deep = parse("lhs W(0,1,0+1e) { A: g=0, i=-1, a=1 } rhs W(0,1,0+1e) { } target =").lhs
    for k in range(2000):
        deep = Thin(deep, "A" + "-" * k, area(0, 1))
    assert [(m.label, m.area) for m in deep.marks] == [("A" + "-" * 2000, area(1, 2000))]
    assert label_pool(deep) == {"A" + "-" * k for k in range(2001)}
    text = serialize_expr(deep)
    assert text.startswith("thin(" * 2000 + "W(0,1,0+1e) {")
    parsed = parse(f"lhs {text} rhs {text} target =").lhs
    assert parsed == deep and serialize_expr(parsed) == text


def test_pools_of_parents_over_a_shared_child():
    """Successive proof steps build new parents over one shared child: a
    store grown in place by one parent leaves the other's view right."""
    child = chain(6)
    pool = child._pool
    labels = list(islice(pool[0].items(), pool[1]))
    first = PairSum(child, "B6", ruled(7), "A7")
    second = Thin(child, "B6", area(0, 1))
    for parent in (first, second, first, second):
        assert label_pool(parent) == _ref_pool(parent)
        assert label_pool(child) == _ref_pool(child)
    grand = PairSum(first, "B7", ruled(8), "A8")
    assert label_pool(grand) == _ref_pool(grand)
    assert label_pool(second) == _ref_pool(second)
    assert label_pool(first) == _ref_pool(first)
    # the child's view is the one it was made with, and its labels stay
    assert child._pool is pool and list(islice(pool[0].items(), pool[1])) == labels
    assert label_pool(child) is not label_pool(child)  # a set the caller keeps


def test_a_failed_sum_leaves_every_pool_right():
    """A sum that fails after it grew its larger child's store, at a mark
    that no summand has or at a label found midway through its smaller
    summand, leaves the views of its children and of later parents right."""
    child = chain(6)
    pool = child._pool
    labels = list(islice(pool[0].items(), pool[1]))
    # A0 comes before P in the atom's pool, so a pass over it meets P second
    overlap = AtomNode(RationalSurface(1), (SurfaceMark("A0", 0, -1, area(1, 7)), child.mark("P")))
    for summand, label, message in (
        (ruled(7), "Nope", "no mark 'Nope' on this expression"),
        (overlap, "A0", "mark labels reused across summands: ['P']"),
    ):
        with pytest.raises(core.MarkError) as failed:
            PairSum(child, "B6", summand, label)
        assert str(failed.value) == message
        assert child._pool is pool and list(islice(pool[0].items(), pool[1])) == labels
    parent = PairSum(child, "B6", ruled(7), "A7")
    assert label_pool(parent) == _ref_pool(parent)
    assert label_pool(child) == _ref_pool(child)
