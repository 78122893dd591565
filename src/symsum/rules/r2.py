"""R2: associativity of three sums through a desingularized pair, with
the exact expansion that certifies it at the symplectomorphism level."""

from __future__ import annotations

from ..areas import AreaValue, exact_str
from ..core import (
    AdmissibilityError,
    Desing,
    MarkError,
    PairSum,
    SurfaceMark,
    Thicken,
    Thin,
    desingularize,
    label_pool,
)
from ..invariants import expr_invariants
from ..rewrite import (
    EQ,
    WK,
    RuleError,
    _expect,
    _expect_same_marks,
    _failed,
    _halves,
    _pair,
    _partner_label,
    rule,
)
from ..sums import _neutral_w, fourfold_sum, make_ruled_atom


def _fresh(label: str, pool: set[str]) -> str:
    while label in pool:
        label += "_"
    pool.add(label)
    return label


def _extract_assoc_triples(sub: PairSum, rev: bool):
    """Read off the three triples from either side of the associativity
    statement.  Forward shape: (X1 # X2) summed with Desing(X3) along the
    carried mark; reverse shape: Desing(X1) summed with (X2 # X3)."""
    inner, des = (sub.right, sub.left) if rev else (sub.left, sub.right)
    if not (isinstance(inner, PairSum) and isinstance(des, Desing)):
        raise RuleError(
            "R2 (reverse) expects a desingularized pair summed with (X2 # X3)"
            if rev
            else "R2 expects (X1 # X2) summed with a desingularized pair"
        )
    (xa, ta), (xb, sb) = _halves(inner)
    summed = ((xa, _partner_label(xa, ta), ta), (xb, sb, _partner_label(xb, sb)))
    resolved = (des.inner, des.mark_s, des.mark_t)
    return (resolved, *summed) if rev else (*summed, resolved)


def _joined(a: SurfaceMark, b: SurfaceMark) -> tuple:
    """The (genus, normal number, area) of the connected sum of `a` and `b`."""
    return (a.genus + b.genus, a.normal_number + b.normal_number, a.area + b.area)


def _perturbed(data: tuple, eps: AreaValue) -> tuple:
    """Mark data after thickening by `eps` (thinning when negative)."""
    genus, normal, a = data
    return (genus, normal, a + eps.scale(normal))


# the glued pairs (T, S) of the grand sum, each with the extra self-
# intersection that the desingularized pair adds: i(T) = -(i(S) + extra)
_ROWS = (("T1", "S2", 0), ("T2", "S3", 0), ("T3", "S1", 2))


def _check_assoc_conditions(t1, t2, t3, rev: bool) -> list[str]:
    """Checks the grand sum's rows, but for the inner sum's own row, (T1,
    S2) forward and (T2, S3) in reverse, which that PairSum admitted when
    it was built; returns the notes."""
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    marks = {
        "S1": x1.mark(s1l), "T1": x1.mark(t1l),
        "S2": x2.mark(s2l), "T2": x2.mark(t2l),
        "S3": x3.mark(s3l), "T3": x3.mark(t3l),
    }
    own = 1 if rev else 0
    rows = _ROWS[:own] + _ROWS[own + 1 :]
    for t, s, _ in rows:
        _expect(marks[t].genus, marks[s].genus, f"g({t}) = g({s})")
        _expect(marks[t].area, marks[s].area, f"area({t}) = area({s})")
    for t, s, extra in rows:
        i_t, i_s = marks[t].normal_number, marks[s].normal_number
        if i_t != -(i_s + extra):
            i_t, i_s = exact_str(i_t), exact_str(i_s)
            claim, want = (
                (f"-(i({s})+{extra})", f"-({i_s}+{extra})") if extra else (f"-i({s})", i_s)
            )
            raise _failed(f"i({t}) = {claim}: {i_t} vs {want}")
    return [
        "third area condition area(T3) = area(S1) checked as stated "
        f"({marks['T3'].area}); at the deformation level it is implied by "
        "admissibility, the symplectomorphism-level expansion uses it directly"
    ]


@rule("R2")
def _r2(sub, b, rev):
    if not isinstance(sub, PairSum):
        raise RuleError("R2 applies to a pairwise sum")
    t1, t2, t3 = _extract_assoc_triples(sub, rev)
    notes = _check_assoc_conditions(t1, t2, t3, rev)
    inner, des = (sub.right, sub.left) if rev else (sub.left, sub.right)
    glued = (sub.right_mark, sub.left_mark) if rev else (sub.left_mark, sub.right_mark)
    if glued != (inner.carried, des.result_label):
        raise RuleError(
            f"R2{' (reverse)' if rev else ''} expects the sum glued along the "
            "carried and the desingularized marks"
        )
    level = WK
    eps = b.area("eps")
    if eps is not None:
        notes += _verify_assoc_expansion(sub, t1, t2, t3, eps)
        level = EQ
    # the other grouping: the desingularized pair moves to the other end
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    if rev:
        inner = PairSum(
            x1, t1l, x2, s2l, sub.right.gluing, carry_label=b.label("carry")
        )
        des = Desing(x3, s3l, t3l, b.label("resolve_label"))
    else:
        des = Desing(x1, s1l, t1l, b.label("resolve_label"))
        inner = PairSum(
            x2, t2l, x3, s3l, sub.left.gluing, carry_label=b.label("carry")
        )
    new = _pair(
        int(rev), (des, des.result_label), (inner, inner.carried), sub.gluing
    )
    return new, level, notes


def _verify_assoc_expansion(sub, t1, t2, t3, eps: AreaValue) -> list[str]:
    """Certify the associativity instance at the symplectomorphism level
    by rebuilding both groupings of the thickened/thinned 4-fold sum and
    checking every area identity bitwise."""
    (x1, s1l, t1l), (x2, s2l, t2l), (x3, s3l, t3l) = t1, t2, t3
    notes = ["symplectomorphism-level expansion with eps = " + str(eps)]
    s1 = x1.mark(s1l)
    t3m = x3.mark(t3l)
    k = -s1.normal_number
    g = s1.genus

    # the three perturbed summands
    x1p = Thicken(Thin(x1, s1l, eps), t1l + "-", eps)
    x2p = Thin(Thin(x2, s2l, eps), t2l + "-", eps)
    x3p = Thicken(Thin(x3, t3l, eps), s3l + "-", eps)
    s1p, t1p = s1l + "-+", t1l + "-+"
    s2p, t2p = s2l + "--", t2l + "--"
    s3p, t3p = s3l + "-+", t3l + "-+"

    pool = label_pool(x1p) | label_pool(x2p) | label_pool(x3p)
    w_hi = _fresh("Wg" + exact_str(k), pool)
    w_lo = _fresh("Wg" + exact_str(2 - k), pool)
    a_hi = x1p.mark(s1p).area
    a_lo = x3p.mark(t3p).area
    try:
        x4p = make_ruled_atom(
            g,
            eps.scale(2),
            {w_hi: (k, a_hi), w_lo: (2 - k, a_lo)},
            pairs=((w_lo, w_hi),),
        )
    except MarkError as exc:
        raise RuleError(f"ruled summand cannot be built: {exc}") from exc
    diff = a_lo - a_hi
    _expect(diff, eps.scale(2 * (1 - k)), "section area difference 2(1-k)*eps")
    notes.append(
        f"ruled summand sections: {w_lo} area {a_lo}, {w_hi} area {a_hi}; "
        f"difference 2(1-k)*eps = {diff} with k={exact_str(k)}"
    )

    # the ruled summand splits into two copies with half the fiber
    a_cut = s1.area + eps
    c1 = _fresh("cutA", pool)
    c2 = _fresh("cutB", pool)
    f1 = _fresh("Fw", pool)
    lo1 = _fresh("loA", pool)
    hi2 = _fresh("hiB", pool)
    w1 = _neutral_w(g, eps, k - 2, a_cut, 2 - k, (c1, lo1), fibers={f1: c1})
    w2 = _neutral_w(g, eps, 2 - k, a_cut, k, (c2, hi2), pairs=((c2, hi2),))
    halves = PairSum(w1, c1, w2, c2)
    claim = "sum of two half-fiber ruled pieces reproduces the ruled summand"
    _expect_same_marks(halves, x4p, claim)
    notes.append(
        "ruled summand rebuilt as a sum of two half-fiber copies; "
        "outer section data matches bitwise"
    )

    quad = (
        (x1p, s1p, t1p),
        (x2p, s2p, t2p),
        (x3p, s3p, t3p),
        (x4p, w_lo, w_hi),
    )
    try:
        grand = fourfold_sum(quad)
    except AdmissibilityError as exc:
        raise RuleError(f"perturbed quadruple is not admissible: {exc}") from exc
    notes.append("perturbed quadruple admissible; all four gluing areas exact")
    eval_a = grand.evaluated()
    eval_b = grand.evaluated(3)

    # identities collapsing the perturbed groupings onto the two sides,
    # whose outer marks are computed from the triples
    sum12 = _joined(s1, x2.mark(t2l))
    resolved34 = desingularize(x3.mark(s3l), t3m).data
    resolved41 = desingularize(s1, x1.mark(t1l)).data
    sum23 = _joined(x2.mark(s2l), t3m)
    groupings = {
        "(1,2)(3,4)": (
            eval_a, ("thinned (S1#T2)", sum12, -eps), ("thickened (S3+T3)", resolved34, eps)
        ),
        "(4,1)(2,3)": (
            eval_b, ("thickened (S1+T1)", resolved41, eps), ("thinned (S2#T3)", sum23, -eps)
        ),
    }
    for name, (grouping, *outer) in groupings.items():
        carries = []
        for half, (what, data, delta) in zip((grouping.left, grouping.right), outer):
            carry = half.mark(half.carried)
            want = _perturbed(data, delta)
            _expect(carry.data, want, f"{what} equals the perturbed carry bitwise")
            carries.append(carry.area)
        hows = "/".join(what.split()[0] for what, _, _ in outer)
        notes.append(
            f"grouping {name}: carries {carries[0]} and {carries[1]} "
            f"match the {hows} outer marks bitwise"
        )

    inv_a, inv_b, inv_sub = (
        expr_invariants(eval_a),
        expr_invariants(eval_b),
        expr_invariants(sub),
    )
    if not (inv_a == inv_b == inv_sub):
        raise _failed(f"invariants agree across groupings: {inv_a}, {inv_b}, {inv_sub}")
    marks_a = sorted(m.data for m in eval_a.marks)
    marks_b = sorted(m.data for m in eval_b.marks)
    marks_sub = sorted(m.data for m in sub.marks)
    if not (marks_a == marks_b == marks_sub):
        raise _failed(
            f"leftover mark data agrees across groupings: {marks_a}, {marks_b}, "
            f"{marks_sub}"
        )
    notes.append(f"both groupings: {inv_a}; leftover marks identical")
    return notes
