"""Core domain types: marked surfaces, atoms, and manifold expressions.

A *mark* is the combinatorial shadow of an embedded symplectic surface:
its genus, the Chern number of its normal bundle (normal number, equal
to the self-intersection), its exact area, and an optional declared
orthogonal intersection partner.  Atoms are the closed 4-manifolds the
calculus starts from; composite expressions are built from sums,
blow-ups, thickening/thinning and desingularization, and every node
recomputes the marks visible on the composite from its children.
All types are immutable after construction.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import islice
from math import isqrt
from operator import attrgetter
from typing import Optional

from .areas import AreaValue, exact_str
from .record import Frozen, set_field, values_getter


class SymsumError(Exception):
    pass


class MarkError(SymsumError):
    pass


class Violation(Frozen):
    """One failed gluing condition, with both offending values: the
    `condition` is "genus", "normal_number" or "area", and `index` the
    position in a 4-fold quadruple (1-based)."""

    def __init__(
        self, condition: str, left: object, right: object, index: Optional[int] = None
    ):
        set_field(self, "condition", condition)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "index", index)

    def __str__(self) -> str:
        where = f" at i={self.index}" if self.index is not None else ""
        left, right = exact_str(self.left), exact_str(self.right)
        return f"{self.condition} mismatch{where}: {left} vs {right}"


class AdmissibilityError(SymsumError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class EquivLevel(Enum):
    """Strength of an equivalence: symplectomorphism or weak deformation."""

    SYMPLECTOMORPHIC = 2  # "="
    WEAK_DEFORMATION = 1  # "~"

    @property
    def symbol(self) -> str:
        return "=" if self is EquivLevel.SYMPLECTOMORPHIC else "~"

    def combine(self, other: "EquivLevel") -> "EquivLevel":
        # a chain is only as strong as its weakest step
        return self if self.value <= other.value else other

    def implies(self, other: "EquivLevel") -> bool:
        return self.value >= other.value


class GluingChoice(Frozen):
    """Opaque tag for the boundary identification; equality is by label."""

    def __init__(self, label: str = "std"):
        set_field(self, "label", label)


STD_GLUE = GluingChoice()


class SurfaceMark(Frozen):
    def __init__(
        self, label: str, genus: int, normal_number: int, area: AreaValue,
        orthogonal_at: Optional[str] = None,
    ):
        if not label:
            raise MarkError("mark label must be nonempty")
        if genus < 0:
            raise MarkError(f"mark {label}: genus must be >= 0")
        if not area.is_positive:
            raise MarkError(f"mark {label}: area {area} is not positive")
        if orthogonal_at == label:
            raise MarkError(f"mark {label} cannot intersect itself orthogonally")
        set_field(self, "label", label)
        set_field(self, "genus", genus)
        set_field(self, "normal_number", normal_number)
        set_field(self, "area", area)
        set_field(self, "orthogonal_at", orthogonal_at)

    @property
    def data(self):
        """(genus, normal number, area) -- identity of the mark up to label."""
        return (self.genus, self.normal_number, self.area)


def pairwise_violations(t1: SurfaceMark, s2: SurfaceMark) -> list[Violation]:
    """Conditions for summing along t1 = s2: equal genus and area,
    normal numbers adding to zero."""
    out = []
    if t1.genus != s2.genus:
        out.append(Violation("genus", t1.genus, s2.genus))
    if t1.normal_number + s2.normal_number != 0:
        out.append(Violation("normal_number", t1.normal_number, s2.normal_number))
    if t1.area != s2.area:
        out.append(Violation("area", t1.area, s2.area))
    return out


# ---------------------------------------------------------------------------
# Atom kinds
# ---------------------------------------------------------------------------


class AtomKind(Frozen):
    """The kind of an atom: which marks it carries, and how a shift and a
    rescale move them.  Each method's default suits a kind with no rule
    of its own."""

    # memo of the kind's source text, filled in by script._atom_text: the
    # atoms that a parse reads from one kind text share one kind object
    _text = None

    def check_marks(self, marks: tuple[SurfaceMark, ...]) -> None:
        """Raise `MarkError` unless an atom of this kind can carry `marks`."""

    def shifted(self, marks: list, m: SurfaceMark, delta: AreaValue) -> list:
        """`marks` once the area of the mark `m` moves by `delta`."""
        return [nm if nm.label != m.label else nm.replace(area=nm.area + delta) for nm in marks]

    def scaled(self, fn) -> "AtomKind":
        """This kind with its own areas mapped by `fn`."""
        return self


class EllipticSurface(AtomKind):
    """E(n): fiber sums of the rational elliptic surface, n >= 1.
    Marks: sections (genus 0, normal number -n) and fibers (genus 1, 0)."""

    def __init__(self, n: int):
        set_field(self, "n", n)

    def check_marks(self, marks):
        if self.n < 1:
            raise MarkError("elliptic surface needs n >= 1")
        for m in marks:
            section = m.genus == 0 and m.normal_number == -self.n
            fiber = m.genus == 1 and m.normal_number == 0
            if not (section or fiber):
                raise MarkError(
                    f"mark {m.label}: an E({exact_str(self.n)}) mark is a section "
                    f"(g=0, i={exact_str(-self.n)}) or a fiber (g=1, i=0)"
                )

    def shifted(self, marks, m, delta):
        if m.genus != 0:
            raise MarkError(
                f"area shifts on an elliptic surface apply to sections only, "
                f"not to the fiber mark {m.label!r}"
            )
        return super().shifted(marks, m, delta)


class ProjectivePlane(AtomKind):
    """CP^2.  Marks are degree-d curve shadows: normal number d^2,
    genus (d-1)(d-2)/2, areas proportional to d."""

    def check_marks(self, marks):
        degrees = {m.label: _cp2_degree(m) for m in marks}
        scales = {m.label: m.area.scale(Fraction(1, degrees[m.label])) for m in marks}
        if len(set(scales.values())) > 1:
            raise MarkError(
                "CP^2 mark areas must be proportional to their degrees"
            )
        for m in marks:
            if m.orthogonal_at is not None:
                other = next(x for x in marks if x.label == m.orthogonal_at)
                if degrees[m.label] * degrees[other.label] != 1:
                    raise MarkError(
                        f"CP^2 marks {m.label}, {other.label} meet in "
                        f"{degrees[m.label] * degrees[other.label]} points, not one"
                    )

    def shifted(self, marks, m, delta):
        if len(marks) > 1:
            raise MarkError("cannot shift one CP^2 mark independently; use rescale")
        return super().shifted(marks, m, delta)


class ProjectivePlaneReversed(AtomKind):
    """CP^2 with reversed orientation; carries no marks here."""

    def check_marks(self, marks):
        if marks:
            raise MarkError("reversed CP^2 carries no marks")


class RuledSurface(AtomKind):
    """S^2-bundle over a genus-g surface, twist n >= 1.
    Sections G_k satisfy k = n (mod 2), |k| <= n; fibers have the
    declared fiber area, and section areas are spread by half a fiber
    per unit of self-intersection."""

    def __init__(self, genus: int, twist: int, fiber_area: AreaValue):
        set_field(self, "genus", genus)
        set_field(self, "twist", twist)
        set_field(self, "fiber_area", fiber_area)

    def check_marks(self, marks):
        if self.genus < 0 or self.twist < 1:
            raise MarkError("ruled surface needs g >= 0 and n >= 1")
        if not self.fiber_area.is_positive:
            raise MarkError("ruled surface fiber area must be positive")
        sections = []
        for m in marks:
            if is_ruled_fiber(m, self):
                continue
            k = m.normal_number
            if m.genus != self.genus:
                raise MarkError(
                    f"mark {m.label}: section genus must equal the base genus "
                    f"{exact_str(self.genus)}"
                )
            if abs(k) > self.twist or (k - self.twist) % 2 != 0:
                raise MarkError(
                    f"mark {m.label}: section index {exact_str(k)} incompatible with "
                    f"twist {exact_str(self.twist)}"
                )
            if not validate_ruled(self.genus, k, m.area, self.fiber_area):
                raise MarkError(
                    f"mark {m.label}: section area {m.area} too small for "
                    f"index {exact_str(k)} and fiber {self.fiber_area}"
                )
            sections.append(m)
        # 2(a - b) = k fibers for k = k_a - k_b: the condition is
        # antisymmetric, so each unordered pair is checked once, in the
        # order that finds the same first failure
        for i, a in enumerate(sections):
            x = a.area
            for b in sections[i + 1 :]:
                k, y = a.normal_number - b.normal_number, b.area
                twice, fibers = _twice_and_fibers(
                    x._c * y._d - y._c * x._d, x._e * y._d - y._e * x._d, x._d * y._d,
                    k, self.fiber_area,
                )
                if twice != fibers:
                    raise MarkError(
                        f"sections {a.label}, {b.label}: areas must differ by "
                        f"{self.fiber_area.scale(Fraction(k, 2))}, got {a.area - b.area}"
                    )
        # declared intersections must be geometric: sections meet in
        # (j+k)/2 points, a fiber meets every section once
        for m in marks:
            if m.orthogonal_at is None:
                continue
            other = next(x for x in marks if x.label == m.orthogonal_at)
            mf, of = is_ruled_fiber(m, self), is_ruled_fiber(other, self)
            if mf and of:
                raise MarkError(f"fibers {m.label}, {other.label} are disjoint")
            if not mf and not of:
                if m.normal_number + other.normal_number != 2:
                    raise MarkError(
                        f"sections {m.label}, {other.label} do not meet in "
                        "a single point"
                    )

    def shifted(self, marks, m, delta):
        # pullback from the base moves every section in step
        return [
            nm if is_ruled_fiber(nm, self) else nm.replace(area=nm.area + delta)
            for nm in marks
        ]

    def scaled(self, fn):
        return self.replace(fiber_area=fn(self.fiber_area))


class RationalSurface(AtomKind):
    """CP^2 # k reversed-CP^2.  k = 8 is Y, k = 9 the rational elliptic
    surface.  Marks are unconstrained beyond the generic rules."""

    def __init__(self, blowups: int):
        set_field(self, "blowups", blowups)

    def check_marks(self, marks):
        if self.blowups < 0:
            raise MarkError("blow-up count must be >= 0")


def validate_ruled(
    g: int, k: int, section_area: AreaValue, fiber_area: AreaValue
) -> bool:
    """Whether a section of self-intersection k with the given area fits
    on a ruled surface with the given fiber area: area > k*fiber/2, and
    area > (k+1)*fiber/2 when g = 0 and k is odd."""
    if not fiber_area.is_positive:
        raise MarkError(f"fiber area {fiber_area} must be positive")
    if g == 0 and k % 2 != 0:
        k += 1
    a = section_area
    twice, fibers = _twice_and_fibers(a._c, a._e, a._d, k, fiber_area)
    return twice > fibers


def _twice_and_fibers(c: int, e: int, d: int, k: int, fiber: AreaValue):
    """Twice the area (c + e*eps)/d and k times `fiber`, both over the
    denominator d * fiber's, as (constant, eps) pairs of ints: they
    compare as the two areas do, and no area is built."""
    fd = fiber._d
    return (2 * c * fd, 2 * e * fd), (k * fiber._c * d, k * fiber._e * d)


def _cp2_degree(m: SurfaceMark) -> int:
    d = isqrt(max(m.normal_number, 1))
    if d * d != m.normal_number or m.genus != (d - 1) * (d - 2) // 2:
        raise MarkError(
            f"mark {m.label}: not a degree-d curve shadow "
            f"(needs i=d^2, g=(d-1)(d-2)/2; got g={exact_str(m.genus)}, "
            f"i={exact_str(m.normal_number)})"
        )
    return d


def is_ruled_fiber(m: SurfaceMark, kind: RuledSurface) -> bool:
    """Whether the mark is a fiber of the ruled surface: a sphere of
    self-intersection zero with the fiber area."""
    return m.genus == 0 and m.normal_number == 0 and m.area == kind.fiber_area


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def rename(relabel: dict[str, str], value):
    """`value` with its mark labels renamed by `relabel`: a label, None,
    or a tuple of them such as `PairSum.pairs`."""
    if isinstance(value, tuple):
        return tuple(rename(relabel, v) for v in value)
    return relabel.get(value, value)


PoolView = tuple[dict[str, int], int]  # a label pool (store, n); see label_pool


class ManifoldExpr(Frozen):
    """Base for all expression nodes.  Subclasses are frozen records;
    `marks` is the tuple of surface marks visible on the composite.  A
    composite computes it once, in `__init__`, from its children's marks,
    and a child's mark that the node leaves unchanged is passed through
    as the same object.

    Every tree walk goes through one protocol.  `children()` lists the
    child expressions in the order of their `at =` path selectors,
    `SELECTORS`.  `MARK_REFS[i]` names the fields that hold labels of
    child i's marks.  `with_children` builds a copy with new children.

    Equality is structural, as for other records, but walks the tree
    with an explicit stack, so trees of any depth compare.  The hash
    reads no child: a node's marks are a function of its children and
    its own data, so equal nodes have equal marks, and the hash of the
    type, the own data and the marks agrees with `==`.  Every node sets
    its label pool once, in `__init__`, right after `marks`, from its
    children's (see `label_pool`).  Its one memo, the invariants, is
    filled in by `invariants.expr_invariants` when first asked for."""

    marks: tuple[SurfaceMark, ...]

    SELECTORS: tuple[str, ...] = ()
    MARK_REFS: tuple[tuple[str, ...], ...] = ()

    _pool: PoolView  # set in __init__ (see label_pool)
    _inv = None  # memo, filled in by invariants.expr_invariants

    def _local(self):
        """The node's own data: its field values other than child
        expressions."""
        return _data_fields(type(self))(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ManifoldExpr):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._local() != b._local():
                return False
            stack.extend(zip(a.children(), b.children()))
        return True

    def __hash__(self) -> int:
        return hash((type(self), self._local(), self.marks))

    def mark(self, label: str) -> SurfaceMark:
        for m in self.marks:
            if m.label == label:
                return m
        raise MarkError(f"no mark {label!r} on this expression")

    def has_mark(self, label: str) -> bool:
        return any(m.label == label for m in self.marks)

    @property
    def mark_labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.marks)

    def children(self) -> tuple["ManifoldExpr", ...]:
        return ()

    def with_children(self, kids, relabel=None, at=None, **changes):
        """A copy with the children `kids` and the field values `changes`,
        built once.  With a `relabel` map, the references to the marks of
        child `at` (of every child when `at` is None) are renamed."""
        changes.update(zip(self.SELECTORS, kids))
        if relabel:
            for i, refs in enumerate(self.MARK_REFS):
                if at is None or i == at:
                    for name in refs:
                        changes[name] = rename(relabel, getattr(self, name))
        return self.replace(**changes)


@cache
def _data_fields(cls):
    # always a tuple: comparing tuples skips identical members, such as
    # the kind that two atoms share.  Every child field is named by its
    # selector.
    return values_getter([n for n, _ in cls.FIELDS if n not in cls.SELECTORS])


_BY_LABEL = attrgetter("label")  # the sort key of a node's marks


def _finish_marks(
    collected: list[SurfaceMark],
    pairs: tuple[tuple[str, str], ...] = (),
) -> tuple[SurfaceMark, ...]:
    if len(set(map(_BY_LABEL, collected))) != len(collected):
        labels = [m.label for m in collected]
        dup = next(l for l in labels if labels.count(l) > 1)
        raise MarkError(f"derived mark label collision: {dup!r}")
    if pairs:
        by_label = {m.label: m for m in collected}
        for a, b in pairs:
            for lbl in (a, b):
                if lbl not in by_label:
                    raise MarkError(f"declared pairing names unknown mark {lbl!r}")
            if (
                by_label[a].orthogonal_at is not None
                or by_label[b].orthogonal_at is not None
            ):
                raise MarkError(f"pairing {a} <-> {b}: a mark is already paired")
            if a == b:
                raise MarkError(f"mark {a!r} cannot be paired with itself")
            by_label[a] = by_label[a].replace(orthogonal_at=b)
            by_label[b] = by_label[b].replace(orthogonal_at=a)
        collected = by_label.values()
    return tuple(sorted(collected, key=_BY_LABEL))


def _check_disjoint_pools(*exprs: ManifoldExpr) -> None:
    seen = set()
    for i, e in enumerate(exprs):
        labels = _labels(e._pool)
        if not seen.isdisjoint(labels):
            raise _reused(exprs[:i], e)
        seen |= labels


def _reused(earlier, summand: ManifoldExpr) -> MarkError:
    """The error for a summand whose labels meet those of the `earlier`."""
    overlap = set().union(*(label_pool(e) for e in earlier)) & label_pool(summand)
    return MarkError(f"mark labels reused across summands: {sorted(overlap)}")


def _labels(pool: PoolView) -> set[str]:
    return set(islice(*pool))


class AtomNode(ManifoldExpr):
    """A closed atom of the given kind with its marks, sorted by label.
    The marks must have distinct labels, each declared orthogonal
    partner must name its mark back, and the kind must allow them."""

    # memo of the atom's source text, filled in by script.serialize_expr;
    # only atoms keep one, as a text memo per operation node would hold
    # O(depth^2) text on a nested chain.  A trace's renderer copies an
    # operation node printed before from where its pieces sit, for the
    # length of one render call (the spans of script._write)
    _text = None

    def __init__(self, kind: AtomKind, marks: tuple[SurfaceMark, ...] = ()):
        marks = tuple(sorted(marks, key=_BY_LABEL))
        # each label's position: the duplicate test, the partner lookup and the pool
        at = dict(zip(map(_BY_LABEL, marks), range(len(marks))))
        if len(at) != len(marks):
            labels = [m.label for m in marks]
            dup = next(l for l in labels if labels.count(l) > 1)
            raise MarkError(f"duplicate mark label {dup!r}")
        for m in marks:
            if m.orthogonal_at is None:
                continue
            j = at.get(m.orthogonal_at)
            if j is None:
                raise MarkError(
                    f"mark {m.label} declares partner {m.orthogonal_at!r} "
                    "which does not exist"
                )
            other = marks[j]
            if other.orthogonal_at != m.label:
                raise MarkError(
                    f"orthogonal pairing {m.label} <-> {other.label} "
                    "must be symmetric"
                )
        if not isinstance(kind, AtomKind):
            raise MarkError(f"unknown atom kind {kind!r}")
        kind.check_marks(marks)
        set_field(self, "kind", kind)
        set_field(self, "marks", marks)
        set_field(self, "_pool", (at, len(marks)))


class PairSum(ManifoldExpr):
    """Sum of `left` and `right` along left's mark `left_mark` and
    right's mark `right_mark` (removed from the composite).  When both
    glued marks have an orthogonal partner, the two partner marks survive
    as a single connected-sum mark, labelled `carried` (None when the sum
    carries none); marks disjoint from the gluing pass through unchanged."""

    SELECTORS = ("left", "right")
    MARK_REFS = (("left_mark", "pairs"), ("right_mark", "pairs"))

    def __init__(
        self, left: ManifoldExpr, left_mark: str, right: ManifoldExpr, right_mark: str,
        gluing: GluingChoice = STD_GLUE, carry_label: Optional[str] = None,
        pairs: tuple[tuple[str, str], ...] = (),
    ):
        set_field(self, "left", left)
        set_field(self, "left_mark", left_mark)
        set_field(self, "right", right)
        set_field(self, "right_mark", right_mark)
        set_field(self, "gluing", gluing)
        set_field(self, "carry_label", carry_label)
        set_field(self, "pairs", pairs)
        # the pool, as in _grow_pool, in one pass over the smaller child's
        # labels: the first one that the store holds is shared
        big, small = (right, left) if right._pool[1] > left._pool[1] else (left, right)
        store, n = big._pool
        if len(store) != n:
            store = dict(islice(store.items(), n))
        add = store.setdefault
        for label in islice(*small._pool):
            if add(label, n) != n:
                raise _reused((left,), right)
            n += 1
        set_field(self, "marks", self._marks())
        if self.carried is not None and add(self.carried, n) == n:
            n += 1
        set_field(self, "_pool", (store, n))

    def children(self):
        return (self.left, self.right)

    def _marks(self) -> tuple[SurfaceMark, ...]:
        """The sum's marks; sets `glue_genus`, the genus of the glued marks,
        and `carried`, the label of the connected-sum mark of their two
        partner marks (None when the sum carries none)."""
        lt = self.left.mark(self.left_mark)
        rs = self.right.mark(self.right_mark)
        if lt.genus != rs.genus or lt.normal_number + rs.normal_number or lt.area != rs.area:
            raise AdmissibilityError(pairwise_violations(lt, rs))
        set_field(self, "glue_genus", lt.genus)
        lp = self.left.mark(lt.orthogonal_at) if lt.orthogonal_at else None
        rp = self.right.mark(rs.orthogonal_at) if rs.orthogonal_at else None
        carry = None
        if lp is not None and rp is not None:
            carry = self.carry_label or f"{lp.label}#{rp.label}"
        elif self.carry_label is not None:
            missing = self.left_mark if lp is None else self.right_mark
            raise MarkError(
                f"carry label given but glued mark {missing!r} has no "
                "orthogonal partner to carry"
            )
        set_field(self, "carried", carry)
        # only a glued mark names its partner: AtomNode checks that partners name each other
        out = [
            m
            for side, glue, half in ((self.left, lt, lp), (self.right, rs, rp))
            for m in side.marks
            if m is not glue and m is not half
        ]
        if carry is not None:
            # the children's marks have distinct labels from disjoint pools,
            # so only the carried label can clash
            for m in out:
                if m.label == carry:
                    raise MarkError(f"derived mark label collision: {carry!r}")
            out.append(
                SurfaceMark(
                    carry,
                    lp.genus + rp.genus,
                    lp.normal_number + rp.normal_number,
                    lp.area + rp.area,
                )
            )
        if self.pairs:
            return _finish_marks(out, self.pairs)
        out.sort(key=_BY_LABEL)
        return tuple(out)


QuadEntry = tuple[ManifoldExpr, str, str]  # (expr, S-label, T-label)


def fourfold_violations(quad: tuple[QuadEntry, ...]) -> list[Violation]:
    """Gluing conditions for the simultaneous sum along T_i = S_{i+1},
    indices cyclic in 1..4."""
    out = []
    for i in range(4):
        _, _, t_label = quad[i]
        _, s_label, _ = quad[(i + 1) % 4]
        t = quad[i][0].mark(t_label)
        s = quad[(i + 1) % 4][0].mark(s_label)
        for v in pairwise_violations(t, s):
            out.append(v.replace(index=i + 1))
    return out


class FourSum(ManifoldExpr):
    """Simultaneous sum of the four triples (x_i, s_i, t_i) along
    T_i = S_{i+1}, where each S_i meets T_i.  Its marks are its entries'
    marks other than the eight glued ones, which is what every pairwise
    evaluation (see `evaluated`) leaves; no evaluation is built for them."""

    SELECTORS = ("x1", "x2", "x3", "x4")
    MARK_REFS = (("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s4", "t4"))

    def __init__(
        self,
        x1: ManifoldExpr, s1: str, t1: str,
        x2: ManifoldExpr, s2: str, t2: str,
        x3: ManifoldExpr, s3: str, t3: str,
        x4: ManifoldExpr, s4: str, t4: str,
        gluings: tuple[GluingChoice, ...] = (STD_GLUE,) * 4,
    ):
        if len(gluings) != 4:
            raise MarkError("a 4-fold sum needs exactly four gluings")
        values = (x1, s1, t1, x2, s2, t2, x3, s3, t3, x4, s4, t4, gluings)
        for (name, _), value in zip(self.FIELDS, values):
            set_field(self, name, value)
        _check_disjoint_pools(x1, x2, x3, x4)
        glued = set()
        for e, s, t in self.entries:
            if e.mark(s).orthogonal_at != e.mark(t).label:
                raise MarkError(
                    f"triple marks {s}, {t} must be orthogonally paired"
                )
            glued.update((s, t))
        violations = fourfold_violations(self.entries)
        if violations:
            raise AdmissibilityError(violations)
        marks = [m for e in self.children() for m in e.marks if m.label not in glued]
        set_field(self, "marks", tuple(sorted(marks, key=_BY_LABEL)))
        set_field(self, "_pool", _grow_pool(self, ()))

    def children(self):
        return (self.x1, self.x2, self.x3, self.x4)

    @property
    def entries(self) -> tuple[QuadEntry, ...]:
        """The four triples (x_i, s_i, t_i)."""
        return (
            (self.x1, self.s1, self.t1),
            (self.x2, self.s2, self.t2),
            (self.x3, self.s3, self.t3),
            (self.x4, self.s4, self.t4),
        )

    def evaluated(self, rotation: int = 0) -> ManifoldExpr:
        """The pairwise-sum evaluation ((1#2)#(3#4)) after rotating the
        entries; rotation 3 gives the companion grouping (4#1)#(2#3)."""
        ent = self.entries[rotation % 4 :] + self.entries[: rotation % 4]
        glu = self.gluings[rotation % 4 :] + self.gluings[: rotation % 4]
        (x1, _, t1), (x2, s2, _), (x3, _, t3), (x4, s4, _) = ent
        left = PairSum(x1, t1, x2, s2, glu[0])
        right = PairSum(x3, t3, x4, s4, glu[2])
        return PairSum(left, left.carried, right, right.carried, glu[1])


class _Unary(ManifoldExpr):
    """A node over one child expression, `inner`."""

    SELECTORS = ("inner",)

    def children(self):
        return (self.inner,)


class BlowUp(_Unary):
    """Blow-up at a point, of the given exceptional size.  If `at_mark`
    is set, the point lies on that mark: the mark becomes its proper
    transform (normal number down one, area down by the size)."""

    MARK_REFS = (("at_mark",),)

    def __init__(
        self, inner: ManifoldExpr, at_mark: Optional[str], size: AreaValue,
        transform_label: Optional[str] = None, exceptional_label: str = "E",
        pair_exceptional: bool = False,
    ):
        if not size.is_positive:
            raise MarkError(f"blow-up size {size} must be positive")
        if at_mark is None and pair_exceptional:
            raise MarkError("cannot pair the exceptional mark at a generic point")
        set_field(self, "inner", inner)
        set_field(self, "at_mark", at_mark)
        set_field(self, "size", size)
        set_field(self, "transform_label", transform_label)
        set_field(self, "exceptional_label", exceptional_label)
        set_field(self, "pair_exceptional", pair_exceptional)
        tlabel = self.new_transform_label
        set_field(self, "marks", self._marks(tlabel))
        introduced = (exceptional_label,) if tlabel is None else (exceptional_label, tlabel)
        set_field(self, "_pool", _grow_pool(self, introduced))

    @property
    def new_transform_label(self) -> Optional[str]:
        if self.at_mark is None:
            return None
        return self.transform_label or f"{self.at_mark}~"

    def _marks(self, tlabel: Optional[str]) -> tuple[SurfaceMark, ...]:
        out = []
        exceptional_partner = None
        if self.at_mark is not None:
            at = self.inner.mark(self.at_mark)
            if not (at.area - self.size).is_positive:
                raise MarkError(
                    f"blow-up size {self.size} too large: proper transform of "
                    f"{at.label} (area {at.area}) would not stay positive"
                )
            if self.pair_exceptional and at.orthogonal_at is not None:
                raise MarkError(
                    f"{at.label} is already paired with {at.orthogonal_at}; "
                    "its transform cannot also pair with the exceptional mark"
                )
            orth = self.exceptional_label if self.pair_exceptional else at.orthogonal_at
            out.append(
                SurfaceMark(
                    tlabel, at.genus, at.normal_number - 1, at.area - self.size, orth
                )
            )
            if self.pair_exceptional:
                exceptional_partner = tlabel
            for m in self.inner.marks:
                if m is at:
                    continue
                if m.orthogonal_at == at.label:
                    m = m.replace(orthogonal_at=tlabel)
                out.append(m)
        else:
            out.extend(self.inner.marks)
        out.append(
            SurfaceMark(
                self.exceptional_label, 0, -1, self.size, exceptional_partner
            )
        )
        return _finish_marks(out)


class _Collar(_Unary):
    """An S^1-invariant neighborhood of the mark `mark_label`, of fiber
    area `amount`, glued in (SIGN +1) or cut out (SIGN -1): the mark's
    area moves by SIGN * amount * (its normal number), its orthogonal
    partner's by SIGN * amount, and both take the label suffix SUFFIX."""

    MARK_REFS = (("mark_label",),)
    SIGN: int
    SUFFIX: str

    def __init__(self, inner: ManifoldExpr, mark_label: str, amount: AreaValue):
        # amounts live in the eps lattice so results stay eps-linear (d > 0)
        if amount._c != 0 or amount._e <= 0:
            raise MarkError(
                f"thickening/thinning amount must be a positive multiple of eps, "
                f"got {amount}"
            )
        m = inner.mark(mark_label)
        self._admit(m, amount)
        set_field(self, "inner", inner)
        set_field(self, "mark_label", mark_label)
        set_field(self, "amount", amount)
        marks = self._marks(m)
        set_field(self, "marks", marks)
        set_field(self, "_pool", _grow_pool(self, map(_BY_LABEL, marks)))

    @staticmethod
    def _admit(m: SurfaceMark, amount: AreaValue) -> None:
        """Raise if the collar cannot be taken along the mark `m`."""

    def _marks(self, m: SurfaceMark) -> tuple[SurfaceMark, ...]:
        step = self.amount.scale(self.SIGN)  # the partner's change of area
        main = m.replace(
            label=m.label + self.SUFFIX,
            area=m.area + step.scale(m.normal_number),
            orthogonal_at=(m.orthogonal_at + self.SUFFIX) if m.orthogonal_at else None,
        )
        out = [main]
        for other in self.inner.marks:
            if other.label == m.orthogonal_at:
                out.append(
                    other.replace(
                        label=other.label + self.SUFFIX,
                        area=other.area + step,
                        orthogonal_at=main.label,
                    )
                )
            elif other is not m:
                out.append(other)
        return _finish_marks(out)


class Thin(_Collar):
    """Remove an S^1-invariant neighborhood of the mark, of fiber area
    `amount`: the mark loses amount * (its normal number) of area, its
    orthogonal partner loses `amount`.  Total volume decreases."""

    SIGN, SUFFIX, volume_flag = -1, "-", "decreased"


class Thicken(_Collar):
    """Glue in an S^1-invariant neighborhood along the mark: the mark
    gains amount * (its normal number) of area, its partner gains
    `amount`.  Total volume increases."""

    SIGN, SUFFIX, volume_flag = 1, "+", "increased"

    @staticmethod
    def _admit(m, amount):
        if not validate_ruled(m.genus, -m.normal_number, m.area, amount):
            raise AdmissibilityError([Violation("ruled_section_area", m.area, amount)])


def desingularize(s: SurfaceMark, t: SurfaceMark, label: Optional[str] = None) -> SurfaceMark:
    """The smoothed surface in the class [S]+[T] of two orthogonally
    paired marks: genus g_S + g_T, normal number i_S + i_T + 2, area the
    sum."""
    if s.orthogonal_at != t.label or t.orthogonal_at != s.label:
        raise MarkError(
            f"desingularization needs {s.label} and {t.label} to be "
            "orthogonally paired"
        )
    return SurfaceMark(
        label or f"{s.label}+{t.label}",
        s.genus + t.genus,
        s.normal_number + t.normal_number + 2,
        s.area + t.area,
    )


class Desing(_Unary):
    """Replace two orthogonally intersecting marks S, T by the smoothed
    surface in the class [S]+[T] (see `desingularize`)."""

    MARK_REFS = (("mark_s", "mark_t"),)

    def __init__(
        self, inner: ManifoldExpr, mark_s: str, mark_t: str, label: Optional[str] = None
    ):
        set_field(self, "inner", inner)
        set_field(self, "mark_s", mark_s)
        set_field(self, "mark_t", mark_t)
        set_field(self, "label", label)
        result = self.result_label
        set_field(self, "marks", self._marks(result))
        set_field(self, "_pool", _grow_pool(self, (result,)))

    @property
    def result_label(self) -> str:
        return self.label or f"{self.mark_s}+{self.mark_t}"

    def _marks(self, result: str) -> tuple[SurfaceMark, ...]:
        s = self.inner.mark(self.mark_s)
        t = self.inner.mark(self.mark_t)
        rest = [m for m in self.inner.marks if m is not s and m is not t]
        return _finish_marks(rest + [desingularize(s, t, result)])


def label_pool(e: ManifoldExpr) -> set[str]:
    """Every mark label introduced anywhere in the subtree (including
    labels later consumed by gluings), as a new set.

    Each node keeps its pool as a view `(store, n)`, set in `__init__`
    and never changed: the first `n` keys of the insertion-ordered dict
    `store`, which maps each label to its position, so a label is in the
    view when `store.get(label, n) < n`.  An atom's store holds its own
    labels; see `_grow_pool` for a composite's."""
    return _labels(e._pool)


def _grow_pool(node: ManifoldExpr, introduced) -> PoolView:
    """The pool view of a composite: its largest child's store, grown in
    place when that child's view is the whole store and otherwise copied
    up to the view's end, with the labels of its other children and the
    labels `introduced` by the node itself appended.  A view is never invalidated, so no
    pool is made twice, and a rewrite copies only the views of subtrees
    it builds over after another parent grew their stores.  A sum makes
    its view the same way in `PairSum.__init__`."""
    kids = node.children()
    big = kids[0]
    for c in kids[1:]:
        if c._pool[1] > big._pool[1]:
            big = c
    store, n = big._pool
    if len(store) != n:
        store = dict(islice(store.items(), n))
    # the store holds n labels; setdefault returns n only for a new one
    add = store.setdefault
    for c in kids:
        if c is not big:
            for label in islice(*c._pool):
                if add(label, n) == n:
                    n += 1
    for label in introduced:
        if add(label, n) == n:
            n += 1
    return store, n
