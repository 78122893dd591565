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
from functools import cache, cached_property
from typing import Optional, Union

from .areas import AreaValue
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
        return f"{self.condition} mismatch{where}: {self.left} vs {self.right}"


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

    @classmethod
    def from_symbol(cls, sym: str) -> "EquivLevel":
        if sym == "=":
            return cls.SYMPLECTOMORPHIC
        if sym == "~":
            return cls.WEAK_DEFORMATION
        raise SymsumError(f"unknown equivalence symbol {sym!r}")


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


class EllipticSurface(Frozen):
    """E(n): fiber sums of the rational elliptic surface, n >= 1.
    Marks: sections (genus 0, normal number -n) and fibers (genus 1, 0)."""

    def __init__(self, n: int):
        set_field(self, "n", n)


class ProjectivePlane(Frozen):
    """CP^2.  Marks are degree-d curve shadows: normal number d^2,
    genus (d-1)(d-2)/2, areas proportional to d."""


class ProjectivePlaneReversed(Frozen):
    """CP^2 with reversed orientation; carries no marks here."""


class RuledSurface(Frozen):
    """S^2-bundle over a genus-g surface, twist n >= 1.
    Sections G_k satisfy k = n (mod 2), |k| <= n; fibers have the
    declared fiber area, and section areas are spread by half a fiber
    per unit of self-intersection."""

    def __init__(self, genus: int, twist: int, fiber_area: AreaValue):
        set_field(self, "genus", genus)
        set_field(self, "twist", twist)
        set_field(self, "fiber_area", fiber_area)


class RationalSurface(Frozen):
    """CP^2 # k reversed-CP^2.  k = 8 is Y, k = 9 the rational elliptic
    surface.  Marks are unconstrained beyond the generic rules."""

    def __init__(self, blowups: int):
        set_field(self, "blowups", blowups)


AtomKind = Union[
    EllipticSurface,
    ProjectivePlane,
    ProjectivePlaneReversed,
    RuledSurface,
    RationalSurface,
]


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
    return section_area > fiber_area.scale(Fraction(k, 2))


def _cp2_degree(m: SurfaceMark) -> int:
    d = 1
    while d * d < m.normal_number:
        d += 1
    if d * d != m.normal_number or m.genus != (d - 1) * (d - 2) // 2:
        raise MarkError(
            f"mark {m.label}: not a degree-d curve shadow "
            f"(needs i=d^2, g=(d-1)(d-2)/2; got g={m.genus}, i={m.normal_number})"
        )
    return d


def is_ruled_fiber(m: SurfaceMark, kind: RuledSurface) -> bool:
    """Whether the mark is a fiber of the ruled surface: a sphere of
    self-intersection zero with the fiber area."""
    return m.genus == 0 and m.normal_number == 0 and m.area == kind.fiber_area


def _check_atom_marks(kind: AtomKind, marks: tuple[SurfaceMark, ...]) -> None:
    if isinstance(kind, EllipticSurface):
        if kind.n < 1:
            raise MarkError("elliptic surface needs n >= 1")
        for m in marks:
            section = m.genus == 0 and m.normal_number == -kind.n
            fiber = m.genus == 1 and m.normal_number == 0
            if not (section or fiber):
                raise MarkError(
                    f"mark {m.label}: an E({kind.n}) mark is a section "
                    f"(g=0, i={-kind.n}) or a fiber (g=1, i=0)"
                )
    elif isinstance(kind, ProjectivePlane):
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
    elif isinstance(kind, ProjectivePlaneReversed):
        if marks:
            raise MarkError("reversed CP^2 carries no marks")
    elif isinstance(kind, RuledSurface):
        if kind.genus < 0 or kind.twist < 1:
            raise MarkError("ruled surface needs g >= 0 and n >= 1")
        if not kind.fiber_area.is_positive:
            raise MarkError("ruled surface fiber area must be positive")
        sections = []
        for m in marks:
            if is_ruled_fiber(m, kind):
                continue
            k = m.normal_number
            if m.genus != kind.genus:
                raise MarkError(
                    f"mark {m.label}: section genus must equal the base genus "
                    f"{kind.genus}"
                )
            if abs(k) > kind.twist or (k - kind.twist) % 2 != 0:
                raise MarkError(
                    f"mark {m.label}: section index {k} incompatible with "
                    f"twist {kind.twist}"
                )
            if not validate_ruled(kind.genus, k, m.area, kind.fiber_area):
                raise MarkError(
                    f"mark {m.label}: section area {m.area} too small for "
                    f"index {k} and fiber {kind.fiber_area}"
                )
            sections.append(m)
        # the condition is antisymmetric, so each unordered pair is
        # checked once, in the order that finds the same first failure
        for i, a in enumerate(sections):
            for b in sections[i + 1 :]:
                spread = kind.fiber_area.scale(
                    Fraction(a.normal_number - b.normal_number, 2)
                )
                if a.area - b.area != spread:
                    raise MarkError(
                        f"sections {a.label}, {b.label}: areas must differ by "
                        f"{spread}, got {a.area - b.area}"
                    )
        # declared intersections must be geometric: sections meet in
        # (j+k)/2 points, a fiber meets every section once
        by_label = {m.label: m for m in marks}
        for m in marks:
            if m.orthogonal_at is None:
                continue
            other = by_label[m.orthogonal_at]
            mf, of = is_ruled_fiber(m, kind), is_ruled_fiber(other, kind)
            if mf and of:
                raise MarkError(f"fibers {m.label}, {other.label} are disjoint")
            if not mf and not of:
                if m.normal_number + other.normal_number != 2:
                    raise MarkError(
                        f"sections {m.label}, {other.label} do not meet in "
                        "a single point"
                    )
    elif isinstance(kind, RationalSurface):
        if kind.blowups < 0:
            raise MarkError("blow-up count must be >= 0")
    else:
        raise MarkError(f"unknown atom kind {kind!r}")


class Atom(Frozen):
    def __init__(self, kind: AtomKind, marks: tuple[SurfaceMark, ...] = ()):
        marks = tuple(sorted(marks, key=lambda m: m.label))
        labels = [m.label for m in marks]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            raise MarkError(f"duplicate mark label {dup!r}")
        by_label = {m.label: m for m in marks}
        for m in marks:
            if m.orthogonal_at is None:
                continue
            other = by_label.get(m.orthogonal_at)
            if other is None:
                raise MarkError(
                    f"mark {m.label} declares partner {m.orthogonal_at!r} "
                    "which does not exist"
                )
            if other.orthogonal_at != m.label:
                raise MarkError(
                    f"orthogonal pairing {m.label} <-> {other.label} "
                    "must be symmetric"
                )
        _check_atom_marks(kind, marks)
        set_field(self, "kind", kind)
        set_field(self, "marks", marks)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def rename(relabel: dict[str, str], value):
    """`value` with its mark labels renamed by `relabel`: a label, None,
    or a tuple of them such as `PairSum.pairs`."""
    if isinstance(value, tuple):
        return tuple(rename(relabel, v) for v in value)
    return relabel.get(value, value)


class ManifoldExpr(Frozen):
    """Base for all expression nodes.  Subclasses are frozen records;
    `marks` is the tuple of surface marks visible on the composite.

    Every tree walk goes through one protocol.  `children()` lists the
    child expressions in the order of their `at =` path selectors,
    `SELECTORS`.  `MARK_REFS[i]` names the fields that hold labels of
    child i's marks.  `with_children` builds a copy with new children.

    Equality and hashing are structural, as for other records, but walk
    the tree with an explicit stack, so trees of any depth compare.
    Derived quantities that depend on the whole subtree (label pool,
    invariants, hash) are memoized on the node in the slots below and
    computed bottom-up from the children's memos; see `fill_memo`."""

    marks: tuple[SurfaceMark, ...]

    SELECTORS: tuple[str, ...] = ()
    MARK_REFS: tuple[tuple[str, ...], ...] = ()

    # per-node memos, filled in by label_pool, expr_invariants and __hash__
    _pool: Optional[frozenset[str]] = None
    _inv = None
    _hash: Optional[int] = None

    def _local(self):
        """The node's own data: its field values other than child
        expressions."""
        return _data_fields(type(self))(self)

    def introduced_labels(self) -> tuple[str, ...]:
        """Mark labels this node creates on top of its children's; by
        default every label on the node, for nodes whose marks are all
        new, as after thinning."""
        return self.mark_labels

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
        if self._hash is None:
            fill_memo(self, "_hash", _node_hash)
        return self._hash

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
    # the atoms that both sides of a proof share.  Child fields are named
    # by their selectors; FourSum, whose are not, has its own _local.
    return values_getter([n for n, _ in cls.FIELDS if n not in cls.SELECTORS])


def _node_hash(node: ManifoldExpr) -> int:
    kids = tuple(c._hash for c in node.children())
    return hash((type(node), node._local(), kids))


def fill_memo(root: ManifoldExpr, slot: str, compute) -> None:
    """Set the memo `slot` on `root` to `compute(root)`, first filling it
    on every node below whose memo is unset.  `compute` sees only nodes
    whose children's memos are set; the walk keeps an explicit stack and
    descends no further than the nearest set memos."""
    stack = [root]
    while stack:
        node = stack[-1]
        missing = [c for c in node.children() if getattr(c, slot) is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if getattr(node, slot) is None:  # a shared node may be done already
            node.__dict__[slot] = compute(node)


def _finish_marks(
    collected: list[SurfaceMark],
    pairs: tuple[tuple[str, str], ...] = (),
) -> tuple[SurfaceMark, ...]:
    labels = [m.label for m in collected]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise MarkError(f"derived mark label collision: {dup!r}")
    by_label = {m.label: m for m in collected}
    for a, b in pairs:
        for lbl in (a, b):
            if lbl not in by_label:
                raise MarkError(f"declared pairing names unknown mark {lbl!r}")
        if by_label[a].orthogonal_at is not None or by_label[b].orthogonal_at is not None:
            raise MarkError(f"pairing {a} <-> {b}: a mark is already paired")
        if a == b:
            raise MarkError(f"mark {a!r} cannot be paired with itself")
        by_label[a] = by_label[a].replace(orthogonal_at=b)
        by_label[b] = by_label[b].replace(orthogonal_at=a)
    return tuple(sorted(by_label.values(), key=lambda m: m.label))


def _check_disjoint_pools(*exprs: ManifoldExpr) -> None:
    pools = [label_pool(e) for e in exprs]
    for i in range(1, len(pools)):
        for earlier in pools[:i]:
            if not pools[i].isdisjoint(earlier):
                overlap = frozenset().union(*pools[:i]) & pools[i]
                raise MarkError(
                    f"mark labels reused across summands: {sorted(overlap)}"
                )


class AtomNode(ManifoldExpr):
    # memo of the atom's source text, filled in by script.serialize_expr;
    # only atoms keep one, as a memo per operation node would hold
    # O(depth^2) text on a nested chain
    _text = None

    def __init__(self, atom: Atom):
        set_field(self, "atom", atom)
        # an atom's label pool is no bigger than the atom, so it is set
        # here and never handed over (see label_pool)
        set_field(self, "_pool", frozenset(m.label for m in atom.marks))

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        return self.atom.marks


class PairSum(ManifoldExpr):
    """Sum of `left` and `right` along left's mark `left_mark` and
    right's mark `right_mark` (removed from the composite).  Orthogonal
    partners of the two glued marks, when both are present, survive as
    a single connected-sum mark; marks disjoint from the gluing pass
    through unchanged."""

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
        _check_disjoint_pools(left, right)
        self.marks  # force validation

    def children(self):
        return (self.left, self.right)

    def introduced_labels(self):
        return (self.carry_name,) if all(self.partners) else ()

    @property
    def partners(self) -> tuple[Optional[str], Optional[str]]:
        """The orthogonal partners of the two glued marks."""
        return (
            self.left.mark(self.left_mark).orthogonal_at,
            self.right.mark(self.right_mark).orthogonal_at,
        )

    @property
    def carry_name(self) -> str:
        """The label of the connected-sum mark of the two partners, which
        the sum carries when both glued marks have one."""
        lp, rp = self.partners
        return self.carry_label or f"{lp}#{rp}"

    @property
    def glue_genus(self) -> int:
        return self.left.mark(self.left_mark).genus

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        lt = self.left.mark(self.left_mark)
        rs = self.right.mark(self.right_mark)
        bad = pairwise_violations(lt, rs)
        if bad:
            raise AdmissibilityError(bad)
        lp = self.left.mark(lt.orthogonal_at) if lt.orthogonal_at else None
        rp = self.right.mark(rs.orthogonal_at) if rs.orthogonal_at else None
        carry = None
        if lp is not None and rp is not None:
            carry = SurfaceMark(
                self.carry_name,
                lp.genus + rp.genus,
                lp.normal_number + rp.normal_number,
                lp.area + rp.area,
            )
        elif self.carry_label is not None:
            missing = self.left_mark if lp is None else self.right_mark
            raise MarkError(
                f"carry label given but glued mark {missing!r} has no "
                "orthogonal partner to carry"
            )
        out: list[SurfaceMark] = []
        carry_partner = None
        for side, glue, half in (
            (self.left, lt, lp),
            (self.right, rs, rp),
        ):
            half_consumed = half is not None and carry is not None
            half_dropped = half is not None and carry is None
            for m in side.marks:
                if m.label == glue.label or (half and m.label == half.label):
                    continue
                orth = m.orthogonal_at
                if orth is not None:
                    if half_consumed and orth == half.label:
                        if carry_partner is not None:
                            raise MarkError(
                                f"carried mark {carry.label} would meet both "
                                f"{carry_partner} and {m.label}"
                            )
                        carry_partner = m.label
                        orth = carry.label
                    elif half_dropped and orth == half.label:
                        orth = None
                out.append(m.replace(orthogonal_at=orth))
        if carry is not None:
            out.append(carry.replace(orthogonal_at=carry_partner))
        return _finish_marks(out, self.pairs)


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
    """Simultaneous sum of four triples along T_i = S_{i+1}.  Stored
    unevaluated; invariants and marks come from the fixed evaluation
    ((1#2)#(3#4))."""

    # each child's mark references sit next to it in its entry
    SELECTORS = ("x1", "x2", "x3", "x4")

    def __init__(
        self, entries: tuple[QuadEntry, ...],
        gluings: tuple[GluingChoice, ...] = (STD_GLUE,) * 4,
    ):
        if len(entries) != 4 or len(gluings) != 4:
            raise MarkError("a 4-fold sum needs exactly four triples")
        _check_disjoint_pools(*(e for e, _, _ in entries))
        for e, s, t in entries:
            sm, tm = e.mark(s), e.mark(t)
            if sm.orthogonal_at != tm.label:
                raise MarkError(
                    f"triple marks {s}, {t} must be orthogonally paired"
                )
        bad = fourfold_violations(entries)
        if bad:
            raise AdmissibilityError(bad)
        set_field(self, "entries", entries)
        set_field(self, "gluings", gluings)
        self.marks

    def children(self):
        return tuple(e for e, _, _ in self.entries)

    def _local(self):
        return (tuple((s, t) for _, s, t in self.entries), self.gluings)

    def with_children(self, kids, relabel=None, at=None, **changes):
        entries = []
        for i, (kid, (_, s, t)) in enumerate(zip(kids, self.entries)):
            if relabel and (at is None or i == at):
                s, t = rename(relabel, (s, t))
            entries.append((kid, s, t))
        return self.replace(entries=tuple(entries), **changes)

    def evaluated(self, rotation: int = 0) -> ManifoldExpr:
        """The pairwise-sum evaluation ((1#2)#(3#4)) after rotating the
        entries; rotation 3 gives the companion grouping (4#1)#(2#3)."""
        ent = self.entries[rotation % 4 :] + self.entries[: rotation % 4]
        glu = self.gluings[rotation % 4 :] + self.gluings[: rotation % 4]
        (x1, _, t1), (x2, s2, _), (x3, _, t3), (x4, s4, _) = ent
        left = PairSum(x1, t1, x2, s2, glu[0])
        right = PairSum(x3, t3, x4, s4, glu[2])
        if not all(left.partners + right.partners):
            raise MarkError(
                "four-fold entries must carry a connected-sum mark; a glued "
                "mark is missing its orthogonal partner"
            )
        return PairSum(left, left.carry_name, right, right.carry_name, glu[1])

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        return self.evaluated().marks


class BlowUp(ManifoldExpr):
    """Blow-up at a point, of the given exceptional size.  If `at_mark`
    is set, the point lies on that mark: the mark becomes its proper
    transform (normal number down one, area down by the size)."""

    SELECTORS = ("inner",)
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
        self.marks

    def children(self):
        return (self.inner,)

    def introduced_labels(self):
        if self.new_transform_label:
            return (self.exceptional_label, self.new_transform_label)
        return (self.exceptional_label,)

    @property
    def new_transform_label(self) -> Optional[str]:
        if self.at_mark is None:
            return None
        return self.transform_label or f"{self.at_mark}~"

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
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
            tlabel = self.new_transform_label
            orth = self.exceptional_label if self.pair_exceptional else at.orthogonal_at
            out.append(
                SurfaceMark(
                    tlabel, at.genus, at.normal_number - 1, at.area - self.size, orth
                )
            )
            if self.pair_exceptional:
                exceptional_partner = tlabel
            for m in self.inner.marks:
                if m.label == at.label:
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


def _suffixed(
    inner: ManifoldExpr, mark_label: str, amount: AreaValue, sign: int, suffix: str
) -> tuple[SurfaceMark, ...]:
    m = inner.mark(mark_label)
    shift = amount.scale(m.normal_number) if sign > 0 else -amount.scale(m.normal_number)
    new_main = m.replace(
        label=m.label + suffix,
        area=m.area + shift,
        orthogonal_at=(m.orthogonal_at + suffix) if m.orthogonal_at else None,
    )
    out = [new_main]
    for other in inner.marks:
        if other.label == m.label:
            continue
        if other.label == m.orthogonal_at:
            partner_shift = amount if sign > 0 else -amount
            out.append(
                other.replace(
                    label=other.label + suffix,
                    area=other.area + partner_shift,
                    orthogonal_at=new_main.label,
                )
            )
        else:
            out.append(other)
    return _finish_marks(out)


class Thin(ManifoldExpr):
    """Remove an S^1-invariant neighborhood of the mark, of fiber area
    `amount`: the mark loses amount * (its normal number) of area, its
    orthogonal partner loses `amount`.  Total volume decreases."""

    volume_flag = "decreased"
    SELECTORS = ("inner",)
    MARK_REFS = (("mark_label",),)

    def __init__(self, inner: ManifoldExpr, mark_label: str, amount: AreaValue):
        _check_eps_amount(amount)
        set_field(self, "inner", inner)
        set_field(self, "mark_label", mark_label)
        set_field(self, "amount", amount)
        self.marks

    def children(self):
        return (self.inner,)

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        return _suffixed(self.inner, self.mark_label, self.amount, -1, "-")


class Thicken(ManifoldExpr):
    """Glue in an S^1-invariant neighborhood along the mark: the mark
    gains amount * (its normal number) of area, its partner gains
    `amount`.  Total volume increases."""

    volume_flag = "increased"
    SELECTORS = ("inner",)
    MARK_REFS = (("mark_label",),)

    def __init__(self, inner: ManifoldExpr, mark_label: str, amount: AreaValue):
        _check_eps_amount(amount)
        m = inner.mark(mark_label)
        if not validate_ruled(m.genus, -m.normal_number, m.area, amount):
            raise AdmissibilityError([Violation("ruled_section_area", m.area, amount)])
        set_field(self, "inner", inner)
        set_field(self, "mark_label", mark_label)
        set_field(self, "amount", amount)
        self.marks

    def children(self):
        return (self.inner,)

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        return _suffixed(self.inner, self.mark_label, self.amount, +1, "+")


def _check_eps_amount(amount: AreaValue) -> None:
    # amounts live in the eps lattice so results stay eps-linear
    if amount.const != 0 or amount.eps_coeff <= 0:
        raise MarkError(
            f"thickening/thinning amount must be a positive multiple of eps, "
            f"got {amount}"
        )


class Desing(ManifoldExpr):
    """Replace two orthogonally intersecting marks S, T by the smoothed
    surface in the class [S]+[T]: genus adds, normal numbers add plus
    two, areas add."""

    SELECTORS = ("inner",)
    MARK_REFS = (("mark_s", "mark_t"),)

    def __init__(
        self, inner: ManifoldExpr, mark_s: str, mark_t: str, label: Optional[str] = None
    ):
        set_field(self, "inner", inner)
        set_field(self, "mark_s", mark_s)
        set_field(self, "mark_t", mark_t)
        set_field(self, "label", label)
        self.marks

    def children(self):
        return (self.inner,)

    def introduced_labels(self):
        return (self.result_label,)

    @property
    def result_label(self) -> str:
        return self.label or f"{self.mark_s}+{self.mark_t}"

    @cached_property
    def marks(self) -> tuple[SurfaceMark, ...]:
        s = self.inner.mark(self.mark_s)
        t = self.inner.mark(self.mark_t)
        if s.orthogonal_at != t.label:
            raise MarkError(
                f"desingularization needs {s.label} and {t.label} to be "
                "orthogonally paired"
            )
        new = SurfaceMark(
            self.result_label,
            s.genus + t.genus,
            s.normal_number + t.normal_number + 2,
            s.area + t.area,
        )
        rest = [m for m in self.inner.marks if m.label not in (s.label, t.label)]
        return _finish_marks(rest + [new])


def label_pool(e: ManifoldExpr) -> frozenset[str]:
    """Every mark label introduced anywhere in the subtree (including
    labels later consumed by gluings).

    Memoized without quadratic memory: a node's pool is its children's
    pools plus its own introduced labels, and once it is built the
    children hand theirs over.  Atoms keep theirs, which are no bigger
    than the atoms.  Asking again for a handed-over pool walks down only
    as far as the nearest nodes that still hold one."""
    if e._pool is None:
        fill_memo(e, "_pool", _take_over_pools)
    return e._pool


def _take_over_pools(node: ManifoldExpr) -> frozenset[str]:
    kids = node.children()
    pool = frozenset(node.introduced_labels()).union(*(c._pool for c in kids))
    for c in kids:
        if not isinstance(c, AtomNode):
            c.__dict__["_pool"] = None
    return pool
