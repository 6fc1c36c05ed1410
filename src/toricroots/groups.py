"""Regular unipotent subgroups acting with an open orbit, and their structure.

A regular unipotent subgroup of the automorphism group is determined by its
set of roots, a subset ``M`` of the positive roots whose level ``M_i`` is
*saturated* with respect to the higher levels: whenever ``a`` in ``M_i`` and
``b`` in some ``M_j`` with ``j > i`` have a root sum, that sum (which lands
back on level ``i``) must already lie in ``M``.  The subgroup has an open
orbit exactly when ``M`` contains every basic root, and its dimension is the
number of roots in ``M``.

A root set is a tuple of positions in the positive roots of the one root
table per matrix (``roots.RootSystem``), whose sum triples drive the one
closure ``_close`` on bitmasks of those positions and the reverse search
that lists the open-orbit subgroups.
The module also computes the abstract shape of the maximal unipotent
subgroup as an iterated semidirect product of triangular blocks, and derives
centers, central series, derived series, nilpotency class and derived length
from a directed graph on the roots, read off the same sum triples as
``_close``: an arrow ``a -> a+e`` whenever ``a``, ``e`` and ``a+e`` all lie
in ``M``.  A sum ``s = x + y`` with ``y`` on the higher level ``j`` agrees
with ``x`` below ``j`` and has ``s_j = x_j - 1``, and it is ``-1`` on the
level of ``x``, where ``y`` is ``0``: a sum sorts below both summands.  So
every arrow points down the table, and position order is a topological
order of the graph.  The k-th lower central term is spanned by the roots
reached by paths of length ``k``, the k-th upper central term by the roots
from which every path is shorter than ``k``, and passing from a root set to
the arrow targets computes derived subgroups.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from functools import cached_property
from itertools import compress
from operator import lt
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    InputError,
    InvariantViolation,
    NoOpenOrbitError,
    NotTypeIError,
    ResultCapError,
)
from .fan import RayMatrix
from .lattice import IntVector
from .record import record
from .roots import (
    DemazureRoot,
    KIND_BASIC,
    RootSystem,
    _sum_triples,
    demazure_roots,
    positive_roots,
)

#: Default cap on the number of subgroups emitted by the enumeration.
MAX_ENUMERATION_RESULTS = 200_000


@record
class RootSet:
    """A set of positive roots of the canonical ray matrix ``matrix``: the
    sorted positions of its roots in ``demazure_roots(matrix).positive``.
    Root sets over different matrices are unequal.  Positions that are not
    strictly increasing non-negative ints raise ``InputError``."""

    matrix: RayMatrix
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.positions  # checked in linear time, without the root table
        if type(p) is not tuple or p and (
                not {int}.issuperset(map(type, p)) or p[0] < 0 or not all(map(lt, p, p[1:]))):
            raise InputError(f"positions must be strictly increasing non-negative ints: {p!r:.60}")

    @classmethod
    def of(cls, A: RayMatrix, roots: Iterable[DemazureRoot]) -> "RootSet":
        """Raises ``InputError`` for a root that is not positive in ``A``."""
        position = demazure_roots(A).position
        try:
            found = {position[r.coords] for r in roots}
        except KeyError as exc:
            raise InputError(f"element not in the positive roots: {exc.args[0]}") from None
        return _trusted(A, tuple(sorted(found)))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def roots(self) -> tuple[DemazureRoot, ...]:
        positive = _table(self).positive
        return tuple([positive[k] for k in self.positions])

    @cached_property
    def coords(self) -> frozenset[IntVector]:
        return frozenset(r.coords for r in self.roots)

    @property
    def dimension(self) -> int:
        return len(self.positions)


def _trusted(A: RayMatrix, positions: tuple[int, ...]) -> RootSet:
    """Trusted constructor: ``positions`` come from a checked set or table."""
    M = object.__new__(RootSet)
    M.__dict__.update(matrix=A, positions=positions)
    return M


def umax_rootset(A: RayMatrix) -> RootSet:
    """The root set of ``U_max``: every positive root of the canonical ``A``."""
    return _trusted(A, tuple(range(len(demazure_roots(A).positive))))


# ---------------------------------------------------------------------------
# closure on bitmasks over the positive roots of the root table


def _table(M: RootSet) -> RootSystem:
    """The root table of ``M.matrix``; raises ``InputError`` for a position
    of ``M`` past it."""
    table = demazure_roots(M.matrix)
    if M.positions and M.positions[-1] >= len(table.positive):
        raise InputError(f"position {M.positions[-1]} is past the positive roots")
    return table


def _mask(M: RootSet) -> tuple[RootSystem, int]:
    """The root table of ``M.matrix`` and the bitmask of ``M``'s positions."""
    table = _table(M)
    digits = bytearray(b"0") * len(table.positive)  # parsed in linear time, unlike N ORs
    for k in M.positions:
        digits[~k] = ord("1")  # bit k is the k-th digit from the right
    return table, int(digits, 2)


def _members(mask: int) -> list[int]:
    return [k for k, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _close(table: RootSystem, mask: int, new: Sequence[int]) -> int:
    """Smallest saturated superset of ``mask``, given that every violated
    triple holds one of the roots ``new`` (all in ``mask``)."""
    stack = list(new)
    while stack:
        for other, s in table.partners[stack.pop()]:
            if mask >> other & 1 and not mask >> s & 1:
                mask |= 1 << s
                stack.append(s)
    return mask


def is_saturated(M: RootSet) -> tuple[bool, Optional[tuple[IntVector, IntVector, IntVector]]]:
    """Saturation test; on failure returns the first violating triple
    (a, b, a+b), with ``a`` and then ``b`` in sorted order."""
    table, mask = _mask(M)
    bad = next(((x, y, s) for x in M.positions for y, s in table.partners[x]
                if y > x and mask >> y & 1 and not mask >> s & 1), None)
    return bad is None, bad and tuple(table.positive[k].coords for k in bad)


def saturation_closure(M: RootSet) -> RootSet:
    """Smallest saturated superset.  Well-defined because the saturation
    condition is closure under root sums ``a + b`` with ``b`` on a strictly
    higher level, so saturated supersets intersect to a saturated set."""
    table, mask = _mask(M)
    return _trusted(M.matrix, tuple(_members(_close(table, mask, M.positions))))


def has_open_orbit(M: RootSet) -> bool:
    """True iff every basic root belongs to ``M``."""
    table, mask = _mask(M)
    return mask & table.basics == table.basics


@record
class EnumerationResult:
    """The subgroups as sorted tuples of positions into ``matrix``'s positive roots."""

    matrix: RayMatrix
    positions: tuple[tuple[int, ...], ...]
    histogram: tuple[tuple[int, int], ...]  # (dimension, count), ascending
    complete: bool = True

    @property
    def subgroups(self) -> tuple[RootSet, ...]:  # built on each read
        return tuple([_trusted(self.matrix, t) for t in self.positions])

    @property
    def count(self) -> int:
        return len(self.positions)


def enumerate_open_orbit_subgroups(
    A: RayMatrix, max_results: int = MAX_ENUMERATION_RESULTS
) -> EnumerationResult:
    """All saturated subsets of the positive roots containing every basic root.

    Listed by reverse search (Avis and Fukuda 1996) from the set of basic
    roots, which is saturated: two basic roots never sum to a root.  The
    parent of any other such set drops its highest non-basic root ``h`` and
    stays saturated, since a sum sorts below both summands (see the module
    docstring): ``s = h`` needs two summands above ``h``, and two basic
    roots never sum to a root.  A child adds a non-basic root ``j`` above
    its parent's and is kept when no partner of ``j`` in the parent has its
    sum outside it: at most one such scan per positive root for each set
    listed.  Children are visited by decreasing ``j``, which is
    lectic (NextClosure) order.  Output is sorted by (dimension, root list);
    finding more than ``max_results`` raises ``ResultCapError`` carrying the
    first ``max_results`` sets in lectic order, sorted the same way.
    """
    table = demazure_roots(A)
    partners = table.partners
    free = [j for j in range(len(table.positive)) if not table.basics >> j & 1]
    found: list[tuple[int, ...]] = []
    # (parent mask, parent positions, index in ``free`` of the root added, or -1)
    stack = [(table.basics, tuple(_members(table.basics)), -1)]
    while stack and len(found) < max_results:
        mask, members, i = stack.pop()
        if i >= 0:
            j = free[i]
            mask |= 1 << j
            at = bisect(members, j)
            members = members[:at] + (j,) + members[at:]
        found.append(members)
        for i in range(i + 1, len(free)):
            for other, s in partners[free[i]]:  # neither is free[i]: the parent decides
                if mask >> other & 1 and not mask >> s & 1:
                    break
            else:
                stack.append((mask, members, i))
    # positions number the roots in sorted order, so this sorts by (dimension, roots)
    found.sort()
    found.sort(key=len)
    hist = tuple(sorted(Counter(map(len, found)).items()))
    result = EnumerationResult(table.matrix, tuple(found), hist, complete=not stack)
    if stack:  # every set on the stack is one more subgroup
        raise ResultCapError(f"enumeration cap of {max_results} subgroups exceeded", partial=result)
    return result


# ---------------------------------------------------------------------------
# abstract group shapes


@record
class AbelianPower:
    """The vector group G_a^d (trivial when d = 0)."""

    power: int

    def display(self) -> str:
        if self.power == 0:
            return "1"
        if self.power == 1:
            return "G_a"
        return f"G_a^{self.power}"


@record
class TriangularBlock:
    """Unitriangular k x k matrices vanishing above the diagonal outside the
    first l rows; the full unitriangular group when l = k - 1."""

    k: int
    l: int

    def display(self) -> str:
        if self.l == self.k - 1:
            return f"U_{self.k}"
        return f"U_{{{self.k},{self.l}}}"


@record
class Semidirect:
    """Left-nested chain (((f0 |x f1) |x f2) ... ); each prefix acts on the
    next factor, so the innermost factor acts on everything after it."""

    factors: tuple["GroupShape", ...]

    def display(self) -> str:
        out = self.factors[0].display()
        for nxt in self.factors[1:]:
            left = f"({out})" if " " in out else out
            out = f"{left} ⋉ {nxt.display()}"
        return out


@record
class DirectProduct:
    factors: tuple["GroupShape", ...]

    def display(self) -> str:
        return " × ".join(f.display() for f in self.factors)


GroupShape = Union[AbelianPower, TriangularBlock, Semidirect, DirectProduct]


def block(k: int, l: int) -> GroupShape:
    """U_{k,l} in normal form: U_{k,1} is the vector group G_a^{k-1}."""
    if not k > l >= 1:
        raise InputError(f"triangular block needs k > l >= 1, got k={k}, l={l}")
    if l == 1:
        return AbelianPower(k - 1)
    return TriangularBlock(k, l)


def full_unitriangular(k: int) -> GroupShape:
    """U_k: trivial for k <= 1, G_a for k = 2, a block otherwise."""
    if k <= 1:
        return AbelianPower(0)
    return block(k, k - 1)


def _chain(factors: Sequence[GroupShape]) -> GroupShape:
    return factors[0] if len(factors) == 1 else Semidirect(tuple(factors))


@record
class UmaxReport:
    """Shape of the maximal unipotent subgroup.

    ``shape`` nests one triangular block per column class (last class acting
    first); ``per_ray_shape`` is the refinement with one vector-group factor
    per ray level.
    """

    shape: GroupShape
    per_ray_shape: GroupShape
    classes: tuple[tuple[int, ...], ...]
    block_sizes: tuple[tuple[int, int], ...]  # (k_s, l_s) per class


def umax_shape(A: RayMatrix) -> UmaxReport:
    pos, pre = positive_roots(A), demazure_roots(A).preorder
    sizes = tuple((len(pos[cls[0]]) + 1, len(cls)) for cls in pre.classes)
    blocks = [block(k, l) for k, l in sizes]
    per_ray = _chain([AbelianPower(len(pos[i])) for i in range(A.n - 1, -1, -1)])
    return UmaxReport(shape=_chain(blocks[::-1]), per_ray_shape=per_ray,
                      classes=pre.classes, block_sizes=sizes)


@record
class UssReport:
    """Maximal unipotent subgroup of the reductive part: a direct product of
    one unitriangular group per column class, plus the number of simple
    components of the reductive part."""

    shape: GroupShape
    factors: tuple[GroupShape, ...]
    simple_components: int


def uss_shape(A: RayMatrix) -> UssReport:
    system = demazure_roots(A)
    pos = positive_roots(A)
    pre = system.preorder
    factors = []
    simple = 0
    for cls in pre.classes:
        class_roots = [r for i in cls for r in system.by_ray[i]]
        all_semisimple = all(r.semisimple for r in class_roots)
        k = len(pos[cls[0]]) + 1
        l = len(cls)
        if all_semisimple and k != l + 1:
            raise InvariantViolation("all-semisimple class must have k = l + 1")
        factors.append(full_unitriangular(k if all_semisimple else l))
        basic = next(r for r in system.by_ray[cls[0]] if r.kind == KIND_BASIC)
        if len(cls) >= 2 or basic.semisimple:
            simple += 1
    shape = factors[0] if len(factors) == 1 else DirectProduct(tuple(factors))
    return UssReport(shape=shape, factors=tuple(factors), simple_components=simple)


# ---------------------------------------------------------------------------
# centers, root graph, series


@record
class CenterReport:
    indices: tuple[int, ...]
    roots: RootSet


def center(M: RootSet) -> CenterReport:
    """Center of the subgroup with root set ``M`` (open orbit required):
    the product of the basic root subgroups at indices whose pairing with
    every root of ``M`` is non-positive."""
    table, mask = _mask(M)
    if mask & table.basics != table.basics:
        raise NoOpenOrbitError(
            "center formula needs an open orbit: the root set must hold every basic root"
        )
    indices = _center_indices(M.n, [table.positive[k] for k in M.positions])
    basics = _members(table.basics)
    center_roots = _trusted(M.matrix, tuple(k for k in basics if table.positive[k].ray in indices))
    if len(M.positions) == len(table.positive):
        # for U_max the center indices are the smallest members of the
        # maximal column classes; verify
        pre = table.preorder
        expected = tuple(sorted(cls[0] for cls in pre.maximal_classes(pre.classes)))
        if expected != indices:
            raise InvariantViolation(
                f"center indices {indices} disagree with maximal classes {expected}"
            )
    return CenterReport(indices=indices, roots=center_roots)


def _center_indices(n: int, roots: Sequence[DemazureRoot]) -> tuple[int, ...]:
    """Indices whose pairing with every root of ``roots`` is non-positive."""
    return tuple(i for i in range(n) if all(r.coords[i] <= 0 for r in roots))


@record
class Arrow:
    source: DemazureRoot
    target: DemazureRoot
    label: DemazureRoot

    @property
    def inner(self) -> bool:
        return self.source.ray == self.target.ray


@record
class RootGraph:
    vertices: tuple[DemazureRoot, ...]
    arrows: tuple[Arrow, ...]


def root_graph(M: RootSet) -> RootGraph:
    """Directed graph on ``M.roots``: arrows ``x -> s`` labelled ``y`` and
    ``y -> s`` labelled ``x`` per sum triple of ``M``, in (source, target)
    coordinate order; checks that every arrow points down the table."""
    roots, edges = M.roots, _graph(M)
    return RootGraph(roots, tuple(Arrow(roots[a], roots[t], roots[e]) for a, t, e in edges))


def _graph(M: RootSet) -> list[tuple[int, int, int]]:
    """``root_graph(M)``'s arrows as sorted indices into ``M.positions``, from
    the table's sum triples inside ``M``; raises ``InvariantViolation`` for an
    arrow whose target is not below its source."""
    partners = _table(M).partners
    local = {k: x for x, k in enumerate(M.positions)}
    triples = [(x, local[y], local[s]) for x, k in enumerate(M.positions)
               for y, s in partners[k] if y > k and y in local and s in local]
    edges = sorted(e for x, y, s in triples for e in ((x, s, y), (y, s, x)))
    if any(t >= a for a, t, _ in edges):
        raise InvariantViolation("root graph has an arrow up the table")
    return edges


@record
class SeriesReport:
    lower: tuple[RootSet, ...]
    upper: tuple[RootSet, ...]
    derived: tuple[RootSet, ...]
    nilpotency_class: int
    derived_length: int
    longest_path: int
    center_indices: Optional[tuple[int, ...]]


def series_report(M: RootSet) -> SeriesReport:
    """Lower/upper central series and derived series of the subgroup with
    saturated root set ``M``, via its root graph.

    The k-th lower term holds the roots ending a path of length ``k``, the
    k-th upper term the roots starting no path of length ``k``; the derived
    series passes to the arrow targets of the graph induced on each term.
    """
    A, positions, edges = M.matrix, M.positions, _graph(M)
    longest_to = [0] * len(positions)  # longest path ending at each root
    for a, t, _ in reversed(edges):  # by falling source: a's own value is final
        longest_to[t] = max(longest_to[t], longest_to[a] + 1)
    longest_from = [0] * len(positions)  # longest path starting at each root
    for a, t, _ in edges:  # by rising source: t's own value is final
        longest_from[a] = max(longest_from[a], longest_from[t] + 1)
    l = max(longest_to, default=0)
    derived = [set(range(len(positions)))]  # indices into ``positions``
    while last := derived[-1]:
        derived.append({t for a, t, e in edges if a in last and t in last and e in last})
        if len(derived) > len(positions) + 2:
            raise InvariantViolation("derived series did not terminate")

    return SeriesReport(
        lower=tuple(_trusted(A, tuple(compress(positions, [d >= k for d in longest_to])))
                    for k in range(l + 2)),
        upper=tuple(_trusted(A, tuple(compress(positions, [d < k for d in longest_from])))
                    for k in range(l + 2)),
        derived=tuple(_trusted(A, tuple([positions[x] for x in sorted(t)])) for t in derived),
        nilpotency_class=l + 1 if positions else 0,
        derived_length=len(derived) - 1,
        longest_path=l,
        center_indices=_center_indices(M.n, M.roots) if has_open_orbit(M) else None,
    )


TYPE_I = "I"
TYPE_II = "II"


def variety_type(A: RayMatrix) -> str:
    """Type I when the maximal unipotent subgroup is commutative, i.e. when
    the root graph on the positive roots has no arrow."""
    table = demazure_roots(A)
    return TYPE_II if any(_sum_triples(table)) else TYPE_I


@record
class SplitReport:
    b: int
    remaining: Optional[RayMatrix]
    removed_columns: tuple[int, ...]
    removed_rows: tuple[int, ...]


def split_projective_lines(A: RayMatrix) -> SplitReport:
    """Factor off projective lines from a Type I variety.

    A column that is a unit vector whose matching row is also a unit vector
    contributes one projective-line factor; removing those rows and columns
    leaves the ray matrix of the complement, which has no detached roots.
    """
    if variety_type(A) != TYPE_I:
        raise NotTypeIError("projective-line splitting needs a commutative U_max (Type I)")
    cols = A.columns
    removed_cols = []
    removed_rows = []
    for i, col in enumerate(cols):
        if sum(col) == 1 and max(col) == 1:
            k = col.index(1)
            if all(A.rows[k][j] == (1 if j == i else 0) for j in range(A.n)):
                removed_cols.append(i)
                removed_rows.append(k)
    keep_cols = [j for j in range(A.n) if j not in removed_cols]
    keep_rows = [k for k in range(len(A.rows)) if k not in removed_rows]
    if not keep_cols:
        remaining = None
    else:
        rows = [tuple(A.rows[k][j] for j in keep_cols) for k in keep_rows]
        remaining = RayMatrix.validate(rows, len(keep_cols))
    return SplitReport(
        b=len(removed_cols),
        remaining=remaining,
        removed_columns=tuple(removed_cols),
        removed_rows=tuple(removed_rows),
    )
