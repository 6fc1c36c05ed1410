"""Demazure roots of a bilateral fan, from its ray matrix.

A Demazure root of a fan with primitive ray generators ``p_1,...,p_m`` is a
character ``e`` with ``<e, p_l> = -1`` for exactly one ray ``l`` and
``<e, p_s> >= 0`` for every other ray.  For a bilateral fan all roots are
determined by the ray matrix ``A`` alone:

* every root attached to a basis ray ``i`` has the form
  ``e = -q_i + sum_j b_j q_j`` with ``b_j >= 0`` in the dual basis, and is a
  root iff ``-A e >= 0`` entrywise;
* a root attached to a non-basis ray exists iff some column of ``A`` is a
  standard unit vector, and then equals the corresponding ``q_i``.

Roots are classified as *basic* (``-q_i``), *elementary* (``-q_i + q_j``),
*special* (all other roots on basis rays; always unipotent) or *detached*
(on non-basis rays; always semisimple): on a basis ray the kind is read off
``sum(b) = sum(e) + 1``, which is 0, 1 or more.  A root is *semisimple* when
its negative is also a root.

The entrywise order on columns of ``A`` drives everything downstream:
``i >= j`` iff column ``v_i >= v_j``, and equal columns form equivalence
classes.  After permuting columns so the classes are consecutive segments in
non-increasing order (the *canonical* order), the positive roots are exactly
the roots supported above their own index; they are the roots of a chosen
maximal unipotent subgroup of the automorphism group.

Coordinates, ray indices and column indices are 0-based throughout the
library; the CLI serializers shift them to 1-based for reports.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add, attrgetter
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, InputError, InvariantViolation, NotCanonicalError
from .fan import RayMatrix
from .lattice import IntVector

KIND_BASIC = "basic"
KIND_ELEMENTARY = "elementary"
KIND_SPECIAL = "special"
KIND_DETACHED = "detached"

_coords = attrgetter("coords")

#: Cap on the number of Demazure roots of one ray matrix.
MAX_ROOTS = 1_000_000


@dataclass(frozen=True, order=True)
class DemazureRoot:
    """A single Demazure root: dual-basis coordinates plus classification."""

    ray: int
    coords: IntVector
    kind: str
    semisimple: bool

    @property
    def parity(self) -> str:
        return "semisimple" if self.semisimple else "unipotent"

    def display(self) -> str:
        return display(self.coords)


def display(coords: Sequence[int]) -> str:
    """Human notation like ``-q1+2q3`` for root coordinates (1-based subscripts)."""
    parts = []
    for j, c in enumerate(coords):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+") + mag + f"q{j + 1}")
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


@dataclass(frozen=True)
class RootSystem:
    """All Demazure roots of a ray matrix, grouped by ray, and the one table
    of its positive roots.

    The positive roots are numbered 0..N-1 in sorted order, so a root set is
    the bitmask of its numbers.  ``partners[r]`` lists ``(other, s)``, by
    ascending ``other``, for each triple ``(x, y, s)`` of ``_sum_triples``
    holding ``r``: the whole saturation relation.  Each field is built on
    first use; the positive ones need canonical column order.
    """

    matrix: RayMatrix
    roots: tuple[DemazureRoot, ...]
    by_ray: tuple[tuple[DemazureRoot, ...], ...]

    def find(self, coords: IntVector) -> Optional[DemazureRoot]:
        return self._index.get(tuple(coords))

    @cached_property
    def _index(self) -> dict[IntVector, DemazureRoot]:
        return {r.coords: r for r in self.roots}

    @cached_property
    def preorder(self) -> "ColumnPreorder":
        return column_preorder(self.matrix)

    @cached_property
    def levels(self) -> tuple[tuple[DemazureRoot, ...], ...]:
        """The positive roots by basis ray (see ``positive_roots``): on ray
        ``i`` the roots that vanish below ``i``.

        Off coordinate ``i`` a root on ray ``i`` is non-negative, so for
        ``i > 0`` those that vanish below ``i`` are the ones whose first
        ``i`` coordinates sort before ``(0, ..., 0, 1)``: a prefix of the
        sorted ``by_ray[i]``."""
        n = self.matrix.n
        if not self.preorder.canonical:
            raise NotCanonicalError(
                "ray matrix is not in canonical column order; apply canonical_reorder first"
            )
        levels = tuple(
            level[:bisect_left(level, (0,) * (i - 1) + (1,), key=_coords)] if i else level
            for i, level in enumerate(self.by_ray[:n])
        )
        last = levels[n - 1]
        if len(last) != 1 or last[0].kind != KIND_BASIC:
            raise InvariantViolation("last positive level must be exactly the basic root")
        return levels

    @cached_property
    def positive(self) -> tuple[DemazureRoot, ...]:
        return tuple(r for level in self.levels for r in level)

    @cached_property
    def displays(self) -> tuple[str, ...]:
        """The display string of each positive root, by position."""
        return tuple(display(r.coords) for r in self.positive)

    @cached_property
    def position(self) -> dict[IntVector, int]:
        return {r.coords: k for k, r in enumerate(self.positive)}

    @cached_property
    def basics(self) -> int:
        return sum(1 << k for k, r in enumerate(self.positive) if r.kind == KIND_BASIC)

    @cached_property
    def partners(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        out: list[list[tuple[int, int]]] = [[] for _ in self.positive]
        for x, y, s in _sum_triples(self):
            out[x].append((y, s))
            out[y].append((x, s))
        return tuple(map(tuple, out))


def _sum_triples(table: RootSystem) -> Iterator[tuple[int, int, int]]:
    """Positions ``(x, y, s)`` of the positive roots of ``table`` with
    ``x + y = s`` and ``ray(x) < ray(y) = j``, by ascending ``x`` then ``y``.
    A positive root on level ``j`` is ``-1`` at ``j``, ``0`` below and ``>= 0``
    above, so only levels ``j`` with ``x_j >= 1`` can give a root (on the
    level of ``x``); two roots of one level never do."""
    positive, index = table.positive, table.position
    cuts = list(accumulate(map(len, table.levels), initial=0))  # level j: cuts[j]..cuts[j+1]
    for x, a in enumerate(positive):
        for j, c in enumerate(a.coords):
            if c >= 1:
                for y in range(cuts[j], cuts[j + 1]):
                    s = index.get(tuple(map(add, a.coords, positive[y].coords)))
                    if s is not None:
                        yield x, y, s


def _search_basis_ray(cols: tuple[IntVector, ...], i: int, found: list) -> None:
    """Append ``(i, e)`` to ``found`` for every root ``e`` on basis ray ``i``.

    Depth first over ``b_j`` (``j != i``, increasing), carrying the row
    residuals ``r_k = a_{ki} - sum_j b_j a_{kj}``; ``b_j`` runs up to
    ``min_k r_k // a_{kj}`` over the rows with ``a_{kj} > 0``.  Since ``b = 0``
    on the remaining coordinates keeps every residual non-negative, each node
    leads to a root and the work is O(roots * n * rows).  The roots come in
    ascending order of ``e``.  Raises ``CapExceededError`` before ``found``
    would exceed ``MAX_ROOTS``.
    """
    others = [j for j in range(len(cols)) if j != i]
    e = [0] * len(cols)
    e[i] = -1
    if not others:
        found.append((i, tuple(e)))
        return

    def descend(depth: int, residual: list[int]) -> None:
        j = others[depth]
        col = cols[j]
        top = min(r // a for r, a in zip(residual, col) if a)
        if depth < len(others) - 1:
            for b in range(top + 1):
                e[j] = b
                descend(depth + 1, residual)
                residual = [r - a for r, a in zip(residual, col)]
        else:
            # the last coordinate gives top + 1 roots at once: check the cap
            # before building them, so a huge polytope fails fast
            if len(found) + top >= MAX_ROOTS:
                raise CapExceededError(
                    f"root cap exceeded: the ray matrix has more than "
                    f"{MAX_ROOTS} Demazure roots (MAX_ROOTS)"
                )
            for b in range(top + 1):
                e[j] = b
                found.append((i, tuple(e)))
        e[j] = 0

    descend(0, list(cols[i]))


@lru_cache(maxsize=256)
def demazure_roots(A: RayMatrix) -> RootSystem:
    """Enumerate every Demazure root of ``A``.

    Roots on basis ray ``i`` are ``-q_i + sum_j b_j q_j`` for the lattice
    points ``b >= 0`` of the knapsack polytope ``{A' b <= a_i}`` (``A'`` is
    ``A`` without column ``i``), found by the residual-pruned depth-first
    search of ``_search_basis_ray``: its cost grows with the roots found, not
    with the column entries, and it emits them sorted.  Detached roots come
    from the unit-column test.  Only basic and elementary roots can be
    semisimple (a root's negative entries sum to -1 or 0, those of ``-e`` to
    ``-sum(b)``), so only they look ``-e`` up; detached ``q_i`` are, as
    ``-q_i`` is basic.  More than ``MAX_ROOTS`` roots raise ``CapExceededError``.
    """
    n, m = A.n, A.m
    cols = A.columns
    # the unit column i = e_k makes q_i a root on ray n + k
    detached = sorted(
        (n + col.index(1), tuple(int(j == i) for j in range(n)))
        for i, col in enumerate(cols)
        if sum(col) == 1 and max(col) == 1
    )
    found = list(detached)  # counted against MAX_ROOTS with the rest
    cuts = [len(found)]
    for i in range(n):
        _search_basis_ray(cols, i, found)
        cuts.append(len(found))

    low = {e for ray, e in found if ray >= n or sum(e) <= 0}  # sum(b) <= 1
    kinds = (KIND_BASIC, KIND_ELEMENTARY)
    roots = []
    for ray, e in found:
        s = sum(e) + 1  # sum(b) on a basis ray
        if ray >= n:
            roots.append(DemazureRoot(ray, e, KIND_DETACHED, True))
        elif s > 1:
            roots.append(DemazureRoot(ray, e, KIND_SPECIAL, False))
        else:
            roots.append(DemazureRoot(ray, e, kinds[s], tuple(-x for x in e) in low))
    d = cuts[0]
    by_ray = [tuple(roots[a:b]) for a, b in zip(cuts, cuts[1:])]
    by_ray += [tuple(r for r in roots[:d] if r.ray == l) for l in range(n, m)]
    return RootSystem(matrix=A, roots=tuple(roots[d:] + roots[:d]), by_ray=tuple(by_ray))


@dataclass(frozen=True)
class ColumnPreorder:
    """Entrywise preorder on the columns of a ray matrix.

    ``geq[i][j]`` is ``v_i >= v_j``; ``classes`` partitions the column
    indices into groups of equal columns, listed by smallest member.
    """

    geq: tuple[tuple[bool, ...], ...]
    classes: tuple[tuple[int, ...], ...]

    def strictly_dominates(self, i: int, j: int) -> bool:
        return self.geq[i][j] and not self.geq[j][i]

    def comparable(self, i: int, j: int) -> bool:
        return self.geq[i][j] or self.geq[j][i]

    @property
    def segments_ok(self) -> bool:
        """True when each class is a consecutive run of indices."""
        return all(cls[-1] - cls[0] + 1 == len(cls) for cls in self.classes)

    @property
    def canonical(self) -> bool:
        """True when equal columns form consecutive segments and no later
        class strictly dominates an earlier one."""
        reps = [cls[0] for cls in self.classes]
        return self.segments_ok and not any(
            self.strictly_dominates(rt, rs) for s, rs in enumerate(reps) for rt in reps[s + 1:]
        )

    @property
    def cuts(self) -> Optional[tuple[int, ...]]:
        """Cumulative class boundaries ``0 = c_0 < ... < c_r = n`` when the
        classes are consecutive segments in stored order, else ``None``."""
        if not self.segments_ok:
            return None
        return (0,) + tuple(cls[-1] + 1 for cls in self.classes)

    def maximal_classes(self, among: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
        """The classes of ``among`` that no other class of ``among`` strictly
        dominates."""
        return tuple(
            cls
            for cls in among
            if not any(
                self.strictly_dominates(other[0], cls[0])
                for other in among
                if other is not cls
            )
        )


def column_preorder(A: RayMatrix) -> ColumnPreorder:
    cols = A.columns
    n = A.n
    geq = tuple(
        tuple(all(x >= y for x, y in zip(cols[i], cols[j])) for j in range(n))
        for i in range(n)
    )
    seen: dict[IntVector, list[int]] = {}
    for i, col in enumerate(cols):
        seen.setdefault(col, []).append(i)
    classes = tuple(map(tuple, seen.values()))  # first seen at its smallest member
    return ColumnPreorder(geq=geq, classes=classes)


def canonical_reorder(A: RayMatrix) -> tuple[tuple[int, ...], RayMatrix]:
    """Column permutation realizing the canonical order, and the new matrix.

    A matrix that already satisfies the canonical condition is returned
    unchanged with the identity permutation.  Otherwise classes are ordered
    topologically (dominating classes first); incomparable ties are broken by
    class size descending, then by lexicographically smallest column.  The
    permutation maps new column position to old column index.  The new
    matrix is not validated again: permuting columns keeps every invariant.
    """
    pre = column_preorder(A)
    if pre.canonical:
        return tuple(range(A.n)), A
    cols = A.columns
    remaining = list(pre.classes)
    ordered: list[tuple[int, ...]] = []
    while remaining:
        best = min(pre.maximal_classes(remaining), key=lambda c: (-len(c), cols[c[0]]))
        ordered.append(best)
        remaining.remove(best)
    perm = tuple(i for cls in ordered for i in cls)
    rows = tuple(tuple(row[old] for old in perm) for row in A.rows)
    return perm, RayMatrix(A.n, rows)


def is_positive_form(coords: IntVector, ray: int) -> bool:
    """Support-above-the-ray shape characterizing roots of U_max."""
    return (
        coords[ray] == -1
        and all(c == 0 for c in coords[:ray])
        and all(c >= 0 for c in coords[ray + 1:])
    )


def require_positive_root(A: RayMatrix, root: DemazureRoot) -> None:
    """Raise ``InputError`` unless ``root`` is a positive root of ``A``."""
    coords = root.coords
    if root.ray >= A.n or len(coords) != A.n or not is_positive_form(coords, root.ray):
        raise InputError(f"not a positive root: {coords}")
    found = demazure_roots(A).find(coords)
    if found is None or found.ray != root.ray:
        raise InputError(f"not a root of this ray matrix: {coords}")


def positive_roots(A: RayMatrix) -> tuple[tuple[DemazureRoot, ...], ...]:
    """The positive roots of ``A``, partitioned by basis ray.

    Requires canonical column order: positivity is read off as support
    strictly above the root's own index.  The last level is always the
    single basic root.
    """
    return demazure_roots(A).levels
