"""Ray data of complete fans: validation and bilateral-structure detection.

A complete fan is *bilateral* when its rays can be relabelled so that the
first ``n`` primitive generators form a lattice basis and every remaining
generator lies in the closed negative orthant of that basis.  In that case
the negated coordinates of the non-basis rays form the *ray matrix*: an
``(m-n) x n`` matrix with non-negative entries, nonzero pairwise distinct
primitive rows and no zero column.  The ray matrix is the sole input to all
root and group computations downstream.

Detecting bilateral structure decides radiance: a complete toric variety is
radiant (its maximal unipotent automorphism subgroup has an open orbit)
exactly when its fan is bilateral.  For ``n <= 2`` the completeness of the
ambient fan is verified here from the ray set alone; for ``n >= 3`` it is the
caller's responsibility, and a negative answer certifies non-radiance only
under that assumption (see README).

The search works on facets.  For ``n - 1`` rays ``F`` let ``w`` be the
integer normal with ``<w, r> = +-det(F + [r])``.  Coordinate ``j`` of a ray in
a basis ``B`` is ``<w_j, r> / <w_j, b_j>`` for the facet ``F_j = B - {b_j}``
(Cramer's rule), so ``B`` is a bilateral witness exactly when, for every
``j``, ``b_j`` is the only ray strictly on its side of ``span(F_j)``,
``|<w_j, b_j>| = 1`` (unimodularity) and some ray lies strictly on the other
side (no zero column).  ``bilateralize`` first checks that the rays span
(``lattice.rank``), then scans the ``(n-1)``-subsets in lexicographic order,
keeping each prefix's elimination by that same fraction-free step
(``lattice.eliminate``) and reducing only the new row, completes each by its
lone rays of larger index and checks the other facets of the candidate; the
first basis that passes is the lexicographically first witness.  Each facet
is checked at most once, so the work is ``C(m, n-1)`` facets at most (against
``C(m, n)`` bases), each scan stopping once neither side can hold a lone ray;
``MAX_FACET_NORMALS`` caps the facets checked.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from typing import Iterable, Optional

from . import lattice
from .errors import (
    CapExceededError,
    DegenerateRaysError,
    IncompleteFanError,
    InputError,
)
from .lattice import IntVector
from .record import record

#: Default budget of facets that bilateralize checks (normal computed, rays
#: classified); each facet is checked at most once.
MAX_FACET_NORMALS = 2_000_000


def _raise_if(violations: list[str]) -> None:
    if violations:
        raise InputError("; ".join(violations), [v.split(":")[0] for v in violations])


def _checked_vectors(raw, n, noun: str) -> tuple[int, tuple[IntVector, ...], list[str]]:
    """``n`` and the vectors of ``raw``, checked for what ray matrices and ray
    lists share: ``n >= 1`` and at least one vector, each of length ``n``
    (raised at once), and no vector zero, imprimitive or repeated (returned,
    for the caller to add its own violations to).  ``noun`` names them."""
    n = lattice.as_int(n)
    vectors = lattice.as_vectors(raw, f"{noun}s")
    violations = []
    if n < 1:
        violations.append("bad-shape: n must be >= 1")
    if not vectors:
        violations.append(f"bad-shape: at least one {noun} is required")
    if any(len(v) != n for v in vectors):
        violations.append(f"bad-shape: every {noun} must have length n")
    _raise_if(violations)
    for k, v in enumerate(vectors, 1):
        if not any(v):
            violations.append(f"zero-{noun}: {noun} {k} is zero")
        elif math.gcd(*v) != 1:
            violations.append(f"non-primitive-{noun}: {noun} {k} has entry gcd > 1")
    if len(set(vectors)) != len(vectors):
        violations.append(f"duplicate-{noun}s: {noun}s must be pairwise distinct")
    return n, vectors, violations


@record
class RayMatrix:
    """Ray matrix of a bilateral fan: row ``k`` holds the negated coordinates
    of the ``(n+k)``-th ray in the basis formed by the first ``n`` rays."""

    n: int
    rows: tuple[IntVector, ...]

    @classmethod
    def validate(cls, raw: Iterable[Iterable[int]], n: int) -> "RayMatrix":
        """Check all ray-matrix invariants, naming every violation."""
        n, rows, violations = _checked_vectors(raw, n, "row")
        violations += [f"negative-entry: row {k} has a negative entry"
                       for k, row in enumerate(rows, 1) if min(row) < 0]
        violations += [f"zero-column: column {j + 1} is zero"
                       for j in range(n) if not any(row[j] for row in rows)]
        _raise_if(violations)
        return cls(n=n, rows=rows)

    @property
    def m(self) -> int:
        """Total number of rays, basis rays included."""
        return self.n + len(self.rows)

    @property
    def columns(self) -> tuple[IntVector, ...]:
        return tuple(tuple(row[j] for row in self.rows) for j in range(self.n))

    def pairing(self, e: IntVector, ray: int) -> int:
        """Pairing of the character ``e`` (dual-basis coordinates) with the
        primitive generator of ray ``ray`` (0-based, basis rays first)."""
        if ray < self.n:
            return e[ray]
        row = self.rows[ray - self.n]
        return -sum(a * x for a, x in zip(row, e))

    def pairings(self, e: IntVector) -> tuple[int, ...]:
        return tuple(self.pairing(e, l) for l in range(self.m))


def validate_ray_matrix(raw: Iterable[Iterable[int]], n: int) -> RayMatrix:
    return RayMatrix.validate(raw, n)


@record
class RayList:
    """Primitive ray generators of a fan, in user order."""

    n: int
    rays: tuple[IntVector, ...]

    @classmethod
    def validate(cls, raw: Iterable[Iterable[int]], n: int) -> "RayList":
        n, rays, violations = _checked_vectors(raw, n, "ray")
        _raise_if(violations)
        return cls(n=n, rays=rays)

    @property
    def m(self) -> int:
        return len(self.rays)


@record
class Bilateralization:
    """Witness of bilateral structure.

    ``basis_indices`` are the (0-based) positions of the rays chosen as the
    lattice basis; ``ray_order`` relabels all rays so the basis comes first
    (new position -> original index); ``matrix`` is the induced ray matrix.
    """

    basis_indices: tuple[int, ...]
    ray_order: tuple[int, ...]
    matrix: RayMatrix


def _angle_half(v: IntVector) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi)
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _cross(u: IntVector, v: IntVector) -> int:
    return u[0] * v[1] - u[1] * v[0]


def angle_less(u: IntVector, v: IntVector) -> bool:
    """True when the plane vector ``u`` has a smaller angle in [0, 2*pi)."""
    hu, hv = _angle_half(u), _angle_half(v)
    if hu != hv:
        return hu < hv
    return _cross(u, v) > 0


def _check_planar_completeness(rays: tuple[IntVector, ...]) -> None:
    """A set of distinct primitive plane vectors is the ray set of a complete
    fan iff, sorted by angle, every consecutive (cyclic) gap is < pi."""
    if len(rays) < 3:
        raise IncompleteFanError("fan not complete: fewer than 3 rays in rank 2")
    order = sorted(rays, key=functools.cmp_to_key(lambda a, b: -1 if angle_less(a, b) else 1))
    for u, v in zip(order, order[1:] + order[:1]):
        if _cross(u, v) <= 0:
            raise IncompleteFanError(
                f"fan not complete: angular gap >= pi after ray {u}"
            )


def _lone_rays(w: IntVector, rays: tuple[IntVector, ...]) -> tuple[int, ...]:
    """Indices of the rays that lie alone strictly on their side of
    ``<w, .> = 0``, pair with ``w`` to +-1 and have a ray strictly on the
    other side.  The scan stops once neither side can hold such a ray: it
    holds two rays, or one that pairs to more than 1."""
    seen = [0, 0]  # rays strictly on the positive and the negative side
    lone = [None, None]  # the ray on each side while it may be the answer
    for i, r in enumerate(rays):
        v = sum(map(mul, w, r))
        if v:
            side = v < 0
            seen[side] += 1
            lone[side] = i if seen[side] == 1 and (v == 1 or v == -1) else None
            if lone[0] is None and lone[1] is None and seen[0] and seen[1]:
                return ()
    return tuple(sorted(lone[s] for s in (0, 1) if lone[s] is not None and seen[1 - s]))


def _witness_basis(rays: tuple[IntVector, ...], n: int, max_normals: int):
    """The lexicographically first bilateral basis (sorted indices) and the
    normal of each facet ``basis - {basis[j]}``, or ``None``."""
    checked, start = 0, lattice.start(n)  # facets checked; the state before any row
    ahead: dict[tuple[int, ...], tuple] = {}  # facets checked before the scan reaches them

    @functools.lru_cache(maxsize=64)  # the scan walks the prefixes depth first
    def reduced(prefix):
        return lattice.eliminate(reduced(prefix[:-1]), rays[prefix[-1]]) if prefix else start

    def check(facet):
        nonlocal checked
        checked += 1
        if checked > max_normals:
            raise CapExceededError(
                f"facet search cap exceeded: more than {max_normals} facets checked"
            )
        state = lattice.eliminate(reduced(facet[:-1]), rays[facet[-1]]) if facet else start
        if state is None:  # the facet's rays are dependent: no ray pairs to +-1
            return None, ()
        w = state[0][0]
        return w, _lone_rays(w, rays)

    # the facets that leave room for a larger ray, in lexicographic order
    for facet in itertools.combinations(range(len(rays) - 1), n - 1):
        w, lone = ahead.pop(facet, None) or check(facet)
        for p in lone:
            if facet and p < facet[-1]:
                continue
            basis = facet + (p,)
            normals = []
            for j in range(n - 1):
                other = basis[:j] + basis[j + 1:]
                if other not in ahead:
                    ahead[other] = check(other)
                w_j, lone_j = ahead[other]
                if basis[j] not in lone_j:
                    break
                normals.append(w_j)
            else:
                return basis, normals + [w]
    return None


def bilateralize(rl: RayList, max_normals: int = MAX_FACET_NORMALS) -> Optional[Bilateralization]:
    """Search for bilateral structure in a ray list.

    Returns the witness for the lexicographically first index subset whose
    rays form a unimodular basis with every other ray in the closed negative
    orthant and no coordinate zero on all of them (a zero column would mean
    some coordinate functional is non-negative on every ray, which is
    impossible for a complete fan), or ``None`` when no such subset exists
    (for the ray set of a complete fan this certifies that the variety is
    not radiant).  The facet search (module docstring) checks at most
    ``max_normals`` facets and raises ``CapExceededError`` beyond that.
    """
    n, m = rl.n, rl.m
    if lattice.rank(rl.rays) < n:
        raise DegenerateRaysError("degenerate ray set: rays do not span")
    if n == 1:
        if (1,) not in rl.rays or (-1,) not in rl.rays:
            raise IncompleteFanError("fan not complete: both directions required in rank 1")
    elif n == 2:
        _check_planar_completeness(rl.rays)
    found = _witness_basis(rl.rays, n, max_normals)
    if found is None:
        return None
    basis, normals = found
    # coordinate j of a ray r is <w_j, r> <w_j, b_j>, and <w_j, b_j> = +-1
    signs = [sum(map(mul, w, rl.rays[b])) for w, b in zip(normals, basis)]
    negated_duals = [[-s * x for x in w] for w, s in zip(normals, signs)]
    rest = tuple(i for i in range(m) if i not in basis)
    rows = tuple(tuple(sum(map(mul, u, rl.rays[i])) for u in negated_duals) for i in rest)
    # the facet conditions give every ray-matrix invariant: the rows are the
    # negated coordinates of distinct primitive rays in a lattice basis, all
    # >= 0, and each column has a nonzero entry
    return Bilateralization(basis_indices=basis, ray_order=basis + rest, matrix=RayMatrix(n, rows))
