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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import lattice
from .errors import (
    CapExceededError,
    DegenerateRaysError,
    IncompleteFanError,
    InputError,
)
from .lattice import IntVector

#: Default cap on the number of candidate basis subsets tried by bilateralize.
MAX_BASIS_SUBSETS = 2_000_000


@dataclass(frozen=True)
class RayMatrix:
    """Ray matrix of a bilateral fan: row ``k`` holds the negated coordinates
    of the ``(n+k)``-th ray in the basis formed by the first ``n`` rays."""

    n: int
    rows: tuple[IntVector, ...]

    @classmethod
    def validate(cls, raw: Iterable[Iterable[int]], n: int) -> "RayMatrix":
        """Check all ray-matrix invariants, naming every violation."""
        n = lattice.as_int(n)
        violations: list[str] = []
        try:
            rows = tuple(lattice.as_vector(r) for r in raw)
        except TypeError:
            raise InputError("ray matrix rows must be lists of integers", ["bad-shape"]) from None
        if n < 1:
            violations.append("bad-shape: n must be >= 1")
        if not rows:
            violations.append("bad-shape: at least one row is required")
        if any(len(r) != n for r in rows):
            violations.append("bad-shape: every row must have length n")
        if violations:
            raise InputError("; ".join(violations), violations)
        for k, row in enumerate(rows):
            if all(x == 0 for x in row):
                violations.append(f"zero-row: row {k + 1} is zero")
            else:
                if any(x < 0 for x in row):
                    violations.append(f"negative-entry: row {k + 1} has a negative entry")
                if math.gcd(*(abs(x) for x in row)) != 1:
                    violations.append(f"non-primitive-row: row {k + 1} has entry gcd > 1")
        if len(set(rows)) != len(rows):
            violations.append("duplicate-rows: rows must be pairwise distinct")
        for j in range(n):
            if all(row[j] == 0 for row in rows):
                violations.append(f"zero-column: column {j + 1} is zero")
        if violations:
            raise InputError("; ".join(violations), violations)
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


@dataclass(frozen=True)
class RayList:
    """Primitive ray generators of a fan, in user order."""

    n: int
    rays: tuple[IntVector, ...]

    @classmethod
    def validate(cls, raw: Iterable[Iterable[int]], n: int) -> "RayList":
        n = lattice.as_int(n)
        rays = tuple(lattice.as_vector(r) for r in raw)
        violations = []
        if n < 1:
            violations.append("bad-shape: n must be >= 1")
        if any(len(r) != n for r in rays):
            violations.append("bad-shape: every ray must have length n")
        if violations:
            raise InputError("; ".join(violations), violations)
        for i, r in enumerate(rays):
            if all(x == 0 for x in r):
                violations.append(f"zero-ray: ray {i + 1} is zero")
            elif not lattice.is_primitive(r):
                violations.append(f"non-primitive-ray: ray {i + 1} has entry gcd > 1")
        if len(set(rays)) != len(rays):
            violations.append("duplicate-rays: rays must be pairwise distinct")
        if violations:
            raise InputError("; ".join(violations), violations)
        return cls(n=n, rays=rays)

    @property
    def m(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
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


def bilateralize(rl: RayList, max_subsets: int = MAX_BASIS_SUBSETS) -> Optional[Bilateralization]:
    """Search for bilateral structure in a ray list.

    Returns the witness for the lexicographically first index subset whose
    rays form a unimodular basis with every other ray in the closed negative
    orthant, or ``None`` when no such subset exists (for the ray set of a
    complete fan this certifies that the variety is not radiant).

    Candidate subsets whose induced matrix would contain a zero column are
    skipped: a zero column would mean some coordinate functional is
    non-negative on every ray, which is impossible for a complete fan.
    """
    n, m = rl.n, rl.m
    if lattice.rank(rl.rays) < n:
        raise DegenerateRaysError("degenerate ray set: rays do not span")
    if n == 1:
        if (1,) not in rl.rays or (-1,) not in rl.rays:
            raise IncompleteFanError("fan not complete: both directions required in rank 1")
    elif n == 2:
        _check_planar_completeness(rl.rays)
    if math.comb(m, n) > max_subsets:
        raise CapExceededError(
            f"basis search cap exceeded: C({m},{n}) > {max_subsets}"
        )
    for subset in itertools.combinations(range(m), n):
        basis = [rl.rays[i] for i in subset]
        if not lattice.is_unimodular_basis(basis):
            continue
        rest = [i for i in range(m) if i not in subset]
        rows = []
        for i in rest:
            coords = lattice.coords_in_basis(rl.rays[i], basis)
            if any(c > 0 for c in coords):
                rows = None
                break
            rows.append(tuple(-c for c in coords))
        if rows is None:
            continue
        if any(all(row[j] == 0 for row in rows) for j in range(n)):
            continue  # not the ray matrix of a complete fan
        matrix = RayMatrix.validate(rows, n)
        return Bilateralization(
            basis_indices=tuple(subset),
            ray_order=tuple(subset) + tuple(rest),
            matrix=matrix,
        )
    return None
