"""Smooth complete toric surfaces as self-intersection sequences.

A smooth complete toric surface is encoded by integers ``(c_1,...,c_m)``
through the recursion ``p_{s+1} = c_s p_s - p_{s-1}`` started from
``p_1 = (1,0)``, ``p_2 = (0,1)``: the rays must close up cyclically, stay
pairwise distinct, and wind exactly once around the origin.  The surface is
radiant exactly when some cyclically adjacent pair of the sequence is
non-positive in both entries, which is also when the ray set is bilateral.

Every such sequence arises from the triangle ``(-1,-1,-1)`` or one of the
quadrilaterals ``(0,q,0,-q)`` by repeatedly adding 1 to two cyclically
adjacent entries and inserting a 1 between them (a blow-up at a fixed
point); the enumeration below closes the seed set under that move up to
rotation and reflection.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import groups, lattice, roots
from .errors import CapExceededError, InputError, InvariantViolation, NotRadiantError
from .fan import RayList, RayMatrix, angle_less, bilateralize
from .groups import EnumerationResult, GroupShape, RootSet
from .record import record

#: Cap on the number of sequences ``enumerate_smooth_surfaces`` lists
#: (44 672 for ``max_m = 12``).
MAX_SURFACE_SEQUENCES = 50_000


@record
class SurfaceSequence:
    """Cyclic self-intersection data ``(c_1,...,c_m)``, m >= 3."""

    c: tuple[int, ...]

    @classmethod
    def of(cls, values: Iterable[int]) -> "SurfaceSequence":
        try:
            c = lattice.as_vector(values)
        except TypeError:
            raise InputError("bad-shape: a surface sequence must be a list of integers") from None
        if len(c) < 3:
            raise InputError("short-sequence: a surface sequence needs at least 3 entries")
        return cls(c)

    @property
    def m(self) -> int:
        return len(self.c)

    @property
    def picard_rank(self) -> int:
        return self.m - 2

    def canonical(self) -> tuple[int, ...]:
        """Smallest representative under rotation and reflection."""
        seqs = []
        for base in (self.c, self.c[::-1]):
            for shift in range(len(base)):
                seqs.append(base[shift:] + base[:shift])
        return min(seqs)


def sequence_to_rays(seq: SurfaceSequence) -> RayList:
    """Run the recursion and validate closure, distinctness and winding."""
    m = seq.m
    rays = [(1, 0), (0, 1)]
    for s in range(1, m + 1):
        p_prev, p_cur = rays[s - 1], rays[s]
        c = seq.c[s % m]  # c_{s+1} with 1-based cyclic indexing
        rays.append((c * p_cur[0] - p_prev[0], c * p_cur[1] - p_prev[1]))
    if rays[m] != rays[0] or rays[m + 1] != rays[1]:
        raise InputError(f"not-closed: sequence does not close up: got {rays[m]}, {rays[m + 1]}")
    rays = rays[:m]
    if len(set(rays)) != m:
        raise InputError("duplicate-rays: sequence produces duplicate rays")
    for u, v in zip(rays, rays[1:] + rays[:1]):
        if u[0] * v[1] - u[1] * v[0] != 1:
            raise InvariantViolation("consecutive rays are not a positive basis")
    descents = sum(
        1 for u, v in zip(rays, rays[1:] + rays[:1]) if not angle_less(u, v)
    )
    if descents != 1:
        raise InputError(f"bad-winding: rays wind {descents} times around the origin, expected 1")
    return RayList(2, tuple(rays))  # distinct int rays, primitive by the determinants


def is_radiant_sequence(seq: SurfaceSequence) -> bool:
    """True iff some cyclically adjacent pair is non-positive in both entries."""
    c = seq.c
    return any(c[s] <= 0 and c[(s + 1) % len(c)] <= 0 for s in range(len(c)))


def blow_up(seq: SurfaceSequence, s: int) -> SurfaceSequence:
    """Blow up between positions ``s`` and ``s+1`` (0-based, cyclic):
    add 1 to both neighbours and insert a 1 between them."""
    c = list(seq.c)
    m = len(c)
    if not 0 <= s < m:
        raise InputError(f"bad-position: position {s} out of range")
    t = (s + 1) % m
    c[s] += 1
    c[t] += 1
    if t == 0:
        out = c + [1]
    else:
        out = c[: s + 1] + [1] + c[s + 1:]
    return SurfaceSequence.of(out)


def _sequence_cap_error() -> CapExceededError:
    return CapExceededError(
        f"surface enumeration cap exceeded: more than {MAX_SURFACE_SEQUENCES} "
        f"sequences (MAX_SURFACE_SEQUENCES)"
    )


def enumerate_smooth_surfaces(max_m: int, max_q: Optional[int] = None) -> tuple[SurfaceSequence, ...]:
    """All smooth complete toric surfaces with at most ``max_m`` rays, up to
    rotation and reflection of the sequence.

    Infinitely many quadrilateral seeds exist, so the seed parameter ``q`` is
    capped (default ``max_q = max_m``); surfaces reachable only from larger
    seeds are out of the enumerated range.  More than
    ``MAX_SURFACE_SEQUENCES`` sequences raise ``CapExceededError``, before
    any seed is built when the seeds alone are too many.
    """
    if max_m < 3:
        raise InputError("bad-max-m: max_m must be at least 3")
    if max_q is None:
        max_q = max_m
    if 1 + (max_q + 1 if max_m >= 4 else 0) > MAX_SURFACE_SEQUENCES:
        raise _sequence_cap_error()  # the seeds are pairwise inequivalent
    seeds = [SurfaceSequence.of((-1, -1, -1))]
    if max_m >= 4:
        seeds += [SurfaceSequence.of((0, q, 0, -q)) for q in range(max_q + 1)]
    seen: dict[tuple[int, ...], SurfaceSequence] = {}
    frontier = []
    for seed in seeds:
        if seed.m <= max_m and seed.canonical() not in seen:
            sequence_to_rays(seed)  # validate
            seen[seed.canonical()] = seed
            frontier.append(seed)
    while frontier:
        seq = frontier.pop()
        if seq.m + 1 > max_m:
            continue
        for s in range(seq.m):
            child = blow_up(seq, s)
            # cheap bookkeeping filter (each blow-up adds 3 to the sum and
            # one entry) before the full recursion check
            if sum(child.c) != 3 * child.m - 12:
                raise InvariantViolation("blow-up broke the sum invariant")
            key = child.canonical()
            if key not in seen:
                sequence_to_rays(child)
                seen[key] = child
                frontier.append(child)
                if len(seen) > MAX_SURFACE_SEQUENCES:
                    raise _sequence_cap_error()
    return tuple(
        sorted(seen.values(), key=lambda sq: (sq.m, sq.canonical()))
    )


@record
class SurfaceReport:
    sequence: SurfaceSequence
    matrix: RayMatrix  # canonical column order
    column_permutation: tuple[int, ...]
    type: str
    d: Optional[int]  # None when the two columns are incomparable
    umax_shape: GroupShape
    nilpotency_class: int
    derived_length: int
    enumeration: EnumerationResult

    @property
    def picard_rank(self) -> int:
        return self.sequence.picard_rank

    @property
    def subgroups(self) -> tuple[RootSet, ...]:
        return self.enumeration.subgroups


def surface_report(seq: SurfaceSequence) -> SurfaceReport:
    """Full unipotent-structure report of a radiant smooth toric surface.

    Bilateralizes the rays, reads off the level width ``d`` (the largest d
    with ``a_k1 >= d * a_k2`` for all rows, for comparable columns), and
    cross-checks the closed forms -- nilpotency class ``d+1``, ``d+1``
    open-orbit subgroups with nested root sets -- against the generic
    machinery.  Non-radiant input is an error.
    """
    rays = sequence_to_rays(seq)
    radiant = is_radiant_sequence(seq)
    witness = bilateralize(rays)
    if (witness is not None) != radiant:
        raise InvariantViolation(
            "adjacent-pair criterion and bilateral search disagree"
        )
    if witness is None:
        raise NotRadiantError(f"sequence {seq.c} is not radiant")
    perm, A = roots.canonical_reorder(witness.matrix)
    pre = roots.demazure_roots(A).preorder
    pos = roots.positive_roots(A)
    series = groups.series_report(groups.umax_rootset(A))
    enum = groups.enumerate_open_orbit_subgroups(A)
    shape = groups.umax_shape(A).shape

    if not pre.comparable(0, 1):
        variety_type = groups.TYPE_I
        d = None
        if series.nilpotency_class != 1 or enum.count != 1:
            raise InvariantViolation("incomparable surface columns must give a single commutative subgroup")
    else:
        variety_type = groups.variety_type(A)
        col0, col1 = A.columns
        d = min(x // y for x, y in zip(col0, col1) if y > 0)
        if d < 1:
            raise InvariantViolation("comparable surface columns must give d >= 1")
        if len(pos[0]) != d + 1 or series.nilpotency_class != d + 1:
            raise InvariantViolation("level width disagrees with nilpotency class")
        if series.derived_length > 2:
            raise InvariantViolation("surface groups are metabelian")
        if enum.count != d + 1:
            raise InvariantViolation("expected d+1 open-orbit subgroups")
        # positions 0..d hold (-1, 0) < ... < (-1, d), and d + 1 holds (0, -1)
        if set(enum.positions) != {(*range(l + 1), d + 1) for l in range(d + 1)}:
            raise InvariantViolation("subgroup root sets are not the nested prefixes")

    return SurfaceReport(
        sequence=seq,
        matrix=A,
        column_permutation=perm,
        type=variety_type,
        d=d,
        umax_shape=shape,
        nilpotency_class=series.nilpotency_class,
        derived_length=series.derived_length,
        enumeration=enum,
    )
