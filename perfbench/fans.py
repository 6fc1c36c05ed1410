"""Ray-matrix arithmetic written for the benchmark alone.

Nothing here imports ``toricroots``: the generators use it to shape their
inputs and the checkers use it to recompute what the program reports.
Coordinates and indices are 0-based; ``rows`` is a list of integer rows of a
ray matrix with ``n`` columns.
"""

from __future__ import annotations

import itertools
import math


def columns(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def pairings(rows, e):
    """Pairings of the character ``e`` with all rays, basis rays first."""
    return list(e) + [-sum(a * x for a, x in zip(row, e)) for row in rows]


def literal_root_ray(rows, e):
    """Ray index when ``e`` is a Demazure root by definition, else None."""
    ray = None
    for l, value in enumerate(pairings(rows, e)):
        if value == -1:
            if ray is not None:
                return None
            ray = l
        elif value < 0:
            return None
    return ray


def is_valid_matrix(rows):
    """The ray-matrix invariants: non-negative primitive distinct non-zero
    rows and no zero column."""
    return (
        all(x >= 0 for r in rows for x in r)
        and all(math.gcd(*r) == 1 for r in rows)
        and len({tuple(r) for r in rows}) == len(rows)
        and all(any(c) for c in columns(rows))
    )


def dominates(u, v):
    return all(x >= y for x, y in zip(u, v))


def is_canonical(rows):
    """Equal columns are consecutive and no later column class strictly
    dominates an earlier one."""
    cols = columns(rows)
    n = len(cols)
    for i in range(n):
        for j in range(i + 1, n):
            if cols[i] != cols[j] and dominates(cols[j], cols[i]):
                return False
            if cols[i] == cols[j] and any(cols[k] != cols[i] for k in range(i, j)):
                return False
    return True


def canonical_rows(rows):
    """A canonical column order: larger column sums first, equal columns
    adjacent.  Strict domination implies a larger sum, so this order meets
    the canonical condition; counts of roots and subgroups do not depend on
    which canonical order is chosen."""
    cols = columns(rows)
    order = sorted(range(len(cols)), key=lambda j: (-sum(cols[j]), cols[j]))
    return [[r[j] for j in order] for r in rows]


def permutation_key(rows):
    """Key that is equal for two matrices that differ by a column
    permutation and a row order."""
    n = len(rows[0])
    return min(
        tuple(sorted(tuple(r[j] for j in perm) for r in rows))
        for perm in itertools.permutations(range(n))
    )


def lattice_points(cols, bound):
    """All ``b >= 0`` with ``sum_j b_j cols[j] <= bound`` entrywise, by
    depth-first search on the residual (every column has a positive
    entry, so each coordinate is bounded)."""
    out = []
    b = [0] * len(cols)

    def descend(j, residual):
        if j == len(cols):
            out.append(tuple(b))
            return
        col = cols[j]
        k = 0
        while all(r >= 0 for r in residual):
            b[j] = k
            descend(j + 1, residual)
            k += 1
            residual = [r - c for r, c in zip(residual, col)]
        b[j] = 0

    descend(0, list(bound))
    return out


def basis_level_roots(rows, i, only_above=False):
    """Roots on basis ray ``i``: ``-q_i + sum b_j q_j`` with ``b`` a lattice
    point of ``{b >= 0 : A' b <= a_i}``, where ``A'`` holds the other
    columns (only the later columns when ``only_above``)."""
    cols = columns(rows)
    n = len(cols)
    others = [j for j in range(n) if j != i and (j > i or not only_above)]
    found = []
    for b in lattice_points([cols[j] for j in others], cols[i]):
        e = [0] * n
        e[i] = -1
        for j, x in zip(others, b):
            e[j] = x
        found.append(tuple(e))
    return found


def positive_levels(rows):
    """Positive roots of a canonical matrix, level by level."""
    return [basis_level_roots(rows, i, only_above=True) for i in range(len(rows[0]))]


def maximal_class_leaders(rows):
    """Least index of each maximal class of equal columns."""
    cols = columns(rows)
    n = len(cols)
    return [
        i
        for i in range(n)
        if cols.index(cols[i]) == i
        and not any(cols[j] != cols[i] and dominates(cols[j], cols[i]) for j in range(n))
    ]


def class_count(rows):
    return len(set(columns(rows)))


def matrix_arg(rows):
    """The ``--ray-matrix`` form of a matrix."""
    return "; ".join(" ".join(str(x) for x in r) for r in rows)


def saturation_triples(rows, levels):
    """``(a, b, a+b)`` for positive roots ``a`` below ``b`` whose sum is a
    root by definition, as indices into the flattened ``levels``."""
    flat = [e for level in levels for e in level]
    ray_of = [i for i, level in enumerate(levels) for _ in level]
    index = {e: k for k, e in enumerate(flat)}
    triples = []
    for ka, a in enumerate(flat):
        for kb, b in enumerate(flat):
            if ray_of[ka] < ray_of[kb]:
                s = tuple(x + y for x, y in zip(a, b))
                if literal_root_ray(rows, s) is not None:
                    triples.append((ka, kb, index[s]))
    return triples


def count_open_orbit_subgroups(levels, triples):
    """Number of saturated root sets containing every basic root.  Levels
    are fixed from the top down with bitmasks; the basic root ``-q_i`` comes
    first in each level, since it is the lattice point ``b = 0``."""
    offsets = [0]
    for level in levels:
        offsets.append(offsets[-1] + len(level))
    needs = {}
    for a, b, s in triples:
        needs.setdefault(a, []).append((b, s))
    count = 0

    def descend(i, chosen):
        nonlocal count
        if i < 0:
            count += 1
            return
        lo, hi = offsets[i], offsets[i + 1]
        for bits in range(1 << (hi - lo - 1)):
            level_mask = 1 << lo | bits << (lo + 1)
            if all(
                not chosen >> b & 1 or level_mask >> s & 1
                for a in range(lo, hi)
                if level_mask >> a & 1
                for b, s in needs.get(a, ())
            ):
                descend(i - 1, chosen | level_mask)

    descend(len(levels) - 1, 0)
    return count


# ---------------------------------------------------------------------------
# smooth complete toric surfaces


def sequence_key(c):
    """Smallest representative under rotation and reflection."""
    return min(
        base[s:] + base[:s] for base in (tuple(c), tuple(c)[::-1]) for s in range(len(c))
    )


def surface_closure(max_m, max_q):
    """Keys of every sequence reachable from ``(-1,-1,-1)`` and
    ``(0,q,0,-q)``, ``0 <= q <= max_q``, by blow-ups, with at most
    ``max_m`` entries.  A blow-up between cyclic neighbours adds 1 to both
    and inserts a 1 between them."""
    seeds = [(-1, -1, -1)] + [(0, q, 0, -q) for q in range(max_q + 1)]
    seen = {sequence_key(c) for c in seeds if len(c) <= max_m}
    frontier = list(seen)
    while frontier:
        c = frontier.pop()
        if len(c) >= max_m:
            continue
        for s in range(len(c)):
            grown = list(c)
            grown[s] += 1
            grown[(s + 1) % len(c)] += 1
            grown.insert(s + 1, 1)
            key = sequence_key(grown)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


def is_radiant_sequence(c):
    """Some cyclically adjacent pair is non-positive in both entries."""
    return any(c[s] <= 0 and c[(s + 1) % len(c)] <= 0 for s in range(len(c)))


def surface_rays(c):
    """``p_1 = (1,0)``, ``p_2 = (0,1)``, ``p_{s+1} = c_s p_s - p_{s-1}``."""
    rays = [(1, 0), (0, 1)]
    for s in range(1, len(c) - 1):
        p, q = rays[s - 1], rays[s]
        rays.append((c[s] * q[0] - p[0], c[s] * q[1] - p[1]))
    return rays


def surface_level_width(c):
    """``d`` of a radiant surface, or None when its two ray-matrix columns
    are incomparable.

    Any two rays forming a basis with every other ray in their closed
    negative orthant give a ray matrix; with the dominating column first,
    ``d`` is the largest integer with ``a_k1 >= d a_k2`` in every row.
    """
    rays = surface_rays(c)
    for i, u in enumerate(rays):
        for j, v in enumerate(rays):
            det = u[0] * v[1] - u[1] * v[0]
            if det != 1:
                continue
            # coordinates of w in the basis (u, v), negated
            rows = [
                (-(w[0] * v[1] - w[1] * v[0]), -(u[0] * w[1] - u[1] * w[0]))
                for k, w in enumerate(rays)
                if k not in (i, j)
            ]
            if any(x < 0 for r in rows for x in r):
                continue
            big, small = columns(rows)
            if not dominates(big, small):
                big, small = small, big
            if not dominates(big, small):
                return None
            return min(x // y for x, y in zip(big, small) if y > 0)
    raise ValueError(f"sequence {c} has no bilateral basis")
