import math
import random

import pytest

from toricroots import RayList, RootSet, positive_roots, validate_ray_matrix
from toricroots.groups import RootGraph
from toricroots.roots import canonical_reorder, column_preorder

# Seeds are fixed so the "random" fixtures are identical on every run.
SEED_20 = 20260809
SEED_100 = 424242


@pytest.fixture
def p123():
    """Ray matrix of the weighted projective plane with weights 1, 2, 3."""
    return validate_ray_matrix([[3, 2, 1]], 3)


@pytest.fixture
def f1p1():
    """Ray matrix of the product of the first Hirzebruch surface with a line."""
    return validate_ray_matrix([[1, 1, 0], [1, 0, 0], [0, 0, 1]], 3)


def projective_space(n):
    return validate_ray_matrix([[1] * n], n)


def incomparable_columns_matrix(n):
    """All-ones-minus-identity rows plus an all-ones row: every two columns
    are incomparable, so only the basic roots exist."""
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    rows.append([1] * n)
    return validate_ray_matrix(rows, n)


def positive_rootset(A):
    return RootSet.of(A, [r for level in positive_roots(A) for r in level])


def satisfies_canonical_condition(A):
    return column_preorder(A).canonical


def rootset_levels(M):
    """The roots of ``M`` by ray level."""
    return tuple(tuple(r for r in M.roots if r.ray == i) for i in range(M.n))


def inner_subgraph(graph):
    """The root graph with only its arrows inside a level."""
    return RootGraph(graph.vertices, tuple(a for a in graph.arrows if a.inner))


def random_ray_matrices(count, seed, max_n=4, max_rows=3, max_entry=3):
    """Deterministic stream of valid, canonically ordered ray matrices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        num_rows = rng.randint(1, max_rows)
        rows = []
        for _ in range(num_rows):
            for _attempt in range(200):
                row = tuple(rng.randint(0, max_entry) for _ in range(n))
                if not any(row):
                    continue
                g = math.gcd(*(abs(x) for x in row))
                row = tuple(x // g for x in row)
                if row not in rows:
                    rows.append(row)
                    break
            else:
                break
        if len(rows) != num_rows:
            continue
        if any(all(r[j] == 0 for r in rows) for j in range(n)):
            continue
        _, A = canonical_reorder(validate_ray_matrix(rows, n))
        out.append(A)
    return out


def random_ray_list(n, m, seed, positive_ray=False, max_entry=3):
    """Deterministic bilateral ray list of rank ``n`` with ``m`` rays: the
    standard basis and the negated rows of a random ray matrix, under a
    seeded unimodular transform (``n`` elementary row operations and a
    signed permutation), shuffled.  ``positive_ray`` adds the image of
    ``(1,...,1)`` as ray ``m + 1``, which usually leaves no witness.  Rank 1
    has one ray matrix row, so ``m = 2`` there."""
    rng = random.Random(seed)
    while True:
        rows = set()
        while len(rows) < m - n:
            row = tuple(rng.randint(0, max_entry) for _ in range(n))
            if any(row) and math.gcd(*row) == 1:
                rows.add(row)
        rows = sorted(rows)
        if all(any(r[j] for r in rows) for j in range(n)):
            break
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays += [tuple(-x for x in r) for r in rows]
    if positive_ray:
        rays.append((1,) * n)
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        T[i] = [a + c * b for a, b in zip(T[i], T[j])]
    rng.shuffle(T)
    T = [[x * s for x in row] for row, s in zip(T, [rng.choice((-1, 1)) for _ in T])]
    rays = [tuple(sum(t * x for t, x in zip(trow, r)) for trow in T) for r in rays]
    rng.shuffle(rays)
    return RayList.validate(rays, n)
