"""Exact integer arithmetic on lattice vectors.

Everything here works on tuples of Python ints, so gcd, determinant and
change-of-basis computations are exact for arbitrarily large entries.  All
functions are pure; there is no floating point anywhere in the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import InputError

IntVector = tuple[int, ...]


def as_int(x) -> int:
    """``x`` itself when it is an int; a bool, float or string is rejected,
    never coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InputError(f"non-integer: {x!r} is not an integer", ["non-integer"])


def as_vector(v: Iterable[int]) -> IntVector:
    return tuple(as_int(x) for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    vec = as_vector(v)
    return any(vec) and math.gcd(*(abs(x) for x in vec)) == 1


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise InputError("determinant needs a square matrix", ["bad-shape"])
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free row elimination."""
    mat = [list(map(int, v)) for v in vectors]
    if not mat:
        return 0
    width = len(mat[0])
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p = mat[r][col]
        for i in range(r + 1, len(mat)):
            if mat[i][col] != 0:
                q = mat[i][col]
                mat[i] = [x * p - y * q for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def is_unimodular_basis(vs: Sequence[Sequence[int]]) -> bool:
    """True iff the vectors form a lattice basis (integer determinant +-1)."""
    vecs = [as_vector(v) for v in vs]
    n = len(vecs)
    if any(len(v) != n for v in vecs):
        raise InputError("vector length mismatch", ["bad-shape"])
    return abs(det(vecs)) == 1


def coords_in_basis(v: Sequence[int], basis: Sequence[Sequence[int]]) -> IntVector:
    """Integer coordinates of ``v`` in a unimodular basis (Cramer's rule).

    Unimodularity makes every coordinate an exact integer.
    """
    vecs = tuple(as_vector(b) for b in basis)
    vec = as_vector(v)
    n = len(vecs)
    if len(vec) != n or any(len(b) != n for b in vecs):
        raise InputError("vector length mismatch", ["bad-shape"])
    # columns of the change-of-basis matrix are the basis vectors
    d = det([[vecs[j][i] for j in range(n)] for i in range(n)])
    if abs(d) != 1:
        raise InputError("basis is not unimodular", ["not-unimodular"])
    coords = []
    for j in range(n):
        rows = [[vec[i] if jj == j else vecs[jj][i] for jj in range(n)] for i in range(n)]
        coords.append(det(rows) * d)  # d in {+1,-1}, so division by d is multiplication
    return tuple(coords)
