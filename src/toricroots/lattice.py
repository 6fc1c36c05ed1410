"""Exact integer arithmetic on lattice vectors.

Everything here works on tuples of Python ints, so rank computations are
exact for arbitrarily large entries.  All functions are pure; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError

IntVector = tuple[int, ...]


def as_int(x) -> int:
    """``x`` itself when it is an int; a bool, float or string is rejected,
    never coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InputError(f"non-integer: {x!r} is not an integer")


def as_vector(v: Iterable[int]) -> IntVector:
    return tuple(as_int(x) for x in v)


def as_vectors(raw: Iterable[Iterable[int]], what: str) -> tuple[IntVector, ...]:
    """``raw`` as integer vectors; anything but a list of lists is rejected
    as ``bad-shape``, never with a bare ``TypeError``."""
    try:
        return tuple(as_vector(r) for r in raw)
    except TypeError:
        raise InputError(f"bad-shape: {what} must be lists of integers") from None


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
