"""Exact integer arithmetic on lattice vectors: strict integers and one
fraction-free (Bareiss) elimination step, ``eliminate``, whose pivots give
``rank`` and whose last form gives each facet normal of ``fan``'s search.
Everything works on tuples of Python ints, so it is exact for arbitrarily
large entries; there is no floating point anywhere in the package.
"""

from __future__ import annotations

from operator import mul
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


def start(n: int):
    """The elimination state before any row: the ``n`` coordinate forms and pivot 1."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)], 1


def eliminate(state, row: IntVector):
    """One fraction-free (Bareiss) elimination step with column pivoting.

    ``state`` holds, for each column not pivoted yet, the linear form that
    gives a row's entry there after the steps so far, and the last pivot.
    The step pivots ``row`` on its first such column with a nonzero entry;
    ``None`` stands for linearly dependent rows.  After the ``n - 1`` rows of
    a facet one form ``w`` is left, and ``<w, r> = +-det(rows + [r])``
    (Sylvester's identity makes every division exact)."""
    if state is None:
        return None
    forms, prev = state
    values = [sum(map(mul, f, row)) for f in forms]
    k = next((i for i, v in enumerate(values) if v), None)
    if k is None:
        return None
    pivot, pivot_form = values[k], forms[k]
    return [
        tuple((x * pivot - y * v) // prev for x, y in zip(f, pivot_form))
        for i, (f, v) in enumerate(zip(forms, values)) if i != k
    ], pivot


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of the vectors that ``eliminate`` pivots on."""
    r, state = 0, start(len(vectors[0]) if vectors else 0)
    for v in vectors:
        if (after := eliminate(state, v)) is not None:
            r, state = r + 1, after
    return r
