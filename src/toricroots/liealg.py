"""Structure constants of the nilpotent Lie algebra spanned by the positive
root derivations.  The literal Lie-theoretic computations built on them
(bracket tables, center, central and derived series) are the test oracles
for the combinatorial formulas in ``groups`` and live with the tests.

For positive roots ``e`` on ray ``i`` and ``f`` on ray ``j > i`` with
``d = <e, p_j>``:

* ``d > 0``  gives ``[D_e, D_f] = -d * D_{e+f}`` with ``e+f`` again a root on
  ray ``i``;
* ``d = 0``  gives ``[D_e, D_f] = 0``; two roots on the same ray always
  commute (their sum is never a root).

Every bracket of basis elements is an integer multiple of a single basis
element, so ideals and centralizers are root-aligned and can be computed
set-theoretically; the integer coefficients are still tracked so the concrete
Cox-coordinate model can cross-check signs.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantViolation
from .fan import RayMatrix
from .roots import DemazureRoot, demazure_roots, require_positive_root


def bracket(
    e: DemazureRoot, f: DemazureRoot, A: RayMatrix
) -> Optional[tuple[int, DemazureRoot]]:
    """Bracket of two positive root derivations, or ``None`` when zero."""
    require_positive_root(A, e)
    require_positive_root(A, f)
    if e.ray == f.ray:
        return None
    if e.ray < f.ray:
        d = e.coords[f.ray]
        coef = -d
    else:
        d = f.coords[e.ray]
        coef = d
    if d == 0:
        return None
    total = tuple(x + y for x, y in zip(e.coords, f.coords))
    result = demazure_roots(A).find(total)
    if result is None:
        raise InvariantViolation(f"bracket target {total} is not a root")
    return coef, result
