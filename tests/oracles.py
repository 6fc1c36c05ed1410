"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's enumeration paths: root detection is
the literal pairing definition scanned over a box, and the subgroup oracles
either filter all subsets of the positive roots against the literal pairwise
saturation condition or fix the levels from the top down, trying every
subset of each level.  The polynomial oracles substitute term by term and
multiply dense matrices, the way the library did before its sparse paths.
"""

import itertools

from toricroots import RootSet, positive_roots
from toricroots.poly import Poly


def pairing_vector(A, e):
    """All pairings of a character with the m primitive generators."""
    out = list(e)
    for row in A.rows:
        out.append(-sum(a * x for a, x in zip(row, e)))
    return out


def literal_root_ray(A, e):
    """Ray index when e is a root by the definition, else None."""
    ray = None
    for l, value in enumerate(pairing_vector(A, e)):
        if value == -1:
            if ray is not None:
                return None
            ray = l
        elif value < 0:
            return None
    return ray


def box_scan_roots(A):
    """Every root lies in the box ``|e|_inf <= 1 + max entry of A``."""
    bound = 1 + max(max(row) for row in A.rows)
    found = set()
    for e in itertools.product(range(-bound, bound + 1), repeat=A.n):
        ray = literal_root_ray(A, e)
        if ray is not None:
            found.add((ray, e))
    return found


def orthant_box_roots(A):
    """Roots on the basis rays by scanning a box of the positive orthant.

    A root on basis ray ``i`` is ``e = -q_i + sum_j b_j q_j`` with ``b >= 0``
    and ``-A e >= 0``; that forces ``b_j * a_{kj} <= a_{ki}`` in every row,
    and every column has a positive entry, so ``b_j <= max_k a_{ki}``.  The
    cost grows with that box, not with the roots found.
    """
    cols = A.columns
    found = set()
    for i in range(A.n):
        others = [j for j in range(A.n) if j != i]
        for bs in itertools.product(range(max(cols[i]) + 1), repeat=A.n - 1):
            e = [0] * A.n
            e[i] = -1
            for j, b in zip(others, bs):
                e[j] = b
            if all(sum(a * x for a, x in zip(row, e)) <= 0 for row in A.rows):
                found.add((i, tuple(e)))
    return found


def brute_force_open_orbit_rootsets(A):
    """All subsets of the positive roots that contain the basic roots and
    satisfy the pairwise saturation condition, as frozensets of coordinates.

    Pairs whose sum is a root are precomputed; a subset is saturated iff for
    each such pair inside it the sum is inside as well.
    """
    pos = [r for level in positive_roots(A) for r in level]
    index = {r.coords: i for i, r in enumerate(pos)}
    basics_mask = 0
    optional = []
    for i, r in enumerate(pos):
        if r.kind == "basic":
            basics_mask |= 1 << i
        else:
            optional.append(i)
    requirements = []
    for a in pos:
        for b in pos:
            if a.ray >= b.ray:
                continue
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if literal_root_ray(A, s) is not None:
                requirements.append(
                    (index[a.coords], index[b.coords], index[s])
                )
    results = []
    for combo_bits in range(1 << len(optional)):
        mask = basics_mask
        for bit, i in enumerate(optional):
            if combo_bits >> bit & 1:
                mask |= 1 << i
        ok = True
        for ia, ib, ir in requirements:
            if mask >> ia & 1 and mask >> ib & 1 and not mask >> ir & 1:
                ok = False
                break
        if ok:
            results.append(
                RootSet.of(A.n, [r for i, r in enumerate(pos) if mask >> i & 1])
            )
    return sorted(results, key=RootSet.sort_key)


def level_mask_rootsets(A):
    """The open-orbit root sets by fixing levels from the top down, as
    sorted ``RootSet``s: level ``n-1`` is forced, and at level ``i`` every
    subset of the positive roots containing the basic root is tried (all
    ``2^k`` masks) and kept when the sums with the already-chosen higher
    levels that are roots stay inside it.  No result cap.
    """
    pos = positive_roots(A)
    results = []

    def level_ok(candidate, higher):
        chosen = {r.coords for r in candidate}
        for a in candidate:
            for b in higher:
                s = tuple(x + y for x, y in zip(a.coords, b.coords))
                if literal_root_ray(A, s) is not None and s not in chosen:
                    return False
        return True

    def descend(i, picked, higher):
        if i < 0:
            results.append(RootSet.of(A.n, [r for lev in picked for r in lev]))
            return
        basic = next(r for r in pos[i] if r.kind == "basic")
        optional = [r for r in pos[i] if r is not basic]
        for mask in range(1 << len(optional)):
            candidate = (basic,) + tuple(
                r for bit, r in enumerate(optional) if mask >> bit & 1
            )
            if level_ok(candidate, higher):
                descend(i - 1, picked + [candidate], higher + list(candidate))

    descend(A.n - 1, [], [])
    return sorted(results, key=RootSet.sort_key)


def literal_sum_triples(A):
    """Coordinate triples ``(a, b, a + b)`` of positive roots with ``a`` on
    a lower level than ``b`` whose sum is a root by the definition; a set
    containing the basic roots is saturated iff it holds ``a + b`` whenever
    it holds ``a`` and ``b``."""
    pos = [r for level in positive_roots(A) for r in level]
    out = []
    for a in pos:
        for b in pos:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if a.ray < b.ray and literal_root_ray(A, s) is not None:
                out.append((a.coords, b.coords, s))
    return out


def termwise_substitute(p, images):
    """``p`` with coordinate variable ``i`` replaced by ``images[i]``: every
    term is multiplied out from its coefficient, one power of an image per
    coordinate it involves (bare variables included) and its parameters."""
    ring = p.ring
    nc = ring.num_coords
    powers = {}
    total = ring.const(0)
    for mono, coef in p.terms.items():
        term = ring.const(coef)
        for i in range(nc):
            if mono[i]:
                if (i, mono[i]) not in powers:
                    powers[i, mono[i]] = images[i] ** mono[i]
                term = term * powers[i, mono[i]]
        param_part = (0,) * nc + mono[nc:]
        if any(param_part):
            term = term * Poly(ring, {param_part: 1})
        total = total + term
    return total


def dense_unitriangular_product(X, Y, k, ring):
    """The product of the k x k unitriangular matrices ``1 + X`` and
    ``1 + Y`` by dense multiplication, every entry a sum of k products.
    ``X``, ``Y`` and the result hold the non-zero strictly upper entries as
    ``{(row, col): Poly}``, 1-based; the diagonal of the product must come
    out as ones and its lower triangle as zeros."""

    def dense(Z):
        M = [[ring.const(int(i == j)) for j in range(k)] for i in range(k)]
        for (i, j), value in Z.items():
            M[i - 1][j - 1] = M[i - 1][j - 1] + value
        return M

    P, Q = dense(X), dense(Y)
    out = {}
    for i in range(k):
        for j in range(k):
            entry = sum((P[i][t] * Q[t][j] for t in range(k)), ring.const(0))
            if i == j:
                assert entry == ring.const(1)
            elif i > j:
                assert entry.is_zero()
            elif not entry.is_zero():
                out[i + 1, j + 1] = entry
    return out
