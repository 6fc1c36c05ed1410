"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's enumeration paths: root detection is
the literal pairing definition scanned over a box, and the subgroup oracles
either filter all subsets of the positive roots against the literal pairwise
saturation condition or fix the levels from the top down, trying every
subset of each level.  The polynomial oracles substitute term by term and
multiply dense matrices, the way the library did before its sparse paths.
The Lie-algebra oracles build the literal bracket table of the positive root
derivations from ``toricroots.liealg.bracket`` and compute centers and
central and derived series from it by linear algebra and iterated brackets.
The bilateral oracle tries every ``n``-subset of the rays as a basis, with
Bareiss determinants and Cramer's rule (``det``, ``is_unimodular_basis``,
``coords_in_basis``), the way ``toricroots.fan.bilateralize`` did before its
facet search.  The CLI's JSON writer is checked against the standard
library's encoder (``stdlib_json``), which it replaced.  The root graph is
rebuilt from all ordered pairs of roots (``all_pairs_root_graph``), the way
``toricroots.groups.root_graph`` did before it read the level-scanned sum
triples.  ``TuplePoly`` is ``toricroots.poly.Poly`` as it was before its
monomials were packed into ints: terms keyed by exponent tuples, and powers
multiplied out from one.  ``classified_roots`` is the root table the way
``toricroots.roots.demazure_roots`` built it before it read each root's kind
off its coordinate sum: kinds from the non-zero coordinates, the semisimple
test by negating every root, and one sort of all roots.
``next_closure_positions`` lists the open-orbit root sets by Ganter's
NextClosure, the way ``toricroots.groups.enumerate_open_orbit_subgroups`` did
before its reverse search, in the same lectic order.
"""

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Iterable, Optional, Sequence

from toricroots import (
    DegreeCapError, InputError, InvariantViolation, RootSet, demazure_roots, positive_roots,
)
from toricroots.fan import Bilateralization, RayList, RayMatrix
from toricroots.groups import Arrow, RootGraph, _close, _members
from toricroots.lattice import IntVector, as_vector
from toricroots.liealg import bracket
from toricroots.poly import Poly
from toricroots.roots import (
    KIND_BASIC, KIND_DETACHED, KIND_ELEMENTARY, KIND_SPECIAL, DemazureRoot, _search_basis_ray,
)


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


def _classify(coords: IntVector, ray: int, n: int) -> str:
    if ray >= n:
        return KIND_DETACHED
    nonzero = [(j, c) for j, c in enumerate(coords) if c != 0]
    if nonzero == [(ray, -1)]:
        return KIND_BASIC
    if len(nonzero) == 2 and (ray, -1) in nonzero and any(c == 1 for _, c in nonzero):
        return KIND_ELEMENTARY
    return KIND_SPECIAL


def classified_roots(A):
    """``(roots, by_ray)`` of ``A``: the roots that the library's search and
    unit-column test find (both gated by the box scans above), each
    classified from its non-zero coordinates and called semisimple when its
    negation is among them, then all sorted and bucketed by ray."""
    n, m = A.n, A.m
    cols = A.columns
    found = []
    for i in range(n):
        col = cols[i]
        if sum(col) == 1 and max(col) == 1:
            k = col.index(1)
            e = tuple(1 if j == i else 0 for j in range(n))
            found.append((n + k, e))
    for i in range(n):
        _search_basis_ray(cols, i, found)

    coords_set = {e for _, e in found}
    roots = []
    for ray, e in found:
        neg = tuple(-x for x in e)
        roots.append(
            DemazureRoot(
                ray=ray,
                coords=e,
                kind=_classify(e, ray, n),
                semisimple=neg in coords_set,
            )
        )
    roots.sort()
    buckets = [[] for _ in range(m)]
    for r in roots:
        buckets[r.ray].append(r)
    return tuple(roots), tuple(map(tuple, buckets))


def vanishing_levels(system):
    """The positive levels of a root table, each root tested on its own: on
    basis ray ``i`` the roots whose coordinates below ``i`` all vanish."""
    return tuple(
        tuple(r for r in system.by_ray[i] if not any(r.coords[:i]))
        for i in range(system.matrix.n)
    )


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
                RootSet.of(A, [r for i, r in enumerate(pos) if mask >> i & 1])
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
            results.append(RootSet.of(A, [r for lev in picked for r in lev]))
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
            if a.ray < b.ray:
                s = tuple(x + y for x, y in zip(a.coords, b.coords))
                if literal_root_ray(A, s) is not None:
                    out.append((a.coords, b.coords, s))
    return out


def all_pairs_root_graph(M):
    """The root graph of ``M`` from every ordered pair ``(a, b)`` of its
    roots: an arrow ``a -> b`` labelled ``b - a`` when that difference lies
    in ``M``, sorted by (source, target) coordinates."""
    index = {r.coords: r for r in M.roots}
    arrows = []
    for a in M.roots:
        for b in M.roots:
            diff = tuple(x - y for x, y in zip(b.coords, a.coords))
            label = index.get(diff)
            if label is not None:
                arrows.append(Arrow(source=a, target=b, label=label))
    return RootGraph(vertices=M.roots, arrows=tuple(sorted(
        arrows, key=lambda ar: (ar.source.coords, ar.target.coords)
    )))


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


class TuplePoly:
    """A polynomial as a dict from exponent tuples to exact non-zero
    coefficients.  ``ring`` is a ``toricroots.poly.PolyRing``, read only for
    its variable layout, names and degree cap.  Every product is checked
    against the cap on its top-degree pair of terms, and a substitution on
    every term first, as ``Poly`` does."""

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c:
                self.terms[tuple(m)] = c.numerator if c.denominator == 1 else c

    def _check(self, degree):
        if degree > self.ring.degree_cap:
            raise DegreeCapError(
                f"total degree exceeded the cap of {self.ring.degree_cap} during multiplication"
            )

    def _coerce(self, other):
        if isinstance(other, TuplePoly):
            return other
        return TuplePoly(self.ring, {(0,) * self.ring.num_vars: other})

    def total_degree(self):
        return max(map(sum, self.terms), default=0)

    def __eq__(self, other):
        return self.ring == other.ring and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return TuplePoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        left, right = self.terms, self._coerce(other).terms
        if not left or not right:
            return TuplePoly(self.ring, {})
        self._check(max(map(sum, left)) + max(map(sum, right)))
        out = {}
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                mono = tuple(map(add, m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return TuplePoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return reduce(mul, [self] * exponent, self._coerce(1))

    def substitute(self, images):
        ring = self.ring
        units = [tuple(int(i == j) for j in range(ring.num_vars)) for i in range(ring.num_coords)]
        moved = [i for i, img in enumerate(images) if img.terms != {units[i]: 1}]
        for mono in self.terms:
            self._check(sum(mono) + sum(mono[i] * (images[i].total_degree() - 1) for i in moved))
        out = TuplePoly(ring, {})
        for mono, coef in self.terms.items():
            fixed = tuple(0 if i in moved else e for i, e in enumerate(mono))
            powers = [images[i] ** mono[i] for i in moved]
            out = out + reduce(mul, powers, TuplePoly(ring, {fixed: coef}))
        return out

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
            vars_part = "*".join(
                self.ring.var_name(i) + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            )
            if not vars_part:
                bits.append(str(coef))
            elif coef == 1:
                bits.append(vars_part)
            elif coef == -1:
                bits.append(f"-{vars_part}")
            else:
                bits.append(f"{coef}*{vars_part}")
        return " + ".join(bits).replace("+ -", "- ")


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


@dataclass(frozen=True, eq=False)
class BracketTable:
    """All pairwise brackets on a bracket-closed set of positive roots."""

    A: RayMatrix
    basis: tuple[DemazureRoot, ...]
    table: dict[tuple[IntVector, IntVector], tuple[int, DemazureRoot]]

    @classmethod
    def build(cls, A: RayMatrix, roots: Iterable[DemazureRoot]) -> "BracketTable":
        basis = tuple(sorted(set(roots)))
        members = {r.coords for r in basis}
        table: dict[tuple[IntVector, IntVector], tuple[int, DemazureRoot]] = {}
        for e in basis:
            for f in basis:
                if e.ray >= f.ray:
                    continue
                result = bracket(e, f, A)
                if result is None:
                    continue
                coef, g = result
                if g.coords not in members:
                    raise InputError(
                        f"root set is not bracket-closed: [{e.coords},{f.coords}] "
                        f"lands on {g.coords}"
                    )
                table[(e.coords, f.coords)] = (coef, g)
                table[(f.coords, e.coords)] = (-coef, g)
        return cls(A=A, basis=basis, table=table)

    def bracket(self, e: IntVector, f: IntVector) -> Optional[tuple[int, DemazureRoot]]:
        return self.table.get((tuple(e), tuple(f)))

    def verify_antisymmetry(self) -> bool:
        for (e, f), (coef, g) in self.table.items():
            rev = self.table.get((f, e))
            if rev is None or rev[0] != -coef or rev[1] != g:
                return False
        return True

    def verify_jacobi(self) -> bool:
        """Exhaustively check [[a,b],c] + [[b,c],a] + [[c,a],b] = 0."""
        roots = self.basis
        for a in roots:
            for b in roots:
                for c in roots:
                    acc: dict[IntVector, int] = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        inner = self.bracket(x.coords, y.coords)
                        if inner is None:
                            continue
                        c1, g = inner
                        outer = self.bracket(g.coords, z.coords)
                        if outer is None:
                            continue
                        c2, h = outer
                        acc[h.coords] = acc.get(h.coords, 0) + c1 * c2
                    if any(v != 0 for v in acc.values()):
                        return False
        return True


@dataclass(frozen=True)
class LieCenter:
    center: tuple[DemazureRoot, ...]
    kernel_dimension: int


def lie_center(roots: Sequence[DemazureRoot], table: BracketTable) -> LieCenter:
    """Center of the span of the given root derivations.

    Returns both the maximal subset bracketing to zero with everything and
    the dimension of the kernel of the literal linear system for a general
    central element; the latter is computed by exact Gaussian elimination and
    serves as an independent check that the center is root-aligned.
    """
    basis = tuple(sorted(set(roots)))
    central = tuple(
        e for e in basis if all(table.bracket(e.coords, f.coords) is None for f in basis)
    )
    # Linear system: unknowns alpha_e; for each f and each target root g,
    # sum of coef(e,f) * alpha_e over e with e+f = g must vanish.
    columns = {e.coords: idx for idx, e in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for f in basis:
        by_target: dict[IntVector, list[tuple[int, int]]] = {}
        for e in basis:
            hit = table.bracket(e.coords, f.coords)
            if hit is None:
                continue
            coef, g = hit
            by_target.setdefault(g.coords, []).append((columns[e.coords], coef))
        for entries in by_target.values():
            row = [Fraction(0)] * len(basis)
            for idx, coef in entries:
                row[idx] += coef
            rows.append(row)
    kernel_dim = len(basis) - _rank_fractions(rows)
    return LieCenter(center=central, kernel_dimension=kernel_dim)


def _rank_fractions(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    if not mat:
        return 0
    width = len(mat[0])
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


@dataclass(frozen=True)
class LieSeries:
    lower: tuple[frozenset[IntVector], ...]
    upper: tuple[frozenset[IntVector], ...]
    derived: tuple[frozenset[IntVector], ...]


def lie_series_oracle(roots: Sequence[DemazureRoot], table: BracketTable) -> LieSeries:
    """Central and derived series computed purely from the bracket table.

    Lower central series by iterated brackets with the whole algebra, upper
    central series by iterated centralizer lifts, derived series by brackets
    of the previous term with itself.  All spans are root-aligned because the
    structure constants are monomial.
    """
    basis = tuple(sorted(set(roots)))
    everything = frozenset(r.coords for r in basis)

    def span_bracket(left: frozenset[IntVector], right: frozenset[IntVector]):
        out = set()
        for e in left:
            for a in right:
                hit = table.bracket(e, a)
                if hit is not None:
                    out.add(hit[1].coords)
        return frozenset(out)

    guard = len(basis) + 2

    lower = [everything]
    while lower[-1]:
        lower.append(span_bracket(everything, lower[-1]))
        if len(lower) > guard:
            raise InvariantViolation("lower central series did not terminate")

    derived = [everything]
    while derived[-1]:
        derived.append(span_bracket(derived[-1], derived[-1]))
        if len(derived) > guard:
            raise InvariantViolation("derived series did not terminate")

    upper = [frozenset()]
    while upper[-1] != everything:
        prev = upper[-1]
        nxt = frozenset(
            a
            for a in everything
            if all(
                table.bracket(a, e) is None or table.bracket(a, e)[1].coords in prev
                for e in everything
            )
        )
        if nxt == prev:
            raise InvariantViolation("upper central series stalled; algebra not nilpotent?")
        upper.append(nxt)

    return LieSeries(lower=tuple(lower), upper=tuple(upper), derived=tuple(derived))


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


def subset_bilateral_witness(rl: RayList) -> Optional[Bilateralization]:
    """The bilateral witness of the lexicographically first index subset
    whose rays form a unimodular basis with every other ray in the closed
    negative orthant and no zero column, or ``None``: every ``n``-subset is
    tried, with Cramer's rule for the coordinates."""
    n, m = rl.n, rl.m
    for subset in itertools.combinations(range(m), n):
        basis = [rl.rays[i] for i in subset]
        if not is_unimodular_basis(basis):
            continue
        rest = [i for i in range(m) if i not in subset]
        rows = []
        for i in rest:
            coords = coords_in_basis(rl.rays[i], basis)
            if any(c > 0 for c in coords):
                rows = None
                break
            rows.append(tuple(-c for c in coords))
        if rows is None:
            continue
        if any(all(row[j] == 0 for row in rows) for j in range(n)):
            continue  # not the ray matrix of a complete fan
        return Bilateralization(
            basis_indices=tuple(subset),
            ray_order=tuple(subset) + tuple(rest),
            matrix=RayMatrix.validate(rows, n),
        )
    return None


def stdlib_json(obj) -> str:
    """``obj`` in the CLI's JSON form, written by the standard library."""
    return json.dumps(obj, indent=2, sort_keys=True)


def next_closure_positions(A, max_results):
    """The first ``max_results`` open-orbit root sets in lectic order, as
    ``toricroots.groups.enumerate_open_orbit_subgroups`` found them before
    its reverse search: Ganter's NextClosure over ``groups._close``, from the
    closure of the basic roots.  Returns ``(positions, histogram, complete)``
    in the form of ``EnumerationResult``: the sets' position tuples sorted by
    (dimension, root list), ``(dimension, count)`` pairs, and whether no
    further set exists.
    """
    table = demazure_roots(A)
    found = []
    closed = _close(table, table.basics, _members(table.basics))
    while closed is not None and len(found) < max_results:
        found.append(closed)
        closed = _next_closure(table, closed)
    ordered = sorted(tuple(_members(mask)) for mask in found)
    ordered.sort(key=len)
    return tuple(ordered), tuple(sorted(Counter(map(len, ordered)).items())), closed is None


def _next_closure(table, closed):
    """The lectically next closed set after ``closed`` (Ganter 1984), or None.

    In sorted numbering ``s`` lies below ``x`` when ``y`` is basic and below
    ``y`` otherwise, so the part of a closed set below ``i`` together with
    the basic roots is closed: closing after adding root ``i`` only has to
    follow ``i``.
    """
    for i in range(len(table.positive) - 1, -1, -1):
        bit = 1 << i
        if closed & bit:
            continue
        below = closed & (bit - 1)
        candidate = _close(table, below | table.basics | bit, (i,))
        if candidate & (bit - 1) == below:
            return candidate
    return None
