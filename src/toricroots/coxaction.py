"""Concrete model of root subgroups as substitution automorphisms of the Cox
coordinates ``x1..xm``.

The one-parameter subgroup of a positive root ``e`` on ray ``l`` sends
``x_l`` to ``x_l + alpha * x^{theta(e)}`` and fixes the other coordinates,
where ``theta(e)`` collects the pairings of ``e`` with all rays (zero in
position ``l``).  Because ``theta(e)`` does not involve ``x_l``, the
exponential truncates after one step and every image is an exact polynomial.

Composition follows matrix order: ``compose(g, h)`` substitutes ``h``'s
images into ``g``'s, so a product written multiplicatively as ``g h`` is
``compose(g, h)`` here.  All identities are verified symbolically, with the
group parameters as extra polynomial variables, which proves them as
polynomial identities rather than sampling them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial, reduce
from math import comb
from typing import Optional, Sequence, Union

from . import liealg
from .errors import InputError, InvariantViolation
from .fan import RayMatrix
from .lattice import IntVector
from .poly import Poly, PolyRing, Scalar, Substitution, check_degree
from .record import record
from .roots import (
    DemazureRoot,
    KIND_ELEMENTARY,
    demazure_roots,
    positive_roots,
    require_positive_root,
)

ScalarLike = Union[Scalar, Poly]


def ring_for(A: RayMatrix, params: tuple[str, ...] = ("a", "b"), degree_cap: int = 64) -> PolyRing:
    return PolyRing(num_coords=A.m, params=params, degree_cap=degree_cap)


@record
class PolyAutomorphism:
    """Substitution endomorphism given by the images of all coordinates."""

    ring: PolyRing
    images: tuple[Poly, ...]

    @classmethod
    def identity(cls, ring: PolyRing) -> "PolyAutomorphism":
        return cls(ring, ring.variables)

    @cached_property
    def substitution(self) -> Substitution:
        """The substitution of these images, prepared once: a root
        automorphism is the right factor of many compositions."""
        return Substitution(self.ring, self.images)


def theta(A: RayMatrix, root: DemazureRoot) -> tuple[int, ...]:
    """Exponent vector of the root monomial: all pairings, zeroed at the ray."""
    exps = list(A.pairings(root.coords))
    exps[root.ray] = 0
    if any(e < 0 for e in exps):
        raise InvariantViolation(f"negative exponent in theta({root.coords})")
    return tuple(exps)


@lru_cache(maxsize=1024)
def _checked_theta(A: RayMatrix, root: DemazureRoot) -> tuple[int, ...]:
    """``theta`` of a positive root of ``A``; anything else raises."""
    require_positive_root(A, root)
    return theta(A, root)


def root_automorphism(
    A: RayMatrix, root: DemazureRoot, alpha: ScalarLike, ring: Optional[PolyRing] = None
) -> PolyAutomorphism:
    """The automorphism ``x_l -> x_l + alpha * x^{theta}`` of a positive root."""
    if ring is None:
        ring = ring_for(A)
    images = list(ring.variables)
    images[root.ray] += _as_poly(alpha, ring) * ring.monomial(_checked_theta(A, root))
    return PolyAutomorphism(ring, tuple(images))


def compose(g: PolyAutomorphism, h: PolyAutomorphism) -> PolyAutomorphism:
    """Substitution composition: ``h``'s images replace the variables inside
    ``g``'s images, matching the matrix product ``g h``.  Where ``g`` fixes
    ``x_i`` the image is ``h``'s own, checked against the degree cap."""
    ring = g.ring
    if h.ring is not ring and h.ring != ring:
        raise InputError("automorphisms live in different rings")
    substitute = h.substitution
    images = []
    for img, var, h_img in zip(g.images, ring.variables, h.images):
        if img is not var and img != var:
            images.append(substitute(img))
        else:
            check_degree(ring, h_img.total_degree())
            images.append(h_img)
    return PolyAutomorphism(ring, tuple(images))


def product(autos: Sequence[PolyAutomorphism]) -> PolyAutomorphism:
    if not autos:
        raise InputError("empty product")
    return reduce(compose, autos)


def _as_poly(value: ScalarLike, ring: PolyRing) -> Poly:
    return value if isinstance(value, Poly) else ring.const(value)


def _root_obj(A: RayMatrix, coords: IntVector) -> DemazureRoot:
    obj = demazure_roots(A).find(tuple(coords))
    if obj is None:
        raise InvariantViolation(f"{coords} is not a root")
    return obj


def verify_conjugation(
    A: RayMatrix,
    e: DemazureRoot,
    f: DemazureRoot,
    alpha: Optional[ScalarLike] = None,
    beta: Optional[ScalarLike] = None,
    ring: Optional[PolyRing] = None,
) -> bool:
    """Check the conjugation identity for ``e`` on a lower level than ``f``:

    u_f(beta)^-1 u_e(alpha) u_f(beta)
        = prod_{k=0..d} u_{e+k f}(C(d,k) alpha beta^k),  d = <e, p_{ray f}>.

    With symbolic parameters (the default) this is a polynomial identity.
    """
    if ring is None:
        ring = ring_for(A)
    if not f.ray > e.ray:
        raise InputError("conjugating root must live on a strictly higher level")
    a = ring.param("a") if alpha is None else _as_poly(alpha, ring)
    b = ring.param("b") if beta is None else _as_poly(beta, ring)
    lhs, rhs = _conjugation_sides(A, partial(root_automorphism, A, ring=ring), e, f, a, b)
    return lhs == rhs


def _conjugation_factors(A: RayMatrix, e, f, a: Poly, b: Poly) -> list[tuple[DemazureRoot, Poly]]:
    """The right-hand factors ``(e + k f, C(d, k) a b^k)``, k = 0..d, of the
    conjugation identity."""
    d = e.coords[f.ray]
    return [(_root_obj(A, tuple(x + k * y for x, y in zip(e.coords, f.coords))),
             a * b**k * comb(d, k)) for k in range(d + 1)]


def _conjugation_sides(A: RayMatrix, u, e, f, a: Poly, b: Poly):
    """Both sides of the conjugation identity, with ``u(root, alpha)`` building
    each root automorphism: the word ``u_f(-b) u_e(a) u_f(b)`` and the
    product of the right-hand factors."""
    word = product([u(f, -b), u(e, a), u(f, b)])
    return word, product([u(r, c) for r, c in _conjugation_factors(A, e, f, a, b)])


def first_order_commutator_matches_bracket(
    A: RayMatrix, e: DemazureRoot, f: DemazureRoot, ring: Optional[PolyRing] = None
) -> bool:
    """The coefficient of ``s t`` on the root monomial of ``e+f`` in the group
    commutator ``u_f(t)^-1 u_e(s)^-1 u_f(t) u_e(s)`` must equal the bracket
    coefficient of the derivations (``-d`` for ``e`` below ``f``).  A given
    ``ring`` must have the parameters ``s`` and ``t``."""
    if ring is None:
        ring = ring_for(A, params=("s", "t"))
    s, t = ring.param("s"), ring.param("t")
    word = product(
        [root_automorphism(A, r, c, ring) for r, c in ((f, -t), (e, -s), (f, t), (e, s))]
    )
    return _commutator_matches_bracket(A, e, f, word, 1)


def _commutator_matches_bracket(A: RayMatrix, e, f, word: PolyAutomorphism, sign: int) -> bool:
    """``word``, a commutator of ``u_e`` and ``u_f``, is the identity or has
    ``sign`` times the bracket coefficient on its first-order monomial."""
    hit = liealg.bracket(e, f, A)
    if hit is None:
        return word == PolyAutomorphism.identity(word.ring)
    coef, g = hit
    mono = theta(A, g) + (1, 1)  # x^{theta(g)} * s * t
    return word.images[g.ray].coefficient(mono) == sign * coef


@record
class VerificationCheck:
    name: str
    cases: int
    ok: bool


def verify_all(A: RayMatrix) -> tuple[VerificationCheck, ...]:
    """Run the whole symbolic verification battery on one ray matrix:
    one-parameter laws, conjugation identities, first-order agreement of
    group commutators with derivation brackets, and the matrix model of each
    column class."""
    ring = ring_for(A)
    # each root automorphism is built once, and only for this call
    u = lru_cache(maxsize=None)(partial(root_automorphism, A, ring=ring))
    pos = [r for level in positive_roots(A) for r in level]
    a, b, identity = ring.param("a"), ring.param("b"), PolyAutomorphism.identity(ring)
    law = {e: _sum_law(u, e, a, b) for e in pos}
    law_ok = all(law.values()) and all(compose(u(e, a), u(e, -a)) == identity for e in pos)
    checks = [VerificationCheck("one-parameter-law", len(pos), law_ok)]

    # with s = -a, t = b the commutator u_f(-t) u_e(-s) u_f(t) u_e(s) is the
    # conjugation word times u_e(-a), whose a b coefficient is minus the s t one
    pairs = [(e, f) for e in pos for f in pos if e.ray < f.ray]
    conjugation, first_ok = {}, True
    for e, f in pairs:
        word, rhs = _conjugation_sides(A, u, e, f, a, b)
        conjugation[e, f] = word == rhs
        first_ok &= _commutator_matches_bracket(A, e, f, compose(word, u(e, -a)), -1)
    checks.append(
        VerificationCheck("conjugation-identity", len(pairs), all(conjugation.values()))
    )
    checks.append(VerificationCheck("first-order-bracket", len(pairs), first_ok))

    # the matrix model reuses the automorphism sides proved above
    classes = demazure_roots(A).preorder.classes
    embed_ok = all(
        _class_model_holds(A, cls, ring, u, law.__getitem__, lambda e, f: conjugation[e, f])
        for cls in classes
    )
    checks.append(VerificationCheck("matrix-embedding", len(classes), embed_ok))
    return tuple(checks)


def _sum_law(u, e: DemazureRoot, a: Poly, b: Poly) -> bool:
    """``u_e(a) u_e(b) = u_e(a + b)`` as substitution automorphisms."""
    return compose(u(e, a), u(e, b)) == u(e, a + b)


# ---------------------------------------------------------------------------
# matrix model of one column class


def _unitriangular_product(X: dict, Y: dict) -> dict:
    """``(1 + X)(1 + Y) = 1 + X + Y + XY`` for strictly upper triangular ``X``
    and ``Y`` held as their non-zero entries ``{(row, col): Poly}``."""
    out = dict(X)
    inner = [((i, j), x * y) for (i, t), x in X.items() for (s, j), y in Y.items() if s == t]
    for key, value in list(Y.items()) + inner:
        out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if not value.is_zero()}


def class_embedding_positions(
    A: RayMatrix, cls: tuple[int, ...]
) -> dict[IntVector, tuple[int, int]]:
    """Assign to each positive root on the rays of one column class a matrix
    position inside the triangular block U_{k,l}.

    Elementary roots inside the class go to the upper-left l x l corner; the
    remaining roots of the leading ray are numbered into columns l+1..k and
    the translation bijection between levels of the class transports that
    numbering to the other rays.
    """
    pos = positive_roots(A)
    c = cls[0]
    l = len(cls)
    k = len(pos[c]) + 1
    in_class = set(cls)

    def elementary_target(r: DemazureRoot) -> Optional[int]:
        if r.kind != KIND_ELEMENTARY or not r.semisimple:
            return None
        j = next(j for j, v in enumerate(r.coords) if v == 1)
        return j if j in in_class else None

    leading = [r for r in pos[c] if elementary_target(r) is None]
    if len(leading) != k - l:
        raise InvariantViolation("unexpected count of non-elementary roots in class")
    column_of = {r.coords: l + 1 + idx for idx, r in enumerate(leading)}

    positions: dict[IntVector, tuple[int, int]] = {}
    for i in cls:
        row = i - c + 1
        for r in pos[i]:
            j = elementary_target(r)
            if j is not None:
                positions[r.coords] = (row, j - c + 1)
            else:
                # transport to the leading ray: subtract q_c, add q_i
                shifted = list(r.coords)
                shifted[c] -= 1
                shifted[i] += 1
                col = column_of.get(tuple(shifted))
                if col is None:
                    raise InvariantViolation(
                        f"translation of {r.coords} missed the leading ray"
                    )
                positions[r.coords] = (row, col)
    return positions


def matrix_embedding_check(A: RayMatrix, cls: tuple[int, ...], ring: Optional[PolyRing] = None) -> bool:
    """Verify that mapping each root generator of one column class to its
    elementary matrix yields a homomorphism onto U_{k,l}.

    The defining relations are the one-parameter law on each root subgroup
    and the conjugation formula between levels; both sides of every relation
    are expanded exactly (substitution automorphisms against matrix
    products) with symbolic parameters.
    """
    if ring is None:
        ring = ring_for(A)
    u = partial(root_automorphism, A, ring=ring)
    a, b = ring.param("a"), ring.param("b")
    return _class_model_holds(
        A, cls, ring, u, lambda e: _sum_law(u, e, a, b), partial(verify_conjugation, A, ring=ring)
    )


def _class_model_holds(A: RayMatrix, cls: tuple[int, ...], ring: PolyRing, u, law, conjugation):
    """``matrix_embedding_check``, building root automorphisms with
    ``u(root, alpha)`` and taking the automorphism side of the sum law of
    ``e`` from ``law(e)`` and of the conjugation identity from
    ``conjugation(e, f)``."""
    pos = positive_roots(A)
    l = len(cls)
    k = len(pos[cls[0]]) + 1
    positions = class_embedding_positions(A, cls)

    # positions must exactly fill the U_{k,l} coordinate set
    expected = {(r, c2) for r in range(1, l + 1) for c2 in range(r + 1, k + 1)}
    if set(positions.values()) != expected or len(positions) != len(expected):
        return False

    a, b = ring.param("a"), ring.param("b")

    def phi(*factors: tuple[DemazureRoot, Poly]) -> dict:
        """The matrix product of the elementary matrices of the factors."""
        return reduce(_unitriangular_product, ({positions[r.coords]: v} for r, v in factors), {})

    class_roots = [r for i in cls for r in pos[i]]
    for e in class_roots:
        # one-parameter law: u_e(a) u_e(b) = u_e(a+b), on both sides
        if not law(e) or phi((e, a), (e, b)) != phi((e, a + b)):
            return False
    for e in class_roots:
        for f in class_roots:
            if e.ray == f.ray and e != f:
                # same level: both sides must commute
                ge, gf = u(e, a), u(f, b)
                if compose(ge, gf) != compose(gf, ge):
                    return False
                if phi((e, a), (f, b)) != phi((f, b), (e, a)):
                    return False
            elif e.ray < f.ray:
                rhs = phi(*_conjugation_factors(A, e, f, a, b))
                if not conjugation(e, f) or phi((f, -b), (e, a), (f, b)) != rhs:
                    return False
    return True
