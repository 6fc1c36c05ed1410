"""The packed ``Poly`` against ``oracles.TuplePoly``, the tuple-keyed layout it
replaced, on seeded random polynomials; and the edges of the packed layout:
exponents on the degree cap and on the field limit ``2 * cap + 1``."""

import random
from fractions import Fraction
from math import comb

import pytest

from toricroots import DegreeCapError, InputError
from toricroots.poly import Poly, PolyRing

from oracles import TuplePoly

CAPS = (1, 8, 64)
CAP_MESSAGE = "total degree exceeded the cap of {} during multiplication"


def random_ring(rng, cap):
    num_vars = rng.randint(1, 8)
    num_coords = rng.randint(1, num_vars)
    params = tuple("abcdefgh"[: num_vars - num_coords])
    return PolyRing(num_coords=num_coords, params=params, degree_cap=cap)


def random_terms(rng, ring, edges):
    """One to four terms of small exponents; with ``edges`` one exponent of
    a term may be drawn up to the cap or be the field limit.  Some
    coefficients are zero."""
    cap = ring.degree_cap
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [rng.choice((0, 0, 0, 1, 2)) for _ in range(ring.num_vars)]
        if edges and rng.random() < 0.5:
            mono[rng.randrange(ring.num_vars)] = rng.choice(
                (rng.randint(0, cap), cap // 2, cap, 2 * cap + 1)
            )
        terms[tuple(mono)] = rng.choice(
            [0, rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
        )
    return terms


def outcome(fn):
    try:
        return fn()
    except DegreeCapError as exc:
        return ("raises", str(exc))


def assert_same(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert not isinstance(new, tuple), f"packed result {new!r} where the oracle raised"
    assert new.terms == old.terms
    assert all(type(c) is int or c.denominator != 1 for c in new.terms.values())
    assert repr(new) == repr(old)
    assert new.total_degree() == old.total_degree()
    assert new == Poly(new.ring, old.terms)


def both(ring, terms):
    return Poly(ring, terms), TuplePoly(ring, terms)


def test_packed_poly_matches_the_tuple_oracle():
    rng = random.Random(1313)
    for case in range(900):
        ring = random_ring(rng, CAPS[case % 3])
        edges = case % 2 == 1
        p, P = both(ring, random_terms(rng, ring, edges))
        q, Q = both(ring, random_terms(rng, ring, edges))
        assert repr(p) == repr(P) and p.total_degree() == P.total_degree()
        assert (p == q) == (P == Q)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            assert_same(outcome(lambda: op(p, q)), outcome(lambda: op(P, Q)))
        for e in range(4):
            assert_same(outcome(lambda: p**e), outcome(lambda: P**e))
        for mono in list(P.terms) + [tuple(rng.randint(0, 2) for _ in range(ring.num_vars))]:
            assert p.coefficient(mono) == P.coefficient(mono)
        images, oracle_images = [], []
        for i in range(ring.num_coords):
            terms = random_terms(rng, ring, edges)
            if rng.random() < 0.4:
                terms = {tuple(int(i == j) for j in range(ring.num_vars)): 1}
            image, oracle_image = both(ring, terms)
            images.append(image)
            oracle_images.append(oracle_image)
        assert_same(outcome(lambda: p.substitute(images)),
                    outcome(lambda: P.substitute(oracle_images)))


@pytest.mark.parametrize("cap", CAPS)
def test_fields_never_carry(cap):
    ring = PolyRing(num_coords=2, params=("a",), degree_cap=cap)
    top = 2 * cap + 1
    assert top <= (1 << ring.width) - 1
    # stored on the field limit, next to other full fields
    terms = {(top, 0, top): 3, (0, top, 0): Fraction(1, 2), (top, top, top): -1}
    p, P = both(ring, terms)
    assert p.terms == P.terms == terms
    assert (p + p).terms == (P + P).terms and (-p).terms == (-P).terms
    assert p.total_degree() == 3 * top
    assert [p.coefficient(m) for m in terms] == [3, Fraction(1, 2), -1]
    assert p.coefficient((top - 1, 1, top)) == 0
    # products that land exactly on the cap, in every field at once
    for a in range(cap + 1):
        left = {(a, 0, 0): 2, (0, a, 0): 1, (0, 0, 0): 1}
        right = {(cap - a, 0, 0): 1, (0, cap - a, 0): -1, (0, 0, cap): 1}
        lhs, L = both(ring, left)
        rhs, R = both(ring, right)
        assert_same(outcome(lambda: lhs * rhs), outcome(lambda: L * R))
    assert (ring.var(0) ** cap).terms == {(cap, 0, 0): 1}
    # one past the cap raises, also from the field limit
    for e in (cap + 1, top):
        for over, x, y in zip(*(both(ring, {m: 1}) for m in ((e, 0, 0), (1, 0, 0), (0, 1, 0)))):
            for fn in (lambda: over * x, lambda: over**1, lambda: over.substitute((x + 1, y))):
                assert outcome(fn) == ("raises", CAP_MESSAGE.format(cap))


@pytest.mark.parametrize("cap", CAPS)
def test_an_exponent_past_the_field_limit_raises_on_construction(cap):
    ring = PolyRing(num_coords=2, params=("a",), degree_cap=cap)
    over = 2 * cap + 2
    for build in (
        lambda: ring.monomial((over, 0)),
        lambda: ring.monomial((0, over)),
        lambda: Poly(ring, {(0, 0, over): 1}),
        lambda: ring.var(0).coefficient((over, 0, 0)),
    ):
        with pytest.raises(DegreeCapError, match=CAP_MESSAGE.format(cap)):
            build()
    # on the limit itself it builds; over the cap, its products raise
    assert ring.monomial((over - 1, 0)).total_degree() == over - 1
    with pytest.raises(InputError):
        Poly(ring, {(0, -1, 0): 1})
    with pytest.raises(InputError):
        Poly(ring, {(0, 1): 1})


def test_powers_raise_only_where_a_product_would():
    ring = PolyRing(num_coords=1, params=(), degree_cap=8)
    x, zero = ring.var(0), ring.const(0)
    assert (x + 1) ** 8 == Poly(ring, {(k,): comb(8, k) for k in range(9)})
    assert (zero**70).is_zero()
    high = ring.monomial((17,))  # over the cap, on the field limit
    assert high**0 == ring.one() == zero**0
    with pytest.raises(DegreeCapError):
        high**1


def test_equal_polynomials_hash_equal_by_every_route():
    ring = PolyRing(num_coords=2, params=("a",))
    x, y, a = ring.var(0), ring.var(1), ring.param("a")
    routes = [
        (x + 1) * (x - 1) + a * y,
        x**2 - 1 + y * a,
        Poly(ring, {(2, 0, 0): 1, (0, 0, 0): -1, (0, 1, 1): 1}),
        ring.monomial((2, 0)) + ring.const(Fraction(-2, 2)) + (x + y - x).substitute((x, a)) * y,
    ]
    assert len({hash(p) for p in routes}) == 1 and len(set(routes)) == 1
