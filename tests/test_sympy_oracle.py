"""``sympy`` as an independent oracle for the exact polynomial layer: seeded
random polynomials with ``int`` and ``Fraction`` coefficients are combined
by ``Poly`` and by ``sympy.expand``, and a seeded sample of conjugation
identities is rebuilt and expanded in ``sympy`` from the ray matrix alone.
It is also the oracle for ``lattice.rank`` on seeded integer vector sets.
``sympy`` is a test-only dependency."""

import random
from fractions import Fraction
from math import comb

import pytest

from toricroots import demazure_roots, positive_roots, validate_ray_matrix
from toricroots.coxaction import product, ring_for, root_automorphism
from toricroots.lattice import rank
from toricroots.poly import Poly, PolyRing

from oracles import pairing_vector

sympy = pytest.importorskip("sympy")


def symbols_of(ring):
    return sympy.symbols([ring.var_name(i) for i in range(ring.num_vars)])


def to_sympy(p, syms):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod([s**e for s, e in zip(syms, m)])
         for m, c in p.terms.items()),
        sympy.Integer(0),
    )


def same(expr, other):
    return sympy.expand(expr - other) == 0


def random_poly(rng, ring, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.num_vars))
        if rng.random() < 0.5:
            terms[mono] = rng.randint(-4, 4)
        else:
            terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(ring, terms)


def test_poly_arithmetic_matches_sympy():
    rng = random.Random(2024)
    ring = PolyRing(num_coords=3, params=("a",))
    syms = symbols_of(ring)
    for _ in range(150):
        p, q = random_poly(rng, ring), random_poly(rng, ring)
        P, Q = to_sympy(p, syms), to_sympy(q, syms)
        assert same(to_sympy(p + q, syms), P + Q)
        assert same(to_sympy(p - q, syms), P - Q)
        assert same(to_sympy(p * q, syms), P * Q)
        e = rng.randint(0, 3)
        assert same(to_sympy(p**e, syms), P**e)
        # coefficients stay exact: int while integral, Fraction otherwise
        for result in (p + q, p - q, p * q, p**e):
            for c in result.terms.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_substitute_matches_sympy():
    rng = random.Random(77)
    ring = PolyRing(num_coords=3, params=("a", "b"))
    syms = symbols_of(ring)
    for _ in range(80):
        p = random_poly(rng, ring)
        # some coordinates keep their bare variable, some move
        images = [
            x if rng.random() < 0.4 else x + random_poly(rng, ring, 2) for x in ring.variables
        ]
        expected = to_sympy(p, syms).xreplace(
            {s: to_sympy(img, syms) for s, img in zip(syms, images)}
        )
        assert same(to_sympy(p.substitute(images), syms), expected)


def sympy_root_map(A, coords, ray, value, xs):
    """Images of ``u_e(value)`` built from the pairings of ``e`` alone."""
    theta = pairing_vector(A, coords)
    theta[ray] = 0
    assert all(t >= 0 for t in theta)
    images = list(xs)
    images[ray] = xs[ray] + value * sympy.prod([x**t for x, t in zip(xs, theta)])
    return images


def sympy_product(maps, xs):
    out = maps[0]
    for nxt in maps[1:]:
        out = [img.xreplace(dict(zip(xs, nxt))) for img in out]
    return out


@pytest.mark.parametrize("rows, n", [([[3, 2, 1]], 3), ([[4, 1]], 2)])
def test_conjugation_identities_expand_equal_in_sympy(rows, n):
    A = validate_ray_matrix(rows, n)
    ring = ring_for(A)
    syms = symbols_of(ring)
    xs, (a, b) = syms[: A.m], syms[A.m:]
    pos = [r for level in positive_roots(A) for r in level]
    pairs = [(e, f) for e in pos for f in pos if e.ray < f.ray]
    for e, f in random.Random(31).sample(pairs, min(12, len(pairs))):
        d = e.coords[f.ray]
        lhs = sympy_product(
            [sympy_root_map(A, r.coords, r.ray, v, xs) for r, v in ((f, -b), (e, a), (f, b))], xs
        )
        factors = []
        for k in range(d + 1):
            coords = tuple(x + k * y for x, y in zip(e.coords, f.coords))
            ray = demazure_roots(A).find(coords).ray
            factors.append(sympy_root_map(A, coords, ray, comb(d, k) * a * b**k, xs))
        rhs = sympy_product(factors, xs)
        assert all(same(left, right) for left, right in zip(lhs, rhs))
        # the library expands the same left-hand side
        pa, pb = ring.param("a"), ring.param("b")
        word = product([root_automorphism(A, r, v, ring) for r, v in ((f, -pb), (e, pa), (f, pb))])
        assert all(same(to_sympy(img, syms), left) for img, left in zip(word.images, lhs))


def planted_vectors(rng, width):
    """Up to ``2 * width + 1`` integer vectors of length ``width``: mostly
    fresh ones with entries up to 1, 9 or ``10**30`` in size, and zero
    vectors, repeats, multiples and sums of earlier vectors."""
    bound = rng.choice([1, 9, 10**30])
    vectors = []
    for _ in range(rng.randint(0, 2 * width + 1)):
        kinds = ["fresh", "zero", "repeat", "multiple", "sum"] if vectors else ["fresh"]
        kind = rng.choices(kinds, [6, 1, 1, 1, 1][:len(kinds)])[0]
        if kind == "fresh":
            v = tuple(rng.randint(-bound, bound) for _ in range(width))
        elif kind == "zero":
            v = (0,) * width
        elif kind == "repeat":
            v = rng.choice(vectors)
        elif kind == "multiple":
            c = rng.choice([-3, -2, 2, 5])
            v = tuple(c * x for x in rng.choice(vectors))
        else:
            v = tuple(map(sum, zip(*rng.sample(vectors, min(len(vectors), rng.randint(2, 3))))))
        vectors.append(v)
    return vectors


def test_rank_matches_sympy():
    rng = random.Random(1968)
    seen = set()
    for _ in range(600):
        width = rng.randint(1, 6)
        vectors = planted_vectors(rng, width)
        expected = sympy.Matrix(len(vectors), width, [x for v in vectors for x in v]).rank()
        assert rank(vectors) == expected, vectors
        huge = any(abs(x) > 10**20 for v in vectors for x in v)
        seen.add((width, (len(vectors) > width) - (len(vectors) < width),
                  expected == width, expected == len(vectors), huge))
    kinds = {k[:4] for k in seen}
    for width in range(1, 7):  # more vectors than the width, spanning and not
        assert {(width, 1, True, False), (width, 1, False, False)} <= kinds
    for width in range(3, 7):  # fewer vectors, independent and not
        assert {(width, -1, False, True), (width, -1, False, False)} <= kinds
    assert any(k[4] and not k[2] and not k[3] for k in seen)  # a huge set with a dependency
