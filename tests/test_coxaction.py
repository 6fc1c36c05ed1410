import random

import pytest

from toricroots import (
    DegreeCapError,
    InputError,
    coxaction,
    demazure_roots,
    positive_roots,
    validate_ray_matrix,
)
from toricroots.coxaction import (
    PolyAutomorphism,
    _unitriangular_product,
    class_embedding_positions,
    compose,
    first_order_commutator_matches_bracket,
    matrix_embedding_check,
    product,
    ring_for,
    root_automorphism,
    theta,
    verify_all,
    verify_conjugation,
)
from toricroots.groups import saturation_closure
from toricroots.poly import Poly, PolyRing
from toricroots.roots import column_preorder

from conftest import projective_space, random_ray_matrices
from oracles import dense_unitriangular_product, termwise_substitute


def monomial_support_is_root_aligned(A, roots, word):
    """Every non-identity monomial in the image of ``x_i`` must be the root
    monomial of some root of the given set on ray ``i``."""
    allowed_by_ray = {}
    for r in roots:
        allowed_by_ray.setdefault(r.ray, set()).add(theta(A, r))
    for i, img in enumerate(word.images):
        unit = tuple(1 if j == i else 0 for j in range(A.m))
        for mono in {m[: A.m] for m in img.terms}:
            if mono != unit and mono not in allowed_by_ray.get(i, set()):
                return False
    return True


def find(A, coords):
    root = demazure_roots(A).find(coords)
    assert root is not None
    return root


@pytest.fixture
def plane():
    return validate_ray_matrix([[1, 1]], 2)


def test_root_automorphism_images(plane, p123):
    ring = ring_for(plane)
    u = root_automorphism(plane, find(plane, (-1, 1)), ring.param("a"), ring)
    # x1 -> x1 + a*x2, others fixed
    assert u.images[0] == ring.var(0) + ring.param("a") * ring.var(1)
    assert u.images[1] == ring.var(1) and u.images[2] == ring.var(2)

    # a basic root picks up the product of the outer coordinates with the
    # column exponents: x1 -> x1 + a * x4^3 on the weighted plane
    ring2 = ring_for(p123)
    v = root_automorphism(p123, find(p123, (-1, 0, 0)), ring2.param("a"), ring2)
    mono = ring2.monomial((0, 0, 0, 3))
    assert v.images[0] == ring2.var(0) + ring2.param("a") * mono


def test_theta_is_triangular(p123, f1p1):
    for A in (p123, f1p1):
        for i, level in enumerate(positive_roots(A)):
            for r in level:
                exps = theta(A, r)
                assert all(e == 0 for e in exps[: i + 1])
                assert all(e >= 0 for e in exps)


def test_zero_parameter_gives_identity(plane):
    ring = ring_for(plane)
    u = root_automorphism(plane, find(plane, (-1, 1)), 0, ring)
    assert u == PolyAutomorphism.identity(ring)


def test_rejects_non_positive_root(p123):
    with pytest.raises(InputError):
        root_automorphism(p123, find(p123, (0, 0, 1)), 1)


def test_compose_identity_and_one_parameter_law(plane):
    ring = ring_for(plane)
    a, b = ring.param("a"), ring.param("b")
    e = find(plane, (-1, 1))
    u = root_automorphism(plane, e, a, ring)
    ident = PolyAutomorphism.identity(ring)
    assert compose(ident, u) == u and compose(u, ident) == u
    assert compose(u, root_automorphism(plane, e, b, ring)) == root_automorphism(
        plane, e, a + b, ring
    )
    assert compose(u, root_automorphism(plane, e, -a, ring)) == ident


def test_plane_commutator_is_third_root_subgroup(plane):
    ring = ring_for(plane)
    a = ring.param("a")
    u1 = lambda t: root_automorphism(plane, find(plane, (-1, 1)), t, ring)
    u2 = lambda t: root_automorphism(plane, find(plane, (0, -1)), t, ring)
    w = product([u1(a), u2(1), u1(-a), u2(-1)])
    assert w == root_automorphism(plane, find(plane, (-1, 0)), a, ring)


def test_conjugation_identity_examples(p123):
    e = find(p123, (-1, 1, 1))
    f = find(p123, (0, -1, 1))
    assert e.coords[f.ray] == 1  # d = 1
    assert verify_conjugation(p123, e, f)
    assert verify_conjugation(p123, e, f, alpha=1, beta=1)

    # commuting case d = 0: both sides are u_e(alpha)
    e0 = find(p123, (-1, 0, 3))
    f0 = find(p123, (0, -1, 0))
    assert e0.coords[f0.ray] == 0
    assert verify_conjugation(p123, e0, f0)


def test_surface_conjugation_formula():
    # width-4 level: conjugating -q1 + k*q2 by -q2 spreads binomially over
    # the lower roots
    A = validate_ray_matrix([[3, 1]], 2)
    ring = ring_for(A)
    a, b = ring.param("a"), ring.param("b")
    f = find(A, (0, -1))
    for k in range(4):
        e = find(A, (-1, k))
        assert verify_conjugation(A, e, f)
        lhs = product(
            [
                root_automorphism(A, f, -b, ring),
                root_automorphism(A, e, a, ring),
                root_automorphism(A, f, b, ring),
            ]
        )
        from math import comb

        rhs = product(
            [
                root_automorphism(A, find(A, (-1, j)), comb(k, j) * a * b ** (k - j), ring)
                for j in range(k, -1, -1)
            ]
        )
        assert lhs == rhs


def test_conjugation_with_degree_four_pairing():
    # d = 4: the conjugate spreads over five factors with binomial weights
    A = validate_ray_matrix([[4, 1]], 2)
    e = find(A, (-1, 4))
    f = find(A, (0, -1))
    assert e.coords[f.ray] == 4
    assert verify_conjugation(A, e, f)
    assert first_order_commutator_matches_bracket(A, e, f)


def test_first_order_commutator_matches_bracket_on_fixtures(p123, f1p1):
    for A in (p123, f1p1):
        pos = [r for level in positive_roots(A) for r in level]
        for e in pos:
            for f in pos:
                if e.ray < f.ray:
                    assert first_order_commutator_matches_bracket(A, e, f)


def test_matrix_embedding_examples(p123, f1p1):
    for n in range(1, 5):
        A = projective_space(n)
        assert matrix_embedding_check(A, tuple(range(n)))
    assert matrix_embedding_check(p123, (2,))  # singleton class, U_2
    assert matrix_embedding_check(f1p1, (0,))  # k = 3, l = 1 block
    assert matrix_embedding_check(f1p1, (1,))
    assert matrix_embedding_check(f1p1, (2,))


def test_class_model_rests_on_the_conjugation_identities(monkeypatch):
    A = projective_space(3)  # one class with roots on three levels
    monkeypatch.setattr(coxaction, "verify_conjugation", lambda *args, **kwargs: False)
    assert not matrix_embedding_check(A, (0, 1, 2))
    ok = {c.name: c.ok for c in verify_all(A)}
    assert not ok["conjugation-identity"] and not ok["matrix-embedding"]
    assert ok["one-parameter-law"] and ok["first-order-bracket"]


def test_random_products_stay_root_aligned(p123):
    rng = random.Random(99)
    system = demazure_roots(p123)
    seeds = [(-1, 1, 1), (0, -1, 1), (0, 0, -1), (0, -1, 0), (-1, 0, 0)]
    M = saturation_closure(p123, [system.find(c) for c in seeds])
    ring = ring_for(p123)
    for _ in range(25):
        word = PolyAutomorphism.identity(ring)
        for _ in range(rng.randint(1, 6)):
            e = rng.choice(M.roots)
            word = compose(word, root_automorphism(p123, e, rng.randint(-3, 3), ring))
        assert monomial_support_is_root_aligned(p123, M.roots, word)


def test_degree_cap_is_enforced():
    ring = PolyRing(num_coords=1, params=(), degree_cap=8)
    x = ring.var(0)
    with pytest.raises(DegreeCapError):
        (x + 1) ** 9


def test_compose_raises_degree_cap_on_the_composite(p123):
    # both factors have degree 4, their composite x1 + a*(x3 + b*x4)^3 has 7
    ring = ring_for(p123, degree_cap=4)
    u = root_automorphism(p123, find(p123, (-1, 0, 3)), ring.param("a"), ring)
    v = root_automorphism(p123, find(p123, (0, 0, -1)), ring.param("b"), ring)
    assert max(img.total_degree() for img in u.images + v.images) == 4
    with pytest.raises(DegreeCapError):
        compose(u, v)
    # an image taken over unchanged where the first factor fixes x_i
    identity = PolyAutomorphism.identity(ring)
    high = PolyAutomorphism(ring, (ring.monomial((0, 0, 0, 5)),) + identity.images[1:])
    with pytest.raises(DegreeCapError):
        compose(identity, high)


def test_substitute_raises_degree_cap_from_fixed_coordinates():
    ring = PolyRing(num_coords=2, params=("a",), degree_cap=8)
    x1, x2 = ring.var(0), ring.var(1)
    high = ring.monomial((9, 0))  # built directly, so never checked
    for images in [(x1, x2 + ring.param("a")), (x1, x2)]:
        with pytest.raises(DegreeCapError):
            high.substitute(images)
    assert ring.monomial((8, 0)).substitute((x1, x2 + 1)) == ring.monomial((8, 0))


def _random_poly(rng, ring, terms=3):
    """At most ``terms`` terms of degree at most 2, some coefficients zero."""
    out = {}
    for _ in range(terms):
        mono = [0] * ring.num_vars
        for i in rng.sample(range(ring.num_vars), 2):
            mono[i] += rng.randint(0, 1)
        out[tuple(mono)] = rng.randint(-3, 3)
    return Poly(ring, out)


def _moved(rng, x):
    """``x`` plus a random polynomial, never ``x`` itself."""
    while True:
        image = x + _random_poly(rng, x.ring)
        if image != x:
            return image


def _termwise_compose(g, h):
    return PolyAutomorphism(g.ring, tuple(termwise_substitute(img, h.images) for img in g.images))


def test_compose_matches_termwise_substitution(p123, f1p1):
    rng = random.Random(7)
    for A in [p123, f1p1, projective_space(3)] + random_ray_matrices(6, seed=71):
        ring = ring_for(A)
        pos = [r for level in positive_roots(A) for r in level]
        if not pos:
            continue
        word = PolyAutomorphism.identity(ring)
        for _ in range(6):
            e = rng.choice(pos)
            u = root_automorphism(A, e, rng.choice([ring.param("a"), ring.param("b"), 2]), ring)
            assert compose(word, u) == _termwise_compose(word, u)
            assert compose(u, word) == _termwise_compose(u, word)
            word = compose(word, u)
        # no image is a bare variable: every coordinate moves on both sides
        for _ in range(4):
            g, h = (
                PolyAutomorphism(ring, tuple(_moved(rng, x) for x in ring.variables))
                for _ in range(2)
            )
            for left, right in [(g, h), (h, g), (g, word), (word, h)]:
                assert compose(left, right) == _termwise_compose(left, right)


def test_sparse_unitriangular_product_matches_dense(p123, f1p1):
    rng = random.Random(11)
    fans = [p123, f1p1] + [projective_space(n) for n in range(1, 5)]
    fans += random_ray_matrices(12, seed=1212)
    ring = PolyRing(num_coords=1, params=("a", "b"))
    a, b = ring.param("a"), ring.param("b")
    for A in fans:
        pos = positive_roots(A)
        for cls in column_preorder(A).classes:
            k = len(pos[cls[0]]) + 1
            cells = sorted(class_embedding_positions(A, cls).values())
            elementary = [{cell: v} for cell in cells for v in (a, -a, a * b + 2)]
            # every pair, including entries that cancel
            for X in elementary:
                for Y in elementary:
                    assert _unitriangular_product(X, Y) == dense_unitriangular_product(X, Y, k, ring)
            # seeded words of five elementary factors
            for _ in range(10):
                X = {}
                for factor in rng.sample(elementary, min(5, len(elementary))):
                    Y = _unitriangular_product(X, factor)
                    assert Y == dense_unitriangular_product(X, factor, k, ring)
                    X = Y


def test_verify_all_random():
    for A in random_ray_matrices(5, seed=606):
        assert all(c.ok for c in verify_all(A))
