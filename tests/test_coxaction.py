import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from toricroots import (
    DegreeCapError,
    InputError,
    coxaction,
    demazure_roots,
    liealg,
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
from toricroots.groups import RootSet, saturation_closure
from toricroots.poly import Poly, PolyRing
from toricroots.roots import column_preorder

from conftest import projective_space, random_ray_matrices, satisfies_canonical_condition
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


positive_root_users = pytest.mark.parametrize(
    "use",
    [
        lambda A, r: liealg.bracket(r, find(A, (0, 0, -1)), A),
        lambda A, r: root_automorphism(A, r, 1),
    ],
    ids=["bracket", "root_automorphism"],
)


@positive_root_users
def test_rejects_positive_forms_that_are_not_positive_roots_of_the_matrix(p123, use):
    foreign = find(validate_ray_matrix([[5, 2, 1]], 3), (-1, 0, 5))
    with pytest.raises(InputError, match="not a root of this ray matrix"):
        use(p123, foreign)
    root = find(p123, (-1, 1, 1))
    for ray in range(1, p123.m):
        with pytest.raises(InputError, match="not a positive root"):
            use(p123, replace(root, ray=ray))


@positive_root_users
def test_rejects_roots_of_another_rank(p123, use):
    longer = find(validate_ray_matrix([[3, 2, 1, 1]], 4), (-1, 1, 1, 0))
    shorter = find(validate_ray_matrix([[1, 1]], 2), (1, 0))  # detached, on ray 2
    for root in (longer, shorter):
        with pytest.raises(InputError, match="not a positive root"):
            use(p123, root)


def test_accepts_positive_roots_of_a_non_canonical_matrix():
    A = validate_ray_matrix([[1, 2, 1]], 3)  # the equal columns 1 and 3 are apart
    assert not satisfies_canonical_condition(A)
    e = find(A, (-1, 0, 1))
    assert liealg.bracket(e, find(A, (0, 0, -1)), A) == (-1, find(A, (-1, 0, 0)))
    ring = ring_for(A)
    assert root_automorphism(A, e, 1, ring) != PolyAutomorphism.identity(ring)


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


def test_first_order_check_keeps_the_callers_ring():
    A = validate_ray_matrix([[3, 2, 1]], 3)
    e, f = find(A, (0, -1, 2)), find(A, (0, 0, -1))
    with pytest.raises(InputError, match="no parameter 's'"):
        first_order_commutator_matches_bracket(A, e, f, ring_for(A, degree_cap=2))
    with pytest.raises(DegreeCapError):
        first_order_commutator_matches_bracket(A, e, f, ring_for(A, ("s", "t"), degree_cap=2))


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
    real_sides = coxaction._conjugation_sides

    def wrong_right_side(*args):
        word, _ = real_sides(*args)
        return word, PolyAutomorphism.identity(word.ring)

    monkeypatch.setattr(coxaction, "_conjugation_sides", wrong_right_side)
    assert not matrix_embedding_check(A, (0, 1, 2))
    ok = {c.name: c.ok for c in verify_all(A)}
    assert not ok["conjugation-identity"] and not ok["matrix-embedding"]
    assert ok["one-parameter-law"] and ok["first-order-bracket"]


def test_random_products_stay_root_aligned(p123):
    rng = random.Random(99)
    system = demazure_roots(p123)
    seeds = [(-1, 1, 1), (0, -1, 1), (0, 0, -1), (0, -1, 0), (-1, 0, 0)]
    M = saturation_closure(RootSet.of(p123, [system.find(c) for c in seeds]))
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


# ---------------------------------------------------------------------------
# the battery's first-order check, read off each pair's conjugation word


def _pairs(A):
    pos = [r for level in positive_roots(A) for r in level]
    return [(e, f) for e in pos for f in pos if e.ray < f.ray]


def _battery_first_order(monkeypatch, A):
    """The checks of ``verify_all(A)`` by name, and the first-order verdict
    the battery reached on each pair."""
    verdicts = {}
    check = coxaction._commutator_matches_bracket

    def record(A_, e, f, word, sign):
        verdicts[e, f] = check(A_, e, f, word, sign)
        return verdicts[e, f]

    with monkeypatch.context() as m:
        m.setattr(coxaction, "_commutator_matches_bracket", record)
        checks = {c.name: c.ok for c in verify_all(A)}
    return checks, verdicts


def _bracket_off_by(shift):
    """``liealg.bracket`` with every coefficient moved by ``shift``, or with
    every bracket zero when ``shift`` is ``None``."""
    bracket = liealg.bracket

    def wrong(e, f, A):
        hit = bracket(e, f, A)
        return None if shift is None or hit is None else (hit[0] + shift, hit[1])

    return wrong


def test_battery_first_order_verdicts_match_the_literal_check(monkeypatch, p123, f1p1):
    wide = validate_ray_matrix([[4, 3, 2, 1]], 4)
    fans = [p123, f1p1] + [projective_space(n) for n in range(1, 5)]
    fans += [wide] + random_ray_matrices(10, seed=1010)
    zero = nonzero = 0
    for A in fans:
        pairs = _pairs(A)
        hits = [liealg.bracket(e, f, A) for e, f in pairs]
        zero += hits.count(None)
        nonzero += len(hits) - hits.count(None)
        if A == wide:  # both branches of the check on one fan
            assert (len(hits), hits.count(None)) == (137, 94)
        # under the true bracket every verdict holds; under a wrong one the
        # battery must fail exactly the pairs the literal check fails
        for shift in (0, 1, None):
            with monkeypatch.context() as m:
                m.setattr(liealg, "bracket", _bracket_off_by(shift))
                checks, verdicts = _battery_first_order(monkeypatch, A)
                oracle = {(e, f): first_order_commutator_matches_bracket(A, e, f) for e, f in pairs}
            assert verdicts == oracle
            assert checks["first-order-bracket"] == all(oracle.values())
            if shift == 0:
                assert all(oracle.values())
    assert zero > 0 and nonzero > 0  # both branches of the check are met


@pytest.mark.parametrize("shift", [1, None])
def test_wrong_bracket_fails_only_the_first_order_check(monkeypatch, shift):
    for A in (projective_space(3), validate_ray_matrix([[4, 3, 2, 1]], 4)):
        monkeypatch.setattr(liealg, "bracket", _bracket_off_by(shift))
        ok = {c.name: c.ok for c in verify_all(A)}
        assert ok == {
            "one-parameter-law": True,
            "conjugation-identity": True,
            "first-order-bracket": False,
            "matrix-embedding": True,
        }


def _fresh_checks(A):
    """The battery's checks, each recomputed from public calls in fresh rings."""
    pos = [r for level in positive_roots(A) for r in level]
    pairs = _pairs(A)
    ring = ring_for(A)
    a, b = ring.param("a"), ring.param("b")
    law = all(
        compose(root_automorphism(A, e, a, ring), root_automorphism(A, e, b, ring))
        == root_automorphism(A, e, a + b, ring)
        and compose(root_automorphism(A, e, a, ring), root_automorphism(A, e, -a, ring))
        == PolyAutomorphism.identity(ring)
        for e in pos
    )
    classes = column_preorder(A).classes
    return (
        ("one-parameter-law", len(pos), law),
        ("conjugation-identity", len(pairs), all(verify_conjugation(A, e, f) for e, f in pairs)),
        ("first-order-bracket", len(pairs),
         all(first_order_commutator_matches_bracket(A, e, f) for e, f in pairs)),
        ("matrix-embedding", len(classes), all(matrix_embedding_check(A, c) for c in classes)),
    )


def test_battery_builds_nothing_that_outlives_it(monkeypatch):
    rings = []

    def capture(A, *args, **kwargs):
        ring = ring_for(A, *args, **kwargs)
        rings.append(ring)
        return ring

    monkeypatch.setattr(coxaction, "ring_for", capture)
    verify_all(projective_space(3))
    fields = {"num_coords", "params", "degree_cap", "width", "shift", "variables"}
    assert len(rings) == 1 and set(vars(rings[0])) <= fields
    alive = weakref.ref(rings.pop())
    gc.collect()
    assert alive() is None
    # a battery cut short by the degree cap leaves nothing behind either
    with pytest.raises(DegreeCapError):
        verify_all(validate_ray_matrix([[40, 1]], 2))
    alive = weakref.ref(rings.pop())
    gc.collect()
    assert alive() is None


def test_batteries_on_fans_with_the_same_m_stay_apart():
    fans = [validate_ray_matrix(rows, n) for rows, n in [
        ([[3, 2, 1]], 3), ([[1, 1, 1]], 3), ([[2, 1, 1]], 3), ([[4, 1]], 2), ([[2, 1]], 2),
    ]]
    assert len({A.m for A in fans[:3]}) == 1 and len({A.m for A in fans[3:]}) == 1
    # and fans of the shape that the verify-small benchmark runs
    fans += random_ray_matrices(30, seed=2020, max_n=4, max_rows=3, max_entry=2)
    fresh = {A: _fresh_checks(A) for A in fans}
    for A in fans + fans[::-1]:
        assert tuple((c.name, c.cases, c.ok) for c in verify_all(A)) == fresh[A]


def test_equal_coefficients_give_equal_automorphisms(p123):
    ring = ring_for(p123)
    e = find(p123, (-1, 1, 1))
    same = [2, Fraction(4, 2), ring.const(2)]
    assert len({root_automorphism(p123, e, c, ring) for c in same}) == 1
    assert root_automorphism(p123, e, 2, ring) == root_automorphism(p123, e, 2, ring_for(p123))
    # and on equal polynomial coefficients built by different routes
    a = ring.param("a")
    first = root_automorphism(p123, e, a + a, ring)
    assert root_automorphism(p123, e, 2 * a, ring) == first
    assert root_automorphism(p123, e, ring.param("a") * Fraction(4, 2), ring) == first


def test_battery_expands_each_word_once_and_each_automorphism_once(monkeypatch):
    A = validate_ray_matrix([[4, 3, 2, 1]], 4)
    products, requested, built = [0], set(), [0]
    real_product, real_root_automorphism, real_as_poly = (
        coxaction.product, coxaction.root_automorphism, coxaction._as_poly
    )

    def count_product(autos):
        products[0] += 1
        return real_product(autos)

    def record(A_, root, alpha, ring=None):
        requested.add((root, alpha))
        return real_root_automorphism(A_, root, alpha, ring)

    def count_built(value, ring):  # called once per automorphism actually built
        built[0] += 1
        return real_as_poly(value, ring)

    monkeypatch.setattr(coxaction, "product", count_product)
    monkeypatch.setattr(coxaction, "root_automorphism", record)
    monkeypatch.setattr(coxaction, "_as_poly", count_built)
    assert all(c.ok for c in verify_all(A))
    # one product for the conjugation word, one for the right-hand side
    assert products[0] == 2 * len(_pairs(A))
    assert built[0] == len(requested)
