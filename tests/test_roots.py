import math
import random

import pytest

from toricroots import (
    CapExceededError,
    InputError,
    NotCanonicalError,
    canonical_reorder,
    column_preorder,
    demazure_roots,
    positive_roots,
    validate_ray_matrix,
)
from toricroots import cli, roots
from toricroots.roots import is_positive_form

from conftest import (
    SEED_20,
    SEED_100,
    incomparable_columns_matrix,
    projective_space,
    random_ray_matrices,
    satisfies_canonical_condition,
)
from oracles import box_scan_roots, classified_roots, orthant_box_roots, vanishing_levels


def coords_by_ray(A):
    return [
        {r.coords for r in level} for level in demazure_roots(A).by_ray
    ]


def test_product_surface_root_lists(f1p1):
    by_ray = coords_by_ray(f1p1)
    assert by_ray[0] == {(-1, 0, 0), (-1, 1, 0)}
    assert by_ray[1] == {(0, -1, 0)}
    assert by_ray[2] == {(0, 0, -1)}
    assert by_ray[3] == {(0, 1, 0)}
    assert by_ray[4] == set()
    assert by_ray[5] == {(0, 0, 1)}


def test_weighted_projective_positive_roots(p123):
    pos = positive_roots(p123)
    assert {r.coords for r in pos[0]} == {
        (-1, 0, 0), (-1, 1, 0), (-1, 1, 1), (-1, 0, 1), (-1, 0, 2), (-1, 0, 3),
    }
    assert {r.coords for r in pos[1]} == {(0, -1, 0), (0, -1, 1), (0, -1, 2)}
    assert {r.coords for r in pos[2]} == {(0, 0, -1)}
    # the third column is the unit column, so its dual vector is a detached
    # root and the full system has 11 roots
    system = demazure_roots(p123)
    assert len(system.roots) == 11
    detached = [r for r in system.roots if r.kind == "detached"]
    assert [r.coords for r in detached] == [(0, 0, 1)]


def test_product_surface_positive_roots(f1p1):
    pos = positive_roots(f1p1)
    assert [{r.coords for r in level} for level in pos] == [
        {(-1, 0, 0), (-1, 1, 0)},
        {(0, -1, 0)},
        {(0, 0, -1)},
    ]


def test_projective_line_roots():
    A = validate_ray_matrix([[1]], 1)
    by_ray = coords_by_ray(A)
    assert by_ray[0] == {(-1,)} and by_ray[1] == {(1,)}
    assert all(r.semisimple for r in demazure_roots(A).roots)


def test_kinds_and_parity(p123, f1p1):
    system = demazure_roots(f1p1)
    kinds = {r.coords: r.kind for r in system.roots}
    assert kinds[(-1, 0, 0)] == "basic"
    assert kinds[(-1, 1, 0)] == "elementary"
    assert kinds[(0, 1, 0)] == "detached"
    assert {r.coords: r.kind for r in demazure_roots(p123).roots}[(-1, 1, 1)] == "special"
    for r in demazure_roots(p123).roots:
        if r.kind == "special":
            assert not r.semisimple
        if r.kind == "detached":
            assert r.semisimple


def test_column_preorder_examples(p123):
    pre = column_preorder(p123)
    assert pre.strictly_dominates(0, 1) and pre.strictly_dominates(1, 2)
    assert pre.classes == ((0,), (1,), (2,))

    pre47 = column_preorder(incomparable_columns_matrix(3))
    assert all(
        not pre47.comparable(i, j) for i in range(3) for j in range(3) if i != j
    )
    assert pre47.classes == ((0,), (1,), (2,))

    pre_plane = column_preorder(validate_ray_matrix([[1, 1]], 2))
    assert pre_plane.geq[0][1] and pre_plane.geq[1][0]
    assert pre_plane.classes == ((0, 1),)


def test_canonical_reorder_examples(f1p1):
    perm, A = canonical_reorder(f1p1)
    assert perm == (0, 1, 2) and A == f1p1  # already canonical

    perm, A = canonical_reorder(validate_ray_matrix([[2, 3]], 2))
    assert perm == (1, 0)
    assert A.rows == ((3, 2),)

    same = validate_ray_matrix([[1, 1, 1]], 3)  # all columns equal
    perm, A = canonical_reorder(same)
    assert perm == (0, 1, 2) and A == same


def test_canonical_reorder_output_satisfies_condition():
    for A in random_ray_matrices(40, seed=31415):
        # generator already canonicalizes; verify the predicate holds
        assert satisfies_canonical_condition(A)
    raw = validate_ray_matrix([[1, 2, 1], [0, 1, 1]], 3)
    assert not satisfies_canonical_condition(raw)
    perm, fixed = canonical_reorder(raw)
    assert satisfies_canonical_condition(fixed)
    assert sorted(perm) == [0, 1, 2]
    # permuting columns back recovers the original rows
    for row_new, row_old in zip(fixed.rows, raw.rows):
        assert tuple(row_new[perm.index(j)] for j in range(3)) == row_old


def test_canonical_reorder_groups_split_classes():
    # equal columns 0 and 2 are separated in the input; the reorder makes
    # them adjacent and keeps the dominating class first
    A = validate_ray_matrix([[1, 0, 1], [1, 1, 1]], 3)
    assert not satisfies_canonical_condition(A)
    perm, fixed = canonical_reorder(A)
    assert perm == (0, 2, 1)
    assert fixed.rows == ((1, 1, 0), (1, 1, 1))
    assert satisfies_canonical_condition(fixed)
    assert column_preorder(fixed).classes == ((0, 1), (2,))


def test_positive_roots_requires_canonical():
    with pytest.raises(NotCanonicalError):
        positive_roots(validate_ray_matrix([[2, 3]], 2))


def test_positive_roots_on_projective_spaces():
    for n in range(1, 7):
        pos = positive_roots(projective_space(n))
        assert len(pos[0]) == n
        expected = {tuple(-1 if t == 0 else 0 for t in range(n))} | {
            tuple(-1 if t == 0 else (1 if t == j else 0) for t in range(n))
            for j in range(1, n)
        }
        assert {r.coords for r in pos[0]} == expected
        assert [len(level) for level in pos] == list(range(n, 0, -1))


def test_last_positive_level_is_basic(p123, f1p1):
    for A in [p123, f1p1] + random_ray_matrices(30, seed=777):
        pos = positive_roots(A)
        assert [r.coords for r in pos[A.n - 1]] == [
            tuple(-1 if t == A.n - 1 else 0 for t in range(A.n))
        ]


def test_enumeration_matches_box_scan_oracle():
    for A in random_ray_matrices(30, seed=2024, max_rows=4, max_entry=4):
        system = demazure_roots(A)
        assert {(r.ray, r.coords) for r in system.roots} == box_scan_roots(A)


def wide_entry_matrices(count, seed, n):
    """Rank-n ray matrices whose first column has entries up to 40 against
    entries up to 6 elsewhere, so that basis ray has many roots, cut by two
    rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = [
            [rng.randint(1, 40)] + [rng.randint(0, 6) for _ in range(n - 1)]
            for _ in range(2)
        ]
        rows = [[x // math.gcd(*row) for x in row] for row in rows]
        perm = rng.sample(range(n), n)
        try:
            A = validate_ray_matrix([[row[j] for j in perm] for row in rows], n)
        except InputError:
            continue
        out.append(canonical_reorder(A)[1])
    return out


def test_search_matches_orthant_box_scan_on_large_entries():
    matrices = wide_entry_matrices(12, 4040, 3) + wide_entry_matrices(8, 4041, 4)
    for A in matrices:
        system = demazure_roots(A)
        found = {(r.ray, r.coords) for r in system.roots if r.ray < A.n}
        assert found == orthant_box_roots(A)


def classification_fans():
    """Seeded rank 2-5 matrices, fans with detached roots (two on one ray;
    two on each of two rays), [[k, 1, 1]] for k <= 40 and P(1,2,3,4,6,8,12)."""
    fans = [A for A in random_ray_matrices(60, seed=1414, max_n=5, max_rows=4) if A.n >= 2]
    fans += [canonical_reorder(validate_ray_matrix(rows, n))[1] for rows, n in [
        ([[1, 1, 2], [0, 0, 1]], 3), ([[1, 1, 0, 0], [0, 0, 1, 1]], 4)]]
    fans += [validate_ray_matrix([[k, 1, 1]], 3) for k in range(1, 41)]
    fans.append(validate_ray_matrix([[12, 8, 6, 4, 3, 2, 1]], 7))
    return fans


def test_root_table_matches_the_classified_sorted_oracle():
    seen = set()
    for A in classification_fans():
        system = demazure_roots(A)
        assert (system.roots, system.by_ray) == classified_roots(A)
        assert system.levels == tuple(
            tuple(r for r in system.by_ray[i] if is_positive_form(r.coords, i))
            for i in range(A.n)
        )
        seen |= {(r.kind, r.semisimple) for r in system.roots}
    # every kind, and both parities of basic and elementary roots, came up
    assert seen == {("basic", False), ("basic", True), ("elementary", False),
                    ("elementary", True), ("special", False), ("detached", True)}


def test_levels_are_the_roots_that_vanish_below_their_ray():
    fans = random_ray_matrices(100, seed=SEED_20, max_n=5, max_rows=4)
    fans += random_ray_matrices(100, seed=SEED_100)
    fans += [validate_ray_matrix([[k, 1, 1]], 3) for k in range(1, 41)]
    for A in fans:
        system = demazure_roots(A)
        assert system.levels == vanishing_levels(system)


def test_umax_builds_one_column_preorder_per_matrix(monkeypatch, capsys):
    calls = []
    real = roots.column_preorder

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(roots, "column_preorder", counted)
    demazure_roots.cache_clear()
    assert cli.main(["umax", "--ray-matrix", "1 2 3"]) == 0
    # one for canonical_reorder's input, one for the root table of its output
    assert len(calls) == 2


def test_root_cap(monkeypatch):
    # [[30, 1, 1]] has 496 roots on ray 1, 2 on each of rays 2 and 3, and
    # the unit columns 2 and 3 give 2 detached roots
    A = validate_ray_matrix([[30, 1, 1]], 3)
    search = demazure_roots.__wrapped__  # bypass the cache
    monkeypatch.setattr(roots, "MAX_ROOTS", 502)
    assert len(search(A).roots) == 502
    monkeypatch.setattr(roots, "MAX_ROOTS", 501)
    with pytest.raises(CapExceededError, match="more than 501 Demazure roots"):
        search(A)


def test_display_matches_the_coordinates_and_stays_out_of_the_fields():
    fans = [validate_ray_matrix([[4, 3, 2, 1]], 4),
            validate_ray_matrix([[12, 8, 6, 4, 3, 2, 1]], 7)]
    fans += random_ray_matrices(10, seed=808, max_rows=4, max_entry=4)
    for A in fans:
        system = demazure_roots(A)
        for r in system.roots:
            assert r.display() == roots.display(r.coords)
        # fresh copies of the roots
        fresh = [roots.DemazureRoot(r.ray, r.coords, r.kind, r.semisimple)
                 for r in system.roots]
        assert fresh == list(system.roots)
        assert [hash(f) for f in fresh] == [hash(r) for r in system.roots]
        assert [repr(f) for f in fresh] == [repr(r) for r in system.roots]
        assert set(fresh) == set(system.roots)
        for r, f in zip(system.roots, fresh):
            assert r <= f <= r and not r < f and not f < r
        assert [r.coords for r in sorted(system.roots, reverse=True)] == [
            f.coords for f in sorted(fresh, reverse=True)]
