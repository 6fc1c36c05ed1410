import pytest

from toricroots import InputError, demazure_roots, positive_roots, validate_ray_matrix
from toricroots.liealg import bracket

from conftest import positive_rootset, random_ray_matrices
from oracles import BracketTable, lie_center, lie_series_oracle


def find(A, coords):
    root = demazure_roots(A).find(coords)
    assert root is not None
    return root


def test_bracket_projective_plane():
    A = validate_ray_matrix([[1, 1]], 2)
    e = find(A, (-1, 1))
    f = find(A, (0, -1))
    coef, g = bracket(e, f, A)
    assert coef == -1 and g.coords == (-1, 0)
    # antisymmetric counterpart
    coef_rev, g_rev = bracket(f, e, A)
    assert coef_rev == 1 and g_rev == g


def test_bracket_same_level_is_zero():
    A = validate_ray_matrix([[1, 1]], 2)
    assert bracket(find(A, (-1, 0)), find(A, (-1, 1)), A) is None


def test_bracket_weighted_projective(p123):
    e = find(p123, (-1, 1, 1))
    f = find(p123, (0, -1, 1))
    coef, g = bracket(e, f, p123)
    assert coef == -1 and g.coords == (-1, 0, 2)


def test_bracket_rejects_non_positive_roots(p123):
    detached = find(p123, (0, 0, 1))
    basic = find(p123, (0, 0, -1))
    with pytest.raises(InputError):
        bracket(detached, basic, p123)


def test_table_closure_rejects_unsaturated(p123):
    system = demazure_roots(p123)
    roots = [system.find(c) for c in [(-1, 1, 0), (0, -1, 0)]]
    with pytest.raises(InputError, match="bracket-closed"):
        BracketTable.build(p123, roots)


def test_jacobi_and_antisymmetry_on_fixtures(p123, f1p1):
    for A in (p123, f1p1):
        table = BracketTable.build(A, positive_rootset(A).roots)
        assert table.verify_antisymmetry()
        assert table.verify_jacobi()


def test_lie_center_examples(p123, f1p1):
    M = positive_rootset(p123)
    table = BracketTable.build(p123, M.roots)
    out = lie_center(M.roots, table)
    assert {r.coords for r in out.center} == {(-1, 0, 0)}
    assert out.kernel_dimension == 1

    M2 = positive_rootset(f1p1)
    table2 = BracketTable.build(f1p1, M2.roots)
    out2 = lie_center(M2.roots, table2)
    assert {r.coords for r in out2.center} == {(-1, 0, 0), (0, 0, -1)}
    assert out2.kernel_dimension == 2


def test_lie_center_commutative_set():
    A = validate_ray_matrix([[1, 1]], 2)
    system = demazure_roots(A)
    basics = [system.find((-1, 0)), system.find((0, -1))]
    table = BracketTable.build(A, basics)
    out = lie_center(basics, table)
    assert set(out.center) == set(basics)
    assert out.kernel_dimension == 2


def test_lie_series_weighted_projective(p123):
    M = positive_rootset(p123)
    table = BracketTable.build(p123, M.roots)
    series = lie_series_oracle(M.roots, table)
    assert len(series.lower) == 6  # class 5: terms 0..5, the last one empty
    assert series.lower[0] == frozenset(r.coords for r in M.roots)
    assert series.lower[-1] == frozenset()
    assert len(series.derived) == 4  # derived length 3
    assert series.derived[2] == frozenset({(-1, 0, 0), (-1, 0, 1)})


def test_lie_series_commutative():
    A = validate_ray_matrix([[1, 1]], 2)
    system = demazure_roots(A)
    basics = [system.find((-1, 0)), system.find((0, -1))]
    table = BracketTable.build(A, basics)
    series = lie_series_oracle(basics, table)
    assert len(series.lower) == 2 and series.lower[1] == frozenset()
    assert len(series.derived) == 2


def test_tables_on_random_matrices():
    for A in random_ray_matrices(15, seed=5150):
        table = BracketTable.build(A, positive_rootset(A).roots)
        assert table.verify_antisymmetry()
        assert table.verify_jacobi()
