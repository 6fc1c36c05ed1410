import random

import pytest

from toricroots import InputError, RayList, SurfaceSequence, validate_ray_matrix
from toricroots.cli import _parse_int_rows
from toricroots.lattice import rank

from oracles import coords_in_basis, det, is_unimodular_basis


def test_unimodular_basis_examples():
    assert is_unimodular_basis([(1, 0), (0, 1)])
    assert is_unimodular_basis([(1, 0), (2, 1)])
    assert not is_unimodular_basis([(2, 0), (0, 1)])


def test_unimodular_basis_shape_error():
    with pytest.raises(InputError):
        is_unimodular_basis([(1, 0, 0), (0, 1, 0)])


def test_unimodularity_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        shuffled = vs[:]
        rng.shuffle(shuffled)
        assert is_unimodular_basis(vs) == is_unimodular_basis(shuffled)


def test_coords_in_basis_examples():
    assert coords_in_basis((-1, -1), [(1, 0), (0, 1)]) == (-1, -1)
    assert coords_in_basis((-3, -2, -1), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == (-3, -2, -1)
    assert coords_in_basis((1, 1), [(1, 0), (1, 1)]) == (0, 1)


def test_coords_of_basis_vectors_are_unit_vectors():
    rng = random.Random(13)
    found = 0
    while found < 50:
        n = rng.randint(1, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if not is_unimodular_basis(vs):
            continue
        found += 1
        for j, v in enumerate(vs):
            expected = tuple(1 if t == j else 0 for t in range(n))
            assert coords_in_basis(v, vs) == expected


def test_coords_reconstruct_vector():
    rng = random.Random(17)
    found = 0
    while found < 50:
        n = rng.randint(1, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if not is_unimodular_basis(vs):
            continue
        found += 1
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        c = coords_in_basis(v, vs)
        rebuilt = tuple(
            sum(c[j] * vs[j][i] for j in range(n)) for i in range(n)
        )
        assert rebuilt == v


def test_coords_in_basis_rejects_non_unimodular():
    with pytest.raises(InputError, match="not unimodular"):
        coords_in_basis((1, 1), [(2, 0), (0, 1)])


def test_det_matches_permutation_expansion():
    rng = random.Random(19)
    import itertools

    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= m[i][perm[i]]
            expected += sign * term
        assert det(m) == expected


def test_rank():
    assert rank([(1, 0), (0, 1), (-1, -1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_integer_inputs_are_strict(bad):
    cases = [
        lambda: validate_ray_matrix([[1, bad]], 2),
        lambda: validate_ray_matrix([[1]], bad),
        lambda: RayList.validate([(1, 0), (0, 1), (-1, bad)], 2),
        lambda: RayList.validate([(1,), (-1,)], bad),
        lambda: SurfaceSequence.of([-1, -1, bad]),
    ]
    for case in cases:
        with pytest.raises(InputError, match="non-integer"):
            case()


@pytest.mark.parametrize("case", [
    lambda: validate_ray_matrix(None, 2),
    lambda: validate_ray_matrix([1, 2], 2),
    lambda: RayList.validate([1, 2], 2),
    lambda: RayList.validate(None, 2),
    lambda: SurfaceSequence.of(5),
    lambda: SurfaceSequence.of(None),
    lambda: _parse_int_rows(" ; ", "ray matrix"),  # a CLI message, named by its prefix
])
def test_inputs_that_are_not_lists_are_bad_shape(case):
    with pytest.raises(InputError) as err:
        case()
    assert err.value.violations == ("bad-shape",)
