import itertools

import pytest

from toricroots import (
    DegenerateRaysError,
    IncompleteFanError,
    InputError,
    RayList,
    bilateralize,
    validate_ray_matrix,
)
from toricroots.fan import CapExceededError
from toricroots.lattice import coords_in_basis, is_unimodular_basis

from conftest import random_ray_matrices


def ray_list_from_matrix(A):
    """Rays in bilateral order: the standard basis followed by the negated rows."""
    units = [tuple(1 if i == j else 0 for j in range(A.n)) for i in range(A.n)]
    negs = [tuple(-x for x in row) for row in A.rows]
    return RayList.validate(units + negs, A.n)


def test_validate_accepts_known_matrices():
    A = validate_ray_matrix([[1, 1, 0], [1, 0, 0], [0, 0, 1]], 3)
    assert A.m == 6 and A.n == 3
    B = validate_ray_matrix([[3, 2, 1]], 3)
    assert B.columns == ((3,), (2,), (1,))


def test_validate_names_each_violation():
    with pytest.raises(InputError) as err:
        validate_ray_matrix([[1, 0], [1, 0]], 2)
    names = " ".join(err.value.violations)
    assert "duplicate-rows" in names and "zero-column" in names

    with pytest.raises(InputError) as err:
        validate_ray_matrix([[0, 0]], 2)
    assert any(v.startswith("zero-row") for v in err.value.violations)

    with pytest.raises(InputError) as err:
        validate_ray_matrix([[2, 4]], 2)
    assert any(v.startswith("non-primitive-row") for v in err.value.violations)

    with pytest.raises(InputError) as err:
        validate_ray_matrix([[1, -1]], 2)
    assert any(v.startswith("negative-entry") for v in err.value.violations)

    with pytest.raises(InputError) as err:
        validate_ray_matrix([[1], [1, 2]], 1)
    assert any(v.startswith("bad-shape") for v in err.value.violations)


def test_bilateralize_projective_plane():
    rl = RayList.validate([(1, 0), (0, 1), (-1, -1)], 2)
    found = bilateralize(rl)
    assert found is not None
    assert found.basis_indices == (0, 1)
    assert found.matrix.rows == ((1, 1),)


def brute_force_bilateral_witnesses(rl):
    """Independent oracle: try every index subset directly."""
    witnesses = []
    for subset in itertools.combinations(range(rl.m), rl.n):
        basis = [rl.rays[i] for i in subset]
        if not is_unimodular_basis(basis):
            continue
        rest = [i for i in range(rl.m) if i not in subset]
        coords = [coords_in_basis(rl.rays[i], basis) for i in rest]
        if all(all(c <= 0 for c in cc) for cc in coords):
            witnesses.append(subset)
    return witnesses


def test_bilateralize_skew_triangle_has_no_witness():
    # (1,0),(0,1),(-1,2): exhaustive search over all 2-subsets finds no
    # bilateral basis, and the rays do not even cover the plane (the gap
    # from (-1,2) back to (1,0) exceeds a half turn).
    rays = [(1, 0), (0, 1), (-1, 2)]
    rl = RayList.validate(rays, 2)
    assert brute_force_bilateral_witnesses(rl) == []
    with pytest.raises(IncompleteFanError):
        bilateralize(rl)


def test_bilateralize_hexagon_is_negative():
    # six-ray surface of the all-ones sequence: complete but not bilateral
    rays = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    rl = RayList.validate(rays, 2)
    assert brute_force_bilateral_witnesses(rl) == []
    assert bilateralize(rl) is None


def test_bilateralize_needs_spanning_rays():
    rl = RayList.validate([(1, 0), (-1, 0)], 2)
    with pytest.raises(DegenerateRaysError):
        bilateralize(rl)


def test_bilateralize_rank_one():
    rl = RayList.validate([(1,), (-1,)], 1)
    found = bilateralize(rl)
    assert found is not None and found.matrix.rows == ((1,),)
    with pytest.raises(IncompleteFanError):
        bilateralize(RayList.validate([(1,)], 1))


def test_bilateralize_subset_cap():
    rl = RayList.validate([(1, 0), (0, 1), (-1, -1), (-1, 0)], 2)
    with pytest.raises(CapExceededError):
        bilateralize(rl, max_subsets=3)


def test_round_trip_through_ray_list(p123, f1p1):
    for A in [p123, f1p1] + random_ray_matrices(25, seed=909):
        rl = ray_list_from_matrix(A)
        found = bilateralize(rl)
        assert found is not None
        assert found.basis_indices == tuple(range(A.n))
        assert found.matrix == A
        # re-verify the witness invariants directly
        basis = [rl.rays[i] for i in found.basis_indices]
        assert is_unimodular_basis(basis)
        for i in range(rl.m):
            if i not in found.basis_indices:
                assert all(c <= 0 for c in coords_in_basis(rl.rays[i], basis))
        assert sorted(found.ray_order) == list(range(rl.m))


def test_ray_list_validation_errors():
    with pytest.raises(InputError):
        RayList.validate([(0, 0), (1, 0)], 2)
    with pytest.raises(InputError):
        RayList.validate([(2, 2), (1, 0)], 2)
    with pytest.raises(InputError):
        RayList.validate([(1, 0), (1, 0)], 2)
