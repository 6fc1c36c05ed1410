import itertools
import math
import random

import pytest

from toricroots import (
    DegenerateRaysError,
    IncompleteFanError,
    InputError,
    RayList,
    bilateralize,
    enumerate_smooth_surfaces,
    sequence_to_rays,
    validate_ray_matrix,
)
from toricroots.fan import CapExceededError

from conftest import random_ray_list, random_ray_matrices
from oracles import coords_in_basis, is_unimodular_basis, subset_bilateral_witness


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


def test_bilateralize_skips_a_zero_column():
    # e1, e2, e3 leave -e1-e2 in the closed negative orthant but no ray
    # below the plane of e1, e2: column 3 would be zero.  No basis is a
    # witness until -e3 is added.
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)]
    assert bilateralize(RayList.validate(rays, 3)) is None
    assert subset_bilateral_witness(RayList.validate(rays, 3)) is None
    found = bilateralize(RayList.validate(rays + [(0, 0, -1)], 3))
    assert found.basis_indices == (0, 1, 2)
    assert found.matrix.rows == ((1, 1, 0), (0, 0, 1))


def test_bilateralize_projective_spaces_of_high_rank():
    # -(e_1 + ... + e_n) first: the first n rays are a witness, and e_n has
    # all coordinates -1 in that basis.  The work must stay polynomial in n
    # (all the minors of a prefix would be up to C(30, 15) numbers).
    for n in (12, 30):
        rays = [(-1,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
        found = bilateralize(RayList.validate(rays, n))
        assert found.basis_indices == tuple(range(n))
        assert found.matrix.rows == ((1,) * n,)


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


def test_bilateralize_facet_budget():
    # The scan checks facet (0,): ray 1 is alone above the line through
    # (1,0) with determinant 1, ray 2 alone below, so the candidate basis is
    # (0, 1); its other facet (1,) is checked ahead and passes.  Two facets.
    rl = RayList.validate([(1, 0), (0, 1), (-1, -1), (-1, 0)], 2)
    with pytest.raises(CapExceededError, match="more than 1 facets checked"):
        bilateralize(rl, max_normals=1)
    found = bilateralize(rl, max_normals=2)
    assert found.basis_indices == (0, 1)
    assert found.matrix.rows == ((1, 1), (1, 0))


def _assert_same_witness(rl):
    expected = subset_bilateral_witness(rl)
    # every facet is checked at most once
    found = bilateralize(rl, max_normals=math.comb(rl.m, rl.n - 1))
    if expected is None:
        assert found is None, rl.rays
    else:
        assert found is not None, rl.rays
        assert found.basis_indices == expected.basis_indices
        assert found.ray_order == expected.ray_order
        assert found.matrix.rows == expected.matrix.rows
    return expected is not None


def test_facet_search_matches_subset_oracle_on_surfaces():
    rng = random.Random(8128)
    bilateral = 0
    listed = enumerate_smooth_surfaces(8)
    for s in listed:
        rays = list(sequence_to_rays(s).rays)
        k = rng.randrange(len(rays))
        shuffled = rng.sample(rays, len(rays))
        for order in (rays[k:] + rays[:k], shuffled):
            bilateral += _assert_same_witness(RayList.validate(order, 2))
    assert len(listed) == 303 and 0 < bilateral < 2 * 303


def test_facet_search_matches_subset_oracle_in_rank_one_to_five():
    results = []
    for n in range(1, 6):
        for seed in range(32):
            m = 2 if n == 1 else n + 2 + seed % (9 - n)
            rl = random_ray_list(n, m, seed=1000 * n + seed, positive_ray=n > 1 and seed % 3 == 2)
            results.append(_assert_same_witness(rl))
    assert 0 < results.count(False) < results.count(True)


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
    with pytest.raises(InputError) as err:
        RayList.validate([], 2)  # not a degenerate ray set: no rays at all
    assert err.value.violations == ("bad-shape: at least one ray is required",)
