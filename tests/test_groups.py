import pytest

from toricroots import (
    InputError,
    NoOpenOrbitError,
    NotTypeIError,
    RayList,
    ResultCapError,
    RootSet,
    bilateralize,
    canonical_reorder,
    center,
    demazure_roots,
    enumerate_open_orbit_subgroups,
    has_open_orbit,
    is_saturated,
    positive_roots,
    root_graph,
    saturation_closure,
    series_report,
    split_projective_lines,
    umax_shape,
    uss_shape,
    validate_ray_matrix,
    variety_type,
)
from toricroots.errors import InvariantViolation
from toricroots.groups import (
    AbelianPower,
    DirectProduct,
    Semidirect,
    TriangularBlock,
    block,
    umax_rootset,
)

from conftest import (
    SEED_100,
    incomparable_columns_matrix,
    positive_rootset,
    projective_space,
    random_ray_matrices,
)
from oracles import (
    BracketTable,
    all_pairs_root_graph,
    brute_force_open_orbit_rootsets,
    level_mask_rootsets,
    lie_series_oracle,
    literal_sum_triples,
    next_closure_positions,
    rootset_key,
)
from pin_cli import RAYS_HIGHER_RANK


def rootset(A, coords_list):
    system = demazure_roots(A)
    return RootSet.of(A, [system.find(tuple(c)) for c in coords_list])


# -- saturation --------------------------------------------------------------


def test_saturation_projective_plane_counterexample():
    A = validate_ray_matrix([[1, 1]], 2)
    ok, witness = is_saturated(rootset(A, [(-1, 1), (0, -1)]))
    assert not ok
    assert witness == ((-1, 1), (0, -1), (-1, 0))


def test_basic_roots_are_saturated(p123, f1p1):
    for A in (p123, f1p1):
        basics = [tuple(-1 if t == i else 0 for t in range(A.n)) for i in range(A.n)]
        ok, witness = is_saturated(rootset(A, basics))
        assert ok and witness is None


def test_saturation_weighted_projective_witness(p123):
    M = rootset(p123, [(-1, 0, 0), (-1, 1, 0), (0, -1, 0), (0, -1, 1), (0, 0, -1)])
    ok, witness = is_saturated(M)
    assert not ok
    assert witness == ((-1, 1, 0), (0, -1, 1), (-1, 0, 1))


def test_rootset_of_rejects_a_detached_root(p123):
    # the unit column 3 of [[3, 2, 1]] makes q3 a root on the fourth ray
    detached = [r for r in demazure_roots(p123).roots if r.kind == "detached"]
    assert [r.coords for r in detached] == [(0, 0, 1)]
    with pytest.raises(InputError, match="not in the positive roots") as err:
        RootSet.of(p123, detached)
    assert err.value.violations == ()  # the message has no leading name


def test_rootsets_compare_by_matrix_and_positions(p123):
    same = validate_ray_matrix([[3, 2, 1]], 3)
    other = projective_space(3)
    assert same is not p123
    assert RootSet(p123, (0, 1)) != RootSet(other, (0, 1))
    assert RootSet(p123, (0, 1)) == RootSet(same, (0, 1))
    assert hash(RootSet(p123, (0, 1))) == hash(RootSet(same, (0, 1)))


@pytest.mark.parametrize("positions", [(1, 0), (0, 0), (-1,), (0, True), (0.0,), [0, 1], 5])
def test_rootset_positions_must_be_increasing_non_negative_ints(p123, positions):
    with pytest.raises(InputError, match="strictly increasing non-negative ints"):
        RootSet(p123, positions)


def test_rootset_position_past_the_table_is_an_input_error(p123):
    far = RootSet(p123, (0, 10**6))  # the constructor does not read the table
    for read in (lambda: far.roots, lambda: far.coords, lambda: is_saturated(far),
                 lambda: has_open_orbit(far), lambda: series_report(far)):
        with pytest.raises(InputError, match="position 1000000 is past the positive roots"):
            read()


def test_closure_projective_plane():
    A = validate_ray_matrix([[1, 1]], 2)
    closed = saturation_closure(rootset(A, [(-1, 1), (0, -1)]))
    assert closed.coords == {(-1, 1), (0, -1), (-1, 0)}


def test_closure_fixpoint(p123):
    M = positive_rootset(p123)
    assert saturation_closure(M).coords == M.coords


def test_closure_weighted_projective(p123):
    seed = rootset(
        p123, [(-1, 1, 1), (0, -1, 1), (0, 0, -1), (0, -1, 0), (-1, 0, 0)]
    )
    closed = saturation_closure(seed)
    assert closed.coords == seed.coords | {(-1, 1, 0), (-1, 0, 1), (-1, 0, 2)}
    assert is_saturated(closed)[0]


# -- open orbit and enumeration ----------------------------------------------


def test_has_open_orbit(p123):
    basics = rootset(p123, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert has_open_orbit(basics)
    assert not has_open_orbit(rootset(p123, [(0, -1, 0), (0, 0, -1)]))
    assert has_open_orbit(positive_rootset(p123))


def test_enumeration_weighted_projective(p123):
    result = enumerate_open_orbit_subgroups(p123)
    assert result.count == 27
    assert result.histogram == (
        (3, 1), (4, 3), (5, 4), (6, 6), (7, 5), (8, 5), (9, 2), (10, 1),
    )
    # case split over the middle level
    by_level1 = {}
    for rs in result.subgroups:
        key = frozenset(r.coords for r in rs.roots if r.ray == 1)
        by_level1[key] = by_level1.get(key, 0) + 1
    assert by_level1 == {
        frozenset({(0, -1, 0)}): 11,
        frozenset({(0, -1, 0), (0, -1, 1)}): 9,
        frozenset({(0, -1, 0), (0, -1, 1), (0, -1, 2)}): 7,
    }
    for rs in result.subgroups:
        ok, _ = is_saturated(rs)
        assert ok and has_open_orbit(rs)
    # per-case dimension profiles
    profiles = {}
    for rs in result.subgroups:
        key = len([r for r in rs.roots if r.ray == 1])
        profiles.setdefault(key, {})
        profiles[key][rs.dimension] = profiles[key].get(rs.dimension, 0) + 1
    assert profiles[1] == {3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 1}
    assert profiles[2] == {4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 1}
    assert profiles[3] == {5: 1, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1}


def test_enumeration_projective_line():
    result = enumerate_open_orbit_subgroups(validate_ray_matrix([[1]], 1))
    assert result.count == 1
    assert result.subgroups[0].dimension == 1


def test_enumeration_product_surface_vs_oracle(f1p1):
    result = enumerate_open_orbit_subgroups(f1p1)
    assert [rs.dimension for rs in result.subgroups] == [3, 4]
    oracle = brute_force_open_orbit_rootsets(f1p1)
    assert [rs.coords for rs in result.subgroups] == [rs.coords for rs in oracle]


def test_enumeration_respects_cap(p123):
    with pytest.raises(ResultCapError) as err:
        enumerate_open_orbit_subgroups(p123, max_results=5)
    assert err.value.partial.complete is False
    assert err.value.partial.count == 5


def test_full_positive_set_is_enumeration_maximum(p123, f1p1):
    for A in (p123, f1p1):
        full = positive_rootset(A).coords
        sets = [rs.coords for rs in enumerate_open_orbit_subgroups(A).subgroups]
        assert full in sets
        assert all(s <= full for s in sets)


def test_enumeration_vs_oracle_random():
    checked = 0
    for A in random_ray_matrices(12, seed=8888):
        if sum(len(l) for l in positive_roots(A)) > 12:
            continue
        mine = enumerate_open_orbit_subgroups(A)
        oracle = brute_force_open_orbit_rootsets(A)
        assert [rs.coords for rs in mine.subgroups] == [rs.coords for rs in oracle]
        checked += 1
    assert checked >= 5


def coords_list(rootsets):
    return [rs.coords for rs in rootsets]


def test_enumeration_matches_both_oracles_weighted_space():
    A = validate_ray_matrix([[4, 3, 2, 1]], 4)
    mine = coords_list(enumerate_open_orbit_subgroups(A).subgroups)
    assert len(mine) == 1193
    assert mine == coords_list(level_mask_rootsets(A))
    assert mine == coords_list(brute_force_open_orbit_rootsets(A))


def test_enumeration_matches_both_oracles_rank_four_and_five():
    checked = {4: 0, 5: 0}
    for A in random_ray_matrices(60, seed=5150, max_n=5, max_rows=3, max_entry=3):
        if A.n < 4 or sum(len(l) for l in positive_roots(A)) > 18:
            continue
        mine = coords_list(enumerate_open_orbit_subgroups(A).subgroups)
        assert mine == coords_list(level_mask_rootsets(A))
        assert mine == coords_list(brute_force_open_orbit_rootsets(A))
        checked[A.n] += 1
    assert checked[4] >= 5 and checked[5] >= 5


@pytest.mark.parametrize("rows", [[[3, 2, 1]], [[2, 1, 1], [1, 1, 0]], [[1, 1, 1, 1]]])
def test_enumeration_cap_boundary(rows):
    A = validate_ray_matrix(rows, len(rows[0]))
    full = enumerate_open_orbit_subgroups(A)
    at_cap = enumerate_open_orbit_subgroups(A, max_results=full.count)
    assert at_cap.complete and at_cap.subgroups == full.subgroups
    with pytest.raises(ResultCapError) as err:
        enumerate_open_orbit_subgroups(A, max_results=full.count - 1)
    partial = err.value.partial
    assert not partial.complete and partial.count == full.count - 1
    assert len({rs.coords for rs in partial.subgroups}) == full.count - 1
    assert all(is_saturated(rs)[0] and has_open_orbit(rs) for rs in partial.subgroups)
    assert list(partial.subgroups) == sorted(partial.subgroups, key=rootset_key)


def _radiant_matrices(texts):
    """The canonical ray matrices of the ray lists ``texts`` that have a
    bilateral witness."""
    out = []
    for text in texts:
        rows = [[int(x) for x in chunk.split()] for chunk in text.split(";")]
        witness = bilateralize(RayList.validate(rows, len(rows[0])))
        if witness is not None:
            out.append(canonical_reorder(witness.matrix)[1])
    return out


def _capped(A, cap):
    """``enumerate_open_orbit_subgroups(A, cap)``, or the partial result
    its ``ResultCapError`` carries."""
    try:
        result = enumerate_open_orbit_subgroups(A, max_results=cap)
    except ResultCapError as err:
        result = err.partial
    return result.positions, result.histogram, result.complete


def test_reverse_search_matches_next_closure_with_and_without_caps():
    fans = random_ray_matrices(200, SEED_100)
    fans += [validate_ray_matrix([[k, 1, 1]], 3) for k in range(1, 9)]
    fans += _radiant_matrices(RAYS_HIGHER_RANK[:6])  # the six seeded ray lists
    partial = 0
    for A in fans:
        result = enumerate_open_orbit_subgroups(A)
        oracle = next_closure_positions(A, result.count + 1)
        assert (result.positions, result.histogram, result.complete) == oracle
        for cap in {1, 2, result.count - 1} - {0}:
            assert _capped(A, cap) == next_closure_positions(A, cap)
            partial += cap < result.count
    assert len(fans) == 200 + 8 + 3 and partial == 346


def test_series_matches_lie_oracle_on_weighted_space_sample():
    A = validate_ray_matrix([[4, 3, 2, 1]], 4)
    subgroups = enumerate_open_orbit_subgroups(A).subgroups
    for M in subgroups[::60] + subgroups[-3:]:
        lie = lie_series_oracle(M.roots, BracketTable.build(A, M.roots))
        report = series_report(M)
        assert tuple(t.coords for t in report.lower) == lie.lower
        assert tuple(t.coords for t in report.upper) == lie.upper
        assert tuple(t.coords for t in report.derived) == lie.derived


# -- shapes -------------------------------------------------------------------


def test_block_normalization():
    assert block(7, 1) == AbelianPower(6)
    assert block(4, 2) == TriangularBlock(4, 2)
    assert block(3, 2).display() == "U_3"
    with pytest.raises(InputError):
        block(2, 2)


def test_umax_shapes(p123, f1p1):
    for n in range(1, 7):
        shape = umax_shape(projective_space(n)).shape
        assert shape == block(n + 1, n)

    report = umax_shape(p123)
    assert report.shape == Semidirect(
        (AbelianPower(1), AbelianPower(3), AbelianPower(6))
    )
    assert report.shape.display() == "(G_a ⋉ G_a^3) ⋉ G_a^6"
    assert report.block_sizes == ((7, 1), (4, 1), (2, 1))

    report2 = umax_shape(f1p1)
    assert report2.shape == Semidirect(
        (AbelianPower(1), AbelianPower(1), AbelianPower(2))
    )
    assert report2.per_ray_shape == report2.shape


def test_umax_shape_with_a_partial_triangular_block():
    # U_{k,l} with 1 < l < k - 1: the column class {1, 2} of "3 3 1"
    A = validate_ray_matrix([[3, 3, 1]], 3)
    report = umax_shape(A)
    assert report.classes == ((0, 1), (2,))
    assert report.block_sizes == ((6, 2), (2, 1))
    assert report.shape == Semidirect((AbelianPower(1), TriangularBlock(6, 2)))
    assert report.shape.display() == "G_a ⋉ U_{6,2}"
    # the block's dimension, l(2k - l - 1)/2 entries above the diagonal in its
    # first l rows, is the number of positive roots on the class's two levels
    k, l = report.block_sizes[0]
    pos = positive_roots(A)
    assert [len(pos[i]) for i in report.classes[0]] == [5, 4]
    assert l * (2 * k - l - 1) // 2 == 5 + 4


def test_uss_shapes(p123, f1p1):
    for n in range(2, 7):
        assert uss_shape(projective_space(n)).shape == block(n + 1, n)
    assert uss_shape(projective_space(1)).shape == AbelianPower(1)

    # no special or elementary roots survive on levels 0 and 1; the third
    # column is a unit column, so level 2 is semisimple and contributes U_2.
    report = uss_shape(p123)
    assert report.shape == DirectProduct(
        (AbelianPower(0), AbelianPower(0), AbelianPower(1))
    )
    assert report.simple_components == 1

    report2 = uss_shape(f1p1)
    assert report2.shape == DirectProduct(
        (AbelianPower(0), AbelianPower(1), AbelianPower(1))
    )
    assert report2.simple_components == 2


# -- center, graph, series ----------------------------------------------------


def test_center_examples(p123, f1p1):
    assert center(positive_rootset(p123)).indices == (0,)
    assert center(positive_rootset(f1p1)).indices == (0, 2)
    basics = rootset(p123, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    report = center(basics)
    assert report.indices == (0, 1, 2)
    assert report.roots.coords == basics.coords


def test_center_requires_open_orbit(p123):
    M = rootset(p123, [(0, -1, 0), (0, 0, -1)])
    with pytest.raises(NoOpenOrbitError):
        center(M)


def test_root_graph_weighted_projective(p123):
    M = positive_rootset(p123)
    graph = root_graph(M)
    assert len(graph.vertices) == 10
    inner = {(a.source.coords, a.target.coords) for a in graph.arrows if a.inner}
    outer = {(a.source.coords, a.target.coords) for a in graph.arrows if not a.inner}
    assert len(inner) == 12 and len(outer) == 12
    # transcription of the full arrow set of the root graph
    assert inner == {
        ((0, -1, 1), (0, -1, 0)), ((0, -1, 2), (0, -1, 1)),
        ((-1, 0, 3), (-1, 0, 2)), ((-1, 0, 2), (-1, 0, 1)),
        ((-1, 0, 1), (-1, 0, 0)), ((-1, 1, 1), (-1, 1, 0)),
        ((-1, 1, 1), (-1, 0, 3)), ((-1, 1, 1), (-1, 0, 2)),
        ((-1, 1, 1), (-1, 0, 1)), ((-1, 1, 0), (-1, 0, 2)),
        ((-1, 1, 0), (-1, 0, 1)), ((-1, 1, 0), (-1, 0, 0)),
    }
    assert outer == {
        ((0, 0, -1), (0, -1, 0)), ((0, 0, -1), (0, -1, 1)),
        ((0, 0, -1), (-1, 0, 2)), ((0, 0, -1), (-1, 0, 1)),
        ((0, 0, -1), (-1, 0, 0)), ((0, 0, -1), (-1, 1, 0)),
        ((0, -1, 2), (-1, 0, 3)), ((0, -1, 1), (-1, 0, 2)),
        ((0, -1, 0), (-1, 0, 1)), ((0, -1, 2), (-1, 0, 2)),
        ((0, -1, 1), (-1, 0, 1)), ((0, -1, 0), (-1, 0, 0)),
    }


def test_root_graph_basics_only(p123):
    basics = rootset(p123, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert root_graph(basics).arrows == ()


def _sum_relation_matrices():
    """Seeded canonical matrices of rank 2-5, then root-heavy fans."""
    seeded = random_ray_matrices(40, SEED_100, max_n=5, max_rows=3, max_entry=3)
    heavy = [([[5, 1, 1]], 3), ([[20, 1, 1]], 3), ([[12, 7, 1]], 3), ([[20, 9, 4, 2, 1]], 5)]
    return [A for A in seeded if A.n >= 2] + [validate_ray_matrix(r, n) for r, n in heavy]


def test_sum_triples_match_the_literal_relation():
    for A in _sum_relation_matrices():
        table = demazure_roots(A)
        expected = [[] for _ in table.positive]
        for a, b, s in literal_sum_triples(A):
            x, y, k = (table.position[c] for c in (a, b, s))
            expected[x].append((y, k))
            expected[y].append((x, k))
        assert table.partners == tuple(map(tuple, expected)), A.rows


def test_one_root_table_per_matrix(p123):
    """The positive levels live in the table ``demazure_roots`` caches, so
    clearing that cache rebuilds them."""
    before = positive_roots(p123)
    assert positive_roots(p123) is before
    demazure_roots.cache_clear()
    after = positive_roots(p123)
    assert after == before and after[0] is not before[0]
    assert positive_roots(p123) is after is demazure_roots(p123).levels


def test_table_numbering_agrees_with_the_positive_levels():
    for A in _sum_relation_matrices():
        flat = [r for level in positive_roots(A) for r in level]
        table = demazure_roots(A)
        assert list(table.positive) == flat == sorted(flat), A.rows
        assert table.position == {r.coords: k for k, r in enumerate(flat)}, A.rows
        assert table.basics == sum(1 << k for k, r in enumerate(flat) if r.kind == "basic")
        assert bin(table.basics).count("1") == A.n


def test_root_graph_matches_the_all_pairs_oracle():
    """On U_max and on the first enumerated (saturated, proper) subgroups."""
    for A in _sum_relation_matrices():
        try:
            subgroups = enumerate_open_orbit_subgroups(A, max_results=6).subgroups
        except ResultCapError as err:
            subgroups = err.partial.subgroups
        for M in (umax_rootset(A),) + subgroups:
            got, want = root_graph(M), all_pairs_root_graph(M)
            assert got.vertices == want.vertices
            assert all(a.target < a.source for a in got.arrows)  # a sum sorts below
            assert [(a.source.coords, a.target.coords, a.label.coords) for a in got.arrows] == [
                (a.source.coords, a.target.coords, a.label.coords) for a in want.arrows
            ], (A.rows, M.dimension)


def test_an_arrow_up_the_table_is_an_invariant_violation(p123, monkeypatch):
    """The series read position order as the graph's topological order, so
    a sum planted above its summands must be caught, not read."""
    table = demazure_roots(p123)
    planted = (((1, 2),),) + ((),) * (len(table.positive) - 1)  # roots 0 + 1 = root 2
    monkeypatch.setitem(vars(table), "partners", planted)
    try:
        for build in (root_graph, series_report):
            with pytest.raises(InvariantViolation, match="arrow up the table"):
                build(umax_rootset(p123))
    finally:
        demazure_roots.cache_clear()


def test_series_weighted_projective(p123):
    report = series_report(positive_rootset(p123))
    assert report.longest_path == 4
    assert report.nilpotency_class == 5
    assert report.derived_length == 3
    derived_sets = [t.coords for t in report.derived]
    assert derived_sets[1] == {
        (0, -1, 0), (0, -1, 1),
        (-1, 0, 0), (-1, 1, 0), (-1, 0, 1), (-1, 0, 2), (-1, 0, 3),
    }
    assert derived_sets[2] == {(-1, 0, 0), (-1, 0, 1)}
    assert derived_sets[3] == set()
    # the 7-vertex derived root set carries exactly 4 arrows
    second = report.derived[1]
    assert len(root_graph(second).arrows) == 4
    assert report.center_indices == (0,)


def test_series_terms_are_root_sets_over_the_matrix_of_the_set(p123):
    # a proper subgroup, so the terms' positions are positions in the root
    # table, not indices into the set
    M = rootset(p123, [(-1, 0, 0), (-1, 0, 1), (-1, 1, 0), (0, -1, 0), (0, -1, 1), (0, 0, -1)])
    assert is_saturated(M)[0] and M.dimension < positive_rootset(p123).dimension
    report = series_report(M)
    assert report.lower[1].dimension > 0
    for term in report.lower + report.upper + report.derived:
        assert term.matrix is M.matrix and term == RootSet(M.matrix, term.positions)
        assert set(term.positions) <= set(M.positions) and term.coords <= M.coords


def test_series_commutative(p123):
    basics = rootset(p123, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    report = series_report(basics)
    assert report.nilpotency_class == 1 and report.derived_length == 1
    assert report.lower[0].coords == basics.coords and report.lower[1].coords == set()


def test_series_upper_equals_lie_truth_on_width_two_level():
    # level widths (3, 1): the path-based descent sets agree with the exact
    # Lie-theoretic upper central series (also cross-checked in the property
    # battery); the middle term is {-q1, -q1+q2}
    A = validate_ray_matrix([[2, 1]], 2)
    report = series_report(positive_rootset(A))
    assert [t.coords for t in report.lower] == [
        {(-1, 0), (-1, 1), (-1, 2), (0, -1)},
        {(-1, 0), (-1, 1)},
        {(-1, 0)},
        set(),
    ]
    assert [t.coords for t in report.upper] == [
        set(),
        {(-1, 0)},
        {(-1, 0), (-1, 1)},
        {(-1, 0), (-1, 1), (-1, 2), (0, -1)},
    ]
    assert report.nilpotency_class == 3


def test_series_upper_and_lower_can_differ():
    # genuinely different central series: the level-two basic root commutes
    # with everything it can reach, so it enters the first upper term but
    # is never an arrow target
    A = validate_ray_matrix([[3, 3, 1]], 3)
    M = rootset(A, [(-1, 0, 0), (-1, 0, 1), (0, -1, 0), (0, 0, -1)])
    assert is_saturated(M)[0]
    report = series_report(M)
    assert [t.coords for t in report.lower] == [
        M.coords, frozenset({(-1, 0, 0)}), frozenset(),
    ]
    assert [t.coords for t in report.upper] == [
        frozenset(), frozenset({(-1, 0, 0), (0, -1, 0)}), M.coords,
    ]
    # the upper series middle term is the center, per the pairing formula
    assert center(M).roots.coords == {(-1, 0, 0), (0, -1, 0)}
    # and the literal Lie computation agrees with both series
    table = BracketTable.build(A, M.roots)
    lie = lie_series_oracle(M.roots, table)
    assert tuple(t.coords for t in report.lower) == lie.lower
    assert tuple(t.coords for t in report.upper) == lie.upper


# -- type and splitting -------------------------------------------------------


def test_variety_type(p123):
    assert variety_type(incomparable_columns_matrix(3)) == "I"
    assert variety_type(p123) == "II"
    identity2 = validate_ray_matrix([[1, 0], [0, 1]], 2)
    assert variety_type(identity2) == "I"


def test_variety_type_stops_at_the_first_sum_triple(p123):
    # Type II is decided without building the whole sum relation
    demazure_roots.cache_clear()
    assert variety_type(p123) == "II"
    assert "partners" not in vars(demazure_roots(p123))


def test_incomparable_matrix_has_unique_subgroup():
    A = incomparable_columns_matrix(3)
    result = enumerate_open_orbit_subgroups(A)
    assert result.count == 1
    assert result.subgroups[0].coords == {
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    }


def test_split_product_of_lines():
    A = validate_ray_matrix([[1, 0], [0, 1]], 2)
    report = split_projective_lines(A)
    assert report.b == 2 and report.remaining is None


def test_split_incomparable_matrix():
    A = incomparable_columns_matrix(3)
    report = split_projective_lines(A)
    assert report.b == 0 and report.remaining == A


def test_split_unit_columns_with_shared_row():
    # both columns are unit vectors but the third row stops them from
    # matching a unit row, so nothing splits off
    A = validate_ray_matrix([[1, 0], [0, 1], [1, 1]], 2)
    assert variety_type(A) == "I"
    report = split_projective_lines(A)
    assert report.b == 0 and report.remaining == A


def test_split_mixed():
    # first column and first row form a unit pair; the complement is the
    # 2-column incomparable block
    A = validate_ray_matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]], 3)
    assert variety_type(A) == "I"
    report = split_projective_lines(A)
    assert report.b == 1
    assert report.removed_columns == (0,) and report.removed_rows == (0,)
    assert report.remaining.rows == ((0, 1), (1, 0), (1, 1))
    # splitting again finds nothing: the complement has no detached roots
    again = split_projective_lines(report.remaining)
    assert again.b == 0 and again.remaining == report.remaining


def test_split_rejects_type_two(p123):
    with pytest.raises(NotTypeIError):
        split_projective_lines(p123)


def test_split_single_line():
    A = validate_ray_matrix([[1]], 1)
    report = split_projective_lines(A)
    assert report.b == 1 and report.remaining is None
