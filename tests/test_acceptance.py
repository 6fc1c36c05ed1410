"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (visible with ``pytest -s``).  All expectations are exact; the
stated time budgets are asserted."""

import json
import time
from functools import lru_cache

import pytest

import property_battery as battery
from conftest import (
    SEED_20,
    SEED_100,
    incomparable_columns_matrix,
    positive_rootset,
    projective_space,
    random_ray_list,
    random_ray_matrices,
)
from oracles import (
    BracketTable,
    box_scan_roots,
    brute_force_open_orbit_rootsets,
    lie_center,
    lie_series_oracle,
    literal_sum_triples,
    stdlib_json,
    subset_bilateral_witness,
)

from toricroots import (
    ResultCapError,
    bilateralize,
    center,
    cli,
    demazure_roots,
    enumerate_open_orbit_subgroups,
    enumerate_smooth_surfaces,
    is_radiant_sequence,
    positive_roots,
    sequence_to_rays,
    series_report,
    umax_shape,
    validate_ray_matrix,
    variety_type,
)
from toricroots.coxaction import (
    product,
    ring_for,
    root_automorphism,
    verify_all,
    verify_conjugation,
)
from toricroots.groups import block, umax_rootset
from toricroots.roots import column_preorder


def p123_matrix():
    return validate_ray_matrix([[3, 2, 1]], 3)


def f1p1_matrix():
    return validate_ray_matrix([[1, 1, 0], [1, 0, 0], [0, 0, 1]], 3)


@lru_cache(maxsize=1)
def shared_random_20():
    return tuple(random_ray_matrices(20, SEED_20, max_n=4, max_rows=3, max_entry=3))


class Timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.budget, (
                f"budget {self.budget}s exceeded: {self.elapsed:.2f}s"
            )
        return False


def report(number, timer, text):
    print(f"PASS criterion {number:2d} ({timer.elapsed:6.2f}s): {text}")


def test_criterion_01_weighted_projective_root_sets():
    with Timer(1.0) as t:
        pos = positive_roots(p123_matrix())
        assert {r.coords for r in pos[2]} == {(0, 0, -1)}
        assert {r.coords for r in pos[1]} == {(0, -1, 0), (0, -1, 1), (0, -1, 2)}
        assert {r.coords for r in pos[0]} == {
            (-1, 0, 0), (-1, 1, 0), (-1, 1, 1),
            (-1, 0, 1), (-1, 0, 2), (-1, 0, 3),
        }
    report(1, t, "positive root sets of the (1,2,3) weighted plane")


def test_criterion_02_twenty_seven_subgroups():
    with Timer(1.0) as t:
        result = enumerate_open_orbit_subgroups(p123_matrix())
        assert result.count == 27
        cases = {}
        for rs in result.subgroups:
            key = tuple(sorted(r.coords for r in rs.roots if r.ray == 1))
            cases[key] = cases.get(key, 0) + 1
        assert cases == {
            ((0, -1, 0),): 11,
            ((0, -1, 0), (0, -1, 1)): 9,
            ((0, -1, 0), (0, -1, 1), (0, -1, 2)): 7,
        }
    report(2, t, "27 open-orbit subgroups with case split 11/9/7")


def test_criterion_03_nilpotency_and_derived_length():
    with Timer(1.0) as t:
        M = positive_rootset(p123_matrix())
        rep = series_report(M)
        assert rep.longest_path == 4
        assert rep.nilpotency_class == 5
        assert rep.derived_length == 3
    report(3, t, "class 5, derived length 3, longest path 4")


def test_criterion_04_product_surface_full_root_lists():
    with Timer(1.0) as t:
        system = demazure_roots(f1p1_matrix())
        expected = [
            {(-1, 0, 0), (-1, 1, 0)},
            {(0, -1, 0)},
            {(0, 0, -1)},
            {(0, 1, 0)},
            set(),
            {(0, 0, 1)},
        ]
        assert [
            {r.coords for r in level} for level in system.by_ray
        ] == expected
        detached = {r.coords for r in system.roots if r.kind == "detached"}
        assert detached == {(0, 1, 0), (0, 0, 1)}
    report(4, t, "full root lists of the product surface, empty fifth level")


def test_criterion_05_projective_spaces():
    with Timer(5.0) as t:
        for n in range(1, 7):
            A = projective_space(n)
            rep = umax_shape(A)
            assert rep.shape == block(n + 1, n)
            assert len(positive_roots(A)[0]) == n
    report(5, t, "projective spaces give the single triangular block")


def test_criterion_06_plane_commutator_identity():
    with Timer(1.0) as t:
        A = validate_ray_matrix([[1, 1]], 2)
        ring = ring_for(A)
        a = ring.param("a")
        system = demazure_roots(A)
        u1 = lambda v: root_automorphism(A, system.find((-1, 1)), v, ring)
        u2 = lambda v: root_automorphism(A, system.find((0, -1)), v, ring)
        word = product([u1(a), u2(1), u1(-a), u2(-1)])
        assert word == root_automorphism(A, system.find((-1, 0)), a, ring)
    report(6, t, "plane commutator equals the third root subgroup, symbolically")


def test_criterion_07_conjugation_identity_everywhere():
    with Timer(30.0) as t:
        matrices = [p123_matrix(), f1p1_matrix(), *shared_random_20()]
        pairs = 0
        for A in matrices:
            ring = ring_for(A)
            pos = [r for level in positive_roots(A) for r in level]
            for e in pos:
                for f in pos:
                    if e.ray < f.ray and e.coords[f.ray] <= 4:
                        assert verify_conjugation(A, e, f, ring=ring)
                        pairs += 1
        assert pairs > 0
    report(7, t, f"conjugation identity on {pairs} positive-root pairs")


def test_criterion_08_oracle_equivalences():
    with Timer(120.0) as t:
        enum_checked = 0
        for A in shared_random_20():
            system = demazure_roots(A)
            assert {(r.ray, r.coords) for r in system.roots} == box_scan_roots(A)

            pos_sets = [positive_rootset(A)]
            if sum(len(level) for level in positive_roots(A)) <= 14:
                mine = enumerate_open_orbit_subgroups(A).subgroups
                oracle = brute_force_open_orbit_rootsets(A)
                assert [m.coords for m in mine] == [o.coords for o in oracle]
                pos_sets.extend(mine)
                enum_checked += 1
            for M in pos_sets:
                table = BracketTable.build(A, M.roots)
                lie = lie_series_oracle(M.roots, table)
                rep = series_report(M)
                assert tuple(s.coords for s in rep.lower) == lie.lower
                assert tuple(s.coords for s in rep.upper) == lie.upper
                assert tuple(s.coords for s in rep.derived) == lie.derived
                oracle_center = lie_center(M.roots, table)
                formula = center(M, A)
                assert {r.coords for r in formula.roots.roots} == {
                    r.coords for r in oracle_center.center
                }
                assert oracle_center.kernel_dimension == len(oracle_center.center)
        assert enum_checked > 0
    report(8, t, f"oracle equivalences on 20 random matrices "
                 f"({enum_checked} with full enumeration cross-check)")


def test_criterion_09_surfaces():
    with Timer(60.0) as t:
        triangle_only = enumerate_smooth_surfaces(3)
        assert [s.c for s in triangle_only] == [(-1, -1, -1)]
        assert all(is_radiant_sequence(s) for s in enumerate_smooth_surfaces(5))
        six = enumerate_smooth_surfaces(6)
        assert any(
            s.canonical() == (1, 1, 1, 1, 1, 1) and not is_radiant_sequence(s)
            for s in six
        )
        checked = 0
        for s in enumerate_smooth_surfaces(8, max_q=8):
            rays = sequence_to_rays(s)
            assert (bilateralize(rays) is not None) == is_radiant_sequence(s)
            checked += 1
        assert checked > 100
    report(9, t, f"surface radiance criteria agree on {checked} sequences")


def test_criterion_10_incomparable_fan():
    with Timer(1.0) as t:
        A = incomparable_columns_matrix(3)
        pre = column_preorder(A)
        assert all(
            not pre.comparable(i, j) for i in range(3) for j in range(3) if i != j
        )
        assert variety_type(A) == "I"
        result = enumerate_open_orbit_subgroups(A)
        assert result.count == 1
        assert result.subgroups[0].coords == {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    report(10, t, "incomparable-columns fan: Type I, unique subgroup")


def test_criterion_11_property_suite():
    with Timer(120.0) as t:
        fixtures = [
            p123_matrix(),
            f1p1_matrix(),
            incomparable_columns_matrix(3),
            *[projective_space(n) for n in range(1, 5)],
        ]
        matrices = fixtures + random_ray_matrices(
            100, SEED_100, max_n=4, max_rows=4, max_entry=4
        )
        for A in matrices:
            battery.run_property_suite(A)
    report(11, t, f"property battery over {len(matrices)} matrices")


def test_criterion_12_root_search_is_output_sensitive():
    with Timer(1.0) as t:
        system = demazure_roots(validate_ray_matrix([[12, 8, 6, 4, 3, 2, 1]], 7))
        assert len(system.roots) == 301
    report(12, t, "301 roots of the (1,2,3,4,6,8,12) weighted space")


def test_criterion_13_enumeration_cap_bounds_the_work():
    A = validate_ray_matrix([[5, 4, 3, 2, 1]], 5)
    with Timer(3.0) as t:
        with pytest.raises(ResultCapError) as err:
            enumerate_open_orbit_subgroups(A, max_results=10_000)
    partial = err.value.partial
    assert partial.count == 10_000 and not partial.complete
    sets = {rs.coords for rs in partial.subgroups}
    assert len(sets) == 10_000
    basics = {tuple(-1 if j == i else 0 for j in range(5)) for i in range(5)}
    triples = literal_sum_triples(A)
    for coords in sets:
        assert basics <= coords
        assert all(s in coords for a, b, s in triples if a in coords and b in coords)
    report(13, t, "10 000 distinct saturated subgroups of P(1,2,3,4,5) up to the cap")


def test_criterion_14_symbolic_battery_is_lean():
    A = validate_ray_matrix([[5, 3, 2, 1]], 4)
    with Timer(1.0) as t:
        checks = verify_all(A)
    assert all(c.ok for c in checks)
    assert tuple(c.cases for c in checks) == (26, 187, 187, 4)
    report(14, t, "every symbolic identity of P(1,2,3,5) verified")


def test_criterion_15_bilateral_search_is_facet_sized(capsys):
    rays = random_ray_list(4, 44, seed=3)
    with Timer(1.5) as t:
        found = bilateralize(rays)
    expected = subset_bilateral_witness(rays)  # about 2 s on its own
    assert found.basis_indices == expected.basis_indices
    assert found.ray_order == expected.ray_order
    assert found.matrix == expected.matrix
    # C(50, 5) > 2 000 000 subsets: a subset search with that cap refused it
    wide = random_ray_list(5, 50, seed=3)
    text = "; ".join(" ".join(map(str, r)) for r in wide.rays)
    assert cli.main(["bilateral", f"--rays={text}"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and '"bilateral": true' in out.out
    report(15, t, "rank-4 fan with 44 rays: the subset oracle's witness")


def test_criterion_16_large_output_is_written_fast(capsys):
    with Timer(1.0) as t:
        code = cli.main(["enumerate", "--histogram", "--ray-matrix", "4 3 2 1"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    doc = json.loads(out.out)
    assert doc["count"] == len(doc["subgroups"]) == 1193
    assert out.out == stdlib_json(doc) + "\n"
    report(16, t, f"1193 subgroups of P(1,2,3,4): {len(out.out)} bytes of JSON")


def test_criterion_17_type_reads_one_level_scanned_relation():
    A = validate_ray_matrix([[120, 1, 1]], 3)
    positive_roots(A)  # root building is not what this budget times
    with Timer(0.5) as t:
        assert variety_type(A) == "II"
    report(17, t, "type of [[120,1,1]] (7384 positive roots), roots built")


def test_criterion_18_series_reads_one_level_scanned_relation():
    A = validate_ray_matrix([[60, 1, 1]], 3)
    positive_roots(A)
    with Timer(0.5) as t:
        rep = series_report(umax_rootset(A))
    assert (rep.nilpotency_class, rep.derived_length, len(rep.derived)) == (121, 3, 4)
    report(18, t, "series of [[60,1,1]] (1894 positive roots), roots built")


def test_criterion_19_symbolic_battery_uses_packed_monomials():
    A = validate_ray_matrix([[30, 20, 10, 1]], 4)
    positive_roots(A)
    with Timer(2.0) as t:
        checks = verify_all(A)
    assert tuple((c.cases, c.ok) for c in checks) == (
        (121, True), (3827, True), (3827, True), (4, True)
    )
    report(19, t, "every symbolic identity of P(1,10,20,30) verified")


def test_criterion_20_enumeration_work_is_bounded_by_the_cap():
    for k, cap, budget in ((25, 1000, 0.5), (60, 2000, 3.0)):
        A = validate_ray_matrix([[k, 1, 1]], 3)
        positive_roots(A)
        with Timer(budget) as t:
            with pytest.raises(ResultCapError) as err:
                enumerate_open_orbit_subgroups(A, max_results=cap)
        partial = err.value.partial
        assert partial.count == cap and not partial.complete
        sets = {rs.coords for rs in partial.subgroups}
        assert len(sets) == cap
        basics = {r.coords for level in positive_roots(A) for r in level if r.kind == "basic"}
        triples = literal_sum_triples(A)
        for coords in sets:
            assert basics <= coords
            assert all(s in coords for a, b, s in triples if a in coords and b in coords)
        report(20, t, f"{cap} distinct saturated subgroups of [[{k},1,1]] up to the cap")
