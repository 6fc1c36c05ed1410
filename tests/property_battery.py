"""Invariant battery run over fixture and randomly generated ray matrices.

Each check asserts one structural property of the root system or of the
root graphs of saturated subsets; the acceptance suite runs the whole
battery over 100 random matrices.
"""

from toricroots import (
    RootSet,
    demazure_roots,
    enumerate_open_orbit_subgroups,
    positive_roots,
    series_report,
)
from toricroots.groups import root_graph
from toricroots.roots import KIND_ELEMENTARY, column_preorder

from conftest import inner_subgraph, rootset_levels
from oracles import BracketTable, box_scan_roots, lie_center, lie_series_oracle

ENUM_ORACLE_LIMIT = 14  # brute-force subset filtering is feasible up to here
SAMPLED_SUBGROUPS = 20  # graph invariants checked on this many enumerated sets


def check_root_definitions(A):
    """Soundness and completeness of the root enumeration."""
    system = demazure_roots(A)
    listed = {(r.ray, r.coords) for r in system.roots}
    assert listed == box_scan_roots(A)
    for r in system.roots:
        pairings = A.pairings(r.coords)
        assert pairings[r.ray] == -1
        assert all(v >= 0 for l, v in enumerate(pairings) if l != r.ray)
        assert r.semisimple == (system.find(tuple(-x for x in r.coords)) is not None)


def check_elementary_presence(A):
    """A level larger than its basic root contains an elementary root, and a
    positive pairing <e, p_j> forces the elementary root toward j."""
    system = demazure_roots(A)
    for i in range(A.n):
        level = system.by_ray[i]
        if len(level) > 1:
            assert any(r.kind == KIND_ELEMENTARY for r in level)
        for r in level:
            for j in range(A.n):
                if j != i and r.coords[j] > 0:
                    elem = tuple(
                        -1 if t == i else (1 if t == j else 0) for t in range(A.n)
                    )
                    assert system.find(elem) is not None


def check_semisimple_level_criterion(A):
    """q_i is a root exactly when every root on level i is semisimple."""
    system = demazure_roots(A)
    for i in range(A.n):
        unit = tuple(1 if t == i else 0 for t in range(A.n))
        has_unit = system.find(unit) is not None
        assert has_unit == all(r.semisimple for r in system.by_ray[i])


def check_elementary_vs_dominance(A):
    """The elementary root -q_i + q_j exists exactly when column i dominates
    column j entrywise."""
    system = demazure_roots(A)
    pre = column_preorder(A)
    for i in range(A.n):
        for j in range(A.n):
            if i == j:
                continue
            elem = tuple(-1 if t == i else (1 if t == j else 0) for t in range(A.n))
            assert (system.find(elem) is not None) == pre.geq[i][j]
            root = system.find(elem)
            if root is not None and root.semisimple:
                assert pre.geq[i][j] and pre.geq[j][i]


def check_class_translation_bijection(A):
    """For equal columns i ~ j the shift e -> e - q_i + q_j maps the level of
    j (minus one elementary root) onto the level of i (minus its mirror)."""
    system = demazure_roots(A)
    pre = column_preorder(A)
    for i in range(A.n):
        for j in range(A.n):
            if i == j or not (pre.geq[i][j] and pre.geq[j][i]):
                continue
            mirror_ji = tuple(-1 if t == j else (1 if t == i else 0) for t in range(A.n))
            mirror_ij = tuple(-1 if t == i else (1 if t == j else 0) for t in range(A.n))
            source = {r.coords for r in system.by_ray[j]} - {mirror_ji}
            target = {r.coords for r in system.by_ray[i]} - {mirror_ij}
            shifted = set()
            for e in source:
                moved = list(e)
                moved[i] -= 1
                moved[j] += 1
                shifted.add(tuple(moved))
            assert shifted == target


def check_unipotent_support(A):
    """In canonical order a unipotent root on level i has zero coordinates
    below i."""
    system = demazure_roots(A)
    for i in range(A.n):
        for r in system.by_ray[i]:
            if not r.semisimple:
                assert all(c == 0 for c in r.coords[:i])


def check_jacobi(A):
    M = [r for level in positive_roots(A) for r in level]
    table = BracketTable.build(A, M)
    assert table.verify_antisymmetry()
    assert table.verify_jacobi()


def _sample_saturated_sets(A):
    pos = positive_roots(A)
    sets = [RootSet.of(A, [r for level in pos for r in level])]
    total = sum(len(level) for level in pos)
    if total <= ENUM_ORACLE_LIMIT:
        enumerated = enumerate_open_orbit_subgroups(A).subgroups
        step = max(1, len(enumerated) // SAMPLED_SUBGROUPS)
        sets.extend(enumerated[::step])
    return sets


def check_inner_outer_swap(A):
    """An inner arrow followed by an outer one can be reordered: outer first,
    inner second, through some intermediate vertex."""
    for M in _sample_saturated_sets(A):
        graph = root_graph(M)
        by_source = {}
        for arrow in graph.arrows:
            by_source.setdefault(arrow.source.coords, []).append(arrow)
        for first in graph.arrows:
            if not first.inner:
                continue
            for second in by_source.get(first.target.coords, ()):
                if second.inner:
                    continue
                found = any(
                    not alt.inner
                    and any(
                        inner.inner and inner.target == second.target
                        for inner in by_source.get(alt.target.coords, ())
                    )
                    for alt in by_source.get(first.source.coords, ())
                )
                assert found, (first, second)


def _path_length_sets(vertices, arrows):
    incoming = {v.coords: [] for v in vertices}
    for a in arrows:
        incoming[a.target.coords].append(a.source.coords)
    lengths = {v.coords: {0} for v in vertices}
    changed = True
    while changed:
        changed = False
        for v in vertices:
            for src in incoming[v.coords]:
                extended = {l + 1 for l in lengths[src]}
                if not extended <= lengths[v.coords]:
                    lengths[v.coords] |= extended
                    changed = True
    return lengths


def check_inner_paths_realize_all_lengths(A):
    """Every path length reaching a vertex is realized by an all-inner path,
    so ascent sets computed on the inner subgraph match the full graph."""
    for M in _sample_saturated_sets(A):
        graph = root_graph(M)
        inner = inner_subgraph(graph)
        full_lengths = _path_length_sets(graph.vertices, graph.arrows)
        inner_lengths = _path_length_sets(inner.vertices, inner.arrows)
        for v in graph.vertices:
            assert full_lengths[v.coords] == inner_lengths[v.coords]


def check_class_bounded_by_level_size(A):
    """Nilpotency class never exceeds the largest level of the root set."""
    for M in _sample_saturated_sets(A):
        report = series_report(M)
        assert report.nilpotency_class <= max(len(level) for level in rootset_levels(M))


def check_series_against_lie_oracle(A):
    for M in _sample_saturated_sets(A):
        table = BracketTable.build(A, M.roots)
        lie = lie_series_oracle(M.roots, table)
        report = series_report(M)
        assert tuple(t.coords for t in report.lower) == lie.lower
        assert tuple(t.coords for t in report.upper) == lie.upper
        assert tuple(t.coords for t in report.derived) == lie.derived


def check_center_against_lie_oracle(A):
    from toricroots import center

    for M in _sample_saturated_sets(A):
        table = BracketTable.build(A, M.roots)
        oracle = lie_center(M.roots, table)
        report = center(M)
        assert {r.coords for r in report.roots.roots} == {
            r.coords for r in oracle.center
        }
        assert oracle.kernel_dimension == len(oracle.center)


ROOT_CHECKS = (
    check_root_definitions,
    check_elementary_presence,
    check_semisimple_level_criterion,
    check_elementary_vs_dominance,
    check_class_translation_bijection,
    check_unipotent_support,
)

GRAPH_CHECKS = (
    check_jacobi,
    check_inner_outer_swap,
    check_inner_paths_realize_all_lengths,
    check_class_bounded_by_level_size,
)


def run_property_suite(A):
    """The acceptance battery: root-system and graph invariants."""
    for check in ROOT_CHECKS + GRAPH_CHECKS:
        check(A)
