"""Independent checks of each analysis's output.

Every check recomputes what it compares against with the benchmark's own
arithmetic in ``fans`` (or, for a seeded sample, with the brute-force subset
oracle in ``tests/oracles.py``), never with the program's own code paths.
A checker takes the analysis and the ``[exit code, stdout, stderr]`` of each
of its commands, and raises ``Mismatch`` on the first disagreement.
"""

from __future__ import annotations

import json
from collections import Counter

import networkx as nx

import fans


class Mismatch(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _payload(result, command):
    code, stdout, stderr = result
    expect(code == 0, f"{command}: exit {code}: {stderr.strip()[:200]}")
    return json.loads(stdout)


def _canonical_matrix(analysis, payload):
    """The reported canonical matrix, after checking it is the input under
    the reported column permutation and meets the canonical condition."""
    rows = payload["ray_matrix"]
    perm = [p - 1 for p in payload["column_permutation"]]
    expect(sorted(perm) == list(range(len(perm))), "column_permutation is not a permutation")
    expect(
        rows == [[r[j] for j in perm] for r in analysis.rows],
        "ray_matrix is not the input under column_permutation",
    )
    expect(fans.is_canonical(rows), "reported order is not canonical")
    return rows


def longest_root_path(roots):
    """Longest path in the root graph: an arrow ``a -> b`` whenever
    ``b - a`` is itself one of the roots."""
    members = set(roots)
    graph = nx.DiGraph()
    graph.add_nodes_from(roots)
    graph.add_edges_from(
        (a, b) for a in roots for b in roots if tuple(y - x for x, y in zip(a, b)) in members
    )
    return nx.dag_longest_path_length(graph)


def _check_center(rows, payload):
    expect(
        [i - 1 for i in payload["center_indices"]] == fans.maximal_class_leaders(rows),
        "center indices are not the least members of the maximal column classes",
    )


def check_wide_entries(analysis, results):
    roots_out, umax_out, center_out = (_payload(r, c[0]) for r, c in zip(results, analysis.commands))
    rows = _canonical_matrix(analysis, roots_out)
    n = len(rows[0])
    emitted = {}
    for root in roots_out["roots"]:
        ray = root["ray"] - 1
        expect(
            fans.literal_root_ray(rows, root["coords"]) == ray,
            f"{root['coords']} is not a root on ray {ray + 1}",
        )
        emitted.setdefault(ray, set()).add(tuple(root["coords"]))
    expect(roots_out["count"] == len(roots_out["roots"]), "count disagrees with the root list")
    for i in range(n):
        own = fans.basis_level_roots(rows, i)
        expect(len(own) == len(emitted.get(i, ())), f"level {i + 1}: {len(emitted.get(i, ()))} roots, expected {len(own)}")
        expect(set(own) == emitted.get(i, set()), f"level {i + 1}: root set differs")
    cols = fans.columns(rows)
    detached = {
        (n + col.index(1), tuple(int(j == i) for j in range(n)))
        for i, col in enumerate(cols)
        if sum(col) == 1
    }
    expect({(r, e) for r, s in emitted.items() if r >= n for e in s} == detached, "detached roots differ")
    positive = [sorted(level) for level in fans.positive_levels(rows)]
    reported = [sorted(tuple(e) for e in level) for level in roots_out["positive_by_ray"]]
    expect(reported == positive, "positive roots are not the roots supported above their level")
    expect(roots_out["positive_count"] == sum(map(len, positive)), "positive_count is wrong")
    expect(umax_out["ray_matrix"] == rows and center_out["ray_matrix"] == rows, "commands disagree on the matrix")
    expect(
        [tuple(kl) for kl in umax_out["block_sizes"]]
        == [(len(positive[cls[0] - 1]) + 1, len(cls)) for cls in umax_out["classes"]],
        "U_max block sizes disagree with the positive roots",
    )
    _check_center(rows, center_out)


def check_wide_levels(analysis, results, oracle=None):
    enum_out, series_out, center_out = (_payload(r, c[0]) for r, c in zip(results, analysis.commands))
    rows = _canonical_matrix(analysis, enum_out)
    n = len(rows[0])
    levels = fans.positive_levels(rows)
    flat = [e for level in levels for e in level]
    index = {e: k for k, e in enumerate(flat)}
    needs = {}
    for a, b, s in fans.saturation_triples(rows, levels):
        needs.setdefault(a, []).append((b, s))
    basics = {index[tuple(-int(j == i) for j in range(n))] for i in range(n)}
    seen = set()
    for sub in enum_out["subgroups"]:
        coords = [tuple(e) for e in sub["roots"]]
        expect(all(e in index for e in coords), "a subgroup holds a non-positive root")
        members = frozenset(index[e] for e in coords)
        expect(len(members) == len(coords) == sub["dimension"], "subgroup dimension is wrong")
        expect(basics <= members, f"subgroup {coords} misses a basic root")
        expect(
            all(s in members for a in members for b, s in needs.get(a, ()) if b in members),
            f"subgroup {coords} is not saturated",
        )
        expect(members not in seen, "a subgroup is listed twice")
        seen.add(members)
    count = enum_out["count"]
    expect(enum_out["complete"] is True, "enumeration reported incomplete")
    expect(count == len(seen) == analysis.extra["subgroups"], f"{count} subgroups, expected {analysis.extra['subgroups']}")
    hist = enum_out["histogram"]
    expect(sum(c for _, c in hist) == count, "histogram does not sum to the count")
    expect(
        sorted(Counter(len(m) for m in seen).items()) == [tuple(p) for p in hist],
        "histogram disagrees with the subgroup dimensions",
    )
    if oracle is not None:
        expect({frozenset(index[c] for c in s) for s in oracle(rows)} == seen, "subgroups differ from the brute-force oracle")
    expect(series_out["ray_matrix"] == rows and center_out["ray_matrix"] == rows, "commands disagree on the matrix")
    expect(
        series_out["nilpotency_class"] == 1 + longest_root_path(flat),
        "nilpotency class is not 1 + the longest path in the root graph",
    )
    _check_center(rows, center_out)


def check_verify_small(analysis, results):
    (out,) = (_payload(r, c[0]) for r, c in zip(results, analysis.commands))
    rows = _canonical_matrix(analysis, out)
    levels = fans.positive_levels(rows)
    sizes = [len(level) for level in levels]
    pairs = sum(sizes[i] * sizes[j] for i in range(len(sizes)) for j in range(i + 1, len(sizes)))
    expected = {
        "one-parameter-law": sum(sizes),
        "conjugation-identity": pairs,
        "first-order-bracket": pairs,
        "matrix-embedding": fans.class_count(rows),
    }
    expect(out["ok"] is True and all(c["ok"] is True for c in out["checks"]), "a verification check failed")
    expect({c["name"]: c["cases"] for c in out["checks"]} == expected, "verification case counts are wrong")


def check_surface_sweep(analysis, results):
    (out,) = (_payload(r, c[0]) for r, c in zip(results, analysis.commands))
    if analysis.max_m is not None:
        own = fans.surface_closure(analysis.max_m, analysis.max_m)
        listed = [fans.sequence_key(c) for c in out["sequences"]]
        expect(out["count"] == len(listed) and set(listed) == own and len(own) == len(listed), "enumeration differs from the blow-up closure")
        expect(out["radiant"] == [fans.is_radiant_sequence(c) for c in out["sequences"]], "radiant flags are wrong")
        return
    c = analysis.sequence
    expect(tuple(out["sequence"]) == c and out["m"] == len(c) and out["radiant"] is True, "surface echo is wrong")
    d = fans.surface_level_width(c)
    expect(out["d"] == d, f"d is {out['d']}, expected {d}")
    width = 1 if d is None else d + 1
    expect(out["nilpotency_class"] == width, f"nilpotency class {out['nilpotency_class']}, expected {width}")
    expect(out["subgroup_count"] == width == len(out["subgroups"]), f"{out['subgroup_count']} subgroups, expected {width}")


CHECKERS = {
    "wide-entries": check_wide_entries,
    "wide-levels": check_wide_levels,
    "verify-small": check_verify_small,
    "surface-sweep": check_surface_sweep,
}
