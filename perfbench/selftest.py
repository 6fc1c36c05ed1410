"""Self-test of the output checks: each checker must pass a real output and
flag a corrupted copy of it.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It analyses one small seeded input per workload in-process, then feeds the
checker a dropped root, an extra unsaturated subgroup, a wrong nilpotency
class (for a fan and for a surface) and a verification check set to false.
Exits 1 when a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checks
import fans
import workloads

sys.path.insert(0, str(Path.cwd() / "src"))
from toricroots import cli  # noqa: E402


def analyse(analysis):
    results = []
    for argv in analysis.commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        results.append([code, buf.getvalue(), ""])
    return results


def edit(results, k, change):
    """Copy of ``results`` with command ``k``'s JSON output passed through
    ``change``."""
    out = copy.deepcopy(results)
    payload = json.loads(out[k][1])
    change(payload)
    out[k][1] = json.dumps(payload)
    return out


def drop_root(payload):
    payload["roots"].pop(0)
    payload["count"] -= 1


def add_unsaturated_subgroup(rows):
    """Adds the basic roots plus ``a`` and ``b`` but not their root sum,
    with count and histogram kept consistent so only saturation fails."""
    levels = fans.positive_levels(rows)
    flat = [e for level in levels for e in level]
    n = len(rows[0])
    basics = {tuple(-int(j == i) for j in range(n)) for i in range(n)}
    roots = next(
        basics | {flat[a], flat[b]}
        for a, b, s in fans.saturation_triples(rows, levels)
        if flat[s] not in basics | {flat[a], flat[b]}
    )

    def change(payload):
        payload["subgroups"].append({"dimension": len(roots), "roots": sorted(map(list, roots))})
        payload["count"] += 1
        hist = dict(map(tuple, payload["histogram"]))
        hist[len(roots)] = hist.get(len(roots), 0) + 1
        payload["histogram"] = sorted(map(list, hist.items()))

    return change


def bump(key):
    def change(payload):
        payload[key] += 1

    return change


def fail_first_check(payload):
    payload["checks"][0]["ok"] = False


def flagged(workload, analysis, results, expected):
    try:
        checks.CHECKERS[workload](analysis, results)
    except checks.Mismatch as exc:
        return expected in str(exc), str(exc)
    return False, "not flagged"


def main():
    picks = {
        "wide-entries": workloads.wide_entries(0)[0],
        "wide-levels": min(workloads.wide_levels(0), key=lambda a: a.extra["subgroups"]),
        "verify-small": workloads.verify_small(0)[0],
        "surface-sweep": next(a for a in workloads.surface_sweep(0) if a.sequence and len(a.sequence) == 4
                              and fans.surface_level_width(a.sequence)),
    }
    outputs = {w: analyse(a) for w, a in picks.items()}
    ok = True
    for workload, analysis in picks.items():
        try:
            checks.CHECKERS[workload](analysis, outputs[workload])
            print(f"ok    {workload}: real output passes")
        except checks.Mismatch as exc:
            print(f"FAIL  {workload}: real output flagged: {exc}")
            ok = False
    wl_rows = json.loads(outputs["wide-levels"][0][1])["ray_matrix"]
    corruptions = [
        ("dropped root", "wide-entries", edit(outputs["wide-entries"], 0, drop_root), "level"),
        ("extra unsaturated subgroup", "wide-levels",
         edit(outputs["wide-levels"], 0, add_unsaturated_subgroup(wl_rows)), "not saturated"),
        ("wrong nilpotency class (fan)", "wide-levels",
         edit(outputs["wide-levels"], 1, bump("nilpotency_class")), "nilpotency class"),
        ("wrong nilpotency class (surface)", "surface-sweep",
         edit(outputs["surface-sweep"], 0, bump("nilpotency_class")), "nilpotency class"),
        ("verify check set to false", "verify-small",
         edit(outputs["verify-small"], 0, fail_first_check), "check failed"),
    ]
    for label, workload, corrupted, expected in corruptions:
        caught, message = flagged(workload, picks[workload], corrupted, expected)
        print(f"{'ok' if caught else 'FAIL':5s} {label}: {message}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
