"""Seeded inputs of the four workloads.

A workload is a fixed list of analyses; one analysis is every CLI command
the workload runs on one fan or one surface.  The seed decides every input,
and nothing here calls the program: fans are drawn as raw ray matrices, kept
or rejected by the benchmark's own arithmetic in ``fans``, and given a seeded
column shuffle, so the program's canonical reordering does real work.

Each fan workload draws the same number of fans from each of five strata.
A stratum fixes what drives the cost of the layer under test (the largest
column entry for the root box scan, the number of open-orbit subgroups for
the enumeration, the number of positive roots for the symbolic
verification), so the median falls inside the middle stratum and the 90th
percentile inside the top one whatever the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import fans

@dataclass
class Analysis:
    """The commands of one analysis and what its checker needs to know."""

    commands: list[list[str]]
    rows: list[list[int]] | None = None  # raw ray matrix, before the shuffle
    sequence: tuple[int, ...] | None = None  # surface sequence as passed
    max_m: int | None = None  # bound of an enumeration command
    extra: dict = field(default_factory=dict)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng, rows):
    """Rows in seeded order, columns under a seeded permutation."""
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    out = [[r[j] for j in perm] for r in rows]
    rng.shuffle(out)
    return out


def _primitive(row, keep):
    """Make a row primitive by raising its smallest entry outside ``keep``."""
    row = list(row)
    while math.gcd(*row) != 1:
        j = min((j for j in range(len(row)) if j != keep), key=lambda j: row[j])
        row[j] += 1
    return row


# ---------------------------------------------------------------------------
# wide-entries: the box scan grows with the column maxima

#: (rank, largest entry) per stratum, in order of cost.
WIDE_ENTRY_STRATA = ((3, 30), (4, 14), (3, 90), (4, 22), (3, 150))
#: The other column maxima as shares of the largest entry.  Fan ``k`` of a
#: stratum takes pattern ``k % 5`` and one large row when ``k // 5`` is even,
#: two when odd, so the scanned boxes are the same for every seed.
WIDE_ENTRY_SHARES = ((1 / 4, 1 / 5, 1 / 6), (1 / 3, 1 / 6, 1 / 4), (1 / 5, 1 / 3, 1 / 5),
                     (1 / 6, 1 / 4, 1 / 3), (1 / 4, 1 / 4, 1 / 5))
WIDE_ENTRY_FANS_PER_STRATUM = 2 * len(WIDE_ENTRY_SHARES)


def _wide_entry_fan(rng, n, top, shares, two_rows):
    """The first row holds the column maxima.  A second large row stays
    below them, and an optional 0/1 row adds small constraints."""
    maxima = [top] + [max(1, round(top * s)) for s in shares[: n - 1]]
    rows = [_primitive(maxima, keep=0)]
    if two_rows:
        rows.append(_primitive([rng.randint(0, m) for m in maxima], keep=0))
    if rng.random() < 0.4:
        rows.append([rng.randint(0, 1) for _ in range(n - 1)] + [1])
    return rows


def wide_entries(seed):
    rng = _rng("wide-entries", seed)
    out, seen = [], set()
    for n, top in WIDE_ENTRY_STRATA:
        made = 0
        while made < WIDE_ENTRY_FANS_PER_STRATUM:
            shares = WIDE_ENTRY_SHARES[made % len(WIDE_ENTRY_SHARES)]
            rows = _wide_entry_fan(rng, n, top, shares, two_rows=made // len(WIDE_ENTRY_SHARES) % 2 == 1)
            key = fans.permutation_key(rows)
            if not fans.is_valid_matrix(rows) or key in seen:
                continue
            seen.add(key)
            made += 1
            rows = _shuffled(rng, rows)
            arg = fans.matrix_arg(rows)
            out.append(Analysis(
                commands=[[cmd, "--ray-matrix", arg] for cmd in ("roots", "umax", "center")],
                rows=rows,
            ))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# wide-levels: many positive roots per level, hundreds of subgroups

#: (fewest, most) open-orbit subgroups per stratum.
WIDE_LEVEL_STRATA = ((14, 15), (39, 40), (64, 80), (105, 121), (357, 363))
WIDE_LEVEL_FANS_PER_STRATUM = 10
#: Fans with at most this many optional positive roots get the brute-force
#: subset oracle; a run samples a few of them.
ORACLE_MAX_OPTIONAL = 12
ORACLE_SAMPLE = 3


def small_fans():
    """Every rank-4 and rank-5 ray matrix with two rows of entries at most 2
    or three rows of 0/1 entries, one per class under column and row
    permutations (a few hundred in all)."""
    out = {}
    for n_rows, top in ((2, 2), (3, 1)):
        types = [c for c in itertools.product(range(top + 1), repeat=n_rows) if any(c)]
        for n in (4, 5):
            for cols in itertools.combinations_with_replacement(types, n):
                rows = [[c[k] for c in cols] for k in range(n_rows)]
                if fans.is_valid_matrix(rows):
                    key = min(
                        tuple(sorted(tuple(c[k] for k in perm) for c in cols))
                        for perm in itertools.permutations(range(n_rows))
                    )
                    out.setdefault(key, rows)
    return list(out.values())


def wide_levels(seed):
    rng = _rng("wide-levels", seed)
    strata = {band: [] for band in WIDE_LEVEL_STRATA}
    for rows in small_fans():
        canonical = fans.canonical_rows(rows)
        levels = fans.positive_levels(canonical)
        optional = [len(level) - 1 for level in levels]
        if max(optional) > 7 or sum(optional) > 15:
            continue  # outside every stratum, and slow to count
        count = fans.count_open_orbit_subgroups(levels, fans.saturation_triples(canonical, levels))
        for (lo, hi), members in strata.items():
            if lo <= count <= hi:
                members.append((rows, count, sum(optional) <= ORACLE_MAX_OPTIONAL))
    out = []
    for members in strata.values():
        for rows, count, cheap in rng.sample(members, WIDE_LEVEL_FANS_PER_STRATUM):
            rows = _shuffled(rng, rows)
            arg = fans.matrix_arg(rows)
            out.append(Analysis(
                commands=[
                    ["enumerate", "--histogram", "--ray-matrix", arg],
                    ["series", "--ray-matrix", arg],
                    ["center", "--ray-matrix", arg],
                ],
                rows=rows,
                extra={"subgroups": count, "oracle": cheap},
            ))
    rng.shuffle(out)
    cheap = [a for a in out if a.extra["oracle"]]
    sampled = {id(a) for a in rng.sample(cheap, min(ORACLE_SAMPLE, len(cheap)))}
    for a in out:
        a.extra["oracle"] = id(a) in sampled
    return out


# ---------------------------------------------------------------------------
# verify-small: the symbolic battery grows with the positive roots

#: Number of positive roots per stratum.
VERIFY_STRATA = (3, 4, 5, 6, 7)
VERIFY_FANS_PER_STRATUM = 20


def verify_small(seed):
    rng = _rng("verify-small", seed)
    want = {p: VERIFY_FANS_PER_STRATUM for p in VERIFY_STRATA}
    out, seen = [], set()
    while any(want.values()):
        n = rng.choice((2, 3, 4))
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.choice((1, 2, 3)))]
        if not fans.is_valid_matrix(rows):
            continue
        key = fans.permutation_key(rows)
        if key in seen:
            continue
        seen.add(key)
        p = sum(len(level) for level in fans.positive_levels(fans.canonical_rows(rows)))
        if not want.get(p):
            continue
        want[p] -= 1
        rows = _shuffled(rng, rows)
        out.append(Analysis(commands=[["verify", "--ray-matrix", fans.matrix_arg(rows)]], rows=rows))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# surface-sweep: every radiant surface with m <= 9, plus the enumerations

SURFACE_MAX_M = 9
SURFACE_ENUMERATIONS = range(4, SURFACE_MAX_M + 1)


def surface_sweep(seed):
    rng = _rng("surface-sweep", seed)
    out = []
    for c in sorted(fans.surface_closure(SURFACE_MAX_M, SURFACE_MAX_M)):
        if not fans.is_radiant_sequence(c):
            continue
        shift = rng.randrange(len(c))
        c = c[shift:] + c[:shift]
        if rng.random() < 0.5:
            c = c[::-1]
        out.append(Analysis(
            commands=[["surface", "--sequence=" + ",".join(str(x) for x in c)]],
            sequence=c,
        ))
    for max_m in SURFACE_ENUMERATIONS:
        out.append(Analysis(
            commands=[["surface", "--enumerate", "--max-m", str(max_m)]],
            max_m=max_m,
        ))
    rng.shuffle(out)
    return out


BUILDERS = {
    "wide-entries": wide_entries,
    "wide-levels": wide_levels,
    "verify-small": verify_small,
    "surface-sweep": surface_sweep,
}
