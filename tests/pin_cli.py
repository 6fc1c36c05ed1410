"""Golden pin of the CLI's bytes.

``tests/data/cli_digests.json`` holds, for a fixed list of commands, the exit
code and the sha256 of stdout and of stderr that ``toricroots.cli.main``
gives when called in-process.  ``tests/test_cli_pin.py`` replays the list.

    PYTHONPATH=src python tests/pin_cli.py           # list the commands that differ
    PYTHONPATH=src python tests/pin_cli.py --write   # rewrite the pinned digests

Rewrite the file only in a change that alters the output on purpose.  The
list includes argparse's own errors, whose usage text pins the order of each
command's options; that text differs between Python versions, and the
digests were taken with Python 3.11.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from toricroots import cli

DIGESTS = Path(__file__).with_name("data") / "cli_digests.json"

FANS = [
    "3 2 1",
    "4 3 2 1",
    "1 1",
    "1 0; 0 1",
    "1 1 0; 1 0 0; 0 0 1",
    "0 1 1; 1 0 1; 1 1 0; 1 1 1",
    "1 1 1",
    "2 1",
    "4 1",
    "1 2 3",
    "2 1 1; 1 1 0",
    "1 0 0; 0 0 1; 0 1 0; 0 1 1",
    "3 1; 1 0",
    "2 2",
    "1 0; 0 -1",
]

RAYS = [
    "1 0; 0 1; -1 -1",
    "-1 -1; 1 0; 0 1",
    "1 0; 0 1; -1 2; 0 -1",
    "1 0 0; 0 1 0; 0 0 1; -1 -1 -1",
    "1; -1",
    "1 0; 0 1; -1 1; -1 0; 0 -1; 1 -1",  # the hexagon: not bilateral
    "1 0; 0 1; -1 0",  # incomplete in rank 2
    "1 0; 0 1",
]

#: Rank 3-5 ray lists: ``conftest.random_ray_list(n, m, seed, positive_ray)``
#: for (3, 7, 1), (3, 8, 2, True), (4, 8, 3), (4, 9, 4, True), (5, 9, 5) and
#: (5, 10, 6, True), three radiant and three not; then a hexagon times a line
#: (not bilateral) and a set that does not span.
RAYS_HIGHER_RANK = [
    "1 -1 -2; 3 2 2; 3 0 -2; -1 -1 0; 0 1 1; 3 2 1; 0 0 -1",
    "3 -2 4; 0 -1 2; 0 1 -1; 3 1 -1; -1 0 -1; 0 1 -3; 2 -1 1; 2 1 -1; -1 0 0",
    "-1 1 0 -1; 0 -2 1 3; 1 -4 0 3; 1 -4 1 4; 3 -4 1 4; 0 0 -1 0; 1 -1 0 0; -1 2 0 -1",
    "1 1 1 0; 1 1 0 3; -1 -1 0 -1; 1 1 0 0; -2 -2 -3 1; 1 4 -1 5; -1 0 -1 3; 0 -1 0 -1; "
    "1 0 1 -2; 1 1 0 2",
    "0 0 0 0 1; -2 0 0 -1 0; 1 0 0 -1 1; 0 0 0 1 -1; -1 0 1 1 -2; 0 0 -1 0 -2; "
    "-1 -2 1 -2 -1; -3 0 2 2 0; 0 1 0 0 1",
    "-1 1 0 -1 0; 5 -4 -2 4 0; -2 2 1 -1 0; 0 1 0 -1 0; 0 0 0 1 0; 4 -2 -2 -1 -1; "
    "3 -3 0 3 -2; 6 -5 -3 5 2; 0 0 0 0 1; -1 0 1 0 -1; 5 -3 -3 1 3",
    "1 0 0; 0 1 0; -1 1 0; -1 0 0; 0 -1 0; 1 -1 0; 0 0 1; 0 0 -1",
    "1 0 0; 0 1 0; -1 -1 0; 1 1 0",
]

#: Rank-5 fans with 357 and 496 open-orbit subgroups, in a non-canonical
#: column order: their output is mostly subgroup lists.
LARGE_FANS = ["1 1 1 1 1; 0 0 1 2 0", "2 1 1 0 2; 2 0 2 2 1"]

#: A ``wide-entries``-style fan: rank 3, large entries, 18 roots.
WIDE_ENTRY_FAN = "31 8 6; 7 2 1"

#: A radiant surface with m = 12 (type II, four open-orbit subgroups).
SEQUENCE_M12 = "7,1,3,1,3,2,2,2,2,4,0,-3"

#: A root-heavy fan: 1 894 positive roots, 1 891 of them on the first level.
ROOT_HEAVY_FAN = "60 1 1"

#: Fans with detached roots: two on one ray, and two on each of two rays.
#: With ``LARGE_FANS`` they also pin ``verify`` on rank-5 fans and on
#: classes whose elementary roots sit inside the class.
DETACHED_FANS = ["1 1 2; 0 0 1", "1 1 0 0; 0 0 1 1"]

#: Reports far longer than one batch of output: ``roots`` on a fan with
#: 45 457 roots (about 14 MB of JSON) and ``enumerate`` with 1 193 subgroups.
MANY_BATCHES = [["roots", "--ray-matrix", "300 1 1"],
                ["enumerate", "--histogram", "--ray-matrix", "4 3 2 1"]]

#: ``verify`` on surfaces and P(1,2,3,5): the first exceeds the degree cap
#: (exit 1), the others hold up to 187 conjugation pairs.  The last exceeds
#: it with a root monomial whose exponent 300 does not fit an exponent field.
VERIFY_FANS = ["40 1", "20 1", "12 7 1", "5 3 2 1", "300 1"]

#: A partial list (exit 1) of 2 000 subgroups, about 2.9 MB of JSON: the
#: cap stops the enumeration part way through the fan's subgroups, so the
#: list pins which subgroups come first in lectic order.
CAPPED_ENUMERATION = ["enumerate", "--ray-matrix", "5 4 3 2 1", "--max-results", "2000"]

#: Partial lists (exit 1) of root-heavy fans: 1 000 subgroups of
#: ``[[25,1,1]]`` (351 positive roots, about 2.4 MB of JSON) and 500 of
#: ``[[8,1,1]]`` with the histogram, as a table.
CAPPED_ROOT_HEAVY = [
    ["enumerate", "--ray-matrix", "25 1 1", "--max-results", "1000", "--format", "json"],
    ["enumerate", "--ray-matrix", "8 1 1", "--max-results", "500", "--histogram",
     "--format", "table"],
]

#: The radiant rank-5 ray list of ``RAYS_HIGHER_RANK`` (20 open-orbit
#: subgroups), for the commands that list root sets.
ROOT_SET_RAYS = RAYS_HIGHER_RANK[4]

#: Command lines that take each of argparse's paths: the help of the whole
#: parser and of one command, an unrecognized argument (reported with the
#: whole parser's usage), a missing value, an abbreviated option, and an
#: extra positional after a command's options.
PARSER_PATHS = [
    ["-h"],
    ["roots", "-h"],
    ["verify", "-h"],
    ["roots", "--ray-matrix", "1 1", "--bogus"],
    ["roots", "--ray-matrix"],
    ["enumerate", "--hist", "--ray-matrix", "1 1"],
    ["surface", "--enumerate", "--max-m", "4", "extra"],
]

FAN_COMMANDS = ["bilateral", "roots", "umax", "enumerate", "series", "center",
                "type", "split", "verify"]

SEQUENCES = [
    "0,2,0,-2",
    "-1,-1,-1",
    "0,1,0,-1",
    "0,0,0,0",
    "1,-1,0,0,-1",
    "-1,0,2,-1,0,0",
    "1,1,1,1,1,1",  # not radiant
    "0,0,0",  # does not close up
    "1,2",
]


def _formats(cmd: str) -> list[str]:
    return ["json", "table", "dot"] if cmd == "series" else ["json", "table"]


def commands() -> list[list[str]]:
    out = []
    for fan in FANS:
        for cmd in FAN_COMMANDS:
            out += [[cmd, "--ray-matrix", fan, "--format", f] for f in _formats(cmd)]
    for rays in RAYS:
        for cmd in FAN_COMMANDS:
            out += [[cmd, f"--rays={rays}", "--format", f] for f in _formats(cmd)]
    for rays in RAYS_HIGHER_RANK:
        for cmd in ("bilateral", "umax"):
            out += [[cmd, f"--rays={rays}", "--format", f] for f in ("json", "table")]
    for fan in ["3 2 1", "2 1 1; 1 1 0", "1 1 0; 1 0 0; 0 0 1"]:
        for f in ("json", "table"):
            out += [
                ["enumerate", "--ray-matrix", fan, "--histogram", "--format", f],
                ["enumerate", "--ray-matrix", fan, "--max-results", "3", "--format", f],
                ["enumerate", "--ray-matrix", fan, "--max-results", "3", "--histogram",
                 "--format", f],
            ]
    for seq in SEQUENCES:
        out += [["surface", f"--sequence={seq}", "--format", f] for f in ("json", "table")]
    for f in ("json", "table"):
        out.append(["surface", "--enumerate", "--format", f])
        out += [["surface", "--enumerate", "--max-m", str(m), "--format", f]
                for m in range(2, 7)]
        out.append(["surface", "--enumerate", "--max-m", "6", "--max-q", "2", "--format", f])
    out += [
        ["surface"],
        ["surface", "--sequence", "-1,-1,-1"],
        ["bilateral", "--sequence", "0,1,0,-1"],
        ["bilateral", "--rays", "-1,-1;1,0;0,1"],
        ["roots"],
        ["roots", "--ray-matrix", "1 1", "--rays", "1 0; 0 1; -1 -1"],
        ["roots", "--ray-matrix", "1_0 1"],
        ["roots", "--ray-matrix", "1 2; 3"],
        ["roots", "--ray-matrix", "99999999999 1 1"],
        ["enumerate", "--ray-matrix", "1 1", "--max-results", "0"],
        ["enumerate", "--ray-matrix", "1 1", "--max-results", "x"],
        ["roots", "--ray-matrix", "1 1", "--format", "dot"],
        ["series", "--ray-matrix", "1 1", "--format", "xml"],
        ["nosuchcommand"],
        [],
    ]
    for fan in LARGE_FANS:
        out += [["enumerate", "--ray-matrix", fan, "--histogram", "--format", f]
                for f in ("json", "table")]
        out += [["series", "--ray-matrix", fan, "--format", f] for f in _formats("series")]
        out += [["center", "--ray-matrix", fan, "--format", f] for f in ("json", "table")]
    for fan in LARGE_FANS + [WIDE_ENTRY_FAN]:
        out += [["roots", "--ray-matrix", fan, "--format", f] for f in ("json", "table")]
    out += [["surface", f"--sequence={SEQUENCE_M12}", "--format", f] for f in ("json", "table")]
    for fan in VERIFY_FANS:
        out += [["verify", "--ray-matrix", fan, "--format", f] for f in ("json", "table")]
    for cmd in ("series", "center", "type"):
        out += [[cmd, "--ray-matrix", ROOT_HEAVY_FAN, "--format", f] for f in _formats(cmd)]
    for fan in DETACHED_FANS:
        for cmd in ("roots", "umax", "center"):
            out += [[cmd, "--ray-matrix", fan, "--format", f] for f in ("json", "table")]
    for argv in MANY_BATCHES:
        out += [argv + ["--format", f] for f in ("json", "table")]
    out += [CAPPED_ENUMERATION + ["--format", f] for f in ("json", "table")]
    for cmd in ("enumerate", "series", "center"):
        out += [[cmd, f"--rays={ROOT_SET_RAYS}", "--format", f] for f in _formats(cmd)]
    out += PARSER_PATHS + CAPPED_ROOT_HEAVY
    for fan in LARGE_FANS + DETACHED_FANS:
        out += [["verify", "--ray-matrix", fan, "--format", f] for f in ("json", "table")]
    return out


def digest(argv: list[str]) -> dict:
    """Exit code and sha256 of stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to this width
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def load() -> list[dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        entries = [digest(a) for a in commands()]
        DIGESTS.parent.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(e) for e in entries)  # one command a line
        DIGESTS.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
        print(f"wrote {len(entries)} digests to {DIGESTS}")
        return 0
    if argv:
        print(__doc__)
        return 2
    differ = [e["argv"] for e in load() if digest(e["argv"]) != e]
    for a in differ:
        print("differs:", " ".join(a))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
