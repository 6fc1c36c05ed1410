"""Command-line front end.

Input is the ray data of a complete toric variety, given as a ray matrix,
as a list of rays, or (for surfaces) as a self-intersection sequence; every
analysis canonicalizes the matrix and reports the column permutation it
applied.  Output is deterministic: identical requests produce byte-identical
bytes.  Exit codes: 0 success, 1 domain errors (e.g. non-radiant input to a
radiant-only analysis), 2 malformed input, 3 internal errors (a failed
internal invariant or any other unexpected exception, reported without a
traceback).

All indices in reports (rays, columns, permutations) are 1-based; library
internals are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence

from . import groups, roots
from .errors import DomainError, InputError, NotBilateralError, NotRadiantError, ResultCapError, ToricError
from .fan import Bilateralization, RayList, RayMatrix, bilateralize
from .groups import AbelianPower, DirectProduct, RootGraph, Semidirect, TriangularBlock
from .jsonout import Rows, pieces

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# parsing helpers


#: An integer token: ASCII digits with an optional sign, nothing else.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _parse_ints(text: str, what: str) -> list[int]:
    """Integers separated by spaces or commas; any other token is rejected."""
    tokens = text.replace(",", " ").split()
    try:
        if all(_INT_TOKEN.fullmatch(tok) for tok in tokens):
            return [int(tok) for tok in tokens]
    except ValueError:  # more digits than int() converts
        pass
    raise InputError(f"bad-token: could not parse {what}: {text!r}")


def _parse_int_rows(text: str, what: str) -> list[list[int]]:
    rows = [_parse_ints(chunk.strip(), what) for chunk in text.split(";") if chunk.strip()]
    if not rows:
        raise InputError(f"bad-shape: empty {what}")
    return rows


def _load_input_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"unreadable-file: cannot read input file: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, long ints
        raise InputError(f"bad-json: input file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("bad-document: input document must be a JSON object")
    return data


def _source(args) -> tuple[str, list, object]:
    """The input's kind (``ray_matrix``, ``rays`` or ``sequence``), its raw
    value and its ``n`` (``None`` for a sequence).  Flags are tokenized here;
    a document's value is only picked out, and the library checks both."""
    # each command's parser defines only the sources it takes
    given = ((k, getattr(args, k, None)) for k in ("ray_matrix", "rays", "sequence", "input"))
    sources = [s for s in given if s[1] is not None]
    if len(sources) != 1:
        raise InputError("bad-source: exactly one input source is required "
                         "(--ray-matrix, --rays, --sequence or --input)")
    kind, value = sources[0]
    if kind == "input":
        doc = _load_input_file(value)
        keys = {"ray_matrix", "rays", "sequence"} & set(doc)
        if len(keys) != 1:
            raise InputError("bad-document: input document needs exactly one of "
                             "'ray_matrix', 'rays', 'sequence'")
        kind = keys.pop()
        if kind != "sequence" and "n" not in doc:
            raise InputError("bad-document: input document needs 'n'")
        if not isinstance(doc[kind], list):
            raise InputError(f"bad-shape: {kind!r} must be a list")
        return kind, doc[kind], doc.get("n")
    if kind == "sequence":
        return kind, _parse_ints(value, "sequence"), None
    what = kind.replace("_", " ")
    rows = _parse_int_rows(value, what)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"bad-shape: {what} rows have unequal widths")
    return kind, rows, widths.pop()


def _fan(args) -> tuple[Optional[Bilateralization], Optional[RayList]]:
    """Bilateral witness of the fan input (``None`` when its rays have none)
    and its ray list (``None`` for a ray matrix, which is its own witness)."""
    kind, raw, n = _source(args)
    if kind == "sequence":
        raise InputError(f"wrong-input: {args.cmd} takes a ray matrix or rays, not a sequence")
    if kind == "ray_matrix":
        A = RayMatrix.validate(raw, n)
        return Bilateralization(tuple(range(A.n)), tuple(range(A.m)), A), None
    rays = RayList.validate(raw, n)
    return bilateralize(rays), rays


def _witness_json(witness: Bilateralization) -> dict:
    return {
        "basis_rays": [i + 1 for i in witness.basis_indices],
        "ray_order": [i + 1 for i in witness.ray_order],
    }


def _canonical(args) -> tuple[RayMatrix, dict]:
    """Canonical ray matrix of the fan input and the fields that every fan
    command reports about it."""
    witness, rays = _fan(args)
    if witness is None:
        raise NotBilateralError("ray set is not bilateral: the variety is not radiant")
    perm, A = roots.canonical_reorder(witness.matrix)
    base = {
        "n": A.n,
        "m": A.m,
        "ray_matrix": [list(r) for r in A.rows],
        "column_permutation": [p + 1 for p in perm],
    }
    if rays is not None:
        base["bilateralization"] = _witness_json(witness)
    return A, base


# ---------------------------------------------------------------------------
# serializers


def _root_json(r: roots.DemazureRoot) -> dict:
    return {
        "coords": r.coords,
        "ray": r.ray + 1,
        "kind": r.kind,
        "parity": r.parity,
        "display": r.display(),
    }


def _root_rows(A: RayMatrix, *terms: Sequence[tuple[int, ...]]) -> list[Rows]:
    """The root sets of each term, tuples of positions into the positive
    roots of ``A``; the terms share their columns, so each root's text is
    rendered once."""
    table = roots.demazure_roots(A)
    columns = {"roots": [r.coords for r in table.positive], "display": table.displays}
    return [Rows("dimension", columns, members) for members in terms]


def _shape_json(shape) -> dict:
    if isinstance(shape, AbelianPower):
        return {"kind": "vector_group", "power": shape.power}
    if isinstance(shape, TriangularBlock):
        return {"kind": "triangular_block", "k": shape.k, "l": shape.l}
    if isinstance(shape, (Semidirect, DirectProduct)):
        kind = "semidirect" if isinstance(shape, Semidirect) else "direct_product"
        return {"kind": kind, "factors": [_shape_json(f) for f in shape.factors]}
    raise TypeError(shape)


def _dot_lines(graph: RootGraph) -> list[str]:
    """Root graph in DOT form, in its own order: dashed arrows inside a level, dotted across."""
    name = {v.coords: f'"{v.display()}"' for v in graph.vertices}  # each vertex rendered once
    lines = ["digraph root_graph {"] + [f"  {name[v.coords]};" for v in graph.vertices]
    for a in graph.arrows:
        style = "dashed" if a.inner else "dotted"
        lines.append(f"  {name[a.source.coords]} -> {name[a.target.coords]} [style={style}];")
    return lines + ["}"]


# ---------------------------------------------------------------------------
# commands: compute(args) -> (exit code, payload); table(payload) -> lines


def _bilateral(args) -> tuple[int, dict]:
    witness, rays = _fan(args)
    if witness is None:
        return 0, {"bilateral": False, "n": rays.n}
    return 0, {
        "bilateral": True,
        **_witness_json(witness),
        "ray_matrix": [list(r) for r in witness.matrix.rows],
        "n": witness.matrix.n,
    }


def _bilateral_table(p: dict) -> list[str]:
    lines = [f"bilateral: {'yes' if p['bilateral'] else 'no'}"]
    if p["bilateral"]:
        lines.append(f"basis rays: {p['basis_rays']}")
        lines.append(f"ray matrix rows: {p['ray_matrix']}")
    return lines


def _roots(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    system = roots.demazure_roots(A)
    pos = roots.positive_roots(A)
    pre = system.preorder
    return 0, {
        **base,
        "classes": [[i + 1 for i in cls] for cls in pre.classes],
        "class_cuts": list(pre.cuts),
        "roots": [_root_json(r) for r in system.roots],
        "count": len(system.roots),
        "by_ray": [[r.coords for r in level] for level in system.by_ray],
        "positive_by_ray": [[r.coords for r in level] for level in pos],
        "positive_count": sum(len(level) for level in pos),
    }


def _roots_table(p: dict) -> list[str]:
    lines = [
        f"ray matrix (canonical): {p['ray_matrix']}",
        f"column permutation: {p['column_permutation']}",
        f"roots: {p['count']}",
    ]
    for l, level in enumerate(p["by_ray"]):
        lines.append(f"R_{l + 1}: " + (", ".join(map(roots.display, level)) or "(none)"))
    lines.append("positive roots by level:")
    for i, level in enumerate(p["positive_by_ray"]):
        lines.append(f"R+_{i + 1}: " + ", ".join(map(roots.display, level)))
    return lines


def _umax(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    report = groups.umax_shape(A)
    uss = groups.uss_shape(A)
    return 0, {
        **base,
        "classes": [[i + 1 for i in cls] for cls in report.classes],
        "block_sizes": [list(kl) for kl in report.block_sizes],
        "shape": _shape_json(report.shape),
        "shape_display": report.shape.display(),
        "per_ray_shape": _shape_json(report.per_ray_shape),
        "per_ray_display": report.per_ray_shape.display(),
        "uss_shape": _shape_json(uss.shape),
        "uss_display": uss.shape.display(),
        "simple_components": uss.simple_components,
    }


def _umax_table(p: dict) -> list[str]:
    return [
        f"U_max = {p['shape_display']}",
        f"per-level refinement: {p['per_ray_display']}",
        f"U_ss = {p['uss_display']}",
        f"simple components: {p['simple_components']}",
        f"column permutation: {p['column_permutation']}",
    ]


def _enumerate(args) -> tuple[int, dict]:
    if args.max_results < 1:
        # every radiant fan has at least U_max itself
        raise InputError(f"bad-max-results: --max-results must be at least 1, "
                         f"got {args.max_results}")
    A, base = _canonical(args)
    exit_code = 0
    try:
        result = groups.enumerate_open_orbit_subgroups(A, max_results=args.max_results)
    except ResultCapError as exc:
        # still report what was found, flagged as incomplete
        result = exc.partial
        exit_code = 1
    payload = {
        **base,
        "count": result.count,
        "complete": result.complete,
        "subgroups": _root_rows(A, result.positions)[0],
    }
    if args.histogram:
        payload["histogram"] = [list(pair) for pair in result.histogram]
    return exit_code, payload


def _enumerate_table(p: dict) -> list[str]:
    suffix = "" if p["complete"] else " (incomplete: cap reached)"
    lines = [f"open-orbit regular unipotent subgroups: {p['count']}{suffix}"]
    lines += [f"dimension {dim}: {count}" for dim, count in p.get("histogram", ())]
    shown = p["subgroups"].columns["display"]
    return lines + ["  {" + ", ".join([shown[k] for k in t]) + "}" for t in p["subgroups"].members]


def _series(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    M = groups.umax_rootset(A)
    if args.format == "dot":
        return 0, {"dot": _dot_lines(groups.root_graph(M))}
    report = groups.series_report(M)
    lower, upper, derived = _root_rows(A, *(
        [rs.positions for rs in term] for term in (report.lower, report.upper, report.derived)))
    return 0, {
        **base,
        "nilpotency_class": report.nilpotency_class,
        "derived_length": report.derived_length,
        "longest_path": report.longest_path,
        "lower": lower,
        "upper": upper,
        "derived": derived,
        "center_indices": [i + 1 for i in report.center_indices or ()],
    }


def _series_table(p: dict) -> list[str]:
    if "dot" in p:
        return p["dot"]
    return [
        f"nilpotency class: {p['nilpotency_class']}",
        f"derived length: {p['derived_length']}",
        f"longest path in the root graph: {p['longest_path']}",
        "lower central series sizes: " + " > ".join(str(len(t)) for t in p["lower"].members),
        "upper central series sizes: " + " < ".join(str(len(t)) for t in p["upper"].members),
        "derived series sizes: " + " > ".join(str(len(t)) for t in p["derived"].members),
    ]


def _center(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    report = groups.center(groups.umax_rootset(A))
    center_roots = report.roots.roots  # a few basic roots
    return 0, {
        **base,
        "center_indices": [i + 1 for i in report.indices],
        "center_roots": {
            "dimension": len(center_roots),
            "roots": [r.coords for r in center_roots],
            "display": [r.display() for r in center_roots],
        },
    }


def _center_table(p: dict) -> list[str]:
    return [
        f"center indices: {p['center_indices']}",
        "center root subgroups: " + ", ".join(p["center_roots"]["display"]),
    ]


def _type(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    return 0, {**base, "type": groups.variety_type(A)}


def _split(args) -> tuple[int, dict]:
    A, base = _canonical(args)
    report = groups.split_projective_lines(A)
    rest = report.remaining
    return 0, {
        **base,
        "projective_lines": report.b,
        "removed_columns": [i + 1 for i in report.removed_columns],
        "removed_rays": [A.n + k + 1 for k in report.removed_rows],
        "remaining_ray_matrix": None if rest is None else [list(r) for r in rest.rows],
        "remaining_n": None if rest is None else rest.n,
    }


def _split_table(p: dict) -> list[str]:
    rest = p["remaining_ray_matrix"]
    return [
        f"projective-line factors: {p['projective_lines']}",
        f"remaining ray matrix: {rest if rest is not None else 'point'}",
    ]


def _verify(args) -> tuple[int, dict]:
    from . import coxaction  # with poly and liealg: only verify needs them

    A, base = _canonical(args)
    checks = coxaction.verify_all(A)
    ok = all(c.ok for c in checks)
    return 0 if ok else 1, {
        **base,
        "checks": [{"name": c.name, "cases": c.cases, "ok": c.ok} for c in checks],
        "ok": ok,
    }


def _verify_table(p: dict) -> list[str]:
    lines = [
        f"{c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['cases']} cases)"
        for c in p["checks"]
    ]
    lines.append("all checks passed" if p["ok"] else "verification FAILED")
    return lines


def _surface(args) -> tuple[int, dict]:
    from . import surfaces

    if args.enumerate:
        if args.sequence is not None or args.input is not None:
            raise InputError("conflicting-flags: --enumerate takes no --sequence or --input")
        if args.max_q is not None and args.max_q < 0:
            raise InputError(f"bad-max-q: --max-q must be at least 0, got {args.max_q}")
        max_m = args.max_m if args.max_m is not None else 6
        listed = surfaces.enumerate_smooth_surfaces(max_m, args.max_q)
        return 0, {
            "max_m": max_m,
            "max_q": args.max_q if args.max_q is not None else max_m,
            "count": len(listed),
            "sequences": [list(s.c) for s in listed],
            "radiant": [surfaces.is_radiant_sequence(s) for s in listed],
        }
    if args.max_m is not None or args.max_q is not None:
        raise InputError("conflicting-flags: --max-m and --max-q need --enumerate")
    if args.sequence is None and args.input is None:
        raise InputError("bad-source: surface needs --sequence, --input or --enumerate")
    kind, raw, _ = _source(args)
    if kind != "sequence":
        raise InputError("wrong-input: surface takes a sequence, not a fan")
    seq = surfaces.SurfaceSequence.of(raw)
    head = {"sequence": list(seq.c), "m": seq.m, "picard_rank": seq.picard_rank}
    try:
        report = surfaces.surface_report(seq)  # an invalid sequence raises InputError first
    except NotRadiantError:
        return 1, {**head, "radiant": False}
    return 0, {
        **head,
        "radiant": True,
        "type": report.type,
        "d": report.d,
        "ray_matrix": [list(r) for r in report.matrix.rows],
        "column_permutation": [p + 1 for p in report.column_permutation],
        "umax_shape": _shape_json(report.umax_shape),
        "umax_display": report.umax_shape.display(),
        "nilpotency_class": report.nilpotency_class,
        "derived_length": report.derived_length,
        "subgroup_count": report.enumeration.count,
        "subgroups": _root_rows(report.matrix, report.enumeration.positions)[0],
    }


def _surface_table(p: dict) -> list[str]:
    if "sequences" in p:
        return [f"smooth complete toric surfaces with m <= {p['max_m']}: {p['count']}"] + [
            f"  {s}  ({'radiant' if radiant else 'not radiant'})"
            for s, radiant in zip(p["sequences"], p["radiant"])
        ]
    if not p["radiant"]:
        return [f"sequence {p['sequence']}: not radiant"]
    return [
        f"sequence {p['sequence']}: radiant, type {p['type']}",
        f"ray matrix: {p['ray_matrix']}",
        f"d: {p['d']}",
        f"U_max = {p['umax_display']}",
        f"nilpotency class: {p['nilpotency_class']}",
        f"open-orbit subgroups: {p['subgroup_count']}",
    ]


# ---------------------------------------------------------------------------
# the command table


_FORMAT = ("--format", {"choices": ["json", "table"], "default": "json"})
_FAN = (
    ("--ray-matrix", {"help": "semicolon-separated rows of integers"}),
    ("--rays", {"help": "semicolon-separated rays of integers"}),
    ("--input", {"help": "JSON input document"}),
    _FORMAT,
)

#: name -> (compute, table, help, arguments).  ``compute(args)`` returns the
#: exit code and the JSON payload without its header; ``table(payload)``
#: gives the lines of any other ``--format`` (for ``dot`` the payload holds
#: them); the arguments are ``add_argument`` calls in order.
COMMANDS = {
    "bilateral": (_bilateral, _bilateral_table, "decide bilateral structure / radiance", _FAN),
    "roots": (_roots, _roots_table, "enumerate and classify all Demazure roots", _FAN),
    "umax": (_umax, _umax_table, "shape of the maximal unipotent subgroup", _FAN),
    "enumerate": (
        _enumerate, _enumerate_table, "all open-orbit regular unipotent subgroups",
        _FAN + (
            ("--histogram", {"action": "store_true",
                             "help": "include the dimension histogram"}),
            ("--max-results", {"type": int, "default": groups.MAX_ENUMERATION_RESULTS}),
        ),
    ),
    "series": (
        _series, _series_table, "central and derived series of U_max",
        _FAN[:-1] + (("--format", {"choices": ["json", "table", "dot"], "default": "json"}),),
    ),
    "center": (_center, _center_table, "center of U_max", _FAN),
    "type": (_type, lambda p: [f"type: {p['type']}"],
             "Type I (commutative U_max) or Type II", _FAN),
    "split": (_split, _split_table, "factor off projective lines (Type I only)", _FAN),
    "verify": (_verify, _verify_table, "symbolic verification battery", _FAN),
    "surface": (
        _surface, _surface_table, "analyse or enumerate smooth toric surfaces",
        (
            ("--sequence", {"help": "comma-separated self-intersection sequence"}),
            ("--input", {"help": "JSON input document"}),
            ("--enumerate", {"action": "store_true",
                             "help": "enumerate all sequences up to --max-m"}),
            ("--max-m", {"type": int, "default": None, "help": "ray-count cap (default 6)"}),
            ("--max-q", {"type": int, "default": None,
                         "help": "cap on the quadrilateral seed parameter (default max-m)"}),
            _FORMAT,
        ),
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, cmd: str) -> argparse.ArgumentParser:
    for flag, kwargs in COMMANDS[cmd][3]:
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared: building takes milliseconds, more
    # than a small analysis, and parse_args does not change the parser.
    parser = argparse.ArgumentParser(
        prog="toricroots",
        description="Demazure roots and unipotent automorphism structure "
        "of complete toric varieties, from exact ray data.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, _, help_text, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _command_parser(cmd: str) -> argparse.ArgumentParser:
    """The parser that ``build_parser`` hands ``cmd``'s arguments to, built
    alone: it parses, and fails, with the same usage text."""
    return _add_arguments(argparse.ArgumentParser(prog=f"toricroots {cmd}"), cmd)


_VALUE_FLAGS = ("--ray-matrix", "--rays", "--sequence")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--rays -1,0;...`` as ``--rays=-1,0;...``: argparse would
    take a value starting with ``-`` and a digit for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


#: Characters of output joined into one write.
_BATCH = 1 << 20


def _emit(out: list[str]) -> None:
    """Write the pieces of a whole report to stdout in batches of about
    ``_BATCH`` characters, so that its text never exists in one piece."""
    start = size = 0
    for stop, piece in enumerate(out, 1):
        size += len(piece)
        if size >= _BATCH:
            sys.stdout.write("".join(out[start:stop]))
            start, size = stop, 0
    sys.stdout.write("".join(out[start:]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args, unparsed = None, True
    if argv and argv[0] in COMMANDS:
        args, unparsed = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(cmd=argv[0]))
    if unparsed:  # no command, or arguments it leaves: the whole parser's usage and error
        args = build_parser().parse_args(argv)
    compute, table, _, _ = COMMANDS[args.cmd]
    try:
        exit_code, payload = compute(args)
        if args.format == "json":
            header = {"schema_version": SCHEMA_VERSION, "command": args.cmd}
            out = pieces({**header, **payload})
            out.append("\n")
        else:
            out = ["\n".join(table(payload)), "\n"]
        _emit(out)
        return exit_code
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ToricError as exc:  # invariant violations: report loudly
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except Exception as exc:  # a bug: report it, never as a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
