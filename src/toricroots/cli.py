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

from . import coxaction, groups, roots, surfaces
from .errors import (
    DomainError,
    InputError,
    NotBilateralError,
    ResultCapError,
    ToricError,
)
from .fan import RayList, RayMatrix, bilateralize
from .groups import (
    AbelianPower,
    DirectProduct,
    RootGraph,
    RootSet,
    Semidirect,
    TriangularBlock,
)
from .lattice import as_int

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
    raise InputError(f"could not parse {what}: {text!r}")


def _parse_int_rows(text: str, what: str) -> list[list[int]]:
    rows = [_parse_ints(chunk.strip(), what) for chunk in text.split(";") if chunk.strip()]
    if not rows:
        raise InputError(f"empty {what}")
    return rows


def _load_input_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"input file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("input document must be a JSON object")
    return data


def _document_from_args(args) -> dict:
    sources = [
        s
        for s in (
            ("ray_matrix", getattr(args, "ray_matrix", None)),
            ("rays", getattr(args, "rays", None)),
            ("sequence", getattr(args, "sequence", None)),
            ("input", getattr(args, "input", None)),
        )
        if s[1] is not None
    ]
    if len(sources) != 1:
        raise InputError("exactly one input source is required "
                         "(--ray-matrix, --rays, --sequence or --input)")
    kind, value = sources[0]
    if kind == "input":
        doc = _load_input_file(value)
        keys = {"ray_matrix", "rays", "sequence"} & set(doc)
        if len(keys) != 1:
            raise InputError("input document needs exactly one of "
                             "'ray_matrix', 'rays', 'sequence'")
        key = keys.pop()
        if key == "sequence":
            if not isinstance(doc["sequence"], list):
                raise InputError("bad-shape: 'sequence' must be a list of integers")
            return {"sequence": doc["sequence"]}
        if "n" not in doc:
            raise InputError("input document needs 'n'")
        n = as_int(doc["n"])
        rows = doc[key]
        if (
            not isinstance(rows, list)
            or not rows
            or any(not isinstance(r, list) for r in rows)
        ):
            raise InputError(f"'{key}' must be a non-empty list of integer lists")
        if any(len(r) != n for r in rows):
            raise InputError("'n' must equal the row width")
        return {key: rows, "n": n}
    if kind == "sequence":
        return {"sequence": _parse_ints(value, "sequence")}
    rows = _parse_int_rows(value, kind.replace("_", " "))
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{kind.replace('_', ' ')} rows have unequal widths")
    return {kind: rows, "n": widths.pop()}


def _matrix_from_document(doc: dict) -> tuple[RayMatrix, Optional[dict]]:
    """Validated (non-canonical) ray matrix, plus bilateralization info when
    the input came as a ray list."""
    if "ray_matrix" in doc:
        return RayMatrix.validate(doc["ray_matrix"], doc["n"]), None
    if "rays" in doc:
        rl = RayList.validate(doc["rays"], doc["n"])
        witness = bilateralize(rl)
        if witness is None:
            raise NotBilateralError(
                "ray set is not bilateral: the variety is not radiant"
            )
        info = {
            "basis_rays": [i + 1 for i in witness.basis_indices],
            "ray_order": [i + 1 for i in witness.ray_order],
        }
        return witness.matrix, info
    raise InputError("this command needs a ray matrix or a ray list")


def _canonical(doc: dict) -> tuple[RayMatrix, dict]:
    raw, bilateral_info = _matrix_from_document(doc)
    perm, A = roots.canonical_reorder(raw)
    base = {
        "n": A.n,
        "m": A.m,
        "ray_matrix": [list(r) for r in A.rows],
        "column_permutation": [p + 1 for p in perm],
    }
    if bilateral_info:
        base["bilateralization"] = bilateral_info
    return A, base


# ---------------------------------------------------------------------------
# serializers


def _root_json(r: roots.DemazureRoot) -> dict:
    return {
        "coords": list(r.coords),
        "ray": r.ray + 1,
        "kind": r.kind,
        "parity": r.parity,
        "display": r.display(),
    }


def _rootset_json(rs: RootSet) -> dict:
    return {
        "dimension": rs.dimension,
        "roots": [list(r.coords) for r in rs.roots],
        "display": [r.display() for r in rs.roots],
    }


def _shape_json(shape) -> dict:
    if isinstance(shape, AbelianPower):
        return {"kind": "vector_group", "power": shape.power}
    if isinstance(shape, TriangularBlock):
        return {"kind": "triangular_block", "k": shape.k, "l": shape.l}
    if isinstance(shape, Semidirect):
        return {
            "kind": "semidirect",
            "factors": [_shape_json(f) for f in shape.factors],
        }
    if isinstance(shape, DirectProduct):
        return {
            "kind": "direct_product",
            "factors": [_shape_json(f) for f in shape.factors],
        }
    raise TypeError(shape)


def emit_dot(graph: RootGraph) -> str:
    """Root graph in DOT form: dashed arrows inside a level, dotted across."""
    lines = ["digraph root_graph {"]
    for v in sorted(graph.vertices):
        lines.append(f'  "{v.display()}";')
    for a in sorted(graph.arrows, key=lambda a: (a.source.coords, a.target.coords)):
        style = "dashed" if a.inner else "dotted"
        lines.append(
            f'  "{a.source.display()}" -> "{a.target.display()}" [style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_table(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_bilateral(args) -> int:
    doc = _document_from_args(args)
    if "sequence" in doc:
        raise InputError("bilateral expects rays or a ray matrix")
    if "ray_matrix" in doc:
        A = RayMatrix.validate(doc["ray_matrix"], doc["n"])
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "bilateral",
            "bilateral": True,
            "basis_rays": list(range(1, A.n + 1)),
            "ray_order": list(range(1, A.m + 1)),
            "ray_matrix": [list(r) for r in A.rows],
            "n": A.n,
        }
    else:
        rl = RayList.validate(doc["rays"], doc["n"])
        witness = bilateralize(rl)
        if witness is None:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "command": "bilateral",
                "bilateral": False,
                "n": rl.n,
            }
        else:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "command": "bilateral",
                "bilateral": True,
                "basis_rays": [i + 1 for i in witness.basis_indices],
                "ray_order": [i + 1 for i in witness.ray_order],
                "ray_matrix": [list(r) for r in witness.matrix.rows],
                "n": rl.n,
            }
    if args.format == "table":
        lines = [f"bilateral: {'yes' if payload['bilateral'] else 'no'}"]
        if payload["bilateral"]:
            lines.append(f"basis rays: {payload['basis_rays']}")
            lines.append(f"ray matrix rows: {payload['ray_matrix']}")
        _print_table(lines)
    else:
        _print_json(payload)
    return 0


def _cmd_roots(args) -> int:
    A, base = _canonical(_document_from_args(args))
    system = roots.demazure_roots(A)
    pos = roots.positive_roots(A)
    pre = roots.column_preorder(A)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "roots",
        **base,
        "classes": [[i + 1 for i in cls] for cls in pre.classes],
        "class_cuts": list(pre.cuts),
        "roots": [_root_json(r) for r in system.roots],
        "count": len(system.roots),
        "by_ray": [[list(r.coords) for r in level] for level in system.by_ray],
        "positive_by_ray": [[list(r.coords) for r in level] for level in pos],
        "positive_count": sum(len(level) for level in pos),
    }
    if args.format == "table":
        lines = [
            f"ray matrix (canonical): {payload['ray_matrix']}",
            f"column permutation: {payload['column_permutation']}",
            f"roots: {payload['count']}",
        ]
        for l, level in enumerate(system.by_ray):
            shown = ", ".join(r.display() for r in level) or "(none)"
            lines.append(f"R_{l + 1}: {shown}")
        lines.append("positive roots by level:")
        for i, level in enumerate(pos):
            lines.append(f"R+_{i + 1}: " + ", ".join(r.display() for r in level))
        _print_table(lines)
    else:
        _print_json(payload)
    return 0


def _cmd_umax(args) -> int:
    A, base = _canonical(_document_from_args(args))
    report = groups.umax_shape(A)
    uss = groups.uss_shape(A)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "umax",
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
    if args.format == "table":
        _print_table(
            [
                f"U_max = {report.shape.display()}",
                f"per-level refinement: {report.per_ray_shape.display()}",
                f"U_ss = {uss.shape.display()}",
                f"simple components: {uss.simple_components}",
                f"column permutation: {payload['column_permutation']}",
            ]
        )
    else:
        _print_json(payload)
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_results < 1:
        # every radiant fan has at least U_max itself
        raise InputError(f"bad-max-results: --max-results must be at least 1, "
                         f"got {args.max_results}")
    A, base = _canonical(_document_from_args(args))
    exit_code = 0
    try:
        result = groups.enumerate_open_orbit_subgroups(A, max_results=args.max_results)
    except ResultCapError as exc:
        # still report what was found, flagged as incomplete
        result = exc.partial
        exit_code = 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        **base,
        "count": result.count,
        "complete": result.complete,
        "subgroups": [_rootset_json(rs) for rs in result.subgroups],
    }
    if args.histogram:
        payload["histogram"] = [list(pair) for pair in result.histogram]
    if args.format == "table":
        suffix = "" if result.complete else " (incomplete: cap reached)"
        lines = [f"open-orbit regular unipotent subgroups: {result.count}{suffix}"]
        if args.histogram:
            for dim, count in result.histogram:
                lines.append(f"dimension {dim}: {count}")
        for rs in result.subgroups:
            lines.append("  {" + ", ".join(r.display() for r in rs.roots) + "}")
        _print_table(lines)
    else:
        _print_json(payload)
    return exit_code


def _cmd_series(args) -> int:
    A, base = _canonical(_document_from_args(args))
    pos = roots.positive_roots(A)
    M = RootSet.of(A.n, [r for level in pos for r in level])
    if args.format == "dot":
        sys.stdout.write(emit_dot(groups.root_graph(M)))
        return 0
    report = groups.series_report(M)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "series",
        **base,
        "nilpotency_class": report.nilpotency_class,
        "derived_length": report.derived_length,
        "longest_path": report.longest_path,
        "lower": [_rootset_json(rs) for rs in report.lower],
        "upper": [_rootset_json(rs) for rs in report.upper],
        "derived": [_rootset_json(rs) for rs in report.derived],
        "center_indices": [i + 1 for i in report.center_indices or ()],
    }
    if args.format == "table":
        _print_table(
            [
                f"nilpotency class: {report.nilpotency_class}",
                f"derived length: {report.derived_length}",
                f"longest path in the root graph: {report.longest_path}",
                "lower central series sizes: "
                + " > ".join(str(t.dimension) for t in report.lower),
                "upper central series sizes: "
                + " < ".join(str(t.dimension) for t in report.upper),
                "derived series sizes: "
                + " > ".join(str(t.dimension) for t in report.derived),
            ]
        )
    else:
        _print_json(payload)
    return 0


def _cmd_center(args) -> int:
    A, base = _canonical(_document_from_args(args))
    pos = roots.positive_roots(A)
    M = RootSet.of(A.n, [r for level in pos for r in level])
    report = groups.center(M, A)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "center",
        **base,
        "center_indices": [i + 1 for i in report.indices],
        "center_roots": _rootset_json(report.roots),
    }
    if args.format == "table":
        _print_table(
            [
                f"center indices: {payload['center_indices']}",
                "center root subgroups: "
                + ", ".join(r.display() for r in report.roots.roots),
            ]
        )
    else:
        _print_json(payload)
    return 0


def _cmd_type(args) -> int:
    A, base = _canonical(_document_from_args(args))
    kind = groups.variety_type(A)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "type",
        **base,
        "type": kind,
    }
    if args.format == "table":
        _print_table([f"type: {kind}"])
    else:
        _print_json(payload)
    return 0


def _cmd_split(args) -> int:
    A, base = _canonical(_document_from_args(args))
    report = groups.split_projective_lines(A)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "split",
        **base,
        "projective_lines": report.b,
        "removed_columns": [i + 1 for i in report.removed_columns],
        "removed_rays": [A.n + k + 1 for k in report.removed_rows],
        "remaining_ray_matrix": (
            None if report.remaining is None else [list(r) for r in report.remaining.rows]
        ),
        "remaining_n": None if report.remaining is None else report.remaining.n,
    }
    if args.format == "table":
        rest = payload["remaining_ray_matrix"]
        _print_table(
            [
                f"projective-line factors: {report.b}",
                f"remaining ray matrix: {rest if rest is not None else 'point'}",
            ]
        )
    else:
        _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    A, base = _canonical(_document_from_args(args))
    checks = coxaction.verify_all(A)
    ok = all(c.ok for c in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        **base,
        "checks": [
            {"name": c.name, "cases": c.cases, "ok": c.ok} for c in checks
        ],
        "ok": ok,
    }
    if args.format == "table":
        lines = [
            f"{c.name}: {'ok' if c.ok else 'FAILED'} ({c.cases} cases)" for c in checks
        ]
        lines.append("all checks passed" if ok else "verification FAILED")
        _print_table(lines)
    else:
        _print_json(payload)
    return 0 if ok else 1


def _cmd_surface(args) -> int:
    if args.enumerate:
        max_m = args.max_m if args.max_m is not None else 6
        listed = surfaces.enumerate_smooth_surfaces(max_m, args.max_q)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "surface",
            "max_m": max_m,
            "max_q": args.max_q if args.max_q is not None else max_m,
            "count": len(listed),
            "sequences": [list(s.c) for s in listed],
            "radiant": [surfaces.is_radiant_sequence(s) for s in listed],
        }
        if args.format == "table":
            lines = [f"smooth complete toric surfaces with m <= {max_m}: {len(listed)}"]
            for s in listed:
                tag = "radiant" if surfaces.is_radiant_sequence(s) else "not radiant"
                lines.append(f"  {list(s.c)}  ({tag})")
            _print_table(lines)
        else:
            _print_json(payload)
        return 0
    if args.sequence is None and args.input is None:
        raise InputError("surface needs --sequence, --input or --enumerate")
    doc = _document_from_args(args)
    if "sequence" not in doc:
        raise InputError("surface expects a sequence input")
    seq = surfaces.SurfaceSequence.of(doc["sequence"])
    surfaces.sequence_to_rays(seq)  # validate before the radiance gate
    if not surfaces.is_radiant_sequence(seq):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "surface",
            "sequence": list(seq.c),
            "m": seq.m,
            "picard_rank": seq.picard_rank,
            "radiant": False,
        }
        if args.format == "table":
            _print_table([f"sequence {list(seq.c)}: not radiant"])
        else:
            _print_json(payload)
        return 1
    report = surfaces.surface_report(seq)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "surface",
        "sequence": list(seq.c),
        "m": report.m,
        "picard_rank": report.picard_rank,
        "radiant": True,
        "type": report.type,
        "d": report.d,
        "ray_matrix": [list(r) for r in report.matrix.rows],
        "column_permutation": [p + 1 for p in report.column_permutation],
        "umax_shape": _shape_json(report.umax_shape),
        "umax_display": report.umax_shape.display(),
        "nilpotency_class": report.nilpotency_class,
        "derived_length": report.derived_length,
        "subgroup_count": len(report.subgroups),
        "subgroups": [_rootset_json(rs) for rs in report.subgroups],
    }
    if args.format == "table":
        _print_table(
            [
                f"sequence {list(seq.c)}: radiant, type {report.type}",
                f"ray matrix: {payload['ray_matrix']}",
                f"d: {report.d}",
                f"U_max = {report.umax_shape.display()}",
                f"nilpotency class: {report.nilpotency_class}",
                f"open-orbit subgroups: {len(report.subgroups)}",
            ]
        )
    else:
        _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_fan_inputs(sub) -> None:
    sub.add_argument("--ray-matrix", help="semicolon-separated rows of integers")
    sub.add_argument("--rays", help="semicolon-separated rays of integers")
    sub.add_argument("--input", help="JSON input document")


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

    specs = [
        ("bilateral", _cmd_bilateral, "decide bilateral structure / radiance"),
        ("roots", _cmd_roots, "enumerate and classify all Demazure roots"),
        ("umax", _cmd_umax, "shape of the maximal unipotent subgroup"),
        ("enumerate", _cmd_enumerate, "all open-orbit regular unipotent subgroups"),
        ("series", _cmd_series, "central and derived series of U_max"),
        ("center", _cmd_center, "center of U_max"),
        ("type", _cmd_type, "Type I (commutative U_max) or Type II"),
        ("split", _cmd_split, "factor off projective lines (Type I only)"),
        ("verify", _cmd_verify, "symbolic verification battery"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_fan_inputs(p)
        fmts = ["json", "table", "dot"] if name == "series" else ["json", "table"]
        p.add_argument("--format", choices=fmts, default="json")
        if name == "enumerate":
            p.add_argument("--histogram", action="store_true",
                           help="include the dimension histogram")
            p.add_argument("--max-results", type=int,
                           default=groups.MAX_ENUMERATION_RESULTS)
        p.set_defaults(func=func)

    p = sub.add_parser("surface", help="analyse or enumerate smooth toric surfaces")
    p.add_argument("--sequence", help="comma-separated self-intersection sequence")
    p.add_argument("--input", help="JSON input document")
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate all sequences up to --max-m")
    p.add_argument("--max-m", type=int, default=None, help="ray-count cap (default 6)")
    p.add_argument("--max-q", type=int, default=None,
                   help="cap on the quadrilateral seed parameter (default max-m)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_surface, ray_matrix=None, rays=None)

    return parser


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
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
