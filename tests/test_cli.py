import json

import pytest

from toricroots import canonical_reorder, center, coxaction, enumerate_open_orbit_subgroups
from toricroots import series_report, validate_ray_matrix
from toricroots.cli import main
from toricroots.errors import InvariantViolation
from toricroots.groups import umax_rootset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_roots_command_weighted_projective(capsys):
    code, payload = run_json(capsys, "roots", "--ray-matrix", "3 2 1")
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["count"] == 11
    assert payload["positive_count"] == 10
    assert payload["column_permutation"] == [1, 2, 3]
    assert payload["by_ray"][3] == [[0, 0, 1]]
    assert len(payload["positive_by_ray"][0]) == 6


def test_enumerate_command_histogram(capsys):
    code, payload = run_json(
        capsys, "enumerate", "--ray-matrix", "3 2 1", "--histogram"
    )
    assert code == 0
    assert payload["count"] == 27
    assert payload["histogram"] == [
        [3, 1], [4, 3], [5, 4], [6, 6], [7, 5], [8, 5], [9, 2], [10, 1],
    ]
    assert payload["complete"] is True


def test_enumerate_cap_emits_partial_output(capsys):
    code, out, err = run(
        capsys, "enumerate", "--ray-matrix", "3 2 1", "--max-results", "5"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["count"] == 5
    assert len(payload["subgroups"]) == 5


def test_surface_not_radiant_exits_one(capsys):
    code, out, err = run(capsys, "surface", "--sequence", "1,1,1,1,1,1")
    assert code == 1
    payload = json.loads(out)
    assert payload["radiant"] is False


def test_surface_report_and_enumerate(capsys):
    code, payload = run_json(capsys, "surface", "--sequence", "0,2,0,-2")
    assert code == 0
    assert payload["radiant"] and payload["d"] == 2
    assert payload["subgroup_count"] == 3

    code, payload = run_json(capsys, "surface", "--enumerate", "--max-m", "5")
    assert code == 0
    assert [1, 1, 1] not in payload["sequences"]
    assert all(payload["radiant"])


def test_bilateral_command(capsys):
    code, payload = run_json(capsys, "bilateral", "--rays", "1 0; 0 1; -1 -1")
    assert code == 0
    assert payload["bilateral"] is True
    assert payload["basis_rays"] == [1, 2]
    assert payload["ray_matrix"] == [[1, 1]]

    hexagon = "1 0; 0 1; -1 1; -1 0; 0 -1; 1 -1"
    code, payload = run_json(capsys, "bilateral", "--rays", hexagon)
    assert code == 0
    assert payload["bilateral"] is False


def test_rays_input_feeds_analyses(capsys):
    code, payload = run_json(capsys, "type", "--rays", "1 0; 0 1; -1 -1")
    assert code == 0 and payload["type"] == "II"
    # non-bilateral rays are a domain error for radiant-only analyses
    hexagon = "1 0; 0 1; -1 1; -1 0; 0 -1; 1 -1"
    code, out, err = run(capsys, "roots", "--rays", hexagon)
    assert code == 1 and "not radiant" in err


def test_series_command_and_dot(capsys):
    code, payload = run_json(capsys, "series", "--ray-matrix", "3 2 1")
    assert code == 0
    assert payload["nilpotency_class"] == 5
    assert payload["derived_length"] == 3
    assert payload["center_indices"] == [1]

    code, dot, err = run(capsys, "series", "--ray-matrix", "3 2 1", "--format", "dot")
    assert code == 0 and err == ""
    assert dot.startswith("digraph")
    assert dot.count("->") == 24
    assert dot.count("style=dashed") == 12 and dot.count("style=dotted") == 12
    assert '"-q3" -> "-q2" [style=dotted];' in dot

    code, dot2, _ = run(capsys, "series", "--ray-matrix", "1 1", "--format", "dot")
    assert dot2.count("->") == 2  # the projective plane graph has two arrows


def test_dot_isolated_vertices(capsys):
    # incomparable columns: no arrows, nodes still listed
    code, dot, _ = run(
        capsys, "series", "--ray-matrix", "0 1 1; 1 0 1; 1 1 0; 1 1 1",
        "--format", "dot",
    )
    assert code == 0
    assert dot.count("->") == 0
    assert dot.count('"-q') == 3


def test_umax_center_split_type(capsys):
    code, payload = run_json(capsys, "umax", "--ray-matrix", "3 2 1")
    assert code == 0
    assert payload["shape_display"] == "(G_a ⋉ G_a^3) ⋉ G_a^6"
    assert payload["simple_components"] == 1

    code, payload = run_json(capsys, "center", "--ray-matrix", "1 1 0; 1 0 0; 0 0 1")
    assert payload["center_indices"] == [1, 3]

    code, payload = run_json(
        capsys, "split", "--ray-matrix", "1 0 0; 0 0 1; 0 1 0; 0 1 1"
    )
    assert payload["projective_lines"] == 1
    assert payload["remaining_ray_matrix"] == [[0, 1], [1, 0], [1, 1]]

    code, out, err = run(capsys, "split", "--ray-matrix", "3 2 1")
    assert code == 1 and "Type I" in err


def test_verify_command(capsys):
    code, payload = run_json(capsys, "verify", "--ray-matrix", "1 1")
    assert code == 0 and payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {
        "one-parameter-law",
        "conjugation-identity",
        "first-order-bracket",
        "matrix-embedding",
    }


def test_input_file_and_schema_round_trip(tmp_path, capsys):
    doc = {"n": 3, "ray_matrix": [[3, 2, 1]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, payload = run_json(capsys, "roots", "--input", str(path))
    assert code == 0 and payload["count"] == 11

    seq_doc = {"sequence": [0, 1, 0, -1]}
    path2 = tmp_path / "seq.json"
    path2.write_text(json.dumps(seq_doc), encoding="utf-8")
    code, payload = run_json(capsys, "surface", "--input", str(path2))
    assert code == 0 and payload["d"] == 1

    # echoing the reported matrix back in reproduces the same analysis
    again = {"n": 2, "ray_matrix": payload["ray_matrix"]}
    path3 = tmp_path / "fan2.json"
    path3.write_text(json.dumps(again), encoding="utf-8")
    code, payload2 = run_json(capsys, "series", "--input", str(path3))
    assert code == 0 and payload2["nilpotency_class"] == payload["nilpotency_class"]


def test_malformed_inputs_exit_two(capsys):
    cases = [
        ("roots", "--ray-matrix", "oops"),
        ("roots", "--ray-matrix", "1 0; 1 0"),
        ("roots", "--ray-matrix", "1 0; 0 -1"),
        ("series", "--ray-matrix", "1 2; 3"),
        ("umax",),
        ("surface", "--sequence", "0,0,0"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        b'{"n": 1, "ray_matrix": [[1]], "note": "\xff"}',
        b'{"n": 1, "ray_matrix": [[1]], "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"n": 1, "ray_matrix": [[' + b"1" * 5000 + b"]]}",
    ],
    ids=["not-utf8", "deep-nesting", "huge-int-literal"],
)
def test_unreadable_input_files_exit_two(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "roots", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad-json: input file is not valid JSON: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_two_sources_rejected(capsys):
    code, out, err = run(
        capsys, "roots", "--ray-matrix", "1 1", "--rays", "1 0; 0 1; -1 -1"
    )
    assert code == 2 and "exactly one input source" in err


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "enumerate", "--ray-matrix", "3 2 1", "--histogram"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    code1, table1, _ = run(capsys, "roots", "--ray-matrix", "3 2 1", "--format", "table")
    code2, table2, _ = run(capsys, "roots", "--ray-matrix", "3 2 1", "--format", "table")
    assert table1 == table2


def test_negative_values_in_space_separated_form(capsys):
    cases = [
        ("surface", "--sequence", "-1,-1,-1"),
        ("bilateral", "--rays", "-1,-1;1,0;0,1"),
        ("roots", "--rays", "-1,-1;1,0;0,1"),
        ("roots", "--ray-matrix", "-1 2"),
    ]
    for cmd, flag, value in cases:
        spaced = run(capsys, cmd, flag, value)
        joined = run(capsys, cmd, f"{flag}={value}")
        assert spaced == joined, (cmd, flag)
    assert run(capsys, "surface", "--sequence", "-1,-1,-1")[0] == 0
    assert run(capsys, "roots", "--ray-matrix", "-1 2")[0] == 2


def test_root_cap_exits_one_without_traceback(capsys):
    code, out, err = run(capsys, "roots", "--ray-matrix", "99999999999 1 1")
    assert code == 1 and out == ""
    assert err == (
        "error: root cap exceeded: the ray matrix has more than "
        "1000000 Demazure roots (MAX_ROOTS)\n"
    )


def test_surface_enumeration_cap_exits_one_without_traceback(capsys):
    code, out, err = run(capsys, "surface", "--enumerate", "--max-m", "4", "--max-q", "1000000000")
    assert code == 1 and out == ""
    assert err == (
        "error: surface enumeration cap exceeded: more than "
        "50000 sequences (MAX_SURFACE_SEQUENCES)\n"
    )


@pytest.mark.parametrize(
    "argv, doc, violation",
    [
        (["roots"], {"n": 2, "ray_matrix": [[1, 1.5]]}, "non-integer: 1.5 "),
        (["roots"], {"n": True, "ray_matrix": [[1]]}, "non-integer: True "),
        (["roots"], {"n": 2, "ray_matrix": [[1, "2"]]}, "non-integer: '2' "),
        (["roots"], {"n": 2, "rays": [[1, "a"], [0, 1], [-1, -1]]}, "non-integer: 'a' "),
        (["surface"], {"sequence": 5}, "bad-shape: 'sequence' "),
        (["enumerate", "--ray-matrix", "1 1", "--max-results", "-1"], None, "bad-max-results: "),
        (["surface", "--enumerate", "--max-m", "5", "--max-q", "-3"], None, "bad-max-q: "),
        (["surface", "--sequence=0,2,0,-2", "--max-m", "3"], None, "conflicting-flags: "),
        (["surface", "--sequence=0,2,0,-2", "--max-q", "1"], None, "conflicting-flags: "),
        (["surface", "--enumerate", "--sequence=0,2,0,-2", "--max-m", "4"], None,
         "conflicting-flags: "),
        (["surface", "--enumerate"], {"sequence": [0, 1, 0, -1]}, "conflicting-flags: "),
        (["roots"], {"n": 2, "ray_matrix": [[], []]}, "bad-shape: every row "),
        (["umax"], {"n": 2, "ray_matrix": [[1, 1], [1]]}, "bad-shape: every row "),
        (["series"], {"n": 2, "ray_matrix": "1 1"}, "bad-shape: 'ray_matrix' "),
        (["bilateral"], {"n": 2, "rays": []}, "bad-shape: at least one ray "),
        (["bilateral"], {"sequence": [0, 1, 0, -1]}, "wrong-input: "),
        (["center"], {"sequence": [0, 1, 0, -1]}, "wrong-input: "),
        (["surface"], {"n": 1, "ray_matrix": [[1]]}, "wrong-input: "),
        (["roots"], {"ray_matrix": [[1, 1]]}, "bad-document: "),
        (["roots"], {"n": 2, "ray_matrix": [[1, 1]], "rays": [[1, 0]]}, "bad-document: "),
    ],
)
def test_input_faults_exit_two_with_named_violation(tmp_path, capsys, argv, doc, violation):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + violation) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roots", "--ray-matrix", "1_0 1"], "could not parse ray matrix: '1_0 1'"),
        (["roots", "--ray-matrix", "\uff11 1"], "could not parse ray matrix: '\uff11 1'"),
        (["roots", "--rays", "1 0; 0 1; -1 -1_0"], "could not parse rays: '-1 -1_0'"),
        (["surface", "--sequence=0,1_0,0,-1"], "could not parse sequence: '0,1_0,0,-1'"),
        (["surface", "--sequence=0,\u0662,0,-2"], "could not parse sequence: '0,\u0662,0,-2'"),
        (["roots", "--ray-matrix", "0x1 1"], "could not parse ray matrix: '0x1 1'"),
    ],
)
def test_only_ascii_integer_tokens_are_read(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: bad-token: {message}\n")


def test_invariant_violation_exits_three(capsys, monkeypatch):
    def planted(A):
        raise InvariantViolation("planted fault")

    monkeypatch.setattr(coxaction, "verify_all", planted)
    assert run(capsys, "verify", "--ray-matrix", "1 1") == (3, "", "internal error: planted fault\n")


def test_unexpected_exception_exits_three_without_traceback(capsys, monkeypatch):
    def planted(A):
        raise ZeroDivisionError("planted fault")

    monkeypatch.setattr(coxaction, "verify_all", planted)
    assert run(capsys, "verify", "--ray-matrix", "1 1") == (
        3, "", "internal error: ZeroDivisionError: planted fault\n"
    )


#: Small fans, three of them in a non-canonical column order.
AGREEMENT_FANS = ["3 2 1", "1 2 3", "4 3 2 1", "2 1 1; 1 1 0", "1 1 0; 1 0 0; 0 0 1",
                  "0 1 1; 1 0 1; 1 1 0; 1 1 1", "1 1 2; 0 0 1", "1 1 1 1 1; 0 0 1 2 0",
                  "1 1", "5 2; 1 1"]


def rootset_views(rootsets):
    return [{"dimension": rs.dimension, "roots": [list(r.coords) for r in rs.roots],
             "display": [r.display() for r in rs.roots]} for rs in rootsets]


@pytest.mark.parametrize("fan", AGREEMENT_FANS)
def test_cli_root_sets_are_the_library_views(capsys, fan):
    rows = [[int(x) for x in row.split()] for row in fan.split(";")]
    _, A = canonical_reorder(validate_ray_matrix(rows, len(rows[0])))
    outputs = [run_json(capsys, cmd, "--ray-matrix", fan) for cmd in ("enumerate", "series", "center")]
    assert [code for code, _ in outputs] == [0, 0, 0]
    (_, enumerated), (_, series), (_, centered) = outputs
    assert enumerated["subgroups"] == rootset_views(enumerate_open_orbit_subgroups(A).subgroups)
    report = series_report(umax_rootset(A))
    for term in ("lower", "upper", "derived"):
        assert series[term] == rootset_views(getattr(report, term))
    assert [centered["center_roots"]] == rootset_views([center(umax_rootset(A)).roots])
