import json

import pytest

from pin_cli import FAN_COMMANDS, FANS, RAYS, SEQUENCES, commands, digest, load


def test_cli_bytes_match_the_pinned_digests():
    pinned = load()
    assert [e["argv"] for e in pinned] == commands()
    assert [e["argv"] for e in pinned if digest(e["argv"]) != e] == []


SPELLINGS = ([("ray_matrix", fan) for fan in FANS] + [("rays", rays) for rays in RAYS]
             + [("sequence", seq) for seq in SEQUENCES])


@pytest.mark.parametrize("kind, text", SPELLINGS)
def test_a_document_prints_the_bytes_of_its_flag(tmp_path, kind, text):
    """The ``--input`` document of a pinned flag input gives the same exit
    code, stdout and stderr, so the document path is held to the pins."""
    if kind == "sequence":
        doc = {"sequence": [int(x) for x in text.split(",")]}
        spellings = [("surface", f"--sequence={text}")]
    else:
        rows = [[int(x) for x in row.split()] for row in text.split(";")]
        doc = {"n": len(rows[0]), kind: rows}
        spellings = [(cmd, f"--{kind.replace('_', '-')}={text}") for cmd in FAN_COMMANDS]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for cmd, flag in spellings:
        for f in ("json", "table"):
            by_flag = digest([cmd, flag, "--format", f])
            by_document = digest([cmd, "--input", str(path), "--format", f])
            del by_flag["argv"], by_document["argv"]
            assert by_document == by_flag, (cmd, f)
