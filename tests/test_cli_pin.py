from pin_cli import commands, digest, load


def test_cli_bytes_match_the_pinned_digests():
    pinned = load()
    assert [e["argv"] for e in pinned] == commands()
    assert [e["argv"] for e in pinned if digest(e["argv"]) != e] == []
