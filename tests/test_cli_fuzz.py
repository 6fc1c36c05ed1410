"""Fuzz test of the CLI input boundary: every ``--input`` document ends in
exit 0, 1 or 2, with no exception escaping ``main``, every exit 2 names its
violation, and a repeated call prints the same bytes.
The seed is fixed, so every run tries the same documents."""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from toricroots.cli import main

#: Every command but ``verify``, whose symbolic battery costs seconds on
#: the larger fans and reads its input through the same ``_canonical`` path.
COMMANDS = ("bilateral", "roots", "umax", "enumerate", "series", "center",
            "type", "split", "surface")

junk = st.one_of(
    st.booleans(),
    st.floats(-2, 3, allow_nan=False),
    st.sampled_from(["1", "a", ""]),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
leaves = st.integers(-2, 3) | junk
nested = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
#: Well-formed documents: analysed, outside an analysis's domain, or both.
VALID = [
    {"n": 1, "ray_matrix": [[1]]},
    {"n": 2, "ray_matrix": [[2, 1]]},
    {"n": 3, "ray_matrix": [[3, 2, 1]]},
    {"n": 3, "ray_matrix": [[1, 1, 0], [1, 0, 0], [0, 0, 1]]},
    {"n": 3, "ray_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]},
    {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]]},
    {"n": 2, "rays": [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]]},
    {"sequence": [-1, -1, -1]},
    {"sequence": [0, 2, 0, -2]},
    {"sequence": [1, 1, 1, 1, 1, 1]},
    {"sequence": [0, 1, 0, 1]},
]


@st.composite
def documents(draw):
    """A well-formed document or a small random one, then at most one
    fault: a bad ``n``, a bad entry, a replaced value or an extra key."""
    n = draw(st.integers(1, 3))
    random_rows = st.lists(st.lists(st.integers(-1, 3), min_size=n, max_size=n),
                           min_size=1, max_size=4)
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID) | st.fixed_dictionaries(
        {"n": st.just(n), draw(st.sampled_from(["ray_matrix", "rays"])): random_rows}
    ))))
    key = next(k for k in doc if k != "n")
    fault = draw(st.sampled_from(["none", "none", "n", "entry", "value", "key"]))
    if fault == "n":
        doc["n"] = draw(st.integers(-1, 4) | junk)
    elif fault == "entry":
        value = doc[key]
        target = value if key == "sequence" else value[draw(st.integers(0, len(value) - 1))]
        target[draw(st.integers(0, len(target) - 1))] = draw(junk)
    elif fault == "value":
        doc[key] = draw(nested)
    elif fault == "key":
        doc[draw(st.sampled_from(["n", "ray_matrix", "rays", "sequence"]))] = draw(nested)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(COMMANDS), doc=documents())
def test_input_documents_end_in_an_exit_code(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--input", path]
        code, out, err = run_main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert re.match(r"error: [a-z-]+: ", err), err
        assert run_main(argv) == (code, out, err)
