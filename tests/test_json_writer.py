"""The CLI's JSON writer against the standard library's encoder: the same
bytes on every value it takes, ``TypeError`` on any other, and a payload it
cannot write ends in exit 3 with nothing on stdout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricroots import cli, groups

from oracles import stdlib_json

#: Characters JSON escapes or that lie outside ASCII, mixed with plain ones.
awkward = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f⋉×é\U0001d54f'), max_size=6)
strings = awkward | st.text(max_size=6)
ints = st.integers() | st.sampled_from([0, 10**30, -(10**30), 2**63, -(2**63)])
#: Ints with ``True``/``False`` mixed in, so the all-int fast path must not
#: take a list holding a bool.
int_or_bool = ints | st.booleans()
leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    strings,
    st.lists(int_or_bool, max_size=5),
    st.lists(st.lists(int_or_bool, max_size=4), max_size=4),
    st.lists(strings, max_size=4),
)


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    )


values = st.recursive(leaves, containers, max_leaves=24)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(values)
def test_writer_matches_the_stdlib_encoder(value):
    assert cli._dumps(value) == stdlib_json(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [[], [1]], [[1], []], [{}], {"": []}, [(1, 2), [3]],
    [[1, True]], [[1], ["a"]], [1, "a"], [None, False], {"b": 1, "a": {"c": [[0]]}},
    "", " ", -(10**30),
])
def test_writer_on_edge_cases(value):
    assert cli._dumps(value) == stdlib_json(value)


@pytest.mark.parametrize("value", [
    0.5, {1, 2}, [1.0], {"a": [[1, 2.5]]}, {1: "a"}, {"a": 1, 2: "b"}, b"x", object(),
])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_a_float_in_a_payload_exits_three_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(groups, "variety_type", lambda A: 0.5)
    code = cli.main(["type", "--ray-matrix", "1 1"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == "internal error: TypeError: Object of type float is not JSON serializable\n"
