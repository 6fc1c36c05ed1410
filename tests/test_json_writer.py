"""The CLI's JSON writer against the standard library's encoder: the same
bytes on every value it takes, also where one tuple object recurs or equal
tuples are written differently, ``TypeError`` on any other value, and a
payload it cannot write ends in exit 3 with nothing on stdout."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricroots import cli, groups, jsonout

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
    assert jsonout.dumps(value) == stdlib_json(value)


def _with_int_copies(pool):
    return pool + [tuple(map(int, t)) for t in pool]


#: Int tuples (bools mixed in), each with an equal but distinct copy whose
#: bools are ints: ``(1, True) == (1, 1)``, but their JSON differs.
tuple_pools = st.lists(
    st.lists(int_or_bool, max_size=3).map(tuple), min_size=1, max_size=4,
).map(_with_int_copies)


def shared_tuples(pool):
    """Values whose leaves are the pool's own tuple objects, so the same
    tuple recurs within one list and at several depths."""
    picks = st.sampled_from(pool)
    return st.recursive(picks | st.lists(picks, max_size=6), containers, max_leaves=16)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(tuple_pools.flatmap(shared_tuples))
def test_writer_matches_the_stdlib_encoder_on_shared_tuples(value):
    assert jsonout.dumps(value) == stdlib_json(value)


#: One tuple object at several depths.
_T = (1, -2)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_Pair = collections.namedtuple("_Pair", "a b")


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [[], [1]], [[1], []], [{}], {"": []}, [(1, 2), [3]],
    [[1, True]], [[1], ["a"]], [1, "a"], [None, False], {"b": 1, "a": {"c": [[0]]}},
    "", " ", -(10**30),
    # tuples that are equal but written differently, empty, or repeated
    [(1, 1), (1, True)], [(1, True), (1, 1)], [[(1, 1)], [(1, True)]],
    [(), ()], [(), (1,), ()], [{"a": (1, 2)}], [{"a": [(1, 2), (1, 2)]}, [(1, 2)]],
    [_T, [_T, [_T]], {"k": [_T, _T]}, (_T, [_T])], [(_T,), (_T,)],
    # lists of dicts: key sets that differ, one key set in two insertion
    # orders, empty dicts among them, one key set at several depths
    [{"a": 1}, {"b": 2}, {"a": 3, "b": [4]}, {"b": {"a": 5}}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5, "b": 6}],
    [{"a": 1}, {}, {"a": 2}], [{}, {"a": {}}, {}], [{"a": [{}, {"a": []}]}],
    {"k": [{"k": [{"k": 1}]}], "a": [[{"k": 2}]]},
    # dicts that share one tuple object under several keys
    [{"x": _T, "y": _T, "z": [_T, {"w": _T}]}, {"y": _T, "x": (_T,)}],
    # lists led by a tuple or a str, with other items after it
    [_T, 1, "a", [_T], {"k": _T}], [(), {}], ["a", 1, None], ["a", _T],
    # subclasses, written as their base type
    _Str("a"), _Int(3), [_Str("a"), "b"], [_Int(1), 2], _List([1, _Int(2)]), _List(),
    _Dict(a=1), _Dict(), {_Str("k"): _List([_Dict(b=_Str("c"))])}, _Pair(1, 2),
    [_Pair(1, 2), _Pair(3, 4)], [_T, _Pair(1, 2)], [_Pair(1, 2), _T],
])
def test_writer_on_edge_cases(value):
    assert jsonout.dumps(value) == stdlib_json(value)


@pytest.mark.parametrize("value", [
    0.5, {1, 2}, [1.0], {"a": [[1, 2.5]]}, {1: "a"}, {"a": 1, 2: "b"}, b"x", object(),
    # a float tuple equal to an int tuple written before it
    [(1,), (1.0,)], [[(1,)], [(1.0,)]], [(1, 2), (1, 2.0)],
    # a non-str key in the second dict of a list, with or without the keys
    # of the first
    [{"a": 1}, {2: "b"}], [{"a": 1}, {"a": 1, 2: "b"}], [{"a": 1}, {True: 1}],
    [_T, 0.5], ["a", 0.5], [{"a": 1}, {"a": 0.5}],
])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        jsonout.dumps(value)


def expand(value):
    """``value`` with each ``Rows`` replaced by the list of dicts it stands for."""
    if isinstance(value, jsonout.Rows):
        return [
            {value.size_key: len(t), **{k: [v[i] for i in t] for k, v in value.columns.items()}}
            for t in value.members
        ]
    if isinstance(value, dict):
        return {k: expand(x) for k, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [expand(x) for x in value]
    return value


#: Values the writer takes as leaves, so a ``Rows`` column may hold them.
row_values = st.one_of(
    st.none(), st.booleans(), ints, strings, st.just({}),
    st.lists(ints, max_size=4), st.lists(ints, max_size=4).map(tuple),
    st.lists(strings, max_size=3), st.lists(st.lists(ints, min_size=1, max_size=3), max_size=3),
)


@st.composite
def shared_rows(draw):
    """Values holding ``Rows`` at several depths whose columns come from one
    pool, so one column recurs under several keys, indents and rows.
    Positions may be bools or negative: ``(1, True)`` and ``(1, 1)`` are the
    same rows."""
    size = draw(st.integers(0, 5))
    pool = draw(st.lists(st.lists(row_values, min_size=size, max_size=size), min_size=1, max_size=3))
    positions = st.integers(-size, size - 1) | st.booleans() if size >= 2 else st.integers(-size, 0)
    members = st.lists(st.lists(positions, max_size=6 if size else 0).map(tuple), min_size=1, max_size=5)
    columns = st.dictionaries(strings, st.sampled_from(pool), min_size=1, max_size=3)
    table = st.builds(jsonout.Rows, strings, columns, members).filter(
        lambda rows: rows.size_key not in rows.columns)
    return [draw(st.recursive(table, lambda inner: containers(inner | leaves), max_leaves=6)), draw(table)]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(shared_rows())
def test_rows_match_the_stdlib_encoder_on_the_dicts_they_stand_for(value):
    assert jsonout.dumps(value) == stdlib_json(expand(value))


_COLUMNS = {"roots": [(-1, 0), (0, -1), (-1, 1)], "display": ["-q1", "-q2", "-q1+q2"]}


@pytest.mark.parametrize("value", [
    jsonout.Rows("dimension", _COLUMNS, []),
    jsonout.Rows("dimension", _COLUMNS, [()]),
    jsonout.Rows("dimension", _COLUMNS, [(), (0,), ()]),
    jsonout.Rows("dimension", {}, [(0, 1), ()]),
    jsonout.Rows("dimension", _COLUMNS, [(0, 1, 2), (1, True), (1, 1), (True, 1), (-1,)]),
    # equal but distinct columns: their values are written differently
    [jsonout.Rows("n", {"a": [1, 0]}, [(0, 1)]), jsonout.Rows("n", {"a": [True, False]}, [(0, 1)])],
    # one column object at several depths and in several rows lists
    {"a": jsonout.Rows("n", _COLUMNS, [(0,)]),
     "b": [jsonout.Rows("n", _COLUMNS, [(2, 0)]), {"c": jsonout.Rows("m", _COLUMNS, [(1,)])}]},
    # keys and values that need escaping, or hold a % sign
    jsonout.Rows("%d", {'"%s"': ["\\", "\n", "⋉", "\U0001d54f"], "%%": [0, -1, 10**30, None]},
                 [(0, 1, 2, 3), (3,)]),
    jsonout.Rows("é", {"\x00": [[1, 2], [], ["a"], [[1], [2, 3]]]}, [(0, 1, 2, 3)]),
    # a value no row uses need not be a leaf
    jsonout.Rows("n", {"a": [1, 0.5, {"b": 2}]}, [(0,)]),
    [jsonout.Rows("n", _COLUMNS, [(0,)]), 1, "a", jsonout.Rows("n", _COLUMNS, [])],
])
def test_rows_on_edge_cases(value):
    assert jsonout.dumps(value) == stdlib_json(expand(value))


@pytest.mark.parametrize("value", [
    jsonout.Rows("n", {"a": [0.5]}, [(0,)]),
    jsonout.Rows("n", {"a": [1, {"b": 2}]}, [(0,), (0, 1)]),
    jsonout.Rows("n", {"a": [[1, True]]}, [(0,)]),
    jsonout.Rows("n", {"a": [(1, 2.0)]}, [(0,)]),
    jsonout.Rows("n", {2: [1]}, [(0,)]),
    jsonout.Rows(2, {"a": [1]}, [(0,)]),
    {"k": [jsonout.Rows("n", {"a": [1, 0.5]}, [(0,), (1,)])]},
])
def test_rows_refuse_a_value_that_is_no_leaf_or_a_key_that_is_no_str(value):
    with pytest.raises(TypeError):
        jsonout.dumps(value)


def test_rows_are_one_piece_each():
    for count in (1, 10, 1000):
        members = [(0, 2), (1,), ()] * count
        assert len(jsonout.pieces(jsonout.Rows("dimension", _COLUMNS, members))) == 3 * count + 2
        payload = {"a": 1, "rows": jsonout.Rows("dimension", _COLUMNS, members), "z": [2]}
        assert len(jsonout.pieces(payload)) == 3 * count + 3


def test_a_float_in_a_payload_exits_three_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(groups, "variety_type", lambda A: 0.5)
    code = cli.main(["type", "--ray-matrix", "1 1"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == "internal error: TypeError: Object of type float is not JSON serializable\n"


def test_a_float_in_the_last_subgroup_of_a_long_report_writes_nothing(capsys, monkeypatch):
    argv = ["enumerate", "--ray-matrix", "4 3 2 1"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out) > cli._BATCH  # more than one batch

    real_rows = cli._root_rows

    def rows_with_a_float_last(A, *terms):
        # one more position, whose values are floats, in the last subgroup
        # only: the writer reaches it after every other row
        out = []
        for rows in real_rows(A, *terms):
            size = len(rows.columns["display"])
            columns = {k: [*values, 0.5] for k, values in rows.columns.items()}
            members = [*rows.members[:-1], (*rows.members[-1], size)]
            out.append(jsonout.Rows(rows.size_key, columns, members))
        return out

    monkeypatch.setattr(cli, "_root_rows", rows_with_a_float_last)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == "internal error: TypeError: Object of type float is not JSON serializable\n"
