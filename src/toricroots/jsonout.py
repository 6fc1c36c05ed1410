"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)``, whose pure-Python encoder (the only one the stdlib has
for ``indent``) took most of the time of a large report.

The text is written in one pass into one list of pieces: a dict, or a list
that is not a leaf (see ``_leaf``), appends its text to that list, so no
level of nesting joins and copies its children's text again."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

_escape = json.encoder.encode_basestring_ascii  # C, where the stdlib has it
_CONSTANTS = {None: "null", True: "true", False: "false"}
_flatten = itertools.chain.from_iterable


@dataclass(frozen=True)
class Rows:
    """A list with one dict per tuple of ``members``: ``size_key`` maps to
    the tuple's length, and each key of ``columns`` to the list of that
    column's values at the tuple's positions.  Each value is written as a
    leaf (see ``_leaf``); a dict, a float or a list that is no leaf raises
    ``TypeError`` once a row uses it."""

    size_key: str
    columns: dict  # key -> values by position; no key is ``size_key``
    members: Sequence[tuple[int, ...]]


def dumps(obj) -> str:
    """``obj`` as JSON; see ``pieces``."""
    return "".join(pieces(obj))


def pieces(obj) -> list[str]:
    """The text of ``obj`` as JSON, in pieces to be joined.  Takes dicts with
    str keys, lists, tuples, str, int, bool, ``None`` and ``Rows``; anything
    else (a float, a set, a non-str key) raises ``TypeError``.

    The dicts of a report share a few key sets, so each key set is sorted
    and escaped once per depth, and a dict whose values are all leaves (see
    ``_leaf``) is one piece.  ``Rows`` compiles its sorted keys into one
    ``%`` template and appends one piece per dict.  A report lists the same
    few roots in hundreds of root sets, so the text of each column value of
    ``Rows`` is kept for the rest of the call, by depth and by the column's
    identity (never its value: ``(1, True) == (1, 1)``); the memo holds the
    column too, so its id is not reused.
    """
    out: list[str] = []
    _put(obj, "\n", "", out, {})
    return out


def _leaf(obj, indent: str) -> Optional[str]:
    """The text of a scalar, an empty container, or a list or tuple of
    strs, of ints or of non-empty int lists or tuples; ``None`` for any
    other dict, list or tuple and for ``Rows``."""
    cls = type(obj)
    if cls is str:
        return _escape(obj)
    if cls is int:
        return int.__repr__(obj)
    if cls is not list and cls is not tuple:  # subclasses as their base type
        if obj is None or cls is bool:
            return _CONSTANTS[obj]
        if isinstance(obj, dict):
            return None if obj else "{}"
        if isinstance(obj, str):
            return _escape(obj)
        if isinstance(obj, int):
            return int.__repr__(obj)
        if not isinstance(obj, (list, tuple)):
            if cls is Rows:
                return None
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    if not obj:
        return "[]"
    inner = indent + "  "
    sep = "," + inner
    kinds = set(map(type, obj))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, obj))
    elif kinds == {str}:
        body = sep.join(map(_escape, obj))
    elif kinds <= {list, tuple} and all(obj) and set(map(type, _flatten(obj))) == {int}:
        # non-empty int sequences: root coordinates, ray matrices
        deeper = inner + "  "
        sep_deeper = "," + deeper
        body = sep.join([f"[{deeper}{sep_deeper.join(map(int.__repr__, x))}{inner}]" for x in obj])
    else:
        return None
    return f"[{inner}{body}{indent}]"


def _put(obj, indent: str, lead: str, out: list, memo: dict) -> None:
    """Append ``lead`` and the text of ``obj``.  ``memo`` maps an indent and
    a dict's keys, in insertion order, to ``_plan``'s list, and a column's
    id and indent to its ``_Texts``."""
    text = _leaf(obj, indent)
    if text is None:
        _composite(obj, indent, lead, out, memo)
    else:
        out.append(lead + text)


def _composite(obj, indent: str, lead: str, out: list, memo: dict) -> None:
    """``_put`` for a non-empty dict, ``Rows``, or a list or tuple that is
    no leaf."""
    inner = indent + "  "
    if type(obj) is Rows:
        _rows(obj, indent, lead, out, memo)
        return
    if not isinstance(obj, dict):
        lead += "[" + inner
        sep = "," + inner
        for x in obj:
            _put(x, inner, lead, out, memo)
            lead = sep
        out.append(indent + "]")
        return
    keys = tuple(obj)
    plan = memo.get((indent, keys))
    if plan is None:
        plan = memo[indent, keys] = _plan(keys, indent)
    parts = [lead]
    for head, key in plan:
        value = obj[key]
        text = _leaf(value, inner)
        parts.append(head)
        if text is None:
            _composite(value, inner, "".join(parts), out, memo)
            parts.clear()
        else:
            parts.append(text)
    parts.append(indent + "}")
    out.append("".join(parts))


def _plan(keys: tuple, indent: str) -> list[tuple[str, str]]:
    """The keys of a dict at ``indent`` in sorted order, each with the text
    that comes before its value: ``{`` or ``,``, the indent and the key."""
    for k in keys:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
    inner = indent + "  "
    return [(("," if i else "{") + inner + _escape(k) + ": ", k) for i, k in enumerate(sorted(keys))]


class _Texts(dict):
    """One column's texts at one indent, by position, each rendered on first use."""

    def __init__(self, values: Sequence, indent: str):
        self.values, self.indent = values, indent

    def __missing__(self, k):
        text = _leaf(self.values[k], self.indent)
        if text is None:
            raise TypeError(f"Rows values must be leaves, not {type(self.values[k]).__name__}")
        self[k] = text
        return text


def _rows(rows: Rows, indent: str, lead: str, out: list, memo: dict) -> None:
    """``_put`` for ``Rows``: one ``%`` of a template per dict."""
    if not rows.members:
        out.append(lead + "[]")
        return
    inner, size = indent + "  ", rows.size_key
    keys, items = inner + "  ", inner + "    "
    plan = _plan((size, *rows.columns), inner)
    # the template of a dict, and the text of one for an empty tuple
    form = "".join(h.replace("%", "%%") + ("%d" if k == size else f"[{items}%s{keys}]") for h, k in plan)
    blank = "".join(h + ("0" if k == size else "[]") for h, k in plan)
    form, blank = form + inner + "}", blank + inner + "}"
    getters = []
    for values in (rows.columns[k] for _, k in plan if k != size):
        texts = memo.setdefault((id(values), items), _Texts(values, items))  # keeps values alive
        getters.append(texts.__getitem__)
    at, sep = [k for _, k in plan].index(size), "," + items
    out.append(lead + "[" + inner)
    later = "," + inner + form, "," + inner + blank
    for t in rows.members:
        if t:
            args = [sep.join(map(get, t)) for get in getters]
            args.insert(at, len(t))
            out.append(form % tuple(args))
        else:
            out.append(blank)
        form, blank = later
    out.append(indent + "]")
