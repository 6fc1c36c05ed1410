"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)``, whose pure-Python encoder (the only one the stdlib has
for ``indent``) took most of the time of a large report.

The text is written in one pass into one list of pieces: a dict, or a list
that is not a leaf (see ``_leaf``), appends its text to that list, so no
level of nesting joins and copies its children's text again."""

from __future__ import annotations

import itertools
import json
from typing import Optional

_escape = json.encoder.encode_basestring_ascii  # C, where the stdlib has it
_CONSTANTS = {None: "null", True: "true", False: "false"}
_flatten = itertools.chain.from_iterable


def dumps(obj) -> str:
    """``obj`` as JSON; see ``pieces``."""
    return "".join(pieces(obj))


def pieces(obj) -> list[str]:
    """The text of ``obj`` as JSON, in pieces to be joined.  Takes dicts with
    str keys, lists, tuples, str, int, bool and ``None``; anything else (a
    float, a set, a non-str key) raises ``TypeError``.

    A report lists the same few root tuples in hundreds of subgroups, so the
    text of each tuple in a list of tuples is kept for the rest of the call,
    by depth and by the tuple's identity (never its value: ``(1, True) ==
    (1, 1)``).  The memo holds the tuple too, so its id is not reused.  The
    dicts of a report share a few key sets, so each key set is sorted and
    escaped once per depth, and a dict whose values are all leaves (see
    ``_leaf``) is one piece.
    """
    out: list[str] = []
    _put(obj, "\n", "", out, {}, {})
    return out


def _leaf(obj, indent: str, memo: dict) -> Optional[str]:
    """The text of a scalar, an empty container, or a list or tuple of
    tuples, of strs, of ints or of non-empty int lists; ``None`` for any
    other dict, list or tuple."""
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
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    if not obj:
        return "[]"
    inner = indent + "  "
    sep = "," + inner
    first = type(obj[0])
    if first is tuple:
        # root coordinates, the bulk of a subgroup list; the memo gives
        # any object its text, so the other items need no type check
        texts, kept = memo.get(inner) or memo.setdefault(inner, ({}, []))
        items = list(map(texts.get, map(id, obj)))
        if None in items:
            for k, x in enumerate(obj):
                if items[k] is None:
                    text = texts.get(id(x))
                    if text is None:
                        part: list[str] = []
                        _put(x, inner, "", part, memo, {})
                        text = texts[id(x)] = "".join(part)
                        kept.append(x)
                    items[k] = text
        body = sep.join(items)
    elif first is str:
        try:
            body = sep.join(map(_escape, obj))
        except TypeError:  # an item that is no str
            return None
    else:
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif kinds == {list} and all(obj) and set(map(type, _flatten(obj))) == {int}:
            # non-empty int lists: ray matrices, surface sequences
            deeper = inner + "  "
            sep_deeper = "," + deeper
            body = sep.join([f"[{deeper}{sep_deeper.join(map(int.__repr__, x))}{inner}]" for x in obj])
        else:
            return None
    return f"[{inner}{body}{indent}]"


def _put(obj, indent: str, lead: str, out: list, memo: dict, plans: dict) -> None:
    """Append ``lead`` and the text of ``obj``.  ``plans`` maps an indent
    and a dict's keys, in insertion order, to ``_plan``'s list."""
    text = _leaf(obj, indent, memo)
    if text is None:
        _composite(obj, indent, lead, out, memo, plans)
    else:
        out.append(lead + text)


def _composite(obj, indent: str, lead: str, out: list, memo: dict, plans: dict) -> None:
    """``_put`` for a non-empty dict, or a list or tuple that is no leaf."""
    inner = indent + "  "
    if not isinstance(obj, dict):
        lead += "[" + inner
        sep = "," + inner
        for x in obj:
            _put(x, inner, lead, out, memo, plans)
            lead = sep
        out.append(indent + "]")
        return
    keys = tuple(obj)
    plan = plans.get((indent, keys))
    if plan is None:
        plan = plans[indent, keys] = _plan(keys, indent)
    parts = [lead]
    for head, key in plan:
        value = obj[key]
        text = _leaf(value, inner, memo)
        parts.append(head)
        if text is None:
            _composite(value, inner, "".join(parts), out, memo, plans)
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
