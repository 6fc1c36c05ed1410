"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)``, whose pure-Python encoder (the only one the stdlib has
for ``indent``) took most of the time of a large report."""

from __future__ import annotations

import itertools
import json

_escape = json.encoder.encode_basestring_ascii  # C, where the stdlib has it
_CONSTANTS = {None: "null", True: "true", False: "false"}
_flatten = itertools.chain.from_iterable


def dumps(obj) -> str:
    """``obj`` as JSON.  Takes dicts with str keys, lists, tuples, str, int,
    bool and ``None``; anything else (a float, a set, a non-str key) raises
    ``TypeError``.

    A report lists the same few root tuples in hundreds of subgroups, so the
    text of each tuple in a list of tuples is kept for the rest of the call,
    by depth and by the tuple's identity (never its value: ``(1, True) ==
    (1, 1)``).  The memo holds the tuple too, so its id is not reused.
    """
    return _write(obj, "\n", {})


def _write(obj, indent: str, memo: dict) -> str:
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(_escape, obj)
        elif kinds == {list} and all(obj) and set(map(type, _flatten(obj))) == {int}:
            # non-empty int lists: ray matrices, surface sequences
            deeper = inner + "  "
            sep = "," + deeper
            items = ["[" + deeper + sep.join(map(int.__repr__, x)) + inner + "]" for x in obj]
        elif kinds == {tuple}:
            # root coordinates, the bulk of a subgroup list
            seen = memo.setdefault(inner, {})
            items = []
            for x in obj:
                hit = seen.get(id(x))
                if hit is None:
                    hit = seen[id(x)] = (x, _write(x, inner, memo))
                items.append(hit[1])
        else:
            items = [_write(x, inner, memo) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_escape(k) + ": " + _write(v, inner, memo) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or isinstance(obj, bool):
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
