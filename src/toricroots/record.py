"""Frozen record classes, built without ``dataclasses``.

``@record`` gives a class the ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` that ``@dataclass(frozen=True)`` generates, and
``@record(order=True)`` the four orderings as well.  The fields are the
class's own annotations in order, with defaults from the class body, and
``__match_args__`` names them.  ``__init__`` sets each field with
``object.__setattr__`` and then calls ``__post_init__`` if the class has
one; assigning or deleting an attribute raises ``AttributeError``.  Instances
keep their ``__dict__``, so ``functools.cached_property`` works on them.

Importing ``dataclasses`` loads ``inspect`` and ten more modules, and it
compiles each generated method with an ``exec`` of its own; here one
``exec`` per class compiles them all.
"""

_ORDER = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def record(cls=None, /, *, order=False):
    if cls is None:
        return lambda cls: record(cls, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_setattr": object.__setattr__}
    ns.update((f"_d_{n}", cls.__dict__[n]) for n in names if n in cls.__dict__)
    params = ", ".join(n + (f"=_d_{n}" if f"_d_{n}" in ns else "") for n in names)
    mine = "(" + "".join(f"self.{n}," for n in names) + ")"
    theirs = "(" + "".join(f"other.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    text = [f"def __init__(self, {params}):"]
    text += [f" _setattr(self, {n!r}, {n})" for n in names]
    text += [" self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    text += ["def __repr__(self):", f' return self.__class__.__qualname__ + f"({shown})"',
             "def __hash__(self):", f" return hash({mine})"]
    methods = ["__init__", "__repr__", "__hash__"]
    for name, op in (("__eq__", "=="),) + (_ORDER if order else ()):
        text += [f"def {name}(self, other):", " if other.__class__ is self.__class__:",
                 f"  return {mine} {op} {theirs}", " return NotImplemented"]
        methods.append(name)
    exec("\n".join(text), ns)
    for name in methods:
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, ns[name])
    cls.__setattr__, cls.__delattr__, cls.__match_args__ = _assign, _delete, names
    return cls


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
