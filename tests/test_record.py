"""Every record class of the package behaves as its frozen dataclass twin.

``toricroots.record`` builds its classes without ``dataclasses``; here
``dataclasses`` is the oracle.  Each twin has the record's fields, defaults
and ordering, and both are fed the same values.
"""

import dataclasses
import importlib
import itertools
import operator
import pkgutil
import re
from pathlib import Path

import pytest

import toricroots
from toricroots import InputError, RayMatrix, RootSet

SRC = Path(toricroots.__file__).resolve().parent
MODULES = [importlib.import_module(f"toricroots.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]
RECORDS = sorted(
    {cls for module in MODULES for cls in vars(module).values()
     if isinstance(cls, type) and cls.__module__ == module.__name__
     and "__match_args__" in vars(cls)},
    key=lambda cls: (cls.__module__, cls.__name__))
ORDERS = [operator.lt, operator.le, operator.gt, operator.ge]


def twin(cls):
    """A frozen dataclass with the record's name, fields, defaults and ordering."""
    own = vars(cls)
    spec = [(n, object, dataclasses.field(default=own[n])) if n in own else (n, object)
            for n in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, order="__lt__" in own)


def values(cls, step=1):
    """One value per field: strictly increasing int tuples, which are valid
    ``RootSet`` positions, hashable, and unequal for different ``step``."""
    return tuple((k, k + step) for k in range(len(cls.__match_args__)))


def test_every_record_class_is_found():
    decorated = sum(len(re.findall(r"^@record\b", p.read_text(encoding="utf-8"), re.M))
                    for p in SRC.glob("*.py"))
    assert len(RECORDS) == decorated == 25


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    fields, Twin = cls.__match_args__, twin(cls)
    assert fields == tuple(cls.__annotations__)
    a, b = values(cls), values(cls, step=2)
    r, s, t, u = cls(*a), cls(*b), Twin(*a), Twin(*b)
    assert repr(r) == repr(t) and repr(s) == repr(u)
    assert vars(r) == dict(zip(fields, a))
    # positional and keyword construction agree
    assert cls(**dict(zip(fields, a))) == r
    assert (r == cls(*a), r != cls(*a), r == s, r != s) == (True, False, False, True)
    assert hash(r) == hash(t) == hash(dataclasses.astuple(t)) == hash(a)
    assert r != t and not r == t  # a record equals only a record of its own class
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert vars(r) == dict(zip(fields, a))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*a, unknown=0)
    with pytest.raises(TypeError):
        cls(*a, 0)
    if "__lt__" in vars(cls):
        for x, y in itertools.product([r, s], repeat=2):
            tx, ty = Twin(*vars(x).values()), Twin(*vars(y).values())
            assert [op(x, y) for op in ORDERS] == [op(tx, ty) for op in ORDERS]
    else:
        for op in ORDERS:
            with pytest.raises(TypeError):
                op(r, s)


@pytest.mark.parametrize("cls", [c for c in RECORDS if set(vars(c)) & set(c.__match_args__)],
                         ids=lambda cls: cls.__name__)
def test_defaults_come_from_the_class_body(cls):
    own, Twin = vars(cls), twin(cls)
    required = [n for n in cls.__match_args__ if n not in own]
    given = dict(zip(required, values(cls)))
    r = cls(**given)
    assert repr(r) == repr(Twin(**given))
    assert all(getattr(r, n) == own[n] for n in cls.__match_args__ if n in own)


def test_records_of_equal_fields_differ_across_classes():
    pairs = [(c, d) for c, d in itertools.combinations(RECORDS, 2)
             if len(c.__match_args__) == len(d.__match_args__)]
    assert pairs
    for c, d in pairs:
        x, y = c(*values(c)), d(*values(d))
        assert x != y and not x == y
    groups = importlib.import_module("toricroots.groups")
    f = (groups.AbelianPower(1),)
    assert groups.Semidirect(f) != groups.DirectProduct(f)


def test_only_demazure_roots_are_ordered():
    assert [cls.__name__ for cls in RECORDS if "__lt__" in vars(cls)] == ["DemazureRoot"]
    with pytest.raises(TypeError):
        RayMatrix(1, ((1,),)) < RayMatrix(1, ((2,),))


def test_post_init_still_checks_root_set_positions():
    A = toricroots.validate_ray_matrix([[3, 2, 1]], 3)
    with pytest.raises(InputError, match="strictly increasing"):
        RootSet(A, (1, 0))
    with pytest.raises(InputError, match="strictly increasing"):
        RootSet(matrix=A, positions=[0])
