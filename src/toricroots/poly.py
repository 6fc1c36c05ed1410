"""Sparse multivariate polynomials with exact rational coefficients.

Just enough machinery for substitution automorphisms of the Cox coordinate
ring: coordinate variables ``x1..xm`` plus a few scalar parameter variables
(for symbolic identity checking), addition, multiplication, powers and
substitution of the coordinate variables.  Coefficients are ``int`` while
integral and ``Fraction`` otherwise.  A configurable total-degree cap guards
against runaway compositions; exceeding it raises rather than truncating.

A monomial is one ``int`` (Monagan and Pearce's packed exponent vectors):
variable ``i``'s exponent in bits ``[i * width, (i + 1) * width)``, the total
degree above them all, so a product of monomials is one addition.  Products
are checked against the cap before they are formed, so no field carries.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import mul
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .errors import DegreeCapError, InputError
from .record import record

if TYPE_CHECKING:  # imported where a Fraction is built
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

DEFAULT_DEGREE_CAP = 64


def _exact(value) -> Scalar:
    """``value`` as an ``int`` when integral, else as a ``Fraction``."""
    if value.__class__ is int:
        return value
    from fractions import Fraction

    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def check_degree(ring: "PolyRing", degree: int) -> None:
    """Raise ``DegreeCapError`` for a monomial of this total degree above the cap."""
    if degree > ring.degree_cap:
        raise DegreeCapError(
            f"total degree exceeded the cap of {ring.degree_cap} during multiplication"
        )


@record
class PolyRing:
    """Fixed variable layout: ``num_coords`` coordinates then named parameters."""

    num_coords: int
    params: tuple[str, ...] = ()
    degree_cap: int = DEFAULT_DEGREE_CAP

    @property
    def num_vars(self) -> int:
        return self.num_coords + len(self.params)

    @cached_property
    def width(self) -> int:
        """Bits of one exponent field: room for ``2 * degree_cap + 1``."""
        return (2 * self.degree_cap + 1).bit_length()

    @cached_property
    def shift(self) -> int:
        """Lowest bit of the total-degree field, above every exponent field."""
        return self.width * self.num_vars

    def pack(self, mono: Sequence[int]) -> int:
        """The packed form of an exponent vector; an exponent that does not
        fit its field is over the cap, and raises as every product of it would."""
        if len(mono) != self.num_vars or min(mono, default=0) < 0:
            raise InputError("bad exponent vector")
        if max(mono, default=0) > 2 * self.degree_cap + 1:
            check_degree(self, max(mono))
        return sum(e << i * self.width for i, e in enumerate(mono)) + (sum(mono) << self.shift)

    def unpack(self, key: int) -> tuple[int, ...]:
        w, mask = self.width, (1 << self.width) - 1
        return tuple(key >> i * w & mask for i in range(self.num_vars))

    @cached_property
    def variables(self) -> tuple["Poly", ...]:
        """The coordinate variables ``x1..xm``, built once per ring."""
        return tuple(self._unit(i) for i in range(self.num_coords))

    def _unit(self, i: int) -> "Poly":
        return _make(self, {(1 << i * self.width) + (1 << self.shift): 1})

    def const(self, value: Scalar) -> "Poly":
        value = _exact(value)
        return _make(self, {0: value} if value else {})

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.num_coords:
            raise InputError(f"no coordinate variable {i}")
        return self.variables[i]

    def param(self, name: str) -> "Poly":
        try:
            return self._unit(self.num_coords + self.params.index(name))
        except ValueError:
            raise InputError(f"no parameter {name!r}") from None

    def monomial(self, coord_exponents: Sequence[int]) -> "Poly":
        return _make(self, {self.pack(tuple(coord_exponents) + (0,) * len(self.params)): 1})

    def var_name(self, i: int) -> str:
        if i < self.num_coords:
            return f"x{i + 1}"
        return self.params[i - self.num_coords]


class Poly:
    """Immutable sparse polynomial; ``_terms`` maps packed monomials to
    exact, non-zero coefficients."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Scalar]):
        _set_ring(self, ring)
        _set_terms(self, {ring.pack(m): _exact(c) for m, c in terms.items() if c})

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """The terms keyed by exponent tuples, built on each read."""
        unpack = self.ring.unpack
        return {unpack(m): c for m, c in self._terms.items()}

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max(self._terms, default=0) >> self.ring.shift

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set_hash(self, hash(frozenset(self._terms.items())))
            return self._hash

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise InputError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            c += out.get(m, 0)
            if c:
                out[m] = _exact(c)
            else:
                del out[m]
        return _make(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        ring, left, right = self.ring, self._terms, other._terms
        if not left or not right:
            return _make(ring, {})
        # the top-degree pair of terms is always formed
        check_degree(ring, (max(left) >> ring.shift) + (max(right) >> ring.shift))
        out: dict[int, Scalar] = {}
        get = out.get
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return _make(ring, {m: _exact(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InputError("negative polynomial power")
        if self._terms:  # a power has exactly ``exponent`` times the degree
            check_degree(self.ring, exponent * self.total_degree())
        return reduce(mul, [self] * exponent) if exponent else self.ring.one()

    # -- substitution and inspection ----------------------------------------

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Replace coordinate variable ``i`` by ``images[i]``; parameters
        stay.  See ``Substitution``, which serves many polynomials."""
        return Substitution(self.ring, images)(self)

    def coefficient(self, mono: Sequence[int]) -> Scalar:
        return self._terms.get(self.ring.pack(mono), 0)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        terms = self.terms
        for mono in sorted(terms):
            coef = terms[mono]
            vars_part = "*".join(
                f"{self.ring.var_name(i)}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            if not vars_part:
                bits.append(str(coef))
            elif coef == 1:
                bits.append(vars_part)
            elif coef == -1:
                bits.append(f"-{vars_part}")
            else:
                bits.append(f"{coef}*{vars_part}")
        return " + ".join(bits).replace("+ -", "- ")


class Substitution:
    """Replacing coordinate variable ``i`` by ``images[i]``, checked and
    prepared once for all the polynomials it is applied to.

    A coordinate whose image is its own variable only shifts exponents; each
    distinct exponent pattern of the other coordinates is expanded once.
    Every term is checked against the degree cap, as if its product were
    multiplied out, before it is added in.
    """

    def __init__(self, ring: PolyRing, images: Sequence[Poly]):
        if len(images) != ring.num_coords:
            raise InputError("need one image per coordinate variable")
        if any(img.ring is not ring and img.ring != ring for img in images):
            raise InputError("polynomials from different rings")
        w, field = ring.width, (1 << ring.width) - 1
        self.ring = ring
        #: ``(bit offset, image, image degree - 1)`` of each moved coordinate
        self.moved = [
            (i * w, img, img.total_degree() - 1)
            for i, (img, x) in enumerate(zip(images, ring.variables))
            if img is not x and img != x
        ]
        self.fields = sum(field << at for at, _, _ in self.moved)
        #: exponent pattern of the moved coordinates -> its expansion
        self.expanded: dict[int, tuple[int, int, dict[int, Scalar]]] = {}

    def __call__(self, p: Poly) -> Poly:
        ring, moved, fields, expanded = self.ring, self.moved, self.fields, self.expanded
        if p.ring is not ring and p.ring != ring:
            raise InputError("polynomials from different rings")
        if not moved:
            check_degree(ring, p.total_degree())
            return p
        shift, field = ring.shift, (1 << ring.width) - 1
        out: dict[int, Scalar] = {}
        get = out.get
        for key, coef in p._terms.items():
            part = key & fields
            if part not in expanded:
                exps = [(part >> at & field, img, d) for at, img, d in moved]
                powers = [img**e for e, img, _ in exps if e]
                expanded[part] = (
                    sum(e * d for e, _, d in exps),
                    part + (sum(e for e, _, _ in exps) << shift),
                    reduce(mul, powers)._terms if powers else {0: 1},
                )
            extra, moved_part, terms = expanded[part]
            check_degree(ring, (key >> shift) + extra)
            rest = key - moved_part
            for m, c in terms.items():
                m += rest
                out[m] = get(m, 0) + coef * c
        return _make(ring, {m: _exact(c) for m, c in out.items() if c})


_set_ring = Poly.ring.__set__
_set_terms = Poly._terms.__set__
_set_hash = Poly._hash.__set__


def _make(ring: PolyRing, terms: dict[int, Scalar]) -> Poly:
    """Trusted constructor: ``terms`` are packed, non-zero and normalised."""
    p = object.__new__(Poly)
    _set_ring(p, ring)
    _set_terms(p, terms)
    return p
