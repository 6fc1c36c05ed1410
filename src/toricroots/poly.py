"""Sparse multivariate polynomials with exact rational coefficients.

Just enough machinery for substitution automorphisms of the Cox coordinate
ring: coordinate variables ``x1..xm`` plus a few scalar parameter variables
(for symbolic identity checking), addition, multiplication, powers and
substitution of the coordinate variables.  Coefficients are ``int`` while
integral and ``Fraction`` otherwise.  A configurable total-degree cap guards
against runaway compositions; exceeding it raises rather than truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, mul
from typing import Mapping, Sequence, Union

from .errors import DegreeCapError, InputError

Scalar = Union[int, Fraction]

DEFAULT_DEGREE_CAP = 64


def _exact(value) -> Scalar:
    """``value`` as an ``int`` when integral, else as a ``Fraction``."""
    if value.__class__ is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def check_degree(ring: "PolyRing", degree: int) -> None:
    """Raise ``DegreeCapError`` for a monomial of this total degree above the cap."""
    if degree > ring.degree_cap:
        raise DegreeCapError(
            f"total degree exceeded the cap of {ring.degree_cap} during multiplication"
        )


@dataclass(frozen=True)
class PolyRing:
    """Fixed variable layout: ``num_coords`` coordinates then named parameters."""

    num_coords: int
    params: tuple[str, ...] = ()
    degree_cap: int = DEFAULT_DEGREE_CAP

    @property
    def num_vars(self) -> int:
        return self.num_coords + len(self.params)

    @cached_property
    def variables(self) -> tuple["Poly", ...]:
        """The coordinate variables ``x1..xm``, built once per ring."""
        return tuple(self._unit(i) for i in range(self.num_coords))

    def _unit(self, i: int) -> "Poly":
        return _make(self, {tuple(int(i == j) for j in range(self.num_vars)): 1})

    def const(self, value: Scalar) -> "Poly":
        value = _exact(value)
        return _make(self, {(0,) * self.num_vars: value} if value else {})

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
        if len(coord_exponents) != self.num_coords or any(e < 0 for e in coord_exponents):
            raise InputError("bad coordinate exponent vector")
        mono = tuple(coord_exponents) + (0,) * len(self.params)
        return _make(self, {mono: 1})

    def var_name(self, i: int) -> str:
        if i < self.num_coords:
            return f"x{i + 1}"
        return self.params[i - self.num_coords]


class Poly:
    """Immutable sparse polynomial; terms map exponent tuples to exact,
    non-zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Scalar]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {m: _exact(c) for m, c in terms.items() if c})

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise InputError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            c += out.get(m, 0)
            if c:
                out[m] = _exact(c)
            else:
                del out[m]
        return _make(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        left, right = self.terms, other.terms
        if not left or not right:
            return _make(self.ring, {})
        # the top-degree pair of terms is always formed
        check_degree(self.ring, max(map(sum, left)) + max(map(sum, right)))
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                mono = tuple(map(add, m1, m2))
                out[mono] = get(mono, 0) + c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InputError("negative polynomial power")
        return reduce(mul, [self] * exponent, self.ring.one())

    # -- substitution and inspection ----------------------------------------

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Replace coordinate variable ``i`` by ``images[i]``; parameters stay.

        A coordinate whose image is its own variable only shifts exponents;
        each distinct exponent pattern of the other coordinates is expanded
        once.  Every term is checked against the degree cap first, as if its
        product were multiplied out.
        """
        ring = self.ring
        if len(images) != ring.num_coords:
            raise InputError("need one image per coordinate variable")
        if any(img.ring is not ring and img.ring != ring for img in images):
            raise InputError("polynomials from different rings")
        moved = [
            i for i, (img, x) in enumerate(zip(images, ring.variables))
            if img is not x and img != x
        ]
        extra = [(i, images[i].total_degree() - 1) for i in moved]
        for mono in self.terms:
            check_degree(ring, sum(mono) + sum(mono[i] * d for i, d in extra))
        if not moved:
            return self
        keep = [1] * ring.num_vars
        for i in moved:
            keep[i] = 0
        expanded: dict[tuple[int, ...], Poly] = {}
        out: dict[tuple[int, ...], Scalar] = {}
        for mono, coef in self.terms.items():
            key = tuple(mono[i] for i in moved)
            if key not in expanded:
                powers = [images[i] ** e for i, e in zip(moved, key) if e]
                expanded[key] = reduce(mul, powers, ring.one())
            shift = tuple(map(mul, mono, keep))
            for m, c in expanded[key].terms.items():
                m = tuple(map(add, shift, m))
                out[m] = out.get(m, 0) + coef * c
        return Poly(ring, out)

    def coefficient(self, mono: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(mono), 0)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
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


_set_ring = Poly.ring.__set__
_set_terms = Poly.terms.__set__


def _make(ring: PolyRing, terms: dict[tuple[int, ...], Scalar]) -> Poly:
    """Trusted constructor: ``terms`` are non-zero and already normalised."""
    p = object.__new__(Poly)
    _set_ring(p, ring)
    _set_terms(p, terms)
    return p
