"""Exact symplectic areas of the form a + b*eps.

eps is a formal positive infinitesimal used to track small thickening /
thinning amounts.  Every statement made with it must hold "for all
sufficiently small eps", which forces the lexicographic order: the
rational constant part decides first, the eps coefficient breaks ties.
Both coefficients are exact rationals; no floating point is used
anywhere in the calculus.  An area is held as three ints, (c + e*eps)/d
with d > 0 and gcd(c, e, d) = 1, so its arithmetic and order are
integer operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import ge, gt, le, lt
from typing import Union

from .record import Frozen, exact_str, set_field

RationalLike = Union[int, str, Fraction]


class AreaError(ValueError):
    """Malformed or out-of-range area value."""


def _frac(x: RationalLike) -> Union[int, Fraction]:
    """`x` as an exact rational: an int or a Fraction, both of which have
    `numerator` and `denominator`."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise AreaError(f"not a rational coefficient: {x!r}")


def _new(c: int, e: int, d: int) -> "AreaValue":
    """The area (c + e*eps)/d, for d > 0, made through `__post_init__`."""
    value = object.__new__(AreaValue)
    value.__post_init__(c, e, d)
    return value


def _comparison(op):
    """The order `op` on areas: both over their common denominator, the
    constant parts first and the eps coefficients second."""

    def compare(self: "AreaValue", other: "AreaValue") -> bool:
        d, od = self._d, other._d
        return op((self._c * od, self._e * od), (other._c * d, other._e * d))

    return compare


class AreaValue(Frozen):
    """const + eps_coeff * eps, ordered lexicographically."""

    def __init__(self, const: Fraction, eps_coeff: Fraction = Fraction(0)):
        c, e = _frac(const), _frac(eps_coeff)
        cd, ed = c.denominator, e.denominator
        d = cd if cd == ed else cd * ed // gcd(cd, ed)
        self.__post_init__(c.numerator * (d // cd), e.numerator * (d // ed), d)

    def __post_init__(self, c: int, e: int, d: int):
        # every AreaValue, built or computed, passes here once and is
        # reduced to lowest terms (perfbench's tracer counts them); d > 0
        if d != 1:
            g = gcd(c, e, d)
            if g != 1:
                c, e, d = c // g, e // g, d // g
        set_field(self, "_c", c)
        set_field(self, "_e", e)
        set_field(self, "_d", d)

    @property
    def const(self) -> Fraction:
        return Fraction(self._c, self._d)

    @property
    def eps_coeff(self) -> Fraction:
        return Fraction(self._e, self._d)

    def __eq__(self, other):
        if other.__class__ is AreaValue:
            return self._c == other._c and self._e == other._e and self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._c, self._e, self._d))

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "AreaValue") -> "AreaValue":
        d, od = self._d, other._d
        return _new(self._c * od + other._c * d, self._e * od + other._e * d, d * od)

    def __sub__(self, other: "AreaValue") -> "AreaValue":
        d, od = self._d, other._d
        return _new(self._c * od - other._c * d, self._e * od - other._e * d, d * od)

    def __neg__(self) -> "AreaValue":
        return _new(-self._c, -self._e, self._d)

    def scale(self, factor: RationalLike) -> "AreaValue":
        f = _frac(factor)
        p = f.numerator
        return _new(self._c * p, self._e * p, self._d * f.denominator)

    # -- order ------------------------------------------------------

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (lt, le, gt, ge))

    @property
    def is_positive(self) -> bool:
        return self._c > 0 or self._c == 0 and self._e > 0

    # -- text forms -------------------------------------------------

    def _parts(self):
        if self._d == 1:
            return self._c, self._e
        return self.const, self.eps_coeff

    def __str__(self) -> str:
        # canonical long form, always two components
        const, eps = self._parts()
        if eps < 0:
            return f"{exact_str(const)} - {exact_str(-eps)}*eps"
        return f"{exact_str(const)} + {exact_str(eps)}*eps"

    def __repr__(self) -> str:
        # a record's repr, with each Fraction written as repr() writes it, at any size
        const, eps = (
            f"Fraction({exact_str(x.numerator)}, {exact_str(x.denominator)})"
            for x in (self.const, self.eps_coeff)
        )
        return f"AreaValue(const={const}, eps_coeff={eps})"

    def compact(self) -> str:
        """Short form used in atom and script serializations, e.g. ``1+2e``."""
        const, eps = self._parts()
        if eps == 0:
            return exact_str(const)
        sign = "+" if eps >= 0 else "-"
        return f"{exact_str(const)}{sign}{exact_str(abs(eps))}e"


def area(const: RationalLike, eps: RationalLike = 0) -> AreaValue:
    """Convenience constructor."""
    return AreaValue(const, eps)

