"""Exact symplectic areas of the form a + b*eps.

eps is a formal positive infinitesimal used to track small thickening /
thinning amounts.  Every statement made with it must hold "for all
sufficiently small eps", which forces the lexicographic order: the
rational constant part decides first, the eps coefficient breaks ties.
Both coefficients are exact rationals; no floating point is used
anywhere in the calculus.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .record import Frozen, set_field

RationalLike = Union[int, str, Fraction]


class AreaError(ValueError):
    """Malformed or out-of-range area value."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise AreaError(f"not a rational coefficient: {x!r}")


class AreaValue(Frozen):
    """const + eps_coeff * eps, ordered lexicographically."""

    def __init__(self, const: Fraction, eps_coeff: Fraction = Fraction(0)):
        self.__post_init__(const, eps_coeff)

    def __post_init__(self, const, eps_coeff):
        # every AreaValue passes here once (perfbench's tracer counts them)
        set_field(self, "const", _frac(const))
        set_field(self, "eps_coeff", _frac(eps_coeff))

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "AreaValue") -> "AreaValue":
        return AreaValue(self.const + other.const, self.eps_coeff + other.eps_coeff)

    def __sub__(self, other: "AreaValue") -> "AreaValue":
        return AreaValue(self.const - other.const, self.eps_coeff - other.eps_coeff)

    def __neg__(self) -> "AreaValue":
        return AreaValue(-self.const, -self.eps_coeff)

    def scale(self, factor: RationalLike) -> "AreaValue":
        f = _frac(factor)
        return AreaValue(self.const * f, self.eps_coeff * f)

    # -- order ------------------------------------------------------

    def _key(self):
        return (self.const, self.eps_coeff)

    def __lt__(self, other: "AreaValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "AreaValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "AreaValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "AreaValue") -> bool:
        return self._key() >= other._key()

    @property
    def is_positive(self) -> bool:
        return self._key() > (0, 0)

    # -- text forms -------------------------------------------------

    def __str__(self) -> str:
        # canonical long form, always two components
        if self.eps_coeff < 0:
            return f"{self.const} - {-self.eps_coeff}*eps"
        return f"{self.const} + {self.eps_coeff}*eps"

    def compact(self) -> str:
        """Short form used in atom and script serializations, e.g. ``1+2e``."""
        if self.eps_coeff == 0:
            return f"{self.const}"
        sign = "+" if self.eps_coeff >= 0 else "-"
        return f"{self.const}{sign}{abs(self.eps_coeff)}e"

    @classmethod
    def parse(cls, text: str) -> "AreaValue":
        m = _AREA_RE.match(text.strip())
        if not m:
            raise AreaError(f"cannot parse area value: {text!r}")
        const = Fraction(m.group("const"))
        if m.group("eps") is None:
            return cls(const, Fraction(0))
        eps = Fraction(m.group("eps"))
        if m.group("sign") == "-":
            eps = -eps
        return cls(const, eps)


_RAT = r"-?\d+(?:/\d+)?"
_AREA_RE = re.compile(
    rf"^(?P<const>{_RAT})"
    rf"(?:\s*(?P<sign>[+-])\s*(?P<eps>\d+(?:/\d+)?)\s*\*?\s*(?:eps|e))?$"
)


def area(const: RationalLike, eps: RationalLike = 0) -> AreaValue:
    """Convenience constructor."""
    return AreaValue(_frac(const), _frac(eps))


ZERO = AreaValue(Fraction(0), Fraction(0))


def area_add(x: AreaValue, y: AreaValue) -> AreaValue:
    """Componentwise sum of two areas."""
    return x + y


def area_less(x: AreaValue, y: AreaValue) -> bool:
    """Strict comparison in the small-eps (lexicographic) order."""
    return x < y
