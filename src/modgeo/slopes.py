"""Slopes: elements of P^1(R) as this library understands them.

A slope is one of
  * Fraction (or int)      -- a rational point,
  * INF                    -- the point at infinity,
  * QuadElem               -- a real quadratic irrational,
  * GenericSlope(label)    -- a caller-asserted irrational that is NOT
                              quadratic (e.g. the label "e").

GenericSlope equality is by label; correctness of any classification
involving one is conditional on the caller's assertion, since no exact
library can certify transcendence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exact import QuadElem, RationalLike


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class GenericSlope:
    label: str

    def __repr__(self):
        return f"generic:{self.label}"


Slope = Union[Fraction, QuadElem, _Infinity, GenericSlope]


def as_slope(x) -> Slope:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, QuadElem, _Infinity, GenericSlope)):
        return x
    raise TypeError(f"not a slope: {x!r}")


def is_projective_rational(s) -> bool:
    """True for points of P^1(Q), i.e. rationals and infinity."""
    return s is INF or isinstance(s, RationalLike)


def slope_eq(s, t) -> bool:
    s, t = as_slope(s), as_slope(t)
    if s is INF or t is INF:
        return s is t
    if isinstance(s, GenericSlope) or isinstance(t, GenericSlope):
        return isinstance(s, GenericSlope) and isinstance(t, GenericSlope) \
            and s.label == t.label
    return s == t


def apply_homography(m, s) -> Slope:
    """Image of a slope under an invertible 2x2 rational matrix
    ((a, b), (c, d)) acting by s -> (a*s + b)/(c*s + d)."""
    (a, b), (c, d) = m
    s = as_slope(s)
    if isinstance(s, GenericSlope):
        # transformed value is again irrational and non-quadratic
        return GenericSlope(f"({a}*{s.label}+{b})/({c}*{s.label}+{d})")
    if s is INF:
        if c == 0:
            return INF
        return Fraction(a, 1) / c if not isinstance(a, QuadElem) else a / c
    den = c * s + d
    if isinstance(den, RationalLike) and den == 0:
        return INF
    num = a * s + b
    out = num / den
    return Fraction(out) if isinstance(out, int) else out
