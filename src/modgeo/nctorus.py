"""Rank-2 lattices with a marked real line, and their ordered-K0 shadow.

A pre-lilac is determined (up to basis choice) by the slope of its line,
so isomorphism is GL2(Z)-equivalence of slopes; the Morita class of the
associated foliation algebra carries exactly the same data, hence the
two predicates coincide by construction.

The ordered group Z + Z*theta with its positive cone, and membership in
it, realize the leaf-space fibers: two reals name the same leaf exactly
when they differ by an element of Z + Z*theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cfrac import gl2z_equivalent
from .errors import (
    IncompatibleFieldsError,
    InvalidInputError,
    InvalidModulusError,
    NotTransverseError,
    UndecidableInputError,
)
from .exact import QuadElem, RationalLike, sign_of
from .mtgroups import GeodesicPoint
from .errors import DegeneratePointError
from .slopes import INF, GenericSlope, Slope, as_slope


def _reject_generic(theta):
    if isinstance(theta, GenericSlope):
        raise UndecidableInputError(
            "exact arithmetic in Z + Z*theta needs a rational or quadratic theta"
        )


@dataclass(frozen=True)
class PreLilac:
    """A line of slope theta in the standard rank-2 lattice."""

    theta: Slope

    def __post_init__(self):
        object.__setattr__(self, "theta", as_slope(self.theta))


@dataclass(frozen=True)
class OrderedK0:
    """Z + Z*theta with positivity given by the sign of m + n*theta.

    The positive cone is a modeling choice: it orients the group through
    the tautological real embedding of theta (the alternative orientation
    is the image under theta -> -theta)."""

    theta: Slope

    def __post_init__(self):
        object.__setattr__(self, "theta", as_slope(self.theta))
        _reject_generic(self.theta)

    def value(self, m: int, n: int):
        return m + n * self.theta

    def positive(self, m: int, n: int) -> bool:
        return k0_positive((m, n), self)


def lilac_iso(l1: PreLilac, l2: PreLilac) -> bool:
    """Isomorphism of pre-lilacs: one GL2(Z)-orbit of slopes."""
    return gl2z_equivalent(l1.theta, l2.theta)


def morita_equivalent(theta1, theta2) -> bool:
    """Morita equivalence of the foliation algebras.

    Identical to lilac isomorphism: the classifying functors are mutually
    inverse on isomorphism classes, so nothing finer survives.
    """
    return lilac_iso(PreLilac(as_slope(theta1)), PreLilac(as_slope(theta2)))


def k0_positive(element: tuple[int, int], K: OrderedK0) -> bool:
    """Exact positivity of m + n*theta in the ordered group."""
    m, n = element
    _reject_generic(K.theta)
    return sign_of(m + n * K.theta) > 0


def pseudolattice_member(x, theta) -> Optional[tuple[int, int]]:
    """Solve x = m + n*theta over the integers, or report None.

    Unique for irrational theta; for rational theta = p/q any solution of
    the linear congruence is returned (canonical smallest n >= 0).
    """
    theta = as_slope(theta)
    _reject_generic(theta)
    if theta is INF:
        raise InvalidInputError("theta = inf spans no lattice Z + Z*theta")
    if isinstance(x, GenericSlope):
        raise UndecidableInputError("generic values have no exact coordinates")
    if isinstance(theta, QuadElem):
        if isinstance(x, RationalLike):
            f = Fraction(x)
            return (int(f), 0) if f.denominator == 1 else None
        if not isinstance(x, QuadElem):
            raise IncompatibleFieldsError(f"unsupported value {x!r}")
        if x.d != theta.d:
            raise IncompatibleFieldsError(
                f"value lives in Q(sqrt({x.d})), theta in Q(sqrt({theta.d}))"
            )
        n = x.b / theta.b
        if n.denominator != 1:
            return None
        m = x.a - n * theta.a
        if m.denominator != 1:
            return None
        return (int(m), int(n))
    # rational theta p/q: m*q*bx + n*p*bx = ax*q (clear denominators)
    if isinstance(x, QuadElem):
        raise IncompatibleFieldsError("irrational value with rational theta")
    t = Fraction(theta)
    f = Fraction(x)
    p, q = t.numerator, t.denominator
    ax, bx = f.numerator, f.denominator
    # m*(q*bx) + n*(p*bx) = ax*q
    A, B, C = q * bx, p * bx, ax * q
    g = math.gcd(A, B)
    if g == 0:
        return (C // A, 0) if C % A == 0 else None
    if C % g:
        return None
    ga, sa, sb = _egcd(A, B)
    assert ga == g
    scale = C // g
    m0, n0 = sa * scale, sb * scale
    # canonicalize: smallest nonnegative n
    step_n = A // g
    if step_n:
        k = n0 // step_n
        n0 -= k * step_n
        m0 += k * (B // g)
    assert m0 * A + n0 * B == C
    return (m0, n0)


def _egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def leaf_equal(p, q, theta) -> bool:
    """Same leaf in the foliation with slope theta: p - q in Z + Z*theta."""
    return pseudolattice_member(p - q, theta) is not None


@dataclass(frozen=True)
class LevelStructure:
    """An invertible marking of the N-torsion, N >= 2."""

    N: int
    phi: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise InvalidModulusError(f"level must be an integer >= 2, got {self.N!r}")
        (a, b), (c, d) = self.phi
        det = (a * d - b * c) % self.N
        if math.gcd(det, self.N) != 1:
            raise InvalidInputError(
                f"matrix determinant {det} is not invertible mod {self.N}"
            )


def count_level_structures(N: int) -> int:
    """|GL2(Z/N)| = N^4 * prod over p | N of (1 - 1/p)(1 - 1/p^2)."""
    if not isinstance(N, int) or N < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {N!r}")
    total = 1
    m = N
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            total *= p ** (4 * e - 3) * (p - 1) * (p * p - 1)
        p += 1 if p == 2 else 2
    if m > 1:
        total *= m * (m - 1) * (m * m - 1)
    return total


def pair_to_geodesic(theta1, theta2) -> GeodesicPoint:
    """The geodesic of a transverse pair of lines (distinct slopes)."""
    try:
        return GeodesicPoint(as_slope(theta1), as_slope(theta2))
    except DegeneratePointError as exc:
        raise NotTransverseError("the two lines coincide") from exc
