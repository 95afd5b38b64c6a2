"""Continued fractions of rationals and quadratic irrationals.

Expansions are exact.  Quadratic irrationals (P + sqrt(D))/Q are driven
by the classical integer recurrence on states (P, Q); eventual
periodicity is detected by the first repeated state, which exists by
Lagrange's theorem.  Periods are reported primitive and rotated to the
lexicographically least rotation (the rotation offset is absorbed into
the preperiod, so the expansion still evaluates to its input).

GL2(Z)-equivalence of slopes is decided by the tail criterion: two
quadratic irrationals are equivalent exactly when their canonical
periods coincide, and P^1(Q) is a single orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvalidInputError, UndecidableInputError
from .exact import QuadElem, RationalLike, normalize_quad
from .slopes import GenericSlope, is_projective_rational

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class CFExpansion:
    """preperiod + (period) with the period primitive and rotation-canonical;
    the period is empty exactly for rational inputs."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if self.period:
            assert all(a >= 1 for a in self.period)
            assert _primitive_word(self.period) == self.period

    def quotients(self, count: int) -> list[int]:
        """First `count` partial quotients (cycling through the period)."""
        out = list(self.preperiod[:count])
        if self.period:
            i = 0
            while len(out) < count:
                out.append(self.period[i % len(self.period)])
                i += 1
        return out

    def is_rational(self) -> bool:
        return not self.period


@dataclass(frozen=True)
class QuadSurdState:
    """State (P + sqrt(D))/Q of the expansion loop, with Q | D - P^2."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        assert self.Q != 0 and self.D > 0
        assert (self.D - self.P * self.P) % self.Q == 0


def _primitive_word(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for length in range(1, n + 1):
        if n % length == 0 and word[:length] * (n // length) == word:
            return word[:length]
    return word


def _least_rotation(word: tuple[int, ...]) -> int:
    return min(range(len(word)), key=lambda i: word[i:] + word[:i])


def _rational_cf(x: Fraction) -> list[int]:
    p, q = x.numerator, x.denominator
    out = []
    while True:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
        if q == 0:
            return out


def _surd_floor(P: int, Q: int, s: int) -> int:
    # floor((P + sqrt(D))/Q) with s = isqrt(D), sqrt(D) irrational
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


def _surd_cf(P: int, Q: int, D: int, budget: int) -> tuple[list[int], int]:
    """Quotients of (P + sqrt(D))/Q until a state repeats.

    Returns (quotients, cycle_start).  Requires Q | D - P^2.
    """
    s = math.isqrt(D)
    assert s * s != D
    seen: dict[tuple[int, int], int] = {}
    out: list[int] = []
    while (P, Q) not in seen:
        if len(out) > budget:
            raise BudgetExceededError("continued fraction budget exhausted")
        seen[(P, Q)] = len(out)
        a = _surd_floor(P, Q, s)
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out, seen[(P, Q)]


def surd_state(x: QuadElem) -> QuadSurdState:
    """Write x as (P + sqrt(D))/Q with integer P, Q, D and Q | D - P^2."""
    la = x.a.denominator
    lb = x.b.denominator
    den = la * lb // math.gcd(la, lb)
    A = int(x.a * den)
    B = int(x.b * den)
    D = B * B * x.d
    if B > 0:
        P, Q = A, den
    else:
        P, Q = -A, -den
    if (D - P * P) % Q:
        P *= abs(Q)
        D *= Q * Q
        Q *= abs(Q)
    return QuadSurdState(P, Q, D)


def cf_expand(x, budget: int = DEFAULT_BUDGET) -> CFExpansion:
    """Exact continued fraction of a Fraction or QuadElem."""
    if isinstance(x, RationalLike):
        return CFExpansion(tuple(_rational_cf(Fraction(x))), ())
    if not isinstance(x, QuadElem):
        raise TypeError(f"cannot expand {type(x).__name__}")
    st = surd_state(x)
    quotients, start = _surd_cf(st.P, st.Q, st.D, budget)
    pre = tuple(quotients[:start])
    period = _primitive_word(tuple(quotients[start:]))
    r = _least_rotation(period)
    pre = pre + period[:r]
    period = period[r:] + period[:r]
    return CFExpansion(pre, period)


def convergent(cf: CFExpansion, k: int) -> Fraction:
    """k-th convergent p_k/q_k by the three-term recurrence (exact).

    For rational expansions an index past the end yields the value itself.
    """
    if k < 0:
        raise InvalidInputError("convergent index must be >= 0")
    if cf.is_rational():
        k = min(k, len(cf.preperiod) - 1)
    quotients = cf.quotients(k + 1)
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for a in quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return Fraction(p, q)


def convergents(cf: CFExpansion, count: int):
    """First `count` convergents, in order."""
    return [convergent(cf, k) for k in range(count)]


def gl2z_equivalent(x, y, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide whether two slopes are in one GL2(Z)-orbit on P^1(R).

    P^1(Q) is one orbit; rational and irrational never mix; two quadratic
    irrationals are equivalent iff their canonical periods agree.
    """
    for s in (x, y):
        if isinstance(s, GenericSlope):
            raise UndecidableInputError(
                f"cannot decide equivalence for generic slope {s!r}"
            )
    rx, ry = is_projective_rational(x), is_projective_rational(y)
    if rx or ry:
        return rx and ry
    return cf_expand(x, budget).period == cf_expand(y, budget).period


def pell_fundamental_unit(D: int, budget: int = DEFAULT_BUDGET):
    """Smallest unit x + y*sqrt(D) > 1 with integer x, y > 0 and
    x^2 - D y^2 = +-1, read off the first period of cf(sqrt(D)).

    Returns (unit, norm) with the unit normalized to a squarefree
    radicand and norm in {+1, -1}.
    """
    if not isinstance(D, int) or D < 2:
        raise InvalidInputError(f"need an integer D >= 2, got {D!r}")
    if math.isqrt(D) ** 2 == D:
        raise InvalidInputError(f"D = {D} is a perfect square")
    quotients, start = _surd_cf(0, 1, D, budget)
    period_len = len(quotients) - start
    # convergent over the first `period_len` quotients starting at a0
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for a in quotients[:period_len]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    norm = p * p - D * q * q
    assert norm in (1, -1)
    unit = normalize_quad(D, p, q)
    assert isinstance(unit, QuadElem)
    return unit, norm
