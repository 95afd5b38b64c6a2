"""Univariate polynomial utilities over exact rationals.

Polynomials are tuples of coefficients in ascending degree order.  This
module supplies the Sturm machinery (chains, sign variations, root
counting and isolation) plus the exact ring operations the fields module
needs.  Isolating intervals always have nonroot endpoints and a sign
change across them, so bisection refines them indefinitely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SquarefreeRequiredError
from .intervals import Interval, eval_poly_interval

Poly = tuple[Fraction, ...]


def pnormalize(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdeg(p: Poly) -> int:
    return len(p) - 1  # zero polynomial has degree -1 by this convention


def peval(p: Poly, x: Fraction) -> Fraction:
    out = 0  # integer coefficients at an integer x stay in fast int arithmetic
    for c in reversed(p):
        out = out * x + c
    return out


def pderiv(p: Poly) -> Poly:
    return pnormalize(tuple(k * p[k] for k in range(1, len(p))))


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return pnormalize(
        tuple(
            (p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
            for k in range(n)
        )
    )


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci == 0:
            continue
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return pnormalize(out)


def pscale(p: Poly, s) -> Poly:
    return pnormalize(tuple(c * s for c in p))


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    assert q, "division by zero polynomial"
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quo[k] = c
        for i in range(len(q)):
            rem[k + i] -= c * q[i]
        rem.pop()
    return pnormalize(quo), pnormalize(rem)


def pgcd(p: Poly, q: Poly) -> Poly:
    a, b = pnormalize(p), pnormalize(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if a:
        a = pscale(a, 1 / a[-1])
    return a


def is_squarefree(p: Poly) -> bool:
    return pdeg(pgcd(p, pderiv(p))) <= 0


def primitive_int(p) -> tuple[int, ...]:
    """Clear denominators and content; positive leading coefficient."""
    p = pnormalize(p)
    assert p
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [pnormalize(p), pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def variations_at(chain, x: Fraction) -> int:
    return _variations([_sgn(peval(c, x)) for c in chain])


def variations_at_infinity(chain, positive: bool) -> int:
    signs = []
    for c in chain:
        lead = c[-1]
        if positive:
            signs.append(_sgn(lead))
        else:
            signs.append(_sgn(lead) * (-1) ** pdeg(c))
    return _variations(signs)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def count_real_roots(p: Poly) -> int:
    chain = sturm_chain(p)
    return variations_at_infinity(chain, False) - variations_at_infinity(chain, True)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie strictly inside (-B, B)."""
    p = pnormalize(p)
    lead = abs(p[-1])
    return 1 + max(abs(c) / lead for c in p[:-1]) if len(p) > 1 else Fraction(1)


_SPLIT_OFFSETS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 5),
    Fraction(4, 5),
    Fraction(2, 7),
    Fraction(5, 7),
)


def _nonroot_split(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    for off in _SPLIT_OFFSETS:
        t = lo + (hi - lo) * off
        if peval(p, t) != 0:
            return t
    raise AssertionError("could not find a nonroot split point")


def isolate_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi) for all real roots of a
    squarefree p, each with exactly one root and a sign change."""
    p = pnormalize(p)
    if not is_squarefree(p):
        raise SquarefreeRequiredError("root isolation needs a squarefree polynomial")
    if pdeg(p) <= 0:
        return []
    chain = sturm_chain(p)
    bound = root_bound(p)
    work = [(-bound, bound)]
    done = []
    while work:
        lo, hi = work.pop()
        n = variations_at(chain, lo) - variations_at(chain, hi)
        if n == 0:
            continue
        if n == 1 and peval(p, lo) * peval(p, hi) < 0:
            done.append((lo, hi))
            continue
        mid = _nonroot_split(p, lo, hi)
        work.append((lo, mid))
        work.append((mid, hi))
    done.sort()
    return done


@dataclass
class RealRoot:
    """One real root of a squarefree polynomial, known by an isolating
    interval with p(lo)*p(hi) < 0.  refine() halves the interval and is
    the only mutating operation."""

    poly: Poly
    lo: Fraction
    hi: Fraction
    _sign_lo: int = field(init=False, repr=False)

    def __post_init__(self):
        self.poly = pnormalize(self.poly)
        self.lo, self.hi = Fraction(self.lo), Fraction(self.hi)
        s_lo, s_hi = _sgn(peval(self.poly, self.lo)), _sgn(peval(self.poly, self.hi))
        assert s_lo * s_hi < 0, "isolating interval must have a sign change"
        self._sign_lo = s_lo

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self) -> None:
        mid = _nonroot_split(self.poly, self.lo, self.hi)
        if _sgn(peval(self.poly, mid)) == self._sign_lo:
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width: Fraction) -> None:
        while self.width() > width:
            self.refine()

    def eval_enclosure(self, coeffs) -> Interval:
        """Enclosure of q(root) for a rational-coefficient polynomial q."""
        return eval_poly_interval(coeffs, self.interval())

    def sign_of_value(self, coeffs, max_rounds: int = 200) -> int:
        """Certified sign of q(root); q(root) must be nonzero."""
        for _ in range(max_rounds):
            enc = self.eval_enclosure(coeffs)
            s = enc.sign()
            if s != 0:
                return s
            self.refine()
        raise AssertionError("sign did not resolve; value may be zero")
