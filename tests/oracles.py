"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the library code paths it checks:
brute-force searches, naive floor-based continued fractions, interval
sign evaluation from scratch, breadth-first homography search, and exact
arithmetic in Q(i)[x]/(x^4 - 2), rational roots from the divisors of the
end coefficients, and the brute-force scan for compatible symplectic forms
that the Galois-theoretic search replaced.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from modgeo.exact import QuadElem, exact_floor
from modgeo.fields import _cofactor_vectors, alternating_matrix, verify_psi
from modgeo.intervals import Box, Interval, eval_poly_interval
from modgeo.polyutil import primitive_int
from modgeo.slopes import INF, apply_homography


def brute_pell(D: int, cap: int = 10**7):
    """Smallest y >= 1 with D y^2 +- 1 a perfect square."""
    for y in range(1, cap):
        t = D * y * y
        for delta in (1, -1):
            x2 = t + delta
            if x2 <= 0:
                continue
            x = math.isqrt(x2)
            if x * x == x2:
                return x, y, delta
    raise AssertionError("no Pell solution found below cap")


def brute_order_unit(D: int, cap: int = 10**7):
    """Fundamental unit (t + u sqrt(D))/2 of the order of discriminant D
    by scanning (u, t) lexicographically for t^2 - D u^2 = +-4.

    Both signs can admit a solution at the same u (e.g. D = 5), and the
    fundamental unit is the one with the smaller t."""
    for u in range(1, cap):
        base = D * u * u
        hits = []
        for delta in (-4, 4):
            t2 = base + delta
            if t2 <= 0:
                continue
            t = math.isqrt(t2)
            if t * t == t2:
                hits.append((t, delta // 4))
        if hits:
            t, sign = min(hits)
            return t, u, sign
    raise AssertionError("no unit found below cap")


def naive_cf_prefix(x, n: int) -> list[int]:
    """First n partial quotients by exact floor and field inversion."""
    out = []
    for _ in range(n):
        a = exact_floor(x)
        out.append(a)
        frac = x - a
        if not isinstance(frac, QuadElem) and frac == 0:
            break
        x = 1 / frac
    return out


def sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= sqrt(d) <= hi with hi - lo <= 2^-bits-ish."""
    scale = 1 << bits
    r = math.isqrt(d * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def interval_sign(q: QuadElem, max_bits: int = 512) -> int:
    """Sign of a + b sqrt(d) via interval evaluation, refining until the
    enclosure excludes zero."""
    bits = 16
    while bits <= max_bits:
        lo, hi = sqrt_bounds(q.d, bits)
        cands = (q.a + q.b * lo, q.a + q.b * hi)
        vlo, vhi = min(cands), max(cands)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        bits *= 2
    raise AssertionError("interval sign did not resolve (value may be 0)")


GL2_GENERATORS = (
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((0, -1), (1, 0)),
    ((1, 0), (0, -1)),
)


def gl2z_word_search(x, y, depth: int) -> bool:
    """Breadth-first search over short GL2(Z) words: is y = g x?"""
    seen = {_key(x)}
    frontier = [x]
    if _key(x) == _key(y):
        return True
    for _ in range(depth):
        new = []
        for v in frontier:
            for g in GL2_GENERATORS:
                w = apply_homography(g, v)
                k = _key(w)
                if k in seen:
                    continue
                if k == _key(y):
                    return True
                seen.add(k)
                new.append(w)
        frontier = new
    return False


def _key(v):
    if v is INF:
        return "inf"
    if isinstance(v, QuadElem):
        return (v.d, v.a, v.b)
    return Fraction(v)


def random_gl2z(rng, bound: int = 10):
    """Random integer matrix with entries in [-bound, bound], det +-1."""
    while True:
        m = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2)
        )
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det in (1, -1):
            return m


# -- exact arithmetic in Q(i)[x]/(x^4 - 2) --------------------------------
#
# Elements are 4-tuples of Gaussian rationals (re, im) in the basis
# 1, beta, beta^2, beta^3 with beta^4 = 2.  This is enough to express all
# four roots of x^4 - 2 (beta, -beta, i beta, -i beta) exactly.

Gauss = tuple[Fraction, Fraction]
QiB = tuple[Gauss, Gauss, Gauss, Gauss]

G_ZERO: Gauss = (Fraction(0), Fraction(0))
G_ONE: Gauss = (Fraction(1), Fraction(0))


def g_add(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_scale(a: Gauss, s) -> Gauss:
    return (a[0] * s, a[1] * s)


def qib(*coeffs) -> QiB:
    out = list(coeffs) + [G_ZERO] * (4 - len(coeffs))
    return tuple(out[:4])


QIB_ZERO = qib()


def qib_add(x: QiB, y: QiB) -> QiB:
    return tuple(g_add(a, b) for a, b in zip(x, y))


def qib_mul(x: QiB, y: QiB) -> QiB:
    acc = [G_ZERO] * 7
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            acc[i + j] = g_add(acc[i + j], g_mul(a, b))
    out = list(acc[:4])
    for k in range(4, 7):
        out[k - 4] = g_add(out[k - 4], g_scale(acc[k], 2))  # beta^4 = 2
    return tuple(out)


def qib_scale_int(x: QiB, s: int) -> QiB:
    return tuple(g_scale(a, s) for a in x)


def qib_is_zero(x: QiB) -> bool:
    return all(a == G_ZERO for a in x)


# the four roots of x^4 - 2 in this algebra
BETA: QiB = qib(G_ZERO, G_ONE)
MINUS_BETA: QiB = qib(G_ZERO, (Fraction(-1), Fraction(0)))
I_BETA: QiB = qib(G_ZERO, (Fraction(0), Fraction(1)))


def qib_embedding_vector(root: QiB) -> list[QiB]:
    """(t^3, t^2, t, 1): the eigenline vector for a root t of x^4 - 2."""
    t2 = qib_mul(root, root)
    t3 = qib_mul(t2, root)
    one = qib(G_ONE)
    return [t3, t2, root, one]


def qib_pairing(psi, u: list[QiB], w: list[QiB]) -> QiB:
    out = QIB_ZERO
    for k in range(4):
        for l in range(4):
            if psi[k][l]:
                out = qib_add(out, qib_scale_int(qib_mul(u[k], w[l]), psi[k][l]))
    return out


def divisor_rational_roots(coeffs) -> list[Fraction]:
    """Rational roots of an integer polynomial (ascending coefficients) by
    trying every u/v with u | the lowest nonzero and v | the leading
    coefficient."""
    p = list(coeffs)
    while p and p[-1] == 0:
        p.pop()
    roots = {Fraction(0)} if p and p[0] == 0 and len(p) > 1 else set()
    while p and p[0] == 0:
        p.pop(0)
    if len(p) < 2:
        return sorted(roots)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for u in divisors(p[0]):
        for v in divisors(p[-1]):
            for x in (Fraction(u, v), Fraction(-u, v)):
                if sum(c * x**i for i, c in enumerate(p)) == 0:
                    roots.add(x)
    return sorted(roots)


# -- brute-force scan for compatible symplectic forms --------------------


def scan_compatible_symplectic(point, height_bound: int):
    """First nondegenerate psi, in lexicographic order of the entries
    (psi01, psi02, psi03, psi12, psi13, psi23) over [-H, H]^6, that
    verify_psi accepts, or None: all (2H+1)^6 candidates, most of them
    dropped by a float prefilter on the two isotropy conditions."""
    b1, b2 = point.embeddings.real_roots
    b1.refine_below(Fraction(1, 1 << 90))
    b2.refine_below(Fraction(1, 1 << 90))
    while point.gamma.bits < 90:
        point.gamma.refine()
    ints = primitive_int(point.field.poly())
    U = _cofactor_vectors(ints)
    gb = point.gamma.box()
    u1 = [eval_poly_interval(u, Box(b1.interval(), Interval.point(0))) for u in U]
    u2 = [eval_poly_interval(u, Box(b2.interval(), Interval.point(0))) for u in U]
    w = [eval_poly_interval(u, gb) for u in U]
    pairs = [(k, l) for k in range(4) for l in range(k + 1, 4)]

    def centers_and_tol(vec):
        ms = [vec[k] * w[l] - vec[l] * w[k] for k, l in pairs]
        cs = [complex(float(b.re.mid()), float(b.im.mid())) for b in ms]
        hw = sum(float(b.re.width()) + float(b.im.width()) for b in ms)
        scale = max(abs(c) for c in cs) + 1.0
        return cs, height_bound * (hw + 1e-12 * scale) * 4 + 1e-12

    c1, tol1 = centers_and_tol(u1)
    c2, tol2 = centers_and_tol(u2)
    rng = range(-height_bound, height_bound + 1)
    for entries in itertools.product(rng, repeat=6):
        a, b, c, d, e, f = entries
        if a * f - b * e + c * d == 0:
            continue
        if abs(sum(x * y for x, y in zip(entries, c1))) > tol1:
            continue
        if abs(sum(x * y for x, y in zip(entries, c2))) > tol2:
            continue
        psi = alternating_matrix(entries)
        if verify_psi(point, psi).accepted:
            return psi
    return None
