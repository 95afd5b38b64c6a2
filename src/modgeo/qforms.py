"""Indefinite binary quadratic forms of positive nonsquare discriminant.

Reduction and cycles follow the classical rho operator; proper (SL2(Z))
classes are the rho-cycles of reduced forms, composition is Dirichlet's
(via a representative coprime to the other leading coefficient), and the
narrow class group is the group of proper classes.  The wide count is
the quotient of the narrow group by the class of the negated principal
form, which is trivial exactly when the fundamental unit has norm -1.

Fundamental units are read off the automorph obtained by one full trip
around the principal cycle; geodesic lengths are 2*log of the smallest
totally positive unit > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import (
    IncompatibleFormsError,
    InvalidDiscriminantError,
    InvalidInputError,
)
from .exact import QuadElem, make_quad, squarefree_split

Mat = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class IndefForm:
    """Primitive integral form a x^2 + b xy + c y^2, disc > 0 nonsquare."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        D = self.disc
        if D <= 0 or math.isqrt(D) ** 2 == D:
            raise InvalidInputError(
                f"form {(self.a, self.b, self.c)} has discriminant {D}, "
                "need positive nonsquare"
            )
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise InvalidInputError(f"form {(self.a, self.b, self.c)} is imprimitive")
        if self.a == 0:
            raise InvalidInputError("leading coefficient must be nonzero")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def opposite(self) -> "IndefForm":
        return IndefForm(self.a, -self.b, self.c)

    def negated(self) -> "IndefForm":
        return IndefForm(-self.a, -self.b, -self.c)

    def transform(self, m: Mat) -> "IndefForm":
        """Right action f.transform(g)(v) = f(g v); preserves disc for det +-1."""
        (p, q), (r, s) = m
        a = self(p, r)
        b = 2 * (self.a * p * q + self.c * r * s) + self.b * (p * s + q * r)
        c = self(q, s)
        return IndefForm(a, b, c)

    def roots(self):
        """The two slopes fixed by the form: (-b + sqrt(D))/(2a) first."""
        D = self.disc
        r1 = normalize_root(D, -self.b, 2 * self.a, +1)
        r2 = normalize_root(D, -self.b, 2 * self.a, -1)
        return r1, r2


def normalize_root(D: int, num: int, den: int, sign: int) -> QuadElem:
    """(num + sign*sqrt(D))/den as an exact quadratic element."""
    s, d = squarefree_split(D)
    return QuadElem(d, Fraction(num, den), Fraction(sign * s, den))


def valid_discriminant(D: int) -> bool:
    return D > 0 and D % 4 in (0, 1) and math.isqrt(D) ** 2 != D


def check_discriminant(D: int) -> None:
    if not isinstance(D, int) or not valid_discriminant(D):
        raise InvalidDiscriminantError(
            f"{D!r} is not a positive nonsquare discriminant = 0, 1 mod 4"
        )


def is_fundamental(D: int) -> bool:
    """Fundamental discriminants: squarefree D = 1 mod 4, or D = 4m with
    m squarefree and m = 2 or 3 mod 4."""
    if not valid_discriminant(D):
        return False
    if D % 4 == 1:
        return squarefree_split(D)[0] == 1
    m = D // 4
    return m % 4 in (2, 3) and squarefree_split(m)[0] == 1


def principal_form(D: int) -> IndefForm:
    check_discriminant(D)
    b0 = D % 2
    return IndefForm(1, b0, (b0 * b0 - D) // 4)


def is_reduced(f: IndefForm) -> bool:
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, exactly."""
    D = f.disc
    b, ta = f.b, 2 * abs(f.a)
    if b <= 0 or b * b >= D:
        return False
    if (ta + b) ** 2 <= D:
        return False
    return ta - b < 0 or (ta - b) ** 2 < D


def rho_step(f: IndefForm) -> tuple[IndefForm, int]:
    """One reduction step (c, -b + 2cm, *); returns (image, m).

    The matrix of the step is ((0, -1), (1, m)).
    """
    D = f.disc
    c = f.c
    s = math.isqrt(D)
    ac = abs(c)
    if c * c > D:
        # normalize b' into (-|c|, |c|]
        bp = ac - (ac + f.b) % (2 * ac)
    else:
        # reduced zone: b' in (sqrt(D) - 2|c|, sqrt(D))
        bp = s - (s + f.b) % (2 * ac)
    m = (bp + f.b) // (2 * c)
    cp = (bp * bp - D) // (4 * c)
    return IndefForm(c, bp, cp), m


def rho(f: IndefForm) -> IndefForm:
    return rho_step(f)[0]


def reduce_form(f: IndefForm, cap: int = 10000) -> IndefForm:
    for _ in range(cap):
        if is_reduced(f):
            return f
        f = rho(f)
    raise InvalidInputError("reduction did not terminate (cap exceeded)")


def _cycle_key(f: IndefForm):
    # positive leading coefficient first, then lexicographic
    return (f.a < 0, f.a, f.b, f.c)


def cycle_of(f: IndefForm) -> tuple[IndefForm, ...]:
    """The rho-cycle through reduce(f), listed from its least member
    (positive leading coefficients preferred)."""
    f = reduce_form(f)
    cyc = [f]
    g = rho(f)
    while g != f:
        cyc.append(g)
        g = rho(g)
    k = min(range(len(cyc)), key=lambda i: _cycle_key(cyc[i]))
    return tuple(cyc[k:] + cyc[:k])


def enumerate_reduced(D: int) -> list[IndefForm]:
    """All primitive reduced forms of discriminant D, sorted."""
    check_discriminant(D)
    out = []
    s = math.isqrt(D)
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        n = (b * b - D) // 4  # = a*c < 0
        m = -n
        for a in range(1, m + 1):
            if m % a:
                continue
            c = n // a
            for aa in (a, -a):
                f = (aa, b, n // aa)
                if math.gcd(math.gcd(aa, b), f[2]) != 1:
                    continue
                cand = IndefForm(*f)
                if is_reduced(cand):
                    out.append(cand)
    out.sort(key=lambda g: (g.a, g.b, g.c))
    return out


def proper_classes(D: int) -> list[tuple[IndefForm, ...]]:
    """Partition of the reduced forms into rho-cycles (one per SL2 class)."""
    forms = enumerate_reduced(D)
    remaining = set(forms)
    cycles = []
    for f in forms:
        if f not in remaining:
            continue
        cyc = cycle_of(f)
        for g in cyc:
            remaining.discard(g)
        cycles.append(cyc)
    cycles.sort(key=lambda c: _cycle_key(c[0]))
    return cycles


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    g, p, _ = _egcd(m1, m2)
    assert (r2 - r1) % g == 0
    lcm = m1 // g * m2
    x = r1 + (r2 - r1) // g * p % (m2 // g) * m1
    return x % lcm


def _coprime_representative(f: IndefForm, n: int, cap: int = 64) -> IndefForm:
    """A form properly equivalent to f whose leading coefficient is
    coprime to n (primitive forms represent such integers)."""
    for radius in count(1):
        if radius > cap:
            raise InvalidInputError("no coprime representative found (cap)")
        pairs = []
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if max(abs(x), abs(y)) == radius and math.gcd(x, y) == 1:
                    pairs.append((x, y))
        pairs.sort()
        for x, y in pairs:
            if math.gcd(f(x, y), n) == 1:
                g, xs, ys = _egcd(x, y)
                assert g == 1
                # columns (x, y) and (u, v) with x*v - y*u = 1
                return f.transform(((x, -ys), (y, xs)))


def compose(f: IndefForm, g: IndefForm) -> IndefForm:
    """Dirichlet composition, reduced into the target cycle."""
    if f.disc != g.disc:
        raise IncompatibleFormsError(
            f"discriminants differ: {f.disc} vs {g.disc}"
        )
    D = f.disc
    g2 = g if math.gcd(f.a, g.a) == 1 else _coprime_representative(g, f.a)
    a1, b1 = f.a, f.b
    a2, b2 = g2.a, g2.b
    B = _crt(b1, 2 * abs(a1), b2, 2 * abs(a2))
    A = a1 * a2
    assert (B * B - D) % (4 * A) == 0
    C = (B * B - D) // (4 * A)
    return reduce_form(IndefForm(A, B, C))


@dataclass(frozen=True)
class FormClassGroup:
    """Narrow (proper-class) group of discriminant D."""

    discriminant: int
    cycles: tuple[tuple[IndefForm, ...], ...]
    representatives: tuple[IndefForm, ...]
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    invariant_factors: tuple[int, ...]

    @property
    def h_plus(self) -> int:
        return len(self.representatives)

    def class_index(self, f: IndefForm) -> int:
        target = cycle_of(f)[0]
        for i, rep in enumerate(self.representatives):
            if rep == target:
                return i
        raise InvalidInputError("form does not belong to this discriminant")

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def element_order(self, i: int) -> int:
        j, n = i, 1
        while j != self.identity:
            j = self.mul(j, i)
            n += 1
        return n

    def inverse(self, i: int) -> int:
        f = self.representatives[i]
        return self.class_index(f.opposite())


def class_group(D: int) -> FormClassGroup:
    """Group structure on the proper classes via composition."""
    cycles = proper_classes(D)
    reps = tuple(c[0] for c in cycles)
    index = {}
    for i, cyc in enumerate(cycles):
        for form in cyc:
            index[form] = i
    h = len(reps)
    table = tuple(
        tuple(index[compose(reps[i], reps[j])] for j in range(h)) for i in range(h)
    )
    identity = index[reduce_form(principal_form(D))]
    factors = _invariant_factors(table, identity)
    return FormClassGroup(D, tuple(cycles), reps, table, identity, factors)


def _invariant_factors(table, identity) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given its Cayley table.

    Determined from the order statistics: for each prime p, the number of
    solutions of x^(p^k) = e fixes the p-partition.
    """
    h = len(table)
    if h == 1:
        return ()

    def power(i, n):
        out = identity
        base = i
        while n:
            if n & 1:
                out = table[out][base]
            base = table[base][base]
            n >>= 1
        return out

    partitions: dict[int, list[int]] = {}
    m = h
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            partitions[p] = _p_partition(table, identity, power, p, h)
        p += 1
    if m > 1:
        partitions[m] = _p_partition(table, identity, power, m, h)
    width = max(len(v) for v in partitions.values())
    factors = []
    for j in range(width):
        val = 1
        for q, parts in partitions.items():
            if j < len(parts):
                val *= q ** parts[j]
        factors.append(val)
    factors.sort()
    assert math.prod(factors) == h
    return tuple(factors)


def _p_partition(table, identity, power, p, h) -> list[int]:
    """Exponent partition of the p-Sylow subgroup, sorted descending."""
    d = [0]
    k = 1
    while True:
        cnt = sum(1 for i in range(h) if power(i, p**k) == identity)
        e = 0
        c = cnt
        while c > 1:
            c //= p
            e += 1
        assert p**e == cnt
        d.append(e)
        if len(d) >= 2 and d[-1] == d[-2]:
            d.pop()
            break
        k += 1
    parts = []
    for kk in range(1, len(d)):
        parts.append(d[kk] - d[kk - 1])  # number of cyclic factors with exp >= kk
    out = []
    for j in range(parts[0] if parts else 0):
        out.append(sum(1 for c in parts if c > j))
    out.sort(reverse=True)
    return out


def cycle_automorph(D: int) -> tuple[Mat, tuple[IndefForm, ...]]:
    """Automorph matrix from one full trip around the principal cycle."""
    cyc = cycle_of(principal_form(D))
    f = cyc[0]
    mat: Mat = ((1, 0), (0, 1))
    g = f
    for _ in range(len(cyc)):
        g, m = rho_step(g)
        step: Mat = ((0, -1), (1, m))
        mat = _matmul(mat, step)
    assert g == f
    assert f.transform(mat) == f
    if mat[0][0] + mat[1][1] < 0:
        mat = ((-mat[0][0], -mat[0][1]), (-mat[1][0], -mat[1][1]))
    return mat, cyc


def _matmul(x: Mat, y: Mat) -> Mat:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def automorph_matrix(f: IndefForm, t: int, u: int) -> Mat:
    """Automorph of f attached to a solution of t^2 - D u^2 = 4."""
    return (
        ((t - f.b * u) // 2, -f.c * u),
        (f.a * u, (t + f.b * u) // 2),
    )


def order_unit(D: int):
    """Units of the order of discriminant D.

    Returns (epsilon, norm, epsilon_plus): the fundamental unit > 1, its
    norm, and the smallest totally positive unit > 1 (epsilon if the norm
    is +1, else epsilon^2).  Computed from the principal-cycle automorph,
    which yields epsilon_plus = (t + u*sqrt(D))/2 directly.
    """
    check_discriminant(D)
    mat, cyc = cycle_automorph(D)
    f = cyc[0]
    t = mat[0][0] + mat[1][1]
    assert mat[1][0] % f.a == 0
    u = mat[1][0] // f.a
    assert automorph_matrix(f, t, u) == mat
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert det == 1 and t > 2
    if u < 0:
        t, u = t, -u  # conjugate associate; pick the one > 1 below
    s, d = squarefree_split(D)
    eps_plus = make_quad(d, Fraction(t, 2), Fraction(u * s, 2))
    assert isinstance(eps_plus, QuadElem)
    if eps_plus < 1:
        eps_plus = eps_plus.invert()
    assert eps_plus.norm() == 1 and eps_plus > 1
    # epsilon has norm -1 iff eps_plus is the square of a smaller unit:
    # eps_plus = ((s0 + v sqrt(D))/2)^2 with s0^2 - D v^2 = -4 forces
    # s0^2 = t - 2 and v = u / s0.
    tm2 = t - 2
    s0 = math.isqrt(tm2)
    if s0 * s0 == tm2 and s0 > 0 and u % s0 == 0:
        v = u // s0
        if s0 * s0 - D * v * v == -4:
            eps = make_quad(d, Fraction(s0, 2), Fraction(v * s, 2))
            assert isinstance(eps, QuadElem)
            assert eps * eps == eps_plus
            return eps, -1, eps_plus
    return eps_plus, 1, eps_plus


def wide_class_group(D: int):
    """Classes after GL2(Z) identification (the ideal class group of the
    order): quotient of the proper classes by the class of the negated
    principal form.  Returns (h, mapping) with mapping[i] the wide index
    of proper class i.

    h = h_plus exactly when the fundamental unit has norm -1, else
    h = h_plus / 2.
    """
    grp = class_group(D)
    neg = grp.class_index(reduce_form(principal_form(D).negated()))
    h_plus = grp.h_plus
    if neg == grp.identity:
        return h_plus, list(range(h_plus)), grp
    seen: dict[int, int] = {}
    mapping = []
    for i in range(h_plus):
        j = grp.mul(neg, i)
        key = min(i, j)
        if key not in seen:
            seen[key] = len(seen)
        mapping.append(seen[key])
    assert len(seen) * 2 == h_plus
    return len(seen), mapping, grp


@dataclass(frozen=True)
class ClosedGeodesic:
    """A closed geodesic: a rho-cycle with its Galois-conjugate slope pair
    and exact length 2*log(eps_plus)."""

    cycle: tuple[IndefForm, ...]
    slope_pair: tuple[QuadElem, QuadElem]
    eps_plus: QuadElem

    def length_numeric(self, digits: int = 20) -> str:
        from .exact import log_decimal
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = digits + 10
            v = 2 * Decimal(log_decimal(self.eps_plus, digits + 5))
            ctx.prec = digits
            v = +v
        return str(v)


def class_to_geodesic(D: int, f: IndefForm) -> ClosedGeodesic:
    """The closed geodesic of the proper class of f (Gauss, via cycles)."""
    check_discriminant(D)
    if f.disc != D:
        raise IncompatibleFormsError(f"form has discriminant {f.disc}, not {D}")
    cyc = cycle_of(f)
    first = cyc[0]
    r1, r2 = first.roots()
    assert r1.conjugate() == r2
    _, _, eps_plus = order_unit(D)
    return ClosedGeodesic(cyc, (r1, r2), eps_plus)
