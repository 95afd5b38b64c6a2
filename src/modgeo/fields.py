"""Degree 2 and 4 number fields: signatures, quadratic subfields,
RM types, and the rank-4 special points with their symplectic checks.

Real numbers of degree 4 are handled as (minimal polynomial, isolating
interval) pairs with interval refinement as the comparison engine; every
nonvanishing statement is certified by an interval that excludes zero,
and every vanishing statement is certified by exact algebra (gcd
computations over Q[y]/(p)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    InvalidInputError,
    NotTotallyRealError,
    SquarefreeRequiredError,
    WrongSignatureError,
)
from .intervals import Box, Interval, eval_poly_interval, sqrt_interval
from .polyutil import (
    Poly,
    RealRoot,
    is_squarefree,
    isolate_roots,
    padd,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmul,
    pneg,
    pnormalize,
    primitive_int,
    pscale,
    psub,
)

# -- number fields -------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(minpoly) with minpoly primitive, irreducible, degree 1, 2, 4.

    Degree 1 (minpoly x - r) stands for Q itself; it is allowed so the
    rational base field can appear in RM-type computations.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def poly(self) -> Poly:
        return pnormalize(self.coeffs)


def number_field(coeffs) -> NumberField:
    """Validated NumberField: normalizes to primitive with positive
    leading coefficient and certifies irreducibility over Q exactly."""
    p = primitive_int(pnormalize(coeffs))
    deg = len(p) - 1
    if deg not in (1, 2, 4):
        raise InvalidInputError(f"supported degrees are 1, 2, 4; got {deg}")
    if deg == 2 and _quadratic_reducible(p):
        raise InvalidInputError(f"{p} is reducible over Q")
    if deg == 4 and _quartic_reducible(p):
        raise InvalidInputError(f"{p} is reducible over Q")
    return NumberField(p)


def _rational_roots(p: tuple[int, ...]) -> list[Fraction]:
    """All rational roots of an integer polynomial, exactly.

    With q the primitive squarefree part, of degree n and leading
    coefficient c, x is a root exactly when y = c x is an integer root of
    the monic Q(y) = c^(n-1) q(y/c), and then |y| < 1 + max |Q_i|.  Modulo
    a prime l at which every root of Q is simple, each integer root is the
    Hensel lift of one of those roots to a modulus above twice that bound.
    The work grows with the bit size of the coefficients, where trial
    division of p(0) grows with their square root.
    """
    poly = pnormalize(p)
    if pdeg(poly) < 1:
        return []
    q = primitive_int(pdivmod(poly, pgcd(poly, pderiv(poly)))[0])
    n, c = len(q) - 1, q[-1]
    Q = [qi * c ** (n - 1 - i) for i, qi in enumerate(q[:-1])] + [1]
    dQ = [i * Q[i] for i in range(1, n + 1)]
    ell = 1
    while True:  # ends at the latest past the primes dividing disc(Q)
        ell += 1
        if all(ell % f for f in range(2, math.isqrt(ell) + 1)):
            roots = [t for t in range(ell) if peval(Q, t) % ell == 0]
            if all(peval(dQ, t) % ell for t in roots):
                break
    mod, bound = ell, 1 + max(map(abs, Q))
    while mod <= 2 * bound:
        mod *= mod
        roots = [(t - peval(Q, t) * pow(peval(dQ, t), -1, mod)) % mod for t in roots]
    centered = (y - mod if 2 * y > mod else y for y in roots)
    return sorted(Fraction(y, c) for y in centered if peval(Q, y) == 0)


def _quadratic_reducible(p: tuple[int, ...]) -> bool:
    c0, c1, c2 = p
    disc = c1 * c1 - 4 * c2 * c0
    return disc >= 0 and math.isqrt(disc) ** 2 == disc


def _quartic_reducible(p: tuple[int, ...]) -> bool:
    """A rational root, or a split into two rational quadratics: a split
    over Q(sqrt(1))."""
    m = pscale(pnormalize(p), Fraction(1, p[-1]))
    return bool(_rational_roots(p)) or _split_over_quadratic(m, 1) is not None


# -- real embeddings ------------------------------------------------------


@dataclass
class EmbeddingSet:
    """Sturm-certified isolating intervals for the real embeddings."""

    poly: tuple[int, ...]
    real_roots: list[RealRoot]

    @property
    def signature(self) -> tuple[int, int]:
        deg = len(self.poly) - 1
        r1 = len(self.real_roots)
        return r1, (deg - r1) // 2

    def separate(self) -> None:
        """Refine until the isolating intervals are pairwise disjoint."""
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(self.real_roots, 2):
                if not (a.hi < b.lo or b.hi < a.lo):
                    a.refine()
                    b.refine()
                    changed = True


def isolate_real_roots(p) -> EmbeddingSet:
    """Isolate all real roots of a squarefree integer polynomial."""
    coeffs = pnormalize(p)
    if not is_squarefree(coeffs):
        raise SquarefreeRequiredError("polynomial must be squarefree")
    ints = primitive_int(coeffs)
    intervals = isolate_roots(pnormalize(ints))
    roots = [RealRoot(pnormalize(ints), lo, hi) for lo, hi in intervals]
    emb = EmbeddingSet(ints, roots)
    emb.separate()
    return emb


# -- quadratic subfields --------------------------------------------------


def quad_field_radicand(E: NumberField) -> int:
    """Squarefree d with E = Q(sqrt(d)) for a real quadratic E."""
    from .exact import squarefree_split

    c0, c1, c2 = E.poly()
    disc = int(c1 * c1 - 4 * c2 * c0)
    if disc <= 0:
        raise NotTotallyRealError("quadratic field is not real")
    return squarefree_split(disc)[1]


def _kinv(a: Poly, p: Poly) -> Poly:
    """Inverse of a modulo p by the extended Euclidean algorithm."""
    r0, r1 = pnormalize(a), pnormalize(p)
    s0, s1 = (Fraction(1),), ()
    while r1:
        q, rem = pdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, psub(s0, pmul(q, s1))
    assert pdeg(r0) == 0, "inverse exists only modulo an irreducible polynomial"
    return pdivmod(pscale(s0, 1 / r0[0]), p)[1]


def _kmul(a: Poly, b: Poly, p: Poly) -> Poly:
    return pdivmod(pmul(a, b), p)[1]


def _resolvent(m: Poly) -> tuple[int, ...]:
    """The resolvent cubic of the monic quartic m, made primitive and
    integral: its roots are a1 a2 + a3 a4 over the three ways of pairing
    the roots a1..a4 of m."""
    m0, m1, m2, m3 = m[0], m[1], m[2], m[3]
    return primitive_int((4 * m2 * m0 - m1 * m1 - m3 * m3 * m0, m1 * m3 - 4 * m0,
                          -m2, Fraction(1)))


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    num, den = q.numerator, q.denominator
    if q < 0 or math.isqrt(num) ** 2 != num or math.isqrt(den) ** 2 != den:
        return None
    return Fraction(math.isqrt(num), math.isqrt(den))


def _split_over_quadratic(m: Poly, d) -> Optional[tuple[Poly, Poly]]:
    """Factor the monic quartic m over Q(sqrt(d)), for a positive rational
    d (a square d gives a factorization over Q), as
    m = (A + sqrt(d) L)(A - sqrt(d) L) = A^2 - d L^2 with A = x^2 + u0 x + v0
    and L = w x + v1 rational; returns (A, L), or None if m does not split.

    The factors pair the roots a1, a2 | a3, a4 of m with r = a1 a2 + a3 a4
    a rational root of the resolvent cubic, and matching coefficients gives
    u0 = m3/2, v0 = r/2, 4 w^2 d = m3^2 - 4 (m2 - r), w v1 d = u0 v0 - m1/2
    and, when w = 0, 4 v1^2 d = r^2 - 4 m0.  A candidate is accepted only
    after the exact expansion A^2 - d L^2 == m.
    """
    m0, m1, m2, m3 = m[0], m[1], m[2], m[3]
    u0 = m3 / 2
    for r in _rational_roots(_resolvent(m)):
        v0 = r / 2
        w = _rational_sqrt((m3 * m3 - 4 * (m2 - r)) / (4 * d))
        if w is None:
            continue
        if w:
            v1 = (u0 * v0 - m1 / 2) / (w * d)
        else:
            v1 = _rational_sqrt((r * r - 4 * m0) / (4 * d))
        if v1 is None:
            continue
        A: Poly = (v0, u0, Fraction(1))
        L: Poly = (v1, w)
        if psub(pmul(A, A), pscale(pmul(L, L), d)) == m:
            return A, L
    return None


def _sqrt_image(A: Poly, L: Poly, m: Poly) -> Poly:
    """sqrt(d) = -A/L as an element of K = Q[y]/(m), for (A, L) from
    _split_over_quadratic; y is then a root of A + sqrt(d) L."""
    return _kmul(pneg(A), _kinv(L, m), m)


def subfield_embed(E: NumberField, F: NumberField) -> Optional[tuple[Fraction, ...]]:
    """Coordinates of sqrt(d_E) in the power basis of F, or None.

    Solved by factoring F's minimal polynomial over Q(sqrt(d_E)): the
    Galois-conjugate quadratic factors reduce to a rational root problem,
    and the factorization linearizes sqrt(d_E) as an element of F.  The
    result s satisfies s(alpha)^2 = d_E, verified by exact squaring, and
    is sign-normalized to a positive leading coefficient.
    """
    if E.degree != 2 or F.degree != 4:
        raise InvalidInputError(
            f"need a quadratic subfield of a quartic field, got degrees "
            f"{E.degree} and {F.degree}"
        )
    d = quad_field_radicand(E)
    m = pscale(F.poly(), Fraction(1, F.poly()[-1]))  # monic quartic
    split = _split_over_quadratic(m, d)
    if split is None:
        return None
    s = _sqrt_image(*split, m)
    if _kmul(s, s, m) != (Fraction(d),):
        raise AssertionError("exact squaring check failed")
    if s[-1] < 0:
        s = pneg(s)
    return tuple(s) + (Fraction(0),) * (4 - len(s))


# -- RM types -------------------------------------------------------------


@dataclass(frozen=True)
class RMType:
    """One real embedding of F chosen over each real embedding of E.

    base_count is the number of E-embeddings; chosen[i] is the index (into
    the sorted F-roots) picked over the i-th E-embedding; fibers[i] lists
    all F-root indices lying over it.
    """

    base_count: int
    chosen: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        assert len(self.chosen) == self.base_count == len(self.fibers)
        for c, fib in zip(self.chosen, self.fibers):
            assert c in fib


def _rm_fibers(F: NumberField, E: NumberField, emb_f: EmbeddingSet,
               sqrt_coords) -> list[list[int]]:
    """F-root indices over each E-embedding, embeddings matched by the
    certified sign of the embedded sqrt(d_E)."""
    if E.degree == 1:
        return [list(range(len(emb_f.real_roots)))]
    signs = [root.sign_of_value(sqrt_coords) for root in emb_f.real_roots]
    assert signs.count(1) == 2 and signs.count(-1) == 2
    c0, c1, c2 = E.poly()
    emb_e = isolate_real_roots(E.poly())
    fibers = []
    for e_root in emb_e.real_roots:
        # sign of the sqrt(d_E) image under this E-embedding
        e_sign = e_root.sign_of_value((c1, 2 * c2))
        fibers.append([i for i, s in enumerate(signs) if s == e_sign])
    return fibers


def enumerate_rm_types(F: NumberField, E: NumberField) -> list[RMType]:
    """All 2^(deg E) RM types for a totally real quadratic extension F/E."""
    if F.degree != 2 * E.degree:
        raise InvalidInputError(
            f"[F:E] must be 2, got degrees {F.degree} over {E.degree}"
        )
    emb_f = isolate_real_roots(F.poly())
    if emb_f.signature[1] != 0:
        raise NotTotallyRealError(f"F has signature {emb_f.signature}")
    sqrt_coords = None
    if E.degree == 2:
        emb_e = isolate_real_roots(E.poly())
        if emb_e.signature[1] != 0:
            raise NotTotallyRealError(f"E has signature {emb_e.signature}")
        sqrt_coords = subfield_embed(E, F)
        if sqrt_coords is None:
            raise InvalidInputError("E does not embed into F")
    fibers = _rm_fibers(F, E, emb_f, sqrt_coords)
    assert all(len(f) == 2 for f in fibers)
    out = []
    for chosen in itertools.product(*fibers):
        out.append(
            RMType(len(fibers), tuple(chosen), tuple(tuple(f) for f in fibers))
        )
    return out


# -- Hilbert special points ----------------------------------------------


@dataclass
class HilbertLilac:
    """Power-basis lattice of F with the decomposition induced by an RM
    type: F_x is spanned by the chosen embedding coordinates, F_y by the
    others.  Projection data (index sets) is exact; certificates are
    interval-refined.

    Both summands are stable under multiplication by all of F (diagonal
    in the embedding basis), which is what distinguishes these points;
    only the base-field stability is asserted by the verifier."""

    field: NumberField
    base: NumberField
    rm_type: RMType
    sqrt_coords: Optional[tuple[Fraction, ...]]
    embeddings: EmbeddingSet
    x_embeddings: tuple[int, ...]
    y_embeddings: tuple[int, ...]


def _interval_det(rows: list[list[Interval]]) -> Interval:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = Interval.point(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _interval_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _vandermonde_rows(emb: EmbeddingSet) -> list[list[Interval]]:
    n = len(emb.real_roots)
    rows = []
    for root in emb.real_roots:
        iv = root.interval()
        row = [Interval.point(1)]
        for _ in range(n - 1):
            row.append(row[-1] * iv)
        rows.append(row)
    return rows


def certify_direct_sum(emb: EmbeddingSet, max_rounds: int = 200) -> bool:
    """Refine until the embedding basis-change determinant excludes 0."""
    for _ in range(max_rounds):
        det = _interval_det(_vandermonde_rows(emb))
        if det.excludes_zero():
            return True
        for root in emb.real_roots:
            root.refine()
    raise AssertionError("determinant sign did not resolve")


def hilbert_special_point(F: NumberField, E: NumberField, t: RMType) -> HilbertLilac:
    """The special point attached to an RM type, with certified
    direct-sum and stability data."""
    emb_f = isolate_real_roots(F.poly())
    if emb_f.signature[1] != 0:
        raise NotTotallyRealError(f"F has signature {emb_f.signature}")
    sqrt_coords = subfield_embed(E, F) if E.degree == 2 else None
    x_idx = tuple(sorted(t.chosen))
    y_idx = tuple(i for i in range(len(emb_f.real_roots)) if i not in x_idx)
    lilac = HilbertLilac(F, E, t, sqrt_coords, emb_f, x_idx, y_idx)
    ok = verify_hilbert_lilac(lilac)
    if not (ok["direct_sum"] and ok["stable"]):
        raise AssertionError("special point failed its direct-sum or stability certificate")
    return lilac


def verify_hilbert_lilac(lilac: HilbertLilac) -> dict:
    """Certify the two invariants of the decomposition.

    direct_sum: the embedding matrix is nonsingular (interval determinant
    refined until it excludes zero).  stable: multiplication by sqrt(d_E)
    is diagonal in the embedding basis with the chosen coordinates
    carrying one embedding over each base embedding (so both projections
    commute with it); checked through the exact square identity and the
    certified sign pattern of the embedded sqrt(d_E).
    """
    out = {"direct_sum": certify_direct_sum(lilac.embeddings)}
    if lilac.base.degree == 1:
        out["sign_pattern"] = None
        out["stable"] = len(lilac.x_embeddings) == 1
        return out
    d = quad_field_radicand(lilac.base)
    s = lilac.sqrt_coords
    m = pscale(lilac.field.poly(), Fraction(1, lilac.field.poly()[-1]))
    if s is None or _kmul(s, s, m) != (Fraction(d),):
        raise AssertionError("exact squaring check of sqrt(d_E) failed")
    signs = [root.sign_of_value(s) for root in lilac.embeddings.real_roots]
    out["sign_pattern"] = tuple(signs)
    chosen_signs = sorted(signs[i] for i in lilac.x_embeddings)
    other_signs = sorted(signs[i] for i in lilac.y_embeddings)
    out["stable"] = chosen_signs == [-1, 1] and other_signs == [-1, 1]
    return out


# -- Siegel special points ------------------------------------------------


class ComplexPairEnclosure:
    """Certified box around the complex root gamma (positive imaginary
    part) of a signature-(2,1) quartic, computed from the exact symmetric
    relations between the roots: the real part from the coefficient sum,
    the modulus from the product."""

    def __init__(self, poly: tuple[int, ...], b1: RealRoot, b2: RealRoot):
        self.poly = poly
        self.b1 = b1
        self.b2 = b2
        self.bits = 64
        c = poly
        self._sum = Fraction(-c[3], c[4])
        self._prod = Fraction(c[0], c[4])
        while not (
            self.b1.interval().excludes_zero()
            and self.b2.interval().excludes_zero()
        ):
            self.b1.refine()
            self.b2.refine()

    def refine(self) -> None:
        self.b1.refine()
        self.b2.refine()
        self.bits += 16

    def box(self) -> Box:
        while True:
            i1, i2 = self.b1.interval(), self.b2.interval()
            x0 = (Interval.point(self._sum) - i1 - i2) * Interval.point(Fraction(1, 2))
            mod2 = Interval.point(self._prod) * (i1 * i2).inverse()
            y2 = mod2 - x0 * x0
            if y2.lo > 0:
                return Box(x0, sqrt_interval(y2, self.bits))
            self.refine()


@dataclass
class SiegelPoint:
    """Rank-4 special point of a signature-(2,1) quartic: two real
    embedding lines, the complex-pair plane, and the positive-imaginary
    eigenline inside its complexification."""

    field: NumberField
    embeddings: EmbeddingSet
    gamma: ComplexPairEnclosure
    dims: tuple[int, int, int]
    psi: Optional[tuple[tuple[int, ...], ...]] = None


def siegel_special_point(K: NumberField) -> SiegelPoint:
    if K.degree != 4:
        raise WrongSignatureError(f"need a quartic field, got degree {K.degree}")
    emb = isolate_real_roots(K.poly())
    if emb.signature != (2, 1):
        raise WrongSignatureError(
            f"signature {emb.signature} != (2, 1); no special point"
        )
    ints = primitive_int(K.poly())
    gamma = ComplexPairEnclosure(ints, emb.real_roots[0], emb.real_roots[1])
    return SiegelPoint(K, emb, gamma, (1, 1, 2))


def _cofactor_vectors(poly: tuple[int, ...]) -> list[Poly]:
    """U_k(t) = coefficient of x^k in poly(x)/(x - t); the vector
    (U_0(t), ..., U_3(t)) spans the embedding eigenline for root t."""
    c = [Fraction(x) for x in poly]
    n = len(c) - 1
    out = []
    for k in range(n):
        out.append(tuple(c[j] for j in range(k + 1, n + 1)))
    return out


def alternating_matrix(entries) -> tuple[tuple[int, ...], ...]:
    """4x4 alternating matrix from (psi01, psi02, psi03, psi12, psi13, psi23)."""
    a, b, c, d, e, f = entries
    return (
        (0, a, b, c),
        (-a, 0, d, e),
        (-b, -d, 0, f),
        (-c, -e, -f, 0),
    )


def pfaffian(psi) -> int:
    return psi[0][1] * psi[2][3] - psi[0][2] * psi[1][3] + psi[0][3] * psi[1][2]


def _check_alternating(psi) -> None:
    for i in range(4):
        for j in range(4):
            if not isinstance(psi[i][j], int):
                raise InvalidInputError("psi must be integral")
            if psi[i][j] != -psi[j][i]:
                raise InvalidInputError("psi must be alternating")
    if any(psi[i][i] != 0 for i in range(4)):
        raise InvalidInputError("psi must have zero diagonal")


def _pairing_khat(psi, poly, m: Poly) -> list[Poly]:
    """B(s, y) = sum_kl psi[k][l] U_k(s) U_l(y) as a polynomial in s with
    coefficients in K = Q[y]/(m); returns ascending K-coefficients."""
    U = _cofactor_vectors(poly)
    # w_k = sum_l psi[k][l] U_l(y) mod m
    w = []
    for k in range(4):
        acc: Poly = ()
        for l in range(4):
            if psi[k][l]:
                acc = padd_scaled(acc, U[l], psi[k][l])
        w.append(pdivmod(acc, m)[1] if acc else ())
    # coefficient of s^j: sum_k [s^j] U_k(s) * w_k
    coeffs = []
    for j in range(4):
        acc = ()
        for k in range(4):
            uk = U[k]
            if j < len(uk) and uk[j] != 0 and w[k]:
                acc = padd_scaled(acc, w[k], uk[j])
        coeffs.append(acc)
    return coeffs


def padd_scaled(a: Poly, b: Poly, s) -> Poly:
    return padd(a, pscale(b, Fraction(s)))


def _kpoly_gcd(khat: list[Poly], m: Poly) -> list[Poly]:
    """Monic gcd of (m viewed in K[s]) and B^(s); coefficients in K."""
    a = _kpoly_norm([(c,) for c in m])
    b = _kpoly_norm(khat)
    while b:
        b_monic = _kpoly_monic(b, m)
        a = _kpoly_mod(a, b_monic, m)
        a, b = b_monic, a
    return a


def _kpoly_norm(p: list[Poly]) -> list[Poly]:
    out = [pnormalize(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def _kpoly_monic(p: list[Poly], m: Poly) -> list[Poly]:
    inv = _kinv(p[-1], m)
    return _kpoly_norm([_kmul(c, inv, m) if c else () for c in p])


def _kpoly_mod(a: list[Poly], b: list[Poly], m: Poly) -> list[Poly]:
    """a mod b with b monic, over K = Q[y]/(m)."""
    a = _kpoly_norm(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead, k = a.pop(), len(a) - db
        for i in range(db):
            if b[i]:
                a[k + i] = psub(a[k + i], _kmul(lead, b[i], m))
        a = _kpoly_norm(a)
    return a


@dataclass
class PsiVerification:
    accepted: bool
    reason: str
    vanishing_roots: Optional[tuple[int, ...]] = None
    witness: Optional[dict] = None


def verify_psi(point: SiegelPoint, psi, max_rounds: int = 120) -> PsiVerification:
    """Certified isotropy check of both distinguished summands.

    Nondegeneracy is the Pfaffian; nonvanishing of a pairing is certified
    by an interval excluding zero; vanishing is certified exactly: the
    gcd of the field polynomial with the pairing polynomial over
    Q[y]/(field) pins the set of roots where the pairing vanishes, and
    interval elimination identifies that set.
    """
    _check_alternating(psi)
    if pfaffian(psi) == 0:
        return PsiVerification(False, "degenerate")
    ints = primitive_int(point.field.poly())
    m = pscale(pnormalize(ints), Fraction(1, ints[-1]))
    khat = _kpoly_norm(_pairing_khat(psi, ints, m))
    if not khat:
        # pairing vanishes identically on all embedding lines
        return PsiVerification(True, "pairing identically zero",
                               vanishing_roots=(0, 1, 2, 3))
    g = _kpoly_gcd(khat, m)
    degg = len(g) - 1
    if degg == 0:
        w = _pairing_witness(point, psi)
        return PsiVerification(False, "no embedding line pairs to zero", witness=w)
    if degg == 4:
        return PsiVerification(True, "pairing vanishes on all lines",
                               vanishing_roots=(0, 1, 2, 3))
    vanishing = _classify_gcd_roots(point, g, degg, max_rounds)
    # the pairing of the complex eigenline with itself vanishes by
    # antisymmetry, so index 2 is always present; the real conditions
    # are the two real embedding lines
    accepted = 0 in vanishing and 1 in vanishing
    if accepted:
        return PsiVerification(True, "both summands isotropic",
                               vanishing_roots=tuple(sorted(vanishing)))
    w = _pairing_witness(point, psi)
    return PsiVerification(False, "a summand fails isotropy",
                           vanishing_roots=tuple(sorted(vanishing)), witness=w)


def _root_boxes(point: SiegelPoint) -> list[Box]:
    b1, b2 = point.embeddings.real_roots
    g = point.gamma.box()
    return [
        Box(b1.interval(), Interval.point(0)),
        Box(b2.interval(), Interval.point(0)),
        g,
        g.conjugate(),
    ]


def _classify_gcd_roots(point: SiegelPoint, g: list[Poly], degg: int,
                        max_rounds: int) -> set[int]:
    """Indices (0: beta1, 1: beta2, 2: gamma, 3: conj gamma) of the roots
    of the gcd, found by interval elimination of the nonroots."""
    for _ in range(max_rounds):
        boxes = _root_boxes(point)
        coeff_boxes = [eval_poly_interval(c, boxes[2]) if c else Box.point(0) for c in g]
        alive = set()
        for idx, rho in enumerate(boxes):
            val = Box.point(0)
            for cb in reversed(coeff_boxes):
                val = val * rho + cb
            if not val.excludes_zero():
                alive.add(idx)
        if len(alive) == degg:
            return alive
        point.embeddings.real_roots[0].refine()
        point.embeddings.real_roots[1].refine()
        point.gamma.refine()
    raise AssertionError("gcd root classification did not resolve")


def _pairing_witness(point: SiegelPoint, psi) -> dict:
    """Interval enclosures of the two pairing numbers (diagnostic)."""
    ints = primitive_int(point.field.poly())
    U = _cofactor_vectors(ints)
    b1, b2 = point.embeddings.real_roots
    gb = point.gamma.box()
    u1 = [eval_poly_interval(u, Box(b1.interval(), Interval.point(0))) for u in U]
    u2 = [eval_poly_interval(u, Box(b2.interval(), Interval.point(0))) for u in U]
    w = [eval_poly_interval(u, gb) for u in U]
    out = {}
    for name, vec in (("x_plus_F", u1), ("y_plus_Fbar", u2)):
        val = Box.point(0)
        for k in range(4):
            for l in range(4):
                if psi[k][l]:
                    val = val + psi[k][l] * (vec[k] * w[l])
        out[name] = (
            (str(val.re.lo), str(val.re.hi)),
            (str(val.im.lo), str(val.im.hi)),
            val.excludes_zero(),
        )
    return out


def _rational_kernel(rows, n: int) -> list[list[Fraction]]:
    """Kernel basis of a rational matrix with n columns, by Gauss-Jordan
    elimination: one vector per free column, 1 there and 0 at the others."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        rows = [row if i == r else [x - row[c] * y for x, y in zip(row, rows[r])]
                for i, row in enumerate(rows)]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(n)]
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(v)
    return basis


def find_compatible_symplectic(point: SiegelPoint, height_bound: int):
    """The lexicographically least nondegenerate integral alternating psi
    with entries (psi01, psi02, psi03, psi12, psi13, psi23) in
    [-height_bound, height_bound] making both summands isotropic, or None.

    Complex conjugation is a transposition, so the Galois group of a
    signature-(2,1) quartic is S4 or D4; for rational psi the root pairs
    where its pairing vanishes form a Galois-stable set.  S4 (the resolvent
    cubic has no rational root) is 2-transitive, so no nonzero psi exists:
    None at every height, certified by the irreducible cubic.  For D4 the
    rational resolvent root gives the quadratic subfield Q(sqrt(d)) that
    splits the roots into the blocks {beta1, beta2} and {gamma, conj gamma},
    and D4 moves (beta1, gamma) to every pair across them.  So psi is
    isotropic exactly when its pairing vanishes across the blocks: 8
    rational linear conditions with a rank-2 kernel, whose integral points
    in the box are enumerated through its two free coordinates (O(H^2)
    work).  The answer is certified by verify_psi.  (Kappe-Warren, Amer.
    Math. Monthly 96, 1989; Cohen, A Course in Computational Algebraic
    Number Theory, 6.3.)
    """
    if height_bound < 0:
        raise InvalidInputError(f"psi bound must be >= 0, got {height_bound}")
    ints = primitive_int(point.field.poly())
    m = pscale(pnormalize(ints), Fraction(1, ints[-1]))
    roots = _rational_roots(_resolvent(m))
    if not roots:
        return None
    r = roots[0]
    split = _split_over_quadratic(m, m[3] ** 2 - 4 * (m[2] - r) or r * r - 4 * m[0])
    if split is None:
        raise AssertionError("D4 quartic does not split over its resolvent subfield")
    A, L = split
    s = _sqrt_image(A, L, m)
    # y is a root of A + sqrt(d) L; A - sqrt(d) L holds the other block
    other = _kpoly_norm([psub((a,), pscale(s, l)) for a, l in zip(A, L + (0,))])
    columns = []
    for j in range(6):
        khat = _pairing_khat(alternating_matrix([int(i == j) for i in range(6)]), ints, m)
        rem = _kpoly_mod(_kpoly_norm(khat), other, m)
        rem += [()] * (2 - len(rem))
        columns.append([c for coeff in rem for c in coeff + (0,) * (4 - len(coeff))])
    basis = _rational_kernel(zip(*columns), 6)
    if len(basis) != 2:
        raise AssertionError(f"isotropy kernel has rank {len(basis)}, not 2")
    den = math.lcm(*(x.denominator for v in basis for x in v))
    k1, k2 = ([int(x * den) for x in v] for v in basis)
    limit = height_bound * den
    best = None
    rng = range(-height_bound, height_bound + 1)
    for t1 in rng:
        for t2 in rng:
            num = [t1 * p + t2 * q for p, q in zip(k1, k2)]
            if any(n % den or abs(n) > limit for n in num):
                continue
            a, b, c, d_, e, f = entries = tuple(n // den for n in num)
            if a * f - b * e + c * d_ != 0 and (best is None or entries < best):
                best = entries
    if best is None:
        return None
    psi = alternating_matrix(best)
    if not verify_psi(point, psi).accepted:
        raise AssertionError(f"kernel point {best} failed the isotropy certificate")
    point.psi = psi
    return psi
