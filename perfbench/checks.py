"""Output checks made apart from the program.

Nothing here imports modgeo.  Each check recomputes what it needs from
the command's input with integer arithmetic, ``sympy`` (factorization,
Pell equations, polynomial remainders, irreducibility), ``mpmath``
(numerics) or a small exact LLL reduction, and never compares against a
stored copy of an earlier output.  sympy and mpmath are used by the
benchmark only; the program does not depend on them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from fractions import Fraction

import mpmath
import sympy
from sympy.solvers.diophantine.diophantine import diop_DN

mpmath.mp.dps = 60


class CheckError(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# -- quadratic numbers printed by the program -----------------------------

_INNER = re.compile(r"(?:(?P<a>-?\d+)(?=[+-]))?(?P<b>[+-]?\d*)\*?sqrt\((?P<d>\d+)\)")


def parse_quad(text: str) -> tuple[Fraction, Fraction, int]:
    """'(a+b*sqrt(d))/r', 'a-sqrt(d)', 'sqrt(d)/2', '3/4', ... as
    (a, b, d) meaning a + b*sqrt(d); b = 0 and d = 1 for rationals."""
    m = re.fullmatch(r"\((.*)\)/(\d+)|(.*?)(?:/(\d+))?", text)
    inner = m.group(1) if m.group(1) is not None else m.group(3)
    den = int(m.group(2) or m.group(4) or 1)
    if re.fullmatch(r"-?\d+", inner):
        return Fraction(int(inner), den), Fraction(0), 1
    q = _INNER.fullmatch(inner)
    require(q is not None, f"unreadable number {text!r}")
    b = q.group("b")
    b = int(b + "1") if b in ("", "+", "-") else int(b)
    return Fraction(int(q.group("a") or 0), den), Fraction(b, den), int(q.group("d"))


def same_quad(x: tuple[Fraction, Fraction, int], a: Fraction, b: Fraction, n: int) -> bool:
    """x == a + b*sqrt(n), exactly (n need not be squarefree)."""
    xa, xb, xd = x
    return xa == a and xb * xb * xd == b * b * n and (xb > 0) == (b > 0)


def sign_quad(a: Fraction, b: Fraction, n: int) -> int:
    """Exact sign of a + b*sqrt(n)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * n else sb


# -- units ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fundamental_unit(D: int) -> tuple[int, int, int]:
    """(t, u, norm) of the fundamental unit (t + u sqrt(D))/2 of the order
    of discriminant D: the least u > 0 with t^2 - D u^2 = +-4.  sympy's
    diop_DN gives the least solution of each class; the class of (2, 0)
    contributes twice the least solution of x^2 - D y^2 = 1."""
    cands = [(abs(x), abs(y), 1) for x, y in diop_DN(D, 4) if y]
    cands += [(abs(x), abs(y), -1) for x, y in diop_DN(D, -4) if y]
    x1, y1 = diop_DN(D, 1)[0]
    cands.append((2 * abs(x1), 2 * abs(y1), 1))
    return min(cands, key=lambda c: (c[1], c[0]))


def check_unit(D: int, text: str, norm: int) -> tuple[int, int]:
    a, b, d = parse_quad(text)
    s2 = Fraction(D, d)
    require(s2.denominator == 1 and math.isqrt(s2.numerator) ** 2 == s2.numerator,
            f"unit {text} is not in Q(sqrt({D}))")
    s = math.isqrt(s2.numerator)
    t, u = 2 * a, 2 * b / s
    require(t.denominator == 1 and u.denominator == 1, f"unit {text} is not in the order of {D}")
    t, u = int(t), int(u)
    require(t * t - D * u * u == 4 * norm, f"unit {text}: t^2 - D u^2 != 4*{norm}")
    require((t, u, norm) == fundamental_unit(D),
            f"unit {text} of D = {D} is not fundamental: expected {fundamental_unit(D)}")
    return t, u


def check_digits(printed: str, value: mpmath.mpf, what: str) -> None:
    """The printed significant digits are those of value, to half an
    ulp of the last printed digit."""
    digits = len(printed.replace("-", "").replace(".", "").lstrip("0"))
    ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - digits + 1)
    require(abs(mpmath.mpf(printed) - value) <= ulp * 0.500001,
            f"{what}: printed {printed}, mpmath gives {mpmath.nstr(value, digits + 3)}")


def log_unit(t: int, u: int, D: int) -> mpmath.mpf:
    return mpmath.log((t + u * mpmath.sqrt(D)) / 2)


def eps_plus_log(D: int) -> mpmath.mpf:
    t, u, norm = fundamental_unit(D)
    return log_unit(t, u, D) * (1 if norm == 1 else 2)


# -- forms and class groups -----------------------------------------------


def check_reduced_form(f, D: int) -> None:
    a, b, c = f
    require(b * b - 4 * a * c == D, f"form {f} has discriminant {b * b - 4 * a * c}, not {D}")
    require(math.gcd(math.gcd(a, b), c) == 1, f"form {f} is imprimitive")
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, exactly
    ta = 2 * abs(a)
    require(0 < b and b * b < D and (ta + b) ** 2 > D and (ta <= b or (ta - b) ** 2 < D),
            f"form {f} is not reduced")


@functools.lru_cache(maxsize=None)
def factor(n: int) -> dict:
    return sympy.factorint(n)


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return all(e == 1 for e in factor(D).values())
    m = D // 4
    return D % 4 == 0 and m % 4 in (2, 3) and all(e == 1 for e in factor(m).values())


def check_h_and_norm(h_plus: int, h_wide: int, norm: int, D: int) -> None:
    require(norm in (1, -1), f"D = {D}: norm {norm}")
    # h = h+ exactly when the fundamental unit has norm -1
    require(h_wide == (h_plus if norm == -1 else h_plus / 2),
            f"D = {D}: h+ = {h_plus}, h = {h_wide}, norm {norm}")
    if is_fundamental(D):
        # genus theory: 2^(omega(D) - 1) divides h+
        require(h_plus % 2 ** (len(factor(D)) - 1) == 0,
                f"D = {D}: h+ = {h_plus} not divisible by 2^(omega(D)-1)")


def check_classgroup(out: dict, rc: int, info: dict, seen: dict) -> None:
    D = info["D"]
    require(rc == 0 and out["D"] == D, "wrong D or exit status")
    h = out["h_plus"]
    factors = out["invariant_factors"]
    require(math.prod(factors) == h, f"invariant factors {factors} do not multiply to h+ = {h}")
    require(all(f > 1 for f in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:])),
            f"invariant factors {factors} do not each divide the next")
    if is_fundamental(D):
        rank2 = sum(1 for f in factors if f % 2 == 0)
        require(rank2 == len(factor(D)) - 1,
                f"D = {D}: 2-rank {rank2}, genus theory gives {len(factor(D)) - 1}")
    norm = out["unit"]["norm"]
    check_unit(D, out["unit"]["epsilon"], norm)
    check_h_and_norm(h, out["h_wide"], norm, D)
    require(len(out["representatives"]) == h == len(out["cycles"]), "h+ != number of cycles")
    forms = [tuple(f) for cyc in out["cycles"] for f in cyc]
    require(len(set(forms)) == len(forms), "a reduced form lies on two cycles")
    for f in forms:
        check_reduced_form(f, D)
    require([tuple(c[0]) for c in out["cycles"]] == [tuple(r) for r in out["representatives"]],
            "representatives are not the cycle heads")
    wide = out["wide_class_of"]
    require(sorted(set(wide)) == list(range(out["h_wide"]))
            and all(wide.count(j) == h // out["h_wide"] for j in set(wide)),
            "wide_class_of is not an even partition")
    seen[("cycles", D)] = sorted(forms)


def check_geodesics(out: list, rc: int, info: dict, seen: dict) -> None:
    D = info["D"]
    require(rc == 0 and out, "no geodesics")
    length = eps_plus_log(D) * 2
    forms = []
    for row in out:
        cyc = [tuple(f) for f in row["cycle"]]
        for f in cyc:
            check_reduced_form(f, D)
        forms += cyc
        a, b, _ = cyc[0]
        for text, sign in zip(row["slopes"], (1, -1)):
            require(same_quad(parse_quad(text), Fraction(-b, 2 * a), Fraction(sign, 2 * a), D),
                    f"slope {text} is not a root of {cyc[0]}")
        check_digits(row["length_numeric"], length, f"length of the geodesic of D = {D}")
    if ("cycles", D) in seen:
        require(sorted(forms) == seen[("cycles", D)], "geodesics and classgroup cycles differ")
    seen[("cycles", D)] = sorted(forms)


def _valid_discriminant(D: int) -> bool:
    return D % 4 in (0, 1) and math.isqrt(D) ** 2 != D


def check_census(out: list, rc: int, info: dict, seen: dict) -> None:
    require(rc == 0, "exit status")
    require([r["D"] for r in out] == [D for D in range(5, info["dmax"] + 1)
                                      if _valid_discriminant(D)],
            "census rows are not the discriminants up to dmax")
    for row in out:
        D = row["D"]
        key = ("census", D)
        text = json.dumps(row, sort_keys=True)
        if key in seen:
            require(seen[key] == text, f"census row of D = {D} differs between commands")
            continue
        t, u = check_unit(D, row["epsilon"], row["unit_norm"])
        check_h_and_norm(row["h_plus"], row["h_wide"], row["unit_norm"], D)
        require(row["geodesic_count"] == row["h_wide"], f"D = {D}: geodesic count")
        check_digits(row["regulator_numeric"], log_unit(t, u, D), f"regulator of D = {D}")
        require(row["length_min_numeric"] == row["length_max_numeric"], f"D = {D}: lengths")
        check_digits(row["length_min_numeric"], 2 * eps_plus_log(D), f"length of D = {D}")
        seen[key] = text


def check_units(out: dict, rc: int, info: dict, seen: dict) -> None:
    D = info["D"]
    require(rc == 0 and out["D"] == D, "wrong D or exit status")
    t, u = check_unit(D, out["epsilon"], out["norm"])
    # epsilon+ = epsilon, or epsilon^2 when the norm is -1
    tp, up = (t, u) if out["norm"] == 1 else ((t * t + D * u * u) // 2, t * u)
    ea, eb, ed = parse_quad(out["epsilon_plus"])
    require(same_quad((ea, eb, ed), Fraction(tp, 2), Fraction(up, 2), D),
            f"epsilon_plus {out['epsilon_plus']} is not the least totally positive unit")
    check_digits(out["regulator_numeric"], log_unit(t, u, D), f"regulator of D = {D}")


# -- continued fractions and slopes ----------------------------------------


def least_rotation(word: list[int]) -> int:
    """Booth's algorithm: start of the lexicographically least rotation."""
    s = word + word
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def is_primitive(word: list[int]) -> bool:
    """No shorter word repeats to it (prefix function of KMP)."""
    n = len(word)
    pi = [0] * n
    for i in range(1, n):
        k = pi[i - 1]
        while k and word[i] != word[k]:
            k = pi[k - 1]
        if word[i] == word[k]:
            k += 1
        pi[i] = k
    p = n - pi[-1]
    return p == n or n % p != 0


def check_cf(out: dict, rc: int, info: dict, seen: dict) -> None:
    x = info["surd"]
    a, b, n = Fraction(x.p, x.r), Fraction(x.q, x.r), x.n
    require(rc == 0, "exit status")
    require(same_quad(parse_quad(out["value"]), a, b, n), f"value {out['value']} is not the input")
    pre, period = out["preperiod"], out["period"]
    require(period and all(q >= 1 for q in period) and all(q >= 1 for q in pre[1:]),
            "partial quotients out of range")
    require(is_primitive(period), "period is not primitive")
    require(least_rotation(period) == 0, "period is not the least rotation")
    # strip the preperiod: z = 1/(x - a_k), exactly in Q(sqrt(n))
    for q in pre:
        a -= q
        den = a * a - b * b * n
        a, b = a / den, -b / den
    # z must be the fixed point > 1 of the period's Moebius map
    p0, p1, q0, q1 = 1, 0, 0, 1  # ((p0, q0), (p1, q1)) = product of ((a, 1), (1, 0))
    for q in period:
        p0, q0, p1, q1 = q * p0 + q0, p0, q * p1 + q1, p1
    # z = (p0 z + q0)/(p1 z + q1)  <=>  p1 z^2 + (q1 - p0) z - q0 = 0
    za, zb = a * a + b * b * n, 2 * a * b
    require(p1 * za + (q1 - p0) * a - q0 == 0 and p1 * zb + (q1 - p0) * b == 0,
            "the expansion does not evaluate to the input")
    require(sign_quad(a - 1, b, n) > 0, "the periodic tail is not > 1")


def check_equiv(out: dict, rc: int, info: dict, seen: dict) -> None:
    answer = out.get("equivalent", out.get("morita_equivalent"))
    require(answer is info["equivalent"] and rc == (0 if answer else 1),
            f"answered {answer}, constructed {info['equivalent']}")


def check_classify(out: dict, rc: int, info: dict, seen: dict) -> None:
    require(rc == 0 and out == info, f"classified {out}, constructed {info}")


def check_nct_member(out: dict, rc: int, info: dict, seen: dict) -> None:
    if info["member"]:
        require(rc == 0 and out == {"member": True, "m": info["m"], "n": info["n"]},
                f"member answer {out}, constructed {info}")
    else:
        require(rc == 1 and out == {"member": False}, f"member answer {out}, constructed none")


def check_nct_levels(out: dict, rc: int, info: dict, seen: dict) -> None:
    N = info["N"]
    count = Fraction(N) ** 4
    for p in factor(N):
        count *= (1 - Fraction(1, p)) * (1 - Fraction(1, p * p))
    require(rc == 0 and out == {"N": N, "count": count}, f"|GL2(Z/{N})| != {out.get('count')}")


def check_nct_member_inf(out, rc: int, info: dict, seen: dict) -> None:
    # theta = inf has no exact answer to compare with; a clean answer
    # only has to be well formed
    require(isinstance(out, dict) and "member" in out, "malformed answer")


# -- quartic fields ---------------------------------------------------------

X = sympy.Symbol("x")


def _poly(text: str) -> sympy.Poly:
    return sympy.Poly(sympy.sympify(text.replace("^", "**")), X, domain="QQ")


def check_hilbert(out: dict, rc: int, info: dict, seen: dict) -> None:
    d, F = info["d"], _poly(info["F"])
    require(rc == 0, "exit status")
    s = _poly(out["sqrt_embedding"])
    require((s * s - d).rem(F).is_zero,
            f"sqrt embedding {out['sqrt_embedding']} does not square to {d} mod F")
    types = out["rm_types"]
    require(out["rm_type_count"] == 4 == len(types), "expected 4 RM types")
    fibers = types[0]["fibers"]
    require(all(t["fibers"] == fibers for t in types)
            and sorted(i for f in fibers for i in f) == [0, 1, 2, 3]
            and all(len(f) == 2 for f in fibers), "fibers are not a partition in pairs")
    require(sorted(tuple(t["chosen_embeddings"]) for t in types)
            == sorted(itertools.product(*fibers)), "RM types are not one root per fiber")
    require(all(t["direct_sum"] and t["stable"] for t in types), "an RM type is not verified")
    # fibers: roots of F where the embedded sqrt(d) is negative (over
    # -sqrt(d), the first E-embedding) and where it is positive
    roots = mpmath.polyroots([int(c) for c in F.all_coeffs()], maxsteps=200, extraprec=200)
    roots = sorted(mpmath.re(r) for r in roots)
    sc = [mpmath.mpf(c.p) / c.q for c in s.all_coeffs()]
    signs = [mpmath.sign(mpmath.polyval(sc, r)) for r in roots]
    require(fibers == [[i for i in range(4) if signs[i] < 0],
                       [i for i in range(4) if signs[i] > 0]],
            f"fibers {fibers} do not match the signs of the embedded sqrt(d)")


def _quartic_roots(coeffs: list[int]):
    """Real roots beta1 < beta2 and the root gamma with Im > 0."""
    roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
    real = sorted(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -50)
    gamma = [r for r in roots if mpmath.im(r) > mpmath.mpf(10) ** -50]
    require(len(real) == 2 and len(gamma) == 1, "signature is not (2, 1)")
    return real[0], real[1], gamma[0]


def _pairing_functionals(coeffs: list[int]):
    """For the pairs (k, l), k < l, the two complex linear functionals
    psi -> psi(U(beta_i), U(gamma)), i = 1, 2, where U_k(t) is the
    coefficient of x^k in K(x)/(x - t)."""
    b1, b2, g = _quartic_roots(coeffs)

    def U(t):
        return [sum(coeffs[j] * t ** (j - k - 1) for j in range(k + 1, 5)) for k in range(4)]

    ug = U(g)
    out = []
    for beta in (b1, b2):
        ub = U(beta)
        out.append([ub[k] * ug[l] - ub[l] * ug[k] for k in range(4) for l in range(k + 1, 4)])
    return out


def lll(rows: list[list[int]], delta=Fraction(3, 4)) -> list[list[int]]:
    """Textbook LLL reduction with exact rational Gram-Schmidt."""
    b = [list(r) for r in rows]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        bstar, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], bstar[j]) / dot(bstar[j], bstar[j])
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
        return bstar, mu

    bstar, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                # size reduction leaves b* alone and shifts row k of mu
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        lovasz = (delta - mu[k][k - 1] ** 2) * dot(bstar[k - 1], bstar[k - 1])
        if dot(bstar[k], bstar[k]) >= lovasz:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bstar, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


@functools.lru_cache(maxsize=None)
def rational_kernel(K: str) -> tuple[tuple[int, ...], ...]:
    """Reduced basis of the integral points of the rational kernel of the
    isotropy conditions: the short vectors of Z^6 weighted by 2^120 times
    the four real parts of the conditions (60-digit roots)."""
    coeffs = [int(c) for c in _poly(K).all_coeffs()[::-1]]
    funcs = _pairing_functionals(coeffs)
    scale = mpmath.mpf(2) ** 120
    rows = []
    for j in range(6):
        weights = []
        for f in funcs:
            weights += [int(mpmath.nint(mpmath.re(f[j]) * scale)),
                        int(mpmath.nint(mpmath.im(f[j]) * scale))]
        rows.append([int(j == i) for i in range(6)] + weights)
    basis = [tuple(r[:6]) for r in lll(rows) if all(abs(v) < 2 ** 40 for v in r[6:])]
    for v in basis:
        for f in funcs:
            require(abs(sum(c * w for c, w in zip(v, f))) < mpmath.mpf(10) ** -40,
                    f"kernel vector {v} is not isotropic")
    return tuple(basis)


def first_kernel_point(K: str, H: int):
    """Lexicographically first (a, ..., f) in [-H, H]^6 of the kernel
    lattice with nonzero Pfaffian a f - b e + c d, or None."""
    basis = rational_kernel(K)
    if not basis:
        return None
    # v = B^T c gives c = (B B^T)^-1 B v, so |c_j| <= H * |row j of (B B^T)^-1 B|_1
    B = sympy.Matrix(basis)
    C = (B * B.T).inv() * B
    bounds = [int(H * sum(abs(x) for x in C.row(j))) for j in range(len(basis))]
    best = None
    for cs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        v = tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(6))
        a, b, c, d, e, f = v
        if max(map(abs, v)) <= H and a * f - b * e + c * d != 0 and (best is None or v < best):
            best = v
    return best


def resolvent_cubic_irreducible(K: str) -> bool:
    a0, a1, a2, a3, a4 = [int(c) for c in _poly(K).all_coeffs()[::-1]]
    require(a4 == 1, "expected a monic quartic")
    y = sympy.Symbol("y")
    cubic = y ** 3 - a2 * y ** 2 + (a1 * a3 - 4 * a0) * y + (4 * a2 * a0 - a1 ** 2 - a3 ** 2 * a0)
    return sympy.Poly(cubic, y, domain="QQ").is_irreducible


def check_siegel(out: dict, rc: int, info: dict, seen: dict) -> None:
    K, H = info["K"], info["H"]
    require(out["signature"] == [2, 1] and out["dims"] == [1, 1, 2] and out["psi_bound"] == H,
            "signature, dims or bound")
    psi = out["psi"]
    expected = first_kernel_point(K, H)
    if psi is None:
        require(rc == 1, "exit status")
        if info["s4"]:
            require(resolvent_cubic_irreducible(K),
                    f"'none' for {K}, whose resolvent cubic is reducible")
        require(expected is None, f"'none' for {K}, but {expected} is in the kernel")
        return
    require(rc == 0, "exit status")
    require(all(psi[i][j] == -psi[j][i] for i in range(4) for j in range(4)),
            "psi is not alternating")
    entries = tuple(psi[k][l] for k in range(4) for l in range(k + 1, 4))
    a, b, c, d, e, f = entries
    require(max(map(abs, entries)) <= H, "psi exceeds the bound")
    require(a * f - b * e + c * d != 0 and out["pfaffian"] == a * f - b * e + c * d,
            "Pfaffian is zero or misreported")
    coeffs = [int(x) for x in _poly(K).all_coeffs()[::-1]]
    for func in _pairing_functionals(coeffs):
        require(abs(sum(v * w for v, w in zip(entries, func))) < mpmath.mpf(10) ** -40,
                f"psi {entries} is not isotropic")
    require(entries == expected, f"psi {entries} is not the first kernel point {expected}")


CHECKS = {
    "classgroup": check_classgroup, "geodesics": check_geodesics,
    "census": check_census, "units": check_units, "cf": check_cf,
    "equiv": check_equiv, "classify": check_classify,
    "nct_member": check_nct_member, "nct_levels": check_nct_levels,
    "nct_member_inf": check_nct_member_inf, "hilbert": check_hilbert,
    "siegel": check_siegel,
}


def failed(result: dict) -> bool:
    """Exit status 0 is an answer and 1 a negative answer; anything else,
    or an exception out of main, is a failed operation."""
    return result["crash"] is not None or result["rc"] not in (0, 1)


def _outcome(result: dict):
    return result["rc"], result["out"], result["crash"] is None


def check_passes(cmds, passes) -> list[str]:
    """Problems found in the outputs of all passes (empty when correct).
    Every pass must repeat the first pass's output byte for byte; only
    the commands marked ``expect_fail`` may fail, and the first pass's
    outputs of commands that did not fail are checked."""
    problems = []
    seen: dict = {}
    for i, cmd in enumerate(cmds):
        first = passes[0][2][i]
        if any(_outcome(res[i]) != _outcome(first) for _, _, res in passes):
            problems.append(f"{' '.join(cmd.argv)}: output differs between passes")
        if failed(first):
            if not cmd.expect_fail:
                problems.append(f"{' '.join(cmd.argv)}: failed (exit {first['rc']})")
            continue
        try:
            CHECKS[cmd.kind](json.loads(first["out"]), first["rc"], cmd.info, seen)
        except CheckError as exc:
            problems.append(f"{' '.join(cmd.argv)}: {exc}")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{' '.join(cmd.argv)}: malformed output ({exc!r})")
    return problems
