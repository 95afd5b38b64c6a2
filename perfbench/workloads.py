"""Seeded inputs of the four workloads.

Each workload is a fixed-length list of CLI commands (one "pass").  The
seed moves each input within a narrow window around a fixed target, so
that every seed gives the same amount of work and the same mix; only
the numbers differ.  Every command carries what the output checks need
to know about it (``info``), and the size it contributes to the scaling
fit (``size``), if any.

Pass lengths are 15, 25 or 35 commands: with n passes of m commands,
the median and the 90th percentile of the n*m samples then fall in the
middle of one command's samples rather than between two commands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import sympy


@dataclass
class Command:
    argv: list[str]
    kind: str
    info: dict = field(default_factory=dict)
    size: float | None = None
    expect_fail: bool = False


def _geometric(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


# -- classgroup -----------------------------------------------------------

# D with many prime factors: h+ = 32..64, so the h^2 composition table
# shows next to the enumeration.
MANY_FACTOR_D = (60060, 120120, 240240)


def classgroup(rng: random.Random) -> list[Command]:
    """Primes p = 1 mod 4 within 1% above a geometric ladder from 10^4 to
    2.36*10^5 (few prime factors, small h+), plus MANY_FACTOR_D.  Each D
    runs `classgroup` and `geodesics`, except the smallest, which runs
    only `classgroup` (25 commands).  The top of the ladder costs about
    what 240240 costs, so that the four most expensive commands form one
    group with the 90th percentile inside it."""
    few = []
    for target in _geometric(10_000, 236_000, 10):
        p = int(target) + rng.randrange(int(target) // 100)
        while not (p % 4 == 1 and sympy.isprime(p)):
            p += 1
        few.append(p)
    cmds = []
    for D in sorted(few + list(MANY_FACTOR_D)):
        for verb in ("classgroup", "geodesics"):
            if verb == "geodesics" and D == few[0]:
                continue
            cmds.append(Command([verb, str(D), "--json"], verb, {"D": D}, size=D))
    return cmds


# -- census ---------------------------------------------------------------


def census(rng: random.Random) -> list[Command]:
    """`census --dmax N` for five N, each within 1% above a geometric
    ladder from 160 to 800, three times each (15 commands).  A census
    command varies by 20-30% from one run to the next on a shared
    machine, so each N needs many samples more than the ladder needs
    many N."""
    cmds = []
    for target in _geometric(160, 800, 5):
        n = int(target * (1 + rng.random() / 100))
        cmds += [Command(["census", "--dmax", str(n), "--json"], "census",
                         {"dmax": n}, size=n) for _ in range(3)]
    return cmds


# -- surds ----------------------------------------------------------------


def _squarefree_part(n: int) -> int:
    return math.prod(p for p, e in sympy.factorint(n).items() if e % 2)


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if math.isqrt(n) ** 2 != n:
            return n


@dataclass(frozen=True)
class Surd:
    """(p + q*sqrt(n))/r with integers, q != 0, r > 0, n > 1 not a square."""

    p: int
    q: int
    n: int
    r: int

    def expr(self) -> str:
        sign = "+" if self.q > 0 else "-"
        return f"({self.p}{sign}{abs(self.q)}*sqrt({self.n}))/{self.r}"

    @staticmethod
    def reduced(p: int, q: int, n: int, r: int) -> "Surd":
        g = math.gcd(math.gcd(p, q), r)
        if r < 0:
            g = -g
        return Surd(p // g, q // g, n, r // g)

    def mobius(self, m) -> "Surd":
        """(a x + b)/(c x + d) for m = ((a, b), (c, d)), exactly."""
        (a, b), (c, d) = m
        A, B = a * self.p + b * self.r, a * self.q
        C, E = c * self.p + d * self.r, c * self.q
        # multiply through by the conjugate of the denominator
        return Surd.reduced(A * C - B * E * self.n, B * C - A * E, self.n,
                            C * C - E * E * self.n)


_GENERATORS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)),
               ((0, -1), (1, 0)))


def _gl2z_word(rng: random.Random, length: int):
    m = ((1, 0), (0, 1))
    for _ in range(length):
        (a, b), (c, d) = m
        (e, f), (g, h) = rng.choice(_GENERATORS)
        m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return m


def surd_period(x: Surd) -> int:
    """Period length of the continued fraction of x, from the integer
    recurrence on states (P + sqrt(D))/Q with Q | D - P^2."""
    sign = 1 if x.q > 0 else -1
    P, Q, D = sign * x.p, sign * x.r, x.q * x.q * x.n
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(seen)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        P = a * Q - P
        Q = (D - P * P) // Q
    return len(seen) - seen[(P, Q)]


# period-length targets of the `cf` ladder, with the radicand range each
# is drawn from; a radicand is kept when its period is within 1% above
# the target.  Half the ladder has periods of thousands, where the
# rotation to the least period dominates, so that the 90th percentile of
# the workload falls on a `cf` command.
CF_LADDER = ((1, 2, 10**3), (5, 10, 10**3), (30, 10**3, 10**5),
             (200, 10**4, 10**6), (1000, 10**6, 10**8),
             (2000, 5 * 10**7, 10**8), (3000, 5 * 10**7, 10**8),
             (4000, 5 * 10**7, 10**8), (5000, 5 * 10**7, 10**8),
             (6000, 5 * 10**7, 10**8))


def _radicand_with_period(rng: random.Random, target: int, lo: int, hi: int) -> int:
    while True:
        n = _nonsquare(rng, lo, hi)
        if target <= surd_period(Surd(0, 1, n, 1)) <= target + target // 100:
            return n


# period window of the surds outside the `cf` ladder, so that the cost
# of each such command does not depend on the seed
SHORT_PERIOD = (20, 40)


def _random_surd(rng: random.Random, lo: int, hi: int) -> Surd:
    while True:
        n = _nonsquare(rng, lo, hi)
        x = Surd(rng.randrange(-50, 51), rng.choice((1, -1)) * rng.randrange(1, 4),
                 n, rng.randrange(1, 20))
        if SHORT_PERIOD[0] <= surd_period(x) <= SHORT_PERIOD[1]:
            return x


def _equiv_pairs(rng: random.Random, verb: list[str], same: int, other: int):
    """`same` pairs (x, g x) for a seeded GL2(Z) word g: equivalent by
    construction; `other` pairs from fields with different squarefree
    radicands: inequivalent, since a period fixes the field."""
    cmds = []
    for _ in range(same):
        x = _random_surd(rng, 10**3, 10**5)
        y = x.mobius(_gl2z_word(rng, 8))
        cmds.append(Command([*verb, x.expr(), y.expr(), "--json"], "equiv",
                            {"equivalent": True}))
    for _ in range(other):
        x = _random_surd(rng, 10**3, 10**5)
        y = _random_surd(rng, 10**3, 10**5)
        while _squarefree_part(y.n) == _squarefree_part(x.n):
            y = _random_surd(rng, 10**3, 10**5)
        cmds.append(Command([*verb, x.expr(), y.expr(), "--json"], "equiv",
                            {"equivalent": False}))
    return cmds


def surds(rng: random.Random) -> list[Command]:
    """35 short quadratic-irrational queries; see the README for the mix."""
    cmds = []
    for target, lo, hi in CF_LADDER:
        x = Surd(0, 1, _radicand_with_period(rng, target, lo, hi), 1)
        cmds.append(Command(["cf", f"sqrt({x.n})", "--json"], "cf", {"surd": x},
                            size=surd_period(x)))
    for _ in range(2):
        x = _random_surd(rng, 10**3, 10**6)
        cmds.append(Command(["cf", x.expr(), "--json"], "cf", {"surd": x}))
    cmds += _equiv_pairs(rng, ["equiv"], 3, 3)
    for _ in range(3):
        # the principal cycle is the period of (D mod 2 + sqrt(D))/2
        while True:
            D = rng.randrange(10**3, 10**5)
            if (D % 4 in (0, 1) and math.isqrt(D) ** 2 != D and SHORT_PERIOD[0]
                    <= surd_period(Surd(D % 2, 1, D, 2)) <= SHORT_PERIOD[1]):
                break
        cmds.append(Command(["units", str(D), "--json"], "units", {"D": D}))
    x = _random_surd(rng, 10**3, 10**5)
    xbar = Surd(x.p, -x.q, x.n, x.r)
    y = _random_surd(rng, 10**3, 10**5)
    while _squarefree_part(y.n) == _squarefree_part(x.n):
        y = _random_surd(rng, 10**3, 10**5)
    u = Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
    v = u + Fraction(rng.randrange(1, 99), rng.randrange(1, 50))
    # (s_x, s_y, expected answer), each class by construction
    for sx, sy, expected in (
        (x.expr(), xbar.expr(), {"bmt": "rm_torus", "mt": "rm_torus",
                                 "dynamical": "closed_rm", "d": _squarefree_part(x.n)}),
        (str(u), str(v), {"bmt": "split_torus", "mt": "split_torus",
                          "dynamical": "closed_cuspidal"}),
        (str(u), x.expr(), {"bmt": "borel", "mt": "full_gl2",
                            "dynamical": "non_closed", "rational_slope": "x"}),
        (x.expr(), y.expr(), {"bmt": "full_gl2", "mt": "full_gl2",
                              "dynamical": "non_closed"}),
    ):
        cmds.append(Command(["classify", "--sx", sx, "--sy", sy, "--json"],
                            "classify", expected))
    cmds += _equiv_pairs(rng, ["nct", "equiv"], 2, 1)
    for member in (True, True, False):
        theta = _random_surd(rng, 10**3, 10**5)
        m, n = rng.randrange(-10**6, 10**6), rng.randrange(1, 10**3)
        coeff = Fraction(n) if member else Fraction(2 * n + 1, 2)
        # m + coeff*theta = (m r + coeff p + coeff q sqrt(N))/r
        p, q = m * theta.r + coeff * theta.p, coeff * theta.q
        den = math.lcm(p.denominator, q.denominator)
        val = Surd.reduced(int(p * den), int(q * den), theta.n, theta.r * den)
        cmds.append(Command(["nct", "member", val.expr(), "--theta", theta.expr(),
                             "--json"], "nct_member",
                            {"member": member, "m": m, "n": n}))
    smooth = 1
    for p in (2, 3, 5, 7, 11, 13):
        smooth *= p ** rng.randrange(1, 3)
    for N in (smooth, rng.randrange(10**5, 10**6), rng.randrange(10**8, 10**9)):
        cmds.append(Command(["nct", "levels", str(N), "--json"], "nct_levels",
                            {"N": N}))
    # Fails on every seed: theta = inf reaches a Fraction conversion of
    # the point at infinity and raises TypeError (a traceback, exit 1).
    cmds.append(Command(["nct", "member", "1/3", "--theta", "inf", "--json"],
                        "nct_member_inf", expect_fail=True))
    return cmds


# -- quartic --------------------------------------------------------------

D4_QUARTICS = ("x^4-2", "x^4-3", "x^4+x^2-1")
S4_QUARTICS = ("x^4-x-1", "x^4-3*x+1", "x^4-2*x-1")
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


def quartic(rng: random.Random) -> list[Command]:
    """`hilbert` for two seeded biquadratic fields F = Q(sqrt(a), sqrt(b))
    over each of their three quadratic subfields; `siegel` on the D4 and
    S4 quartics at psi-bound 2..4 (25 commands).  The three full scans at
    psi-bound 4 on the S4 quartics hold the 90th percentile."""
    cmds = []
    for _ in range(2):
        a, b = sorted(rng.sample(SQUAREFREE, 2))
        # minimal polynomial of sqrt(a) + sqrt(b)
        F = f"x^4-{2 * (a + b)}*x^2+{(a - b) ** 2}"
        for d in (a, b, _squarefree_part(a * b)):
            cmds.append(Command(["hilbert", "--E", f"x^2-{d}", "--F", F, "--json"],
                                "hilbert", {"d": d, "F": F}))
    for K in D4_QUARTICS + S4_QUARTICS:
        for H in (2, 3, 4):
            cmds.append(Command(["siegel", "--K", K, "--psi-bound", str(H), "--json"],
                                "siegel", {"K": K, "H": H, "s4": K in S4_QUARTICS},
                                size=H if K in S4_QUARTICS else None))
    # Fails on every seed: (2*5+1)^6 candidates exceed the CLI's step
    # budget of 10^6, so the search ends in budget-exceeded (exit 3).
    cmds.append(Command(["siegel", "--K", "x^4-x-1", "--psi-bound", "5", "--json"],
                        "siegel", {"K": "x^4-x-1", "H": 5, "s4": True},
                        expect_fail=True))
    return cmds


WORKLOADS = {"classgroup": classgroup, "census": census, "surds": surds,
             "quartic": quartic}


def make(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(seed))
