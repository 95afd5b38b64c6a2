"""Command-line interface.

Every subcommand accepts --json for a single machine-readable document.
Exact values are serialized as expression strings in the library's own
syntax (re-parseable); decimal approximations appear only in fields
suffixed _numeric, rendered at MODGEO_NUMERIC_DIGITS significant digits
(default 20).  MODGEO_STEP_BUDGET caps the continued-fraction loops
(cf, equiv).

Exit codes: 0 success, 1 negative answer (inequivalent / none),
2 usage or parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import cfrac, fields, mtgroups, nctorus, qforms
from .errors import DomainError, ParseError
from .exact import log_decimal
from .parse import (
    format_intpoly,
    format_slope,
    format_value,
    parse_intpoly,
    parse_slope,
    parse_value,
)


@dataclass(frozen=True)
class OutputConfig:
    digits: int = 20
    budget: int = 10**6

    @staticmethod
    def from_env() -> "OutputConfig":
        try:
            digits = int(os.environ.get("MODGEO_NUMERIC_DIGITS", "20"))
            budget = int(os.environ.get("MODGEO_STEP_BUDGET", str(10**6)))
        except ValueError as exc:
            raise ParseError(f"bad environment value: {exc}") from exc
        if digits < 1 or budget < 1:
            raise ParseError("MODGEO_NUMERIC_DIGITS and MODGEO_STEP_BUDGET must be >= 1")
        return OutputConfig(digits, budget)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _fmt_form(f: qforms.IndefForm) -> list[int]:
    return [f.a, f.b, f.c]


# -- subcommand handlers --------------------------------------------------


def _cmd_classify(args, cfg: OutputConfig) -> int:
    if args.matrix is not None:
        entries = [parse_value(e) for e in args.matrix.split(",")]
        if len(entries) != 4:
            raise ParseError("--matrix needs four comma-separated entries")
        if args.field is not None:
            want = parse_value(args.field)
            from .exact import QuadElem

            if not isinstance(want, QuadElem):
                raise ParseError("--field must be a quadratic irrational")
            for e in entries:
                if isinstance(e, QuadElem) and e.d != want.d:
                    raise ParseError(
                        f"matrix entry {format_value(e)} is not in the declared field"
                    )
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        point = mtgroups.point_from_conjugator(m)
    else:
        if args.sx is None or args.sy is None:
            raise ParseError("classify needs --sx and --sy, or --matrix")
        point = mtgroups.GeodesicPoint(parse_slope(args.sx), parse_slope(args.sy))
    bmt = mtgroups.classify_bmt(point)
    mt = mtgroups.classify_mt(point)
    dyn = mtgroups.dynamical_type(point)
    payload: dict = {"bmt": bmt.kind, "mt": mt.kind, "dynamical": dyn}
    if bmt.d is not None:
        payload["d"] = bmt.d
    if bmt.rational_slope is not None:
        payload["rational_slope"] = bmt.rational_slope
    text = (
        f"s_x = {format_slope(point.s_x)}  s_y = {format_slope(point.s_y)}\n"
        f"bmt: {bmt.kind}" + (f" (d = {bmt.d})" if bmt.d is not None else "") + "\n"
        f"mt: {mt.kind}\ndynamical: {dyn}"
    )
    _emit(args, payload, text)
    return 0


def _format_cf(cf: cfrac.CFExpansion) -> str:
    parts = [str(a) for a in cf.preperiod]
    if cf.period:
        parts.append("(" + ", ".join(str(a) for a in cf.period) + ")")
    if not parts:
        return "[]"
    if len(parts) == 1:
        return f"[{parts[0]}]"
    return f"[{parts[0]}; " + ", ".join(parts[1:]) + "]"


def _cmd_cf(args, cfg: OutputConfig) -> int:
    value = parse_value(args.expr)
    cf = cfrac.cf_expand(value, budget=cfg.budget)
    payload = {
        "value": format_value(value),
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }
    _emit(args, payload, _format_cf(cf))
    return 0


def _cmd_equiv(args, cfg: OutputConfig) -> int:
    x = parse_slope(args.left)
    y = parse_slope(args.right)
    eq = cfrac.gl2z_equivalent(x, y, budget=cfg.budget)
    _emit(args, {"equivalent": eq}, "equivalent" if eq else "inequivalent")
    return 0 if eq else 1


def _cmd_classgroup(args, cfg: OutputConfig) -> int:
    D = args.D
    h_wide, mapping, grp = qforms.wide_class_group(D)
    eps, norm, eps_plus = qforms.order_unit(D)
    payload = {
        "D": D,
        "h_plus": grp.h_plus,
        "h_wide": h_wide,
        "invariant_factors": list(grp.invariant_factors),
        "unit": {"epsilon": format_value(eps), "norm": norm},
        "representatives": [_fmt_form(f) for f in grp.representatives],
        "cycles": [[_fmt_form(f) for f in cyc] for cyc in grp.cycles],
        "wide_class_of": mapping,
    }
    text = (
        f"D = {D}: h+ = {grp.h_plus}, h = {h_wide}, "
        f"invariant factors {list(grp.invariant_factors)}, "
        f"epsilon = {format_value(eps)} (norm {norm})"
    )
    _emit(args, payload, text)
    return 0


def _cmd_units(args, cfg: OutputConfig) -> int:
    D = args.D
    eps, norm, eps_plus = qforms.order_unit(D)
    payload = {
        "D": D,
        "epsilon": format_value(eps),
        "norm": norm,
        "epsilon_plus": format_value(eps_plus),
        "regulator_numeric": log_decimal(eps, cfg.digits),
    }
    text = (
        f"D = {D}: epsilon = {format_value(eps)} (norm {norm}), "
        f"epsilon+ = {format_value(eps_plus)}, "
        f"regulator = {payload['regulator_numeric']}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_geodesics(args, cfg: OutputConfig) -> int:
    D = args.D
    cycles = qforms.proper_classes(D)
    rows = []
    for cyc in cycles:
        geo = qforms.class_to_geodesic(D, cyc[0])
        rows.append(
            {
                "cycle": [_fmt_form(f) for f in geo.cycle],
                "slopes": [format_value(s) for s in geo.slope_pair],
                "length_numeric": geo.length_numeric(cfg.digits),
            }
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for row in rows:
            print(
                f"cycle {row['cycle']} slopes {row['slopes']} "
                f"length {row['length_numeric']}"
            )
    return 0


def _cmd_census(args, cfg: OutputConfig) -> int:
    dmax = args.dmax
    rows = []
    for D in range(5, dmax + 1):
        if not qforms.valid_discriminant(D):
            continue
        h_wide, _, grp = qforms.wide_class_group(D)
        eps, norm, eps_plus = qforms.order_unit(D)
        geo = qforms.class_to_geodesic(D, grp.representatives[0])
        length = geo.length_numeric(cfg.digits)
        rows.append(
            {
                "D": D,
                "h_plus": grp.h_plus,
                "h_wide": h_wide,
                "unit_norm": norm,
                "epsilon": format_value(eps),
                "regulator_numeric": log_decimal(eps, cfg.digits),
                "geodesic_count": h_wide,
                "length_min_numeric": length,
                "length_max_numeric": length,
            }
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print("D  h+  h  norm  epsilon  regulator")
        for r in rows:
            print(
                f"{r['D']}  {r['h_plus']}  {r['h_wide']}  {r['unit_norm']}  "
                f"{r['epsilon']}  {r['regulator_numeric']}"
            )
    return 0


def _cmd_nct_equiv(args, cfg: OutputConfig) -> int:
    t1 = parse_slope(args.left)
    t2 = parse_slope(args.right)
    eq = nctorus.morita_equivalent(t1, t2)
    _emit(args, {"morita_equivalent": eq}, "equivalent" if eq else "inequivalent")
    return 0 if eq else 1


def _cmd_nct_member(args, cfg: OutputConfig) -> int:
    x = parse_value(args.expr)
    theta = parse_slope(args.theta)
    sol = nctorus.pseudolattice_member(x, theta)
    if sol is None:
        _emit(args, {"member": False}, "none")
        return 1
    m, n = sol
    _emit(args, {"member": True, "m": m, "n": n}, f"member: ({m}, {n})")
    return 0


def _cmd_nct_levels(args, cfg: OutputConfig) -> int:
    n = nctorus.count_level_structures(args.N)
    _emit(args, {"N": args.N, "count": n}, str(n))
    return 0


def _cmd_hilbert(args, cfg: OutputConfig) -> int:
    E = fields.number_field(parse_intpoly(args.E))
    F = fields.number_field(parse_intpoly(args.F))
    types = fields.enumerate_rm_types(F, E)
    sqrt_coords = fields.subfield_embed(E, F) if E.degree == 2 else None
    rows = []
    for t in types:
        lilac = fields.hilbert_special_point(F, E, t)
        cert = fields.verify_hilbert_lilac(lilac)
        rows.append(
            {
                "chosen_embeddings": list(t.chosen),
                "fibers": [list(f) for f in t.fibers],
                "direct_sum": cert["direct_sum"],
                "stable": cert["stable"],
            }
        )
    payload = {
        "E": format_intpoly(E.coeffs),
        "F": format_intpoly(F.coeffs),
        "sqrt_embedding": _format_ratpoly(sqrt_coords) if sqrt_coords else None,
        "rm_type_count": len(types),
        "rm_types": rows,
    }
    text = (
        f"{len(types)} RM types for F = {payload['F']} over E = {payload['E']}; "
        f"sqrt(d_E) = {payload['sqrt_embedding']}; all verified: "
        f"{all(r['direct_sum'] and r['stable'] for r in rows)}"
    )
    _emit(args, payload, text)
    return 0


def _format_ratpoly(coeffs) -> str:
    den = 1
    for c in coeffs:
        c = Fraction(c)
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(Fraction(c) * den) for c in coeffs]
    body = format_intpoly(tuple(ints))
    return body if den == 1 else f"({body})/{den}"


def _cmd_siegel(args, cfg: OutputConfig) -> int:
    K = fields.number_field(parse_intpoly(args.K))
    emb = fields.isolate_real_roots(K.poly())
    payload: dict = {
        "K": format_intpoly(K.coeffs),
        "signature": list(emb.signature),
    }
    if emb.signature != (2, 1):
        from .errors import WrongSignatureError

        raise WrongSignatureError(
            f"signature {emb.signature} != (2, 1); no special point"
        )
    point = fields.siegel_special_point(K)
    payload["dims"] = list(point.dims)
    psi = fields.find_compatible_symplectic(point, args.psi_bound)
    payload["psi_bound"] = args.psi_bound
    payload["psi"] = [list(r) for r in psi] if psi is not None else None
    if psi is not None:
        payload["pfaffian"] = fields.pfaffian(psi)
    text = (
        f"K = {payload['K']}: signature (2, 1), dims (1, 1, 2); "
        + (f"psi = {payload['psi']}" if psi is not None else "no psi found")
    )
    _emit(args, payload, text)
    return 0 if psi is not None else 1


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="modgeo",
        description="Exact arithmetic on the modular curve's geodesics: "
        "continued fractions, form class groups, stabilizer classification, "
        "rank-2 lattice lines and quartic special points.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(handler=handler)
        return p

    p = add("classify", _cmd_classify, help="classify a point by its slopes")
    p.add_argument("--sx", help="first slope (expr, inf, or generic:NAME)")
    p.add_argument("--sy", help="second slope")
    p.add_argument("--matrix", help="conjugator entries a,b,c,d")
    p.add_argument("--field", help="declared quadratic field, e.g. sqrt(5)")

    p = add("cf", _cmd_cf, help="continued fraction expansion")
    p.add_argument("expr")

    p = add("equiv", _cmd_equiv, help="GL2(Z) equivalence of two slopes")
    p.add_argument("left")
    p.add_argument("right")

    p = add("classgroup", _cmd_classgroup, help="form class group of disc D")
    p.add_argument("D", type=int)

    p = add("units", _cmd_units, help="fundamental unit of the order of disc D")
    p.add_argument("D", type=int)

    p = add("geodesics", _cmd_geodesics, help="closed geodesics of disc D")
    p.add_argument("D", type=int)

    p = add("census", _cmd_census, help="table over discriminants up to --dmax")
    p.add_argument("--dmax", type=int, required=True)

    nct = sub.add_parser("nct", help="rank-2 lattice lines and their algebras")
    nct_sub = nct.add_subparsers(dest="nct_command", required=True)

    def add_nct(name, handler, **kwargs):
        p = nct_sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)
        return p

    p = add_nct("equiv", _cmd_nct_equiv, help="Morita equivalence of two lines")
    p.add_argument("left")
    p.add_argument("right")

    p = add_nct("member", _cmd_nct_member, help="membership in Z + Z*theta")
    p.add_argument("expr")
    p.add_argument("--theta", required=True)

    p = add_nct("levels", _cmd_nct_levels, help="count of level structures mod N")
    p.add_argument("N", type=int)

    p = add("hilbert", _cmd_hilbert, help="RM types and special points for F/E")
    p.add_argument("--E", required=True, help="defining polynomial of E")
    p.add_argument("--F", required=True, help="defining polynomial of F")

    p = add("siegel", _cmd_siegel, help="signature-(2,1) special point of K")
    p.add_argument("--K", required=True, help="defining quartic of K")
    p.add_argument("--psi-bound", type=int, default=3, dest="psi_bound")

    return top


_VALUE_FLAGS = {"--sx", "--sy", "--matrix", "--field", "--theta", "--E", "--F", "--K"}


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join value-taking flags with their argument so expressions that
    start with '-' (like -sqrt(5)) survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_flag_values(list(argv))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = OutputConfig.from_env()
        return args.handler(args, cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
