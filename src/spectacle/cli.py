"""Command-line front end.

Subcommands: theta11, lift, caps, cohen, eisenstein, lvalue, intersect,
verify-all.  Exact series serialize rationals as "p/q" strings; period
results print 12 significant digits with an absolute error bound.  Output is
deterministic (all maps are sorted before serialization): identical
invocations produce identical bytes.

Environment: SPECTACLE_LOG in {error, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import List, NoReturn, Optional

from .caps import cap_closed_form, gamma0_width, spectacle_assemble
from .periods import HolomorphicFormSpec, geodesic_intersection_numeric, spectacle_period
from .qseries import QExpansion, cohen_eisenstein, eisenstein_level1
from .quad_space import VecV, epsilon_sign
from .shintani_lift import LiftConfig, main_theorem_check
from .theta11 import SplitLatticeU, theta11_series
from .verify import verify_all

log = logging.getLogger("spectacle.cli")


def _configure_logging() -> None:
    level = os.environ.get("SPECTACLE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise SystemExit(f"SPECTACLE_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(name)s: %(message)s")


def _emit(args: argparse.Namespace, payload: dict, table: str) -> None:
    text = (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.format == "json"
        else table
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _series_table(series: QExpansion, label: str) -> str:
    lines = [f"# {label}", f"# exponent denominator {series.exp_den}"]
    width = max((len(str(n)) for n in series.coeffs), default=1)
    for n in sorted(series.coeffs):
        e = f"{n}/{series.exp_den}" if series.exp_den > 1 else str(n)
        lines.append(f"q^{e:<{width + 4}} {series.coeffs[n]}")
    if series.nonholo:
        lines.append("# 1/(pi v) part")
        for n in sorted(series.nonholo):
            e = f"{n}/{series.exp_den}" if series.exp_den > 1 else str(n)
            lines.append(f"q^{e:<{width + 4}} {series.nonholo[n]}")
    return "\n".join(lines) + "\n"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational number, got {text!r}") from None


def _parse_vec(text: str) -> VecV:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected a,b,c (three rationals), got {text!r}")
    return VecV(*(_rational(p) for p in parts))


def _h_fraction(tag: str) -> Fraction:
    return Fraction(0) if tag == "0" else Fraction(1, 2)


def cmd_theta11(args: argparse.Namespace) -> int:
    lat = SplitLatticeU(*(_rational(t) for t in (args.m1, args.h1, args.m2, args.h2)))
    series = theta11_series(lat, args.k, _rational(args.wu), _rational(args.wup), args.nmax)
    _emit(args, series.to_json_dict(), _series_table(series, f"theta series, k={args.k}"))
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    cfg = LiftConfig(k=args.k, h=_h_fraction(args.h), n_max=args.nmax)
    report = main_theorem_check(cfg, with_proportionality=args.cohen)
    table_lines = [
        f"# lift report k={args.k} h={args.h} n_max={args.nmax}",
        f"equal: {report.equal}",
    ]
    if report.first_mismatch:
        e, a, b, part = report.first_mismatch
        table_lines.append(f"first mismatch at q^{e} [{part}]: theta {a} vs geometric {b}")
    table_lines.append(_series_table(report.theta_side, "theta side"))
    _emit(args, report.to_json_dict(), "\n".join(table_lines))
    if args.check and not report.equal:
        e, a, b, part = report.first_mismatch
        print(f"FAIL: sides differ at q^{e} [{part}]: {a} vs {b}", file=sys.stderr)
        return 1
    return 0


def cmd_caps(args: argparse.Namespace) -> int:
    if args.x is not None:
        x = _parse_vec(args.x)
        cyc = spectacle_assemble(x, args.k, width_of=gamma0_width(args.level))
        payload = {
            "x": [str(x.a), str(x.b), str(x.c)],
            "k": args.k,
            "closed": cyc.cap_first is None,
            "caps": None
            if cyc.cap_first is None
            else {
                "first_cusp": list(cyc.first[0].cusp),
                "first_position": str(cyc.first[1]),
                "cap_first": [str(c) for c in cyc.cap_first.coeffs],
                "second_cusp": list(cyc.second[0].cusp),
                "second_position": str(cyc.second[1]),
                "cap_second": [str(c) for c in cyc.cap_second.coeffs],
            },
        }
        table = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _emit(args, payload, table)
        return 0
    w = cap_closed_form(args.k, args.i, _rational(args.r), _rational(args.M))
    payload = {
        "k": args.k,
        "i": args.i,
        "r": args.r,
        "M": args.M,
        "cap": [str(c) for c in w.coeffs],
    }
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_cohen(args: argparse.Namespace) -> int:
    series = cohen_eisenstein(args.r, args.nmax)
    _emit(args, series.to_json_dict(), _series_table(series, f"H({args.r}, N)"))
    return 0


def cmd_eisenstein(args: argparse.Namespace) -> int:
    series = eisenstein_level1(args.weight, args.nmax)
    _emit(args, series.to_json_dict(), _series_table(series, f"E_{args.weight}"))
    return 0


def cmd_lvalue(args: argparse.Namespace) -> int:
    heights = [float(t) for t in args.T.split(",")]
    if not all(math.isfinite(t) and t > 1 for t in heights):
        raise ValueError("heights must be finite and exceed 1")
    k = args.weight // 2 - 1
    form = HolomorphicFormSpec.eisenstein(args.weight)
    values = [
        spectacle_period(form, k, args.j, t1, t2) for t1 in heights for t2 in heights
    ]
    spread = max(values) - min(values)
    payload = {
        "weight": args.weight,
        "j": args.j,
        "heights": heights,
        "value": f"{values[0]:.12g}",
        "abs_err_bound": f"{max(spread, 1e-11):.3g}",
        "t_spread": f"{spread:.3g}",
    }
    table = (
        f"period(weight={args.weight}, j={args.j}) = {values[0]:.12g}\n"
        f"T-spread over {heights}: {spread:.3g}\n"
    )
    _emit(args, payload, table)
    return 0


def cmd_intersect(args: argparse.Namespace) -> int:
    x = _parse_vec(args.x)
    y = _parse_vec(args.y)
    sign = epsilon_sign(x, y)
    point, numeric_sign = geodesic_intersection_numeric(x, y)
    payload = {
        "epsilon": sign,
        "numeric_sign": numeric_sign,
        "point": [f"{point.real:.12g}", f"{point.imag:.12g}"],
        "agree": sign == numeric_sign,
    }
    table = (
        f"epsilon = {sign}, numeric sign = {numeric_sign}, "
        f"point = {point.real:.6g} + {point.imag:.6g} i\n"
    )
    _emit(args, payload, table)
    return 0 if sign == numeric_sign else 1


def cmd_verify_all(args: argparse.Namespace) -> int:
    results = verify_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} criterion(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one line, like every other bad
    input; the subcommand parsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"spectacle: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", metavar="PATH", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectacle",
        description="Exact capped-cycle data on the modular curve and its modular-form identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta11", help="split-lattice generating series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--m1", default="1")
    p.add_argument("--h1", default="0")
    p.add_argument("--m2", default="1")
    p.add_argument("--h2", default="0")
    p.add_argument("--wu", default="0", help="coefficient of u^k")
    p.add_argument("--wup", default="1", help="coefficient of u'^k")
    _add_common(p)
    p.set_defaults(func=cmd_theta11)

    p = sub.add_parser("lift", help="both sides of the generating-series identity")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", choices=("0", "half"), default="0")
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--check", action="store_true", help="exit 1 when the sides differ")
    p.add_argument(
        "--cohen",
        action="store_true",
        help="also record the rational multiple against the half-integral weight series",
    )
    _add_common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("caps", help="cap vectors (assembled cycle or closed form)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", default=None, help="vector a,b,c to assemble")
    p.add_argument("--level", type=int, default=1, help="level N for cusp widths")
    p.add_argument("--i", type=int, default=0, help="weight index (closed form)")
    p.add_argument("--r", default="0", help="boundary position (closed form)")
    p.add_argument("--M", default="1", help="cusp width (closed form)")
    _add_common(p)
    p.set_defaults(func=cmd_caps)

    p = sub.add_parser("cohen", help="half-integral weight Eisenstein coefficients")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nmax", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_cohen)

    p = sub.add_parser("eisenstein", help="classical level-one Eisenstein series")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--nmax", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_eisenstein)

    p = sub.add_parser("lvalue", help="period of an Eisenstein series over the capped cycle")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument(
        "--T", default="3,10", help="comma list of heights: finite T > 1 whose T^(2k) fits a float"
    )
    _add_common(p)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("intersect", help="oriented intersection sign of two geodesics")
    p.add_argument("--x", required=True, help="vector a,b,c")
    p.add_argument("--y", required=True, help="vector a,b,c")
    _add_common(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("verify-all", help="run the full acceptance matrix")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    log.debug("dispatching %s", args.command)
    try:
        return args.func(args)
    except ValueError as exc:
        # bad input; internal failures (LiftError, ArithmeticError) keep their traceback
        print(f"spectacle: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
