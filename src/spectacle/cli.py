"""Command-line front end.

Subcommands: theta11, lift, caps, cohen, eisenstein, lvalue, intersect,
verify-all.  Each is declared once, in the table ``_COMMANDS`` (name -> help,
arguments, handler).  A call reads its argv once, after the subcommand's
name, in one left-to-right walk over that subcommand's option strings (a
dict built from ``_COMMANDS`` on the first call of the subcommand in a
process), as argparse reads it: unique prefixes, ``--f=v``, the last of a
repeated option, and argparse's one-line usage errors with exit 2.  argparse
itself only prints help, and parses an empty argv or an unknown name with
one parser of them all.  Exact series serialize rationals as "p/q"
strings; a period prints 12 significant digits.  The capped period is one
mode sum at i whatever the heights of ``--T`` (checked, echoed, never
summed), so t_spread is the constant 0 and abs_err_bound the constant
1e-11, while the true error reaches 3.0e-10 at weight 44, j = 0.  Output is
deterministic (all maps are sorted before serialization): identical
invocations produce identical bytes.

JSON is written by ``_json_text``, a small recursive writer whose text is
exactly ``json.dumps(payload, indent=2, sort_keys=True)``, the oracle the
tests hold it to; it joins strings where an indent would send ``json.dumps``
to its pure-Python encoder.

Environment: SPECTACLE_LOG in {error, info, debug} controls log verbosity.
Only info and debug import ``logging`` and give its root logger a stderr
handler; error, the default, leaves the host's logging untouched.  Start-up
imports none of ``argparse``, ``logging`` and ``dataclasses``, and only
verify-all loads ``spectacle.verify``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, NoReturn, Optional, Tuple

from .caps import cap_closed_form, spectacle_assemble
from .periods import (
    MAX_PERIOD_WEIGHT, HolomorphicFormSpec, geodesic_intersection_numeric, spectacle_period
)
from .qseries import QExpansion, cohen_eisenstein, eisenstein_level1
from .quad_space import VecV, epsilon_sign
from .shintani_lift import LiftConfig, main_theorem_check, plus_space_check
from .theta11 import SplitLatticeU, theta11_series

if TYPE_CHECKING:
    import argparse


def _configure_logging(command: str) -> None:
    """Check SPECTACLE_LOG; only info and debug import and configure ``logging``."""
    level = os.environ.get("SPECTACLE_LOG", "error").lower()
    levels = ["debug", "error", "info"]
    if level not in levels:
        raise ValueError(f"SPECTACLE_LOG must be one of {levels}, got {level!r}")
    if level != "error":
        import logging

        logging.basicConfig(level=level.upper(), format="%(name)s: %(message)s")
        logging.getLogger("spectacle.cli").debug("dispatching %s", command)


# the encoder of each leaf type, as json.dumps applies it: a finite float is
# its repr, and only nan and +-inf go through json.dumps (NaN, Infinity)
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_text(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with str keys,
    lists, tuples, str, int, float, bool and None, where ``pad`` is the newline
    and indent of ``obj``'s line; any other type raises ``TypeError``."""
    leaf = _LEAVES.get(obj.__class__)
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(key) + ": " + _json_text(value, inner)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return json.dumps(obj)  # a subclass of a leaf type, or a type json refuses


def _emit(
    args: SimpleNamespace, payload: dict, table: Optional[Callable[[], str]] = None
) -> None:
    """Write ``payload`` as JSON, or ``table()`` (rendered only then) under
    ``--format table``; a subcommand without a table takes no ``--format``.

    ``--out`` overwrites an existing file in place and then cuts it to the
    new length, instead of truncating it to zero on open: ext4 takes a
    truncate-to-zero and rewrite for a file replacement and allocates its
    blocks at close (``auto_da_alloc``), which cost 0.2-0.4 ms per call on
    a disk mounted with ``discard``, against about 20 us in place."""
    text = (
        _json_text(payload) + "\n"
        if table is None or args.format == "json"
        else table()
    )
    if args.out:
        try:
            with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(text.encode("utf-8"))
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()  # drop the tail of a longer earlier output
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _series_table(series: QExpansion, label: str) -> str:
    lines = [f"# {label}", f"# exponent denominator {series.exp_den}"]
    width = max((len(str(n)) for n in series.coeffs), default=1)
    for head, table in ((None, series.coeffs), ("# 1/(pi v) part", series.nonholo or {})):
        if head and table:
            lines.append(head)
        for n in sorted(table):
            e = f"{n}/{series.exp_den}" if series.exp_den > 1 else str(n)
            lines.append(f"q^{e:<{width + 4}} {table[n]}")
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


def cmd_theta11(args: SimpleNamespace) -> int:
    lat = SplitLatticeU(*(_rational(t) for t in (args.m1, args.h1, args.m2, args.h2)))
    series = theta11_series(lat, args.k, _rational(args.wu), _rational(args.wup), args.nmax)
    _emit(args, series.to_json_dict(), lambda: _series_table(series, f"theta series, k={args.k}"))
    return 0


def cmd_lift(args: SimpleNamespace) -> int:
    cfg = LiftConfig(k=args.k, h=_h_fraction(args.h), n_max=args.nmax)
    if args.cohen and cfg.k % 2:
        # this coset is one component of the plus-space pair; read its report
        report = plus_space_check(cfg.k, 4 * cfg.n_max // cfg.exp_den).reports[cfg.h != 0]
    else:
        report = main_theorem_check(cfg)

    def table() -> str:
        lines = [
            f"# lift report k={args.k} h={args.h} n_max={args.nmax}",
            f"equal: {report.equal}",
        ]
        if report.first_mismatch:
            e, a, b, part = report.first_mismatch
            lines.append(f"first mismatch at q^{e} [{part}]: theta {a} vs geometric {b}")
        lines.append(_series_table(report.theta_side, "theta side"))
        return "\n".join(lines)

    _emit(args, report.to_json_dict(), table)
    if args.check and not report.equal:
        e, a, b, part = report.first_mismatch
        print(f"FAIL: sides differ at q^{e} [{part}]: {a} vs {b}", file=sys.stderr)
        return 1
    return 0


def cmd_caps(args: SimpleNamespace) -> int:
    if args.x is not None:
        x = _parse_vec(args.x)
        cyc = spectacle_assemble(x, args.k, args.level)
        caps = None
        if cyc.caps is not None:
            caps = {}
            for side, cap in zip(("first", "second"), cyc.caps):
                caps[f"{side}_cusp"] = list(cap.line.cusp)
                caps[f"{side}_position"] = str(cap.position)
                caps[f"cap_{side}"] = [str(c) for c in cap.vector.coeffs]
        x_text = [str(x.a), str(x.b), str(x.c)]
        _emit(args, {"x": x_text, "k": args.k, "closed": caps is None, "caps": caps})
        return 0
    w = cap_closed_form(args.k, args.i, _rational(args.r), _rational(args.M))
    payload = {
        "k": args.k,
        "i": args.i,
        "r": args.r,
        "M": args.M,
        "cap": [str(c) for c in w.coeffs],
    }
    _emit(args, payload)
    return 0


def cmd_cohen(args: SimpleNamespace) -> int:
    series = cohen_eisenstein(args.r, args.nmax)
    _emit(args, series.to_json_dict(), lambda: _series_table(series, f"H({args.r}, N)"))
    return 0


def cmd_eisenstein(args: SimpleNamespace) -> int:
    series = eisenstein_level1(args.weight, args.nmax)
    _emit(args, series.to_json_dict(), lambda: _series_table(series, f"E_{args.weight}"))
    return 0


def cmd_lvalue(args: SimpleNamespace) -> int:
    heights = [float(t) for t in args.T.split(",")]
    form = HolomorphicFormSpec.eisenstein(args.weight)
    if not all(1 < T < math.inf for T in heights):
        raise ValueError("truncation heights must be finite and exceed 1")
    value = spectacle_period(form, args.j)
    payload = {
        "weight": args.weight,
        "j": args.j,
        "heights": heights,
        "value": f"{value:.12g}",
        "abs_err_bound": "1e-11",
        "t_spread": "0",
    }
    _emit(args, payload, lambda: (
        f"period(weight={args.weight}, j={args.j}) = {value:.12g}\n"
        f"T-spread over {heights}: 0\n"
    ))
    return 0


def cmd_intersect(args: SimpleNamespace) -> int:
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
    _emit(args, payload, lambda: (
        f"epsilon = {sign}, numeric sign = {numeric_sign}, "
        f"point = {point.real:.6g} + {point.imag:.6g} i\n"
    ))
    return 0 if sign == numeric_sign else 1


def cmd_verify_all(args: SimpleNamespace) -> int:
    from .verify import CRITERIA  # only this subcommand loads the acceptance matrix

    failed = 0
    for criterion in CRITERIA:
        result = criterion()
        print(result.line(), flush=True)
        failed += not result.passed
    if failed:
        print(f"{failed} criterion(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(CRITERIA)} criteria passed")
    return 0


_OUT = ("--out", dict(metavar="PATH", default=None))
_COMMON = [("--format", dict(choices=("json", "table"), default="json")), _OUT]
_K = ("--k", dict(type=int, required=True))
_NMAX = ("--nmax", dict(type=int, default=50))
_VEC = dict(required=True, help="vector a,b,c")

# every subcommand once, in help order: name -> (help, arguments, handler)
_COMMANDS: Dict[str, Tuple[str, List[Tuple[str, dict]], Callable[..., int]]] = {
    "theta11": ("split-lattice generating series", [
        _K, _NMAX,
        ("--m1", dict(default="1")), ("--h1", dict(default="0")),
        ("--m2", dict(default="1")), ("--h2", dict(default="0")),
        ("--wu", dict(default="0", help="coefficient of u^k")),
        ("--wup", dict(default="1", help="coefficient of u'^k")),
        *_COMMON,
    ], cmd_theta11),
    "lift": ("both sides of the generating-series identity", [
        _K, ("--h", dict(choices=("0", "half"), default="0")), _NMAX,
        ("--check", dict(action="store_true", help="exit 1 when the sides differ")),
        ("--cohen", dict(action="store_true", help="also record the rational multiple "
                         "against the half-integral weight series")),
        *_COMMON,
    ], cmd_lift),
    "caps": ("cap vectors (assembled cycle or closed form)", [
        _K, ("--x", dict(default=None, help="vector a,b,c to assemble")),
        ("--level", dict(type=int, default=1, help="level N for cusp widths")),
        ("--i", dict(type=int, default=0, help="weight index (closed form)")),
        ("--r", dict(default="0", help="boundary position (closed form)")),
        ("--M", dict(default="1", help="cusp width (closed form)")),
        _OUT,
    ], cmd_caps),
    "cohen": ("half-integral weight Eisenstein coefficients", [
        ("--r", dict(type=int, required=True)), _NMAX, *_COMMON,
    ], cmd_cohen),
    "eisenstein": ("classical level-one Eisenstein series", [
        ("--weight", dict(type=int, required=True)), _NMAX, *_COMMON,
    ], cmd_eisenstein),
    "lvalue": ("period of an Eisenstein series over the capped cycle", [
        ("--weight", dict(type=int, required=True,
                          help=f"even weight from 4 to {MAX_PERIOD_WEIGHT}")),
        ("--j", dict(type=int, default=0)),
        ("--T", dict(default="3,10", help="comma list of heights: finite T > 1")),
        *_COMMON,
    ], cmd_lvalue),
    "intersect": ("oriented intersection sign of two geodesics", [
        ("--x", _VEC), ("--y", _VEC), *_COMMON,
    ], cmd_intersect),
    "verify-all": ("run the full acceptance matrix", [], cmd_verify_all),
}


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with ``message`` as one line, like every other bad input."""
    sys.stderr.write(f"spectacle: error: {message}\n")
    sys.exit(2)


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the arguments and handler of subcommand ``name``."""
    _, arguments, handler = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=handler, command=name)
    return parser


@functools.cache
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The argparse parser of subcommand ``command``, which prints its help;
    or, for ``None`` (help, no argv, an unknown name), the parser of them all,
    so top-level help and the invalid-choice error list every one.  These are
    the only paths that import argparse: a subcommand's argv is read by
    ``_parse``, which the tests hold to this parser's reading.  Each is built
    on its first request in a process and shared by every later one: parse
    with it, never mutate it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            _usage_error(message)

    if command is not None:
        return _fill(Parser(prog=f"spectacle {command}"), command)
    parser = Parser(
        prog="spectacle",
        description="Exact capped-cycle data on the modular curve and its modular-form identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _table(name: str) -> Tuple[Dict[str, Optional[tuple]], Dict[str, object]]:
    """Subcommand ``name``'s option strings in argparse's order, each mapped
    to (dest, type, choices, required) with type ``bool`` for a flag, and
    -h and --help, first, to None; and the defaults of its namespace."""
    _, arguments, handler = _COMMANDS[name]
    options: Dict[str, Optional[tuple]] = {"-h": None, "--help": None}
    defaults: Dict[str, object] = {}
    for flag, spec in arguments:
        is_flag = spec.get("action") == "store_true"
        kind = bool if is_flag else spec.get("type")
        options[flag] = (flag[2:], kind, spec.get("choices"), spec.get("required"))
        defaults[flag[2:]] = spec.get("default", False if is_flag else None)
    return options, dict(defaults, func=handler, command=name)


def _option(options: Dict[str, Optional[tuple]], token: str) -> Optional[tuple]:
    """argparse's reading of ``token``: None for an argument, else (option
    string, explicit argument or None), with option string None for an
    unknown option; an ambiguous prefix exits at once."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    flag, eq, explicit = token.partition("=")
    if eq and flag in options:
        return flag, explicit
    if token[1] == "-":  # a prefix of long options, split at the "="
        matches = [(f, explicit if eq else None) for f in options if f.startswith(flag)]
    else:  # a short option glued to its tail; every short option is one letter
        matches = [(token[:2], token[2:])] if token[:2] in options else []
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {token} could match {', '.join(f for f, _ in matches)}")
    if matches:
        return matches[0]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or words
    return None, None


def _parse(name: str, argv: List[str]) -> SimpleNamespace:
    """The namespace ``_parser(name).parse_args(argv)`` would give, from one
    left-to-right walk over ``_table(name)``; each usage error is argparse's
    message and exit 2, and help is argparse's.  As in argparse, an ambiguous
    prefix anywhere comes first, then the first bad option or help in argv
    order, then missing required options, then leftovers."""
    options, defaults = _table(name)
    values = dict(defaults)
    given = set()
    extras: List[str] = []
    failure = None  # the first bad option's message, or "help"
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":  # the rest are arguments, so leftovers
            extras += argv[i - 1:]
            break
        option = _option(options, token)
        if failure is not None:
            continue  # read on only for an ambiguous prefix
        if option is None or option[0] is None:
            extras.append(token)
            continue
        flag, explicit = option
        if options[flag] is None:  # -h or --help; -hh... is help, as argparse reads it
            while explicit and flag == "-h" and explicit[0] == "h":
                explicit = explicit[1:] or None
            failure = "help" if explicit is None else (
                f"argument -h/--help: ignored explicit argument {explicit!r}")
            continue
        dest, kind, choices, _ = options[flag]
        given.add(flag)
        if kind is bool:
            if explicit is None:
                values[dest] = True
            else:
                failure = f"argument {flag}: ignored explicit argument {explicit!r}"
            continue
        if explicit is None:
            if i == len(argv) or argv[i] == "--" or _option(options, argv[i]) is not None:
                failure = f"argument {flag}: expected one argument"
                continue
            explicit = argv[i]
            i += 1
        if explicit == "--":
            values[dest] = []  # argparse drops a "--" value; refused after the walk
            continue
        try:
            value = explicit if kind is None else kind(explicit)
        except (TypeError, ValueError):
            failure = f"argument {flag}: invalid {kind.__name__} value: {explicit!r}"
            continue
        if choices is not None and value not in choices:
            failure = (f"argument {flag}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
        else:
            values[dest] = value
    if failure == "help":
        _parser(name).print_help()
        sys.exit(0)
    if failure is not None:
        _usage_error(failure)
    missing = [flag for flag, spec in options.items() if spec and spec[3] and flag not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    for dest, value in values.items():
        if value == []:
            _usage_error(f"argument --{dest}: expected one argument")
    return SimpleNamespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _parse(argv[0], argv[1:])
    else:
        args = _parser(None).parse_args(argv)
    try:
        _configure_logging(args.command)
        return args.func(args)
    except ValueError as exc:
        # bad input; internal failures (LiftError, ArithmeticError) keep their traceback
        print(f"spectacle: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
