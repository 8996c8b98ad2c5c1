"""Command-line surface over the library.

All numeric inputs use the LC literal grammar, so infinitesimal arguments
are first-class on the command line:

    levicivita eval "1/x" --at x=d
    levicivita derive "x^2" --var x --at 3 --order 1
    levicivita taylor "sin(x)" --var x --at 0 --order 5
    levicivita limit "sin(x)" "x" --var x --at 0
    levicivita wlud-check "abs(x)" --var x --at 0 --k 1 --eps 1 --delta d
    levicivita analyticity "exp(x)" --var x --at 0 --jmax 16 --kmax 4

Exit codes: 0 success/pass/certified, 1 fail/refuted, 2 inconclusive,
3 usage or evaluation error.  LC_HORIZON overrides the default horizon.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .core import default_horizon, format_lc, horizon
from .errors import LCError
from .expr import parse_expr, parse_lc
from .calculus import derivative_at, lhopital_limit, taylor_jet
from .wlud import (
    SamplingPlan,
    analyticity_certificate_1d,
    analyticity_certificate_nd,
    certificate_to_json,
    report_to_json,
    wlud_check_1d,
    wlud_check_nd,
)
from .expr import eval_lc

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

#: Exit codes of the decided verdicts; every other verdict is inconclusive.
_VERDICT_EXIT = {
    "pass": EXIT_OK,
    "certified_at_scale": EXIT_OK,
    "fail": EXIT_FAIL,
    "refuted": EXIT_FAIL,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # An argument that starts with one "-" is a value (an LC literal such
        # as -1/2 or -d, or an expression such as -x+1), not an option.  Set
        # after the -h option is added, which would otherwise count as
        # value-like and switch the rule off.
        self._negative_number_matcher = re.compile(r"^-(?!-)")

    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="levicivita", description=__doc__.splitlines()[0])
    p.add_argument("--horizon", type=_fraction, default=None,
                   help="default horizon exponent (overrides LC_HORIZON)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an expression at LC arguments")
    sp.add_argument("expr")
    sp.add_argument("--at", action="append", default=[], metavar="VAR=LC",
                    help="binding, repeatable")
    _global_flags(sp)

    sp = sub.add_parser("derive", help="j-th derivative at a point")
    sp.add_argument("expr")
    sp.add_argument("--var", required=True)
    sp.add_argument("--at", required=True, metavar="LC")
    sp.add_argument("--order", type=int, required=True)
    _global_flags(sp)

    sp = sub.add_parser("taylor", help="jet coefficients f^(j)(x0)/j!")
    sp.add_argument("expr")
    sp.add_argument("--var", required=True)
    sp.add_argument("--at", required=True, metavar="LC")
    sp.add_argument("--order", type=int, required=True)
    _global_flags(sp)

    sp = sub.add_parser("limit", help="L'Hopital limit of f/g (0/0 case)")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--var", required=True)
    sp.add_argument("--at", required=True, metavar="LC")
    _global_flags(sp)

    sp = sub.add_parser("wlud-check", help="sampled uniform-remainder check")
    sp.add_argument("expr")
    sp.add_argument("--var", action="append", required=True,
                    help="variable name, repeatable for several variables")
    sp.add_argument("--at", action="append", required=True, metavar="LC",
                    help="center component, one per --var")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", required=True, metavar="LC")
    sp.add_argument("--delta", required=True, metavar="LC")
    _plan_flags(sp)
    _global_flags(sp)

    sp = sub.add_parser("analyticity", help="analyticity certificate")
    sp.add_argument("expr")
    sp.add_argument("--var", action="append", required=True)
    sp.add_argument("--at", action="append", required=True, metavar="LC")
    sp.add_argument("--jmax", type=int, default=16)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--window", type=int, default=None)
    _plan_flags(sp)
    _global_flags(sp)
    return p


def _plan_flags(sp):
    sp.add_argument("--samples", type=int, default=4,
                    help="number of pseudo-random offsets in the plan")
    sp.add_argument("--seed", type=int, default=0xC0FFEE)


def _global_flags(sp):
    # accepted after the subcommand too; SUPPRESS keeps the root value
    # when the flag is absent here
    sp.add_argument("--horizon", type=_fraction, default=argparse.SUPPRESS)
    sp.add_argument("--format", choices=("text", "json"),
                    default=argparse.SUPPRESS)


def _plan(args) -> SamplingPlan:
    return SamplingPlan(random_offsets=args.samples, seed=args.seed)


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    env = {}
    for binding in args.at:
        name, _, literal = binding.partition("=")
        if not name or not literal:
            raise LCError(f"binding {binding!r} is not of the form VAR=LC")
        env[name.strip()] = parse_lc(literal)
    value = eval_lc(parse_expr(args.expr), env)
    _emit(args, [format_lc(value)], {"value": format_lc(value)})
    return EXIT_OK


def _cmd_derive(args) -> int:
    value = derivative_at(parse_expr(args.expr), args.var, parse_lc(args.at), args.order)
    _emit(args, [format_lc(value)], {"derivative": format_lc(value)})
    return EXIT_OK


def _cmd_taylor(args) -> int:
    jet = taylor_jet(parse_expr(args.expr), args.var, parse_lc(args.at), args.order)
    coeffs = [format_lc(c) for c in jet.coeffs]
    lines = [f"{j}: {c}" for j, c in enumerate(coeffs)]
    _emit(args, lines, {"center": format_lc(jet.center), "coeffs": coeffs})
    return EXIT_OK


def _cmd_limit(args) -> int:
    value = lhopital_limit(
        parse_expr(args.f), parse_expr(args.g), args.var, parse_lc(args.at)
    )
    _emit(args, [format_lc(value)], {"limit": format_lc(value)})
    return EXIT_OK


def _expr_at_point(args) -> tuple:
    """The parsed expression and its point, one ``--at`` per ``--var``."""
    f = parse_expr(args.expr)
    centers = [parse_lc(a) for a in args.at]
    if len(args.var) != len(centers):
        raise LCError("need exactly one --at per --var")
    return f, centers


def _cmd_wlud_check(args) -> int:
    f, centers = _expr_at_point(args)
    eps = parse_lc(args.eps)
    delta = parse_lc(args.delta)
    if len(args.var) == 1:
        report = wlud_check_1d(f, args.var[0], centers[0], args.k, eps, delta, _plan(args))
    else:
        report = wlud_check_nd(f, args.var, centers, args.k, eps, delta, _plan(args))
    payload = report_to_json(report)
    lines = [f"result: {report.result}", f"samples: {report.samples}"]
    if report.worst_pair is not None:
        x, y, lhs, rhs = report.worst_pair
        lines.append(f"margin: {payload['margin']}")
        lines.append(f"worst x: {payload['worst_pair']['x']}")
        lines.append(f"worst y: {payload['worst_pair']['y']}")
        lines.append(f"lhs: {format_lc(lhs)}")
        lines.append(f"rhs: {format_lc(rhs)}")
    _emit(args, lines, payload)
    return _VERDICT_EXIT.get(report.result, EXIT_INCONCLUSIVE)


def _cmd_analyticity(args) -> int:
    f, centers = _expr_at_point(args)
    kwargs = dict(jmax=args.jmax, kmax=args.kmax, plan=_plan(args), window=args.window)
    if len(args.var) == 1:
        cert = analyticity_certificate_1d(f, args.var[0], centers[0], **kwargs)
    else:
        cert = analyticity_certificate_nd(f, args.var, centers, **kwargs)
    payload = certificate_to_json(cert)
    lines = [
        f"verdict: {cert.verdict}",
        f"lambda0: {payload['lambda0']}",
        f"t: {cert.t}",
        f"required radius lambda: {payload['required_radius_lambda']}",
        f"delta: {payload['delta']}",
        f"ladder: {payload['delta_ladder']}",
        f"identity checks: {len(cert.identity_checks)}",
    ]
    _emit(args, lines, payload)
    return _VERDICT_EXIT.get(cert.verdict, EXIT_INCONCLUSIVE)


_COMMANDS = {
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "taylor": _cmd_taylor,
    "limit": _cmd_limit,
    "wlud-check": _cmd_wlud_check,
    "analyticity": _cmd_analyticity,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        h = args.horizon
        if h is None and os.environ.get("LC_HORIZON"):
            h = _env_horizon(os.environ["LC_HORIZON"])
        with horizon(default_horizon() if h is None else h):
            return _COMMANDS[args.command](args)
    except (LCError, ArithmeticError, ValueError) as exc:
        # ArithmeticError covers ZeroDivisionError and the OverflowError of
        # math.exp on a too-large real argument.
        print(f"levicivita: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _env_horizon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"LC_HORIZON={text!r} is not a rational number") from None


if __name__ == "__main__":
    raise SystemExit(main())
