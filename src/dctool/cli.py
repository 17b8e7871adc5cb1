"""Command-line front end: law suites, law listing, and the expression calculator.

Subcommands:
    dctool check {poly,rel,smooth} [flags]   run the law suite for one model
    dctool poly --expr EXPR [flags]          evaluate a calculator expression
    dctool list-laws                         print the law table

Exit codes: 0 all checked laws pass, 1 at least one law fails, 2 usage or
expression error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# a command imports the one model it runs, in `_make_binding` or `run_calc`
from . import lawsuite
from .rig import RIGS, NotInvertible

SEMIRING_CHOICES = tuple(RIGS)
NOT_INVERTIBLE_HINT = (
    "the operator needs every positive sum of the multiplicative unit to be invertible in the chosen semiring"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dctool",
        description="Run differentiation/integration law suites and evaluate polynomial expressions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    check = sub.add_parser("check", help="run the law suite for one model")
    model_sub = check.add_subparsers(dest="model", required=True)

    def add_common(p, semiring=True):
        # the smooth model computes over the reals only, so it takes no --semiring
        if semiring:
            p.add_argument("--semiring", choices=SEMIRING_CHOICES, default="nonneg-rational")
        p.add_argument(
            "--cases",
            type=int,
            default=50,
            help="cases per law (default 50); it bounds the monomial basis of the poly table laws and "
            "L21, smooth spreads it over each law's probe points (L21's at its scalar maps, as L2's), "
            "and rel reads neither it nor --seed",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write the report to this path instead of stdout")

    poly = model_sub.add_parser("poly", help="exact polynomial model")
    add_common(poly)
    poly.add_argument("--vars", type=int, default=3, help="number of variables (default 3)")
    poly.add_argument("--max-degree", type=int, default=6)
    poly.add_argument(
        "--sabotage",
        action="store_true",
        help="deliberately break the gradient operator (negative control)",
    )

    rel = model_sub.add_parser("rel", help="exact truncated bag-matrix model")
    add_common(rel)
    rel.add_argument("--base-size", type=int, default=2, help="atoms in the base set (default 2)")
    rel.add_argument("--truncation", type=int, default=4, help="maximum bag size D, at least 3 (default 4)")

    smooth = model_sub.add_parser("smooth", help="numerical smooth-map model")
    add_common(smooth, semiring=False)
    smooth.add_argument("--dim", type=int, default=3, help="largest corpus dimension to use (default 3)")
    # unset flags keep smoothnum.QuadratureConfig's defaults, so that parsing imports no numpy
    smooth.add_argument("--order", type=int, help="quadrature order (the report's params show the default)")
    bound = "the one bound of every law: |lhs - rhs| <= TOL_REL * max(1, |lhs|, |rhs|) at each probe point"
    smooth.add_argument("--tol-rel", type=float, help=f"{bound} (default 1e-10)")

    calc = sub.add_parser("poly", help="evaluate a calculator expression")
    calc.add_argument("--expr", required=True)
    calc.add_argument("--semiring", choices=SEMIRING_CHOICES, default="nonneg-rational")
    calc.add_argument("--vars", type=int, default=None, help="force the variable count, 1 to 4")
    calc.add_argument(
        "--coord", type=int, default=None,
        help="print only this coordinate (1-based) of a bundle; a polynomial is its own coordinate 1",
    )

    laws = sub.add_parser("list-laws", help="print the law table")
    laws.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _use_color(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, code: str, color: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if color else text


def render_text_report(binding, reports, stream) -> None:
    color = _use_color(stream)
    print(f"model={binding.name} semiring={binding.semiring} params={dict(binding.params)}", file=stream)
    for r in reports:
        if r.status == "pass":
            tag = _paint("pass", "32", color)
        elif r.status == "fail":
            tag = _paint("FAIL", "31", color)
        else:
            tag = _paint("skip", "33", color)
        line = f"{r.law_id:<4} {tag}  cases={r.cases:<4} {r.ms:8.1f}ms  {r.citation}"
        print(line, file=stream)
        if r.counterexample:
            print(f"     counterexample: {r.counterexample}", file=stream)
        if r.skip_reason:
            print(f"     skipped: {r.skip_reason}", file=stream)
    verdict = "all checked laws pass" if lawsuite.all_pass(reports) else "LAW FAILURES PRESENT"
    print(verdict, file=stream)


def report_payload(binding, reports, seed: int) -> dict:
    return {
        "model": binding.name,
        "semiring": binding.semiring,
        "params": dict(binding.params),
        "seed": seed,
        "laws": [r.to_dict() for r in reports],
        "all_pass": lawsuite.all_pass(reports),
        "total_ms": sum(r.ms for r in reports),
    }


def _make_binding(args) -> lawsuite.ModelBinding:
    if args.model == "poly":
        from .polyform import make_poly_binding

        return make_poly_binding(
            RIGS[args.semiring], variables=args.vars, max_degree=args.max_degree, sabotage=args.sabotage
        )
    if args.model == "rel":
        from .wrel import make_rel_binding

        return make_rel_binding(RIGS[args.semiring], base_size=args.base_size, truncation=args.truncation)
    # numpy is imported by the numerical model only
    from . import smoothnum

    given = {k: getattr(args, k) for k in ("order", "tol_rel") if getattr(args, k) is not None}
    return smoothnum.make_smooth_binding(smoothnum.QuadratureConfig(**given), max_dim=args.dim)


# a bad flag value, an unwritable output, a malformed expression (exprcalc's errors are ValueErrors),
# or an operator's weights over a rig such as the naturals
USAGE_ERRORS = (ValueError, OSError, NotInvertible)


def _usage_error(exc: Exception) -> int:
    """Print the one `dctool:` line of a usage error and return its exit code, 2."""
    hint = f"; {NOT_INVERTIBLE_HINT}" if isinstance(exc, NotInvertible) else ""
    print(f"dctool: {exc}{hint}", file=sys.stderr)
    return 2


def run_check(args) -> int:
    try:
        binding = _make_binding(args)
        # open the output first, so an unwritable path fails before any law runs
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as stream:
            reports = lawsuite.run_suite(binding, cases=args.cases, seed=args.seed)
            if args.format == "json":
                json.dump(report_payload(binding, reports, args.seed), stream, indent=2)
                stream.write("\n")
            else:
                render_text_report(binding, reports, stream)
    except USAGE_ERRORS as exc:
        return _usage_error(exc)
    return 0 if lawsuite.all_pass(reports) else 1


def run_calc(args) -> int:
    from . import exprcalc
    from .polyform import PolyBundle

    try:
        value = exprcalc.eval_expr(args.expr, RIGS[args.semiring], arity=args.vars)
        if args.coord is not None:
            coords = value.components if isinstance(value, PolyBundle) else (value,)
            if not 1 <= args.coord <= len(coords):
                raise ValueError(f"--coord must be between 1 and {len(coords)}")
            value = coords[args.coord - 1]
    except USAGE_ERRORS as exc:
        return _usage_error(exc)
    print(value.render())
    return 0


def run_list_laws(args) -> int:
    if args.format == "json":
        payload = [
            {"id": law.id, "name": law.name, "citation": law.citation} for law in lawsuite.LAWS
        ]
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for law in lawsuite.LAWS:
            print(f"{law.id:<4} {law.name:<40} {law.citation}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "check":
        return run_check(args)
    if args.subcommand == "poly":
        return run_calc(args)
    return run_list_laws(args)


if __name__ == "__main__":
    sys.exit(main())
