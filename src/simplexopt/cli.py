"""Command-line frontend.

One subcommand per invocation; exact rationals are printed as "p/q" (JSON
mode) with a 6-significant-digit decimal alongside in text mode.  JSON output
is byte-stable across identical invocations: no timestamps, sorted keys.

Exit codes: 0 success, 2 input error, 3 precondition violation, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from random import Random
from time import perf_counter

from .bernstein import _check_simplex_point, bernstein_closed_form, bernstein_definitional, moment_direct, moment_stirling
from .bounds import (
    MAX_BRUTE_VERTICES,
    THEOREMS,
    BoundCertificate,
    RangeInput,
    _select_theorem,
    brute_force_stable_set_number,
    coefficient_range,
    exact_range,
    ptas_approximate,
    stable_set_bounds,
)
from .grid import grid_maximize, grid_minimize, sample_grid_points
from .polynomial import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    ParseError,
    _rat,
    evaluate,
    parse_graph,
    parse_polynomial,
)
from .selftest import run_selftest


class _InputError(Exception):
    pass


class _InternalError(Exception):
    pass


def _rat_text(v: Fraction) -> str:
    if v and not 2.0**-1074 <= abs(v) <= sys.float_info.max:
        # past float range: round the exact value, a Decimal's exponent is unbounded
        exact = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
        return f"{_rat(v)} ({exact.divide(v.numerator, v.denominator).normalize(exact):.6g})"
    return f"{_rat(v)} ({float(v):.6g})"


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_rational_list(text: str, what: str) -> list[Fraction]:
    return [_parse_rational(part, what) for part in text.split(",")]


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise _InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_range(text: str) -> RangeInput:
    bounds = _parse_rational_list(text, "range")
    if len(bounds) != 2:
        raise _InputError(f"--range expects 'L,U', got {text!r}")
    return exact_range(bounds[0], bounds[1])


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _terms_json(poly: HomogeneousPolynomial | GeneralPolynomial) -> list[dict]:
    keys = sorted(poly.terms, key=lambda b: (sum(b), b))
    return [{"exponents": list(b), "coefficient": _rat(poly.terms[b])} for b in keys]


def _terms_text(poly: HomogeneousPolynomial | GeneralPolynomial) -> list[str]:
    keys = sorted(poly.terms, key=lambda b: (sum(b), b))
    return [f"  x^{tuple(b)}: {_rat_text(poly.terms[b])}" for b in keys]


def _certificate_text(cert: BoundCertificate) -> list[str]:
    lines = [
        f"theorem:     {cert.theorem}",
        f"n, d, r:     {cert.n}, {cert.d}, {cert.r}",
        f"grid value:  {_rat_text(cert.grid_value)}",
        f"bound value: {_rat_text(cert.bound_value)}",
        f"range:       [{_rat(cert.range.lower)}, {_rat(cert.range.upper)}] ({cert.range.provenance})",
        f"gap:         {_rat_text(cert.gap)}",
        f"satisfied:   {cert.satisfied}",
    ]
    if cert.ratio is not None:
        lines.append(f"ratio:       {_rat_text(cert.ratio)}")
    return lines


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_grid_min(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial, args.n)
    scan = grid_maximize if args.max else grid_minimize
    start = perf_counter()
    gm = scan(f, args.r)
    elapsed = perf_counter() - start
    mode = "max" if args.max else "min"
    if args.json:
        _emit_json(
            {
                "command": "grid-min",
                "mode": mode,
                "n": f.n,
                "r": args.r,
                "value": _rat(gm.value),
                "argmin": {
                    "alpha": list(gm.argmin.alpha),
                    "point": [_rat(c) for c in gm.argmin.coordinates()],
                },
                "evaluations": gm.evaluations,
            }
        )
    else:
        print(f"grid {mode} over order-{args.r} grid, n={f.n}")
        print(f"value:       {_rat_text(gm.value)}")
        print(f"argmin:      alpha={tuple(gm.argmin.alpha)}  point=({', '.join(_rat(c) for c in gm.argmin.coordinates())})")
        print(f"evaluations: {gm.evaluations}")
        print(f"wall time:   {elapsed:.3f} s")
    return 0


def _cmd_bernstein(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial, args.n)
    point = _parse_rational_list(args.eval, "evaluation point") if args.eval else None
    if point is not None:  # off the simplex the routes' forms differ
        _check_simplex_point(f.n, point)
    homogeneous = reduced = None
    if args.route in ("def", "auto"):
        homogeneous = bernstein_definitional(f, args.r).homogeneous
    if args.route in ("closed", "auto"):
        reduced = bernstein_closed_form(f, args.r).reduced
    if args.route == "auto":
        rng = Random(args.seed)
        for x in sample_grid_points(f.n, 10, rng):
            a, b = evaluate(homogeneous, x), evaluate(reduced, x)
            if a != b:
                raise _InternalError(
                    f"route disagreement at {tuple(map(str, x))}: definitional={_rat(a)} closed={_rat(b)}"
                )
    shown = reduced if reduced is not None else homogeneous
    value = evaluate(shown, point) if point is not None else None
    payload: dict = {"command": "bernstein", "route": args.route, "n": f.n, "r": args.r}
    if homogeneous is not None:
        payload["homogeneous_terms"] = _terms_json(homogeneous)
    if reduced is not None:
        payload["reduced_terms"] = _terms_json(reduced)
    if value is not None:
        payload["eval"] = {"point": [_rat(c) for c in point], "value": _rat(value)}
    if args.json:
        _emit_json(payload)
    else:
        print(f"Bernstein approximation of order {args.r} (route: {args.route})")
        if homogeneous is not None:
            print(f"degree-{args.r} homogeneous form ({len(homogeneous.terms)} terms):")
            print("\n".join(_terms_text(homogeneous)))
        if reduced is not None:
            print(f"reduced simplex form (degree <= {f.d}):")
            print("\n".join(_terms_text(reduced)))
        if value is not None:
            print(f"value at ({', '.join(_rat(c) for c in point)}): {_rat_text(value)}")
    return 0


_THEOREM_FLAGS = {entry.flag: name for name, entry in THEOREMS.items()}


def _cmd_bound(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial, args.n)
    theorem = _select_theorem(f) if args.theorem == "auto" else _THEOREM_FLAGS[args.theorem]
    rng_input = coefficient_range(f) if args.range == "auto" else _parse_range(args.range)
    certs = THEOREMS[theorem].certificates(f, args.r, rng_input)
    if args.json:
        _emit_json({"command": "bound", "certificates": [c.to_json_dict() for c in certs]})
    else:
        for i, cert in enumerate(certs):
            if i:
                print()
            print("\n".join(_certificate_text(cert)))
    return 0


def _cmd_ptas(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial, args.n)
    epsilon = _parse_rational(args.epsilon, "accuracy")
    rng_input = _parse_range(args.range) if args.range is not None else None
    point, value, cert = ptas_approximate(f, epsilon, rng_input)
    if args.json:
        _emit_json(
            {
                "command": "ptas",
                "epsilon": _rat(epsilon),
                "theorem": cert.theorem,
                "r": cert.r,
                "point": {
                    "alpha": list(point.alpha),
                    "coordinates": [_rat(c) for c in point.coordinates()],
                },
                "value": _rat(value),
                "certificate": cert.to_json_dict(),
            }
        )
    else:
        print(f"accuracy target: {_rat(epsilon)}")
        print(f"bound family:    {cert.theorem}")
        print(f"grid order r:    {cert.r}")
        print(f"point:           alpha={tuple(point.alpha)}  x=({', '.join(_rat(c) for c in point.coordinates())})")
        print(f"value:           {_rat_text(value)}")
        print("\n".join(_certificate_text(cert)))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    beta = _parse_int_list(args.beta, "moment order")
    x = _parse_rational_list(args.x, "distribution")
    direct = moment_direct(args.n, args.r, beta, x)
    closed = moment_stirling(args.n, args.r, beta, x)
    if direct != closed:
        raise _InternalError(
            f"moment mismatch for beta={beta}: direct={_rat(direct)} stirling={_rat(closed)}"
        )
    if args.json:
        _emit_json(
            {
                "command": "moments",
                "n": args.n,
                "r": args.r,
                "beta": list(beta),
                "x": [_rat(v) for v in x],
                "direct": _rat(direct),
                "stirling": _rat(closed),
                "equal": True,
            }
        )
    else:
        print(f"moment of order {tuple(beta)} with r={args.r} trials")
        print(f"binomial chain:     {_rat_text(direct)}")
        print(f"Stirling form:      {_rat_text(closed)}")
        print("routes agree exactly")
    return 0


def _cmd_stable_set(args: argparse.Namespace) -> int:
    try:
        with open(args.graphfile, encoding="utf-8") as handle:
            adjacency = parse_graph(handle.read())
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read graph file {args.graphfile!r}: {exc}") from exc
    n = len(adjacency)
    brute = brute_force_stable_set_number(adjacency) if args.brute else None
    alpha_lower, f_grid, cert = stable_set_bounds(adjacency, args.r)
    if args.json:
        payload = {
            "command": "stable-set",
            "n": n,
            "r": args.r,
            "grid_value": _rat(f_grid),
            "alpha_lower": alpha_lower,
            "certificate": cert.to_json_dict(),
        }
        if brute is not None:
            payload["alpha_exact"] = brute
        _emit_json(payload)
    else:
        print(f"graph on {n} vertices, order-{args.r} grid")
        print(f"grid minimum of the stable-set form: {_rat_text(f_grid)}")
        print(f"stable-set number lower bound:       {alpha_lower}")
        if brute is not None:
            print(f"stable-set number (brute force):     {brute}")
        print("\n".join(_certificate_text(cert)))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(deep=args.deep, seed=args.seed)
    if args.json:
        _emit_json(
            {
                "command": "selftest",
                "deep": args.deep,
                "checks": [
                    {"name": res.name, "passed": res.passed, "detail": res.detail()}
                    for res in results
                ],
                "passed": all(res.passed for res in results),
            }
        )
    else:
        for res in results:
            mark = "ok  " if res.passed else "FAIL"
            detail = f": {res.detail()}" if not res.passed else ""
            print(f"{mark} {res.name}{detail}")
    return 0 if all(res.passed for res in results) else 4


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    parser = argparse.ArgumentParser(
        prog="simplexopt",
        description="Exact grid minimization over the standard simplex with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def poly_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument(
            "polynomial",
            help="homogeneous polynomial, e.g. '2*x1^2 + x2^2 - 5*x1*x2' "
            "(start with a space, ' -x1*x2', when the first term is negative)",
        )
        cmd.add_argument("--n", type=int, required=True, help="number of variables")
        return cmd

    cmd = poly_command("grid-min", "minimize (or maximize) over a regular grid")
    cmd.add_argument("--r", type=int, required=True, help="grid order")
    cmd.add_argument("--max", action="store_true", help="maximize instead of minimize")
    cmd.set_defaults(func=_cmd_grid_min)

    cmd = poly_command("bernstein", "compute the Bernstein approximation")
    cmd.add_argument("--seed", type=int, default=0, help="seed for the route-agreement sample points")
    cmd.add_argument("--r", type=int, required=True, help="approximation order")
    cmd.add_argument("--route", choices=("def", "closed", "auto"), default="auto")
    cmd.add_argument(
        "--eval",
        metavar="X",
        help="evaluate the computed form at a point of the standard simplex, e.g. '1/2,1/2' "
        "(all routes agree there; a point off it exits 3)",
    )
    cmd.set_defaults(func=_cmd_bernstein)

    cmd = poly_command("bound", "emit an error-bound certificate")
    cmd.add_argument("--r", type=int, required=True, help="grid order")
    cmd.add_argument("--theorem", choices=("auto", *_THEOREM_FLAGS), default="auto")
    cmd.add_argument("--range", default="auto", help="'auto' (coefficient range) or exact 'L,U'")
    cmd.set_defaults(func=_cmd_bound)

    cmd = poly_command("ptas", "choose a grid order for a target accuracy and solve")
    cmd.add_argument("--epsilon", required=True, help="relative accuracy in (0,1], e.g. '1/10'")
    cmd.add_argument("--range", default=None, help="exact range 'L,U' (default: coefficient range)")
    cmd.set_defaults(func=_cmd_ptas)

    cmd = sub.add_parser("moments", parents=[common], help="multinomial moments, both routes")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--r", type=int, required=True)
    cmd.add_argument("--beta", required=True, help="moment order, e.g. '2,0'")
    cmd.add_argument("--x", required=True, help="cell probabilities, e.g. '1/3,2/3'")
    cmd.set_defaults(func=_cmd_moments)

    cmd = sub.add_parser("stable-set", parents=[common], help="stable-set lower bound from a graph file")
    cmd.add_argument("graphfile", help="DIMACS-like edge list: 'p <n> <m>' then 'e <i> <j>' lines")
    cmd.add_argument("--r", type=int, required=True)
    cmd.add_argument(
        "--brute", action="store_true", help=f"also compute the exact stable-set number (n <= {MAX_BRUTE_VERTICES})"
    )
    cmd.set_defaults(func=_cmd_stable_set)

    cmd = sub.add_parser("selftest", parents=[common], help="run the built-in identity suites")
    cmd.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    cmd.add_argument("--deep", action="store_true", help="widen the sweep ranges")
    cmd.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ParseError, OSError) as exc:  # ahead of ValueError: a ParseError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
