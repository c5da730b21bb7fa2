"""Command-line frontend.

One subcommand per invocation; exact rationals are printed as "p/q" (JSON
mode) with a 6-significant-digit decimal alongside in text mode.  JSON output
is byte-stable across identical invocations: no timestamps, sorted keys.

Each subcommand handler returns its JSON payload and its text lines, and
prints nothing: `main` alone prints one of the two and picks the exit code.

Exit codes: 0 success, 2 input error, 3 precondition violation, 4 internal
invariant failure or a failed self-test check.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
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


def _decimal(v: Fraction) -> str:
    """v to 6 significant digits, the decimal that text mode prints beside v's p/q."""
    if v and not 2.0**-1074 <= abs(v) <= sys.float_info.max:
        # past float range: round the exact value, a Decimal's exponent is unbounded
        exact = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
        return f"{exact.divide(v.numerator, v.denominator).normalize(exact):.6g}"
    return f"{float(v):.6g}"


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


def _terms_json(poly: HomogeneousPolynomial | GeneralPolynomial) -> list[dict]:
    keys = sorted(poly.terms, key=lambda b: (sum(b), b))
    return [{"exponents": list(b), "coefficient": _rat(poly.terms[b])} for b in keys]


def _terms_text(poly: HomogeneousPolynomial | GeneralPolynomial, terms: list[dict]) -> str:
    """One line a term of `terms`, poly's `_terms_json`, reusing its p/q strings;
    an empty form still prints its (empty) line."""
    keys = (tuple(term["exponents"]) for term in terms)
    return "\n".join(f"  x^{b}: {term['coefficient']} ({_decimal(poly.terms[b])})" for b, term in zip(keys, terms))


def _certificate_text(cert: BoundCertificate, shown: dict) -> Iterator[str]:
    """cert's text lines, around the p/q strings of `shown`, its `to_json_dict()`."""
    yield f"theorem:     {cert.theorem}"
    yield f"n, d, r:     {cert.n}, {cert.d}, {cert.r}"
    yield f"grid value:  {shown['grid_value']} ({_decimal(cert.grid_value)})"
    yield f"bound value: {shown['bound_value']} ({_decimal(cert.bound_value)})"
    yield f"range:       [{shown['range']['lower']}, {shown['range']['upper']}] ({cert.range.provenance})"
    yield f"gap:         {shown['gap']} ({_decimal(cert.gap)})"
    yield f"satisfied:   {cert.satisfied}"
    if cert.ratio is not None:
        yield f"ratio:       {shown['ratio']} ({_decimal(cert.ratio)})"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


# Each handler returns (payload, lines): the dict that --json prints, and the
# text lines, made lazily from the payload's p/q strings, so that each mode
# formats only what it prints.
_Output = tuple[dict, Iterator[str]]


def _cmd_grid_min(args: argparse.Namespace) -> _Output:
    f = parse_polynomial(args.polynomial, args.n)
    scan = grid_maximize if args.max else grid_minimize
    start = perf_counter()
    gm = scan(f, args.r)
    elapsed = perf_counter() - start
    mode = "max" if args.max else "min"
    payload = {
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

    def lines() -> Iterator[str]:
        yield f"grid {mode} over order-{args.r} grid, n={f.n}"
        yield f"value:       {payload['value']} ({_decimal(gm.value)})"
        yield f"argmin:      alpha={tuple(gm.argmin.alpha)}  point=({', '.join(payload['argmin']['point'])})"
        yield f"evaluations: {gm.evaluations}"
        yield f"wall time:   {elapsed:.3f} s"
    return payload, lines()


def _cmd_bernstein(args: argparse.Namespace) -> _Output:
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

    def lines() -> Iterator[str]:
        yield f"Bernstein approximation of order {args.r} (route: {args.route})"
        if homogeneous is not None:
            yield f"degree-{args.r} homogeneous form ({len(homogeneous.terms)} terms):"
            yield _terms_text(homogeneous, payload["homogeneous_terms"])
        if reduced is not None:
            yield f"reduced simplex form (degree <= {f.d}):"
            yield _terms_text(reduced, payload["reduced_terms"])
        if value is not None:
            yield f"value at ({', '.join(payload['eval']['point'])}): {payload['eval']['value']} ({_decimal(value)})"
    return payload, lines()


_THEOREM_FLAGS = {entry.flag: name for name, entry in THEOREMS.items()}


def _cmd_bound(args: argparse.Namespace) -> _Output:
    f = parse_polynomial(args.polynomial, args.n)
    theorem = _select_theorem(f) if args.theorem == "auto" else _THEOREM_FLAGS[args.theorem]
    rng_input = coefficient_range(f) if args.range == "auto" else _parse_range(args.range)
    certs = THEOREMS[theorem].certificates(f, args.r, rng_input)
    payload = {"command": "bound", "certificates": [c.to_json_dict() for c in certs]}

    def lines() -> Iterator[str]:
        for i, (cert, shown) in enumerate(zip(certs, payload["certificates"])):
            if i:
                yield ""
            yield from _certificate_text(cert, shown)
    return payload, lines()


def _cmd_ptas(args: argparse.Namespace) -> _Output:
    f = parse_polynomial(args.polynomial, args.n)
    epsilon = _parse_rational(args.epsilon, "accuracy")
    rng_input = _parse_range(args.range) if args.range is not None else None
    point, value, cert = ptas_approximate(f, epsilon, rng_input)
    payload = {
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

    def lines() -> Iterator[str]:
        yield f"accuracy target: {payload['epsilon']}"
        yield f"bound family:    {cert.theorem}"
        yield f"grid order r:    {cert.r}"
        yield f"point:           alpha={tuple(point.alpha)}  x=({', '.join(payload['point']['coordinates'])})"
        yield f"value:           {payload['value']} ({_decimal(value)})"
        yield from _certificate_text(cert, payload["certificate"])
    return payload, lines()


def _cmd_moments(args: argparse.Namespace) -> _Output:
    beta = _parse_int_list(args.beta, "moment order")
    x = _parse_rational_list(args.x, "distribution")
    direct = moment_direct(args.n, args.r, beta, x)
    closed = moment_stirling(args.n, args.r, beta, x)
    if direct != closed:
        raise _InternalError(
            f"moment mismatch for beta={beta}: direct={_rat(direct)} stirling={_rat(closed)}"
        )
    payload = {
        "command": "moments",
        "n": args.n,
        "r": args.r,
        "beta": list(beta),
        "x": [_rat(v) for v in x],
        "direct": _rat(direct),
        "stirling": _rat(closed),
        "equal": True,
    }

    def lines() -> Iterator[str]:
        yield f"moment of order {tuple(beta)} with r={args.r} trials"
        yield f"binomial chain:     {payload['direct']} ({_decimal(direct)})"
        yield f"Stirling form:      {payload['stirling']} ({_decimal(closed)})"
        yield "routes agree exactly"
    return payload, lines()


def _cmd_stable_set(args: argparse.Namespace) -> _Output:
    try:
        with open(args.graphfile, encoding="utf-8") as handle:
            adjacency = parse_graph(handle.read())
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read graph file {args.graphfile!r}: {exc}") from exc
    n = len(adjacency)
    brute = brute_force_stable_set_number(adjacency) if args.brute else None
    alpha_lower, f_grid, cert = stable_set_bounds(adjacency, args.r)
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

    def lines() -> Iterator[str]:
        yield f"graph on {n} vertices, order-{args.r} grid"
        yield f"grid minimum of the stable-set form: {payload['grid_value']} ({_decimal(f_grid)})"
        yield f"stable-set number lower bound:       {alpha_lower}"
        if brute is not None:
            yield f"stable-set number (brute force):     {brute}"
        yield from _certificate_text(cert, payload["certificate"])
    return payload, lines()


def _cmd_selftest(args: argparse.Namespace) -> _Output:
    results = run_selftest(deep=args.deep, seed=args.seed)
    payload = {
        "command": "selftest",
        "deep": args.deep,
        "checks": [
            {"name": res.name, "passed": res.passed, "detail": res.detail()}
            for res in results
        ],
        "passed": all(res.passed for res in results),
    }
    lines = (
        f"ok   {check['name']}" if check["passed"] else f"FAIL {check['name']}: {check['detail']}"
        for check in payload["checks"]
    )
    return payload, lines


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
        payload, lines = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else "\n".join(lines))
    except (_InputError, ParseError, OSError) as exc:  # ahead of ValueError: a ParseError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 4 if payload.get("passed") is False else 0  # "passed" false: a failed self-test check


if __name__ == "__main__":
    sys.exit(main())
