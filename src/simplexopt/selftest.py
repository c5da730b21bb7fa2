"""Built-in consistency suites.

Runs the combinatorial identity sweeps and the cross-route equivalences
(moments, Bernstein routes) over documented ranges; --deep widens them.
Failures carry both side values so a broken identity is immediately
diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from random import Random

from .bernstein import (
    _check_simplex_point,
    _direct_sums,
    _require_stirling,
    _stirling_sums,
    _stirling_weights,
    bernstein_closed_form,
    bernstein_cubic,
    bernstein_definitional,
    bernstein_quadratic,
    bernstein_squarefree,
)
from .combinatorics import (
    compositions,
    falling_sum_sides,
    stirling2,
    stirling_split_sides,
    surjection_count,
)
from .grid import MAX_EXPANDED_POINTS, _require_grid, composition_unrank, grid_size, sample_grid_points
from .polynomial import HomogeneousPolynomial, evaluate, is_square_free


@dataclass
class CheckResult:
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)

    def detail(self) -> str:
        return "; ".join(self.failures[:5])


def _random_polynomial(
    rng: Random, n: int, d: int, max_terms: int = 6, square_free: bool = False
) -> HomogeneousPolynomial:
    """Random sparse polynomial with up to max_terms small rational
    coefficients."""
    terms = {}
    population = comb(n, d) if square_free else grid_size(n, d)
    want = rng.randint(1, min(max_terms, population))
    while len(terms) < want:
        if square_free:
            support = rng.sample(range(n), d)
            beta = tuple(1 if i in support else 0 for i in range(n))
        else:
            beta = composition_unrank(n, d, rng.randrange(grid_size(n, d)))
        numer = rng.randint(-9, 9) or 1
        terms[beta] = Fraction(numer, rng.randint(1, 9))
    return HomogeneousPolynomial(n, d, terms)


def check_falling_sum(max_d: int, max_r: int) -> CheckResult:
    failures = []
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            lhs, rhs = falling_sum_sides(d, r)
            if lhs != rhs:
                failures.append(f"d={d} r={r}: lhs={lhs} rhs={rhs}")
    return CheckResult(f"falling-factorial sum identity (d<={max_d}, r<={max_r})", not failures, failures)


def check_stirling_split(max_n: int, max_k: int, max_d: int) -> CheckResult:
    failures = []
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            for alpha in compositions(n, k):
                for d in range(k + 1, max_d + 1):
                    lhs, rhs = stirling_split_sides(alpha, d)
                    if lhs != rhs:
                        failures.append(f"alpha={alpha} d={d}: lhs={lhs} rhs={rhs}")
    return CheckResult(
        f"Stirling splitting identity (n<={max_n}, |alpha|<={max_k}, d<={max_d})",
        not failures,
        failures,
    )


def check_surjections(max_d: int) -> CheckResult:
    failures = []
    for d in range(0, max_d + 1):
        for k in range(0, d + 1):
            brute = surjection_count(d, k)
            closed = factorial(k) * stirling2(d, k)
            if brute != closed:
                failures.append(f"d={d} k={k}: enumerated={brute} k!*S={closed}")
    return CheckResult(f"surjection count vs k!*S(d,k) (d<={max_d})", not failures, failures)


def check_moment_equivalence(max_n: int, max_r: int, max_beta: int, points: int, rng: Random) -> CheckResult:
    """Both moment routes at every order |beta| <= max_beta, one walk each per
    point, the Stirling weights built once per (n, r): the direct total d
    over D^r and the Stirling total s over D^|beta| agree when
    d * D^|beta| == s * D^r."""
    failures = []
    for n in range(1, max_n + 1):
        betas = [b for total in range(0, max_beta + 1) for b in compositions(n, total)]
        _require_stirling(betas, n)
        for r in range(1, max_r + 1):
            _require_grid(n, r, MAX_EXPANDED_POINTS, "the direct moment sum")
            weighted = [(sum(beta), list(_stirling_weights(beta, r))) for beta in betas]
            for x in sample_grid_points(n, points, rng):
                a, den = _check_simplex_point(n, x)
                direct, closed = _direct_sums(a, r, betas), _stirling_sums(a, den, weighted)
                for beta, d, s in zip(betas, direct, closed):
                    depth = sum(beta)
                    if d * den**depth != s * den**r:
                        failures.append(
                            f"n={n} r={r} beta={beta} x={x}: direct={Fraction(d, den**r)} stirling={Fraction(s, den**depth)}"
                        )
    return CheckResult(
        f"moment route equivalence (n<={max_n}, r<={max_r}, |beta|<={max_beta})",
        not failures,
        failures,
    )


def check_route_agreement(cases: int, max_n: int, max_d: int, max_r: int, points: int, rng: Random) -> CheckResult:
    failures = []
    for _ in range(cases):
        n = rng.randint(1, max_n)
        d = rng.randint(1, max_d)
        r = rng.randint(1, max_r)
        f = _random_polynomial(rng, n, d)
        definitional = bernstein_definitional(f, r).homogeneous
        closed = bernstein_closed_form(f, r).reduced
        for x in sample_grid_points(n, points, rng):
            a, b = evaluate(definitional, x), evaluate(closed, x)
            if a != b:
                failures.append(f"n={n} d={d} r={r} x={x}: definitional={a} closed={b}")
    return CheckResult(
        f"Bernstein route agreement ({cases} cases, n<={max_n}, d<={max_d}, r<={max_r})",
        not failures,
        failures,
    )


def check_specialized_routes(cases: int, max_r: int, rng: Random) -> CheckResult:
    failures = []
    for _ in range(cases):
        r = rng.randint(1, max_r)
        n = rng.randint(2, 4)
        quad = _random_polynomial(rng, n, 2)
        if bernstein_quadratic(quad, r).reduced.terms != bernstein_closed_form(quad, r).reduced.terms:
            failures.append(f"quadratic n={n} r={r}: {quad.terms}")
        cubic = _random_polynomial(rng, n, 3)
        if bernstein_cubic(cubic, r).reduced.terms != bernstein_closed_form(cubic, r).reduced.terms:
            failures.append(f"cubic n={n} r={r}: {cubic.terms}")
        d = rng.randint(1, min(3, n))
        sqf = _random_polynomial(rng, n, d, square_free=True)
        assert is_square_free(sqf)
        if bernstein_squarefree(sqf, r).reduced.terms != bernstein_closed_form(sqf, r).reduced.terms:
            failures.append(f"squarefree n={n} d={d} r={r}: {sqf.terms}")
    return CheckResult(f"specialized routes vs closed form ({cases} cases)", not failures, failures)


def run_selftest(deep: bool = False, seed: int = 0) -> list[CheckResult]:
    rng = Random(seed)
    suite = [  # (check, arguments, --deep arguments), run in this order
        (check_falling_sum, (8, 20), (10, 40)),
        (check_stirling_split, (3, 4, 6), (3, 5, 7)),
        (check_surjections, (8,), (9,)),
        (check_moment_equivalence, (3, 5, 4, 5, rng), (4, 8, 6, 10, rng)),
        (check_route_agreement, (10, 3, 3, 5, 10, rng), (25, 4, 4, 8, 10, rng)),
        (check_specialized_routes, (10, 6, rng), (25, 8, rng)),
    ]
    return [check(*(deep_args if deep else args)) for check, args, deep_args in suite]
