"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time
from fractions import Fraction
from random import Random

from simplexopt import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    bernstein_closed_form,
    bernstein_cubic,
    bernstein_definitional,
    bernstein_excess_on_grid,
    bernstein_quadratic,
    bernstein_squarefree,
    bound_cubic,
    bound_general,
    bound_quadratic,
    bound_squarefree,
    coefficient_range,
    compositions,
    equal_on_simplex,
    evaluate,
    grid_minimize,
    is_square_free,
    moment_direct,
    moment_stirling,
    monte_carlo_bernstein,
    parse_polynomial,
    sample_grid_points,
    stirling2,
    sum_of_powers_grid_min,
    surjection_count,
)
from simplexopt.combinatorics import falling_sum_sides, stirling_split_sides
from conftest import random_polynomial

F = Fraction


def sum_of_powers(n, d):
    return HomogeneousPolynomial(
        n, d, {tuple(d if j == i else 0 for j in range(n)): F(1) for i in range(n)}
    )


class _Budget:
    def __init__(self, label, limit_seconds):
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"{self.label} took {self.elapsed:.2f}s, budget {self.limit}s"
            )
            print(f"\n[{self.label}] PASS ({self.elapsed:.2f}s < {self.limit}s)")
        return False


def test_criterion_01_quadratic_example_golden():
    with _Budget("criterion 1: quadratic worked example", 1.0):
        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        true_min = F(-17, 32)
        assert evaluate(f, [F(7, 16), F(9, 16)]) == true_min

        gm = grid_minimize(f, 2)
        assert gm.value == F(-1, 2)
        assert gm.argmin.alpha == (1, 1)
        assert gm.argmin.coordinates() == (F(1, 2), F(1, 2))

        expected = GeneralPolynomial(
            2,
            {(2, 0): F(1), (0, 2): F(1, 2), (1, 1): F(-5, 2), (1, 0): F(1), (0, 1): F(1, 2)},
        )
        quad_route = bernstein_quadratic(f, 2).reduced
        defi_route = bernstein_definitional(f, 2).homogeneous
        rng = Random(1)
        for x in sample_grid_points(2, 20, rng):
            want = evaluate(expected, x)
            assert evaluate(quad_route, x) == want
            assert evaluate(defi_route, x) == want

        inner_min_witness = [F(3, 8), F(5, 8)]
        assert evaluate(quad_route, inner_min_witness) == F(7, 16)

        # strict inequality chain, each leg exact
        grid_gap = gm.value - true_min
        assert grid_gap == F(1, 32)
        smoothed_gap = evaluate(quad_route, inner_min_witness) - true_min
        assert smoothed_gap == F(31, 32)
        excess_witness = [F(1, 2), F(1, 2)]
        max_excess = evaluate(quad_route, excess_witness) - evaluate(f, excess_witness)
        assert max_excess == F(1)
        grid_excess, witness = bernstein_excess_on_grid(f, 2, verify_order=64)
        assert grid_excess == F(1) and witness.alpha == (32, 32)
        true_max = evaluate(f, [F(1), F(0)])
        assert true_max == F(2)
        half_span = (true_max - true_min) / 2
        assert half_span == F(81, 64)
        assert grid_gap < smoothed_gap < max_excess < half_span


def test_criterion_02_sum_of_squares_family():
    with _Budget("criterion 2: sum-of-squares grid family", 5.0):
        for n in (2, 3, 4, 5):
            f = sum_of_powers(n, 2)
            for r in range(1, 13):
                k, s = divmod(r, n)
                expected = F(1, n) + F(s * (n - s), n * r * r)
                assert grid_minimize(f, r).value == expected
                assert sum_of_powers_grid_min(n, r, 2) == expected
        for n, r in ((2, 3), (4, 6), (6, 9)):
            gap = grid_minimize(sum_of_powers(n, 2), r).value - F(1, n)
            assert gap == (1 - F(1, n)) / (6 * r - 9)


def test_criterion_03_parity_examples():
    with _Budget("criterion 3: cubic and square-free parity", 1.0):
        cubic = parse_polynomial("x1^3 + x2^3", 2)
        crossed = parse_polynomial("-x1*x2", 2)
        for r in range(2, 13):
            expected_cubic = F(1, 4) + (F(3, 4 * r * r) if r % 2 else 0)
            assert grid_minimize(cubic, r).value == expected_cubic
            expected_crossed = F(-1, 4) + (F(1, 4 * r * r) if r % 2 else 0)
            assert grid_minimize(crossed, r).value == expected_crossed

            cubic_form = bernstein_cubic(cubic, r).reduced
            target = GeneralPolynomial(2, {(0, 0): F(1), (1, 1): F(3, r) - 3})
            assert equal_on_simplex(cubic_form, target)

            crossed_form = bernstein_squarefree(crossed, r).reduced
            assert crossed_form.terms == {(1, 1): -F(r - 1, r)}


def test_criterion_04_degree_power_ratio_bound():
    with _Budget("criterion 4: degree-d power-sum ratio bound", 5.0):
        for d in (3, 4):
            for n in (2, 3):
                true_min = F(1, n ** (d - 1))
                span = 1 - true_min
                f = sum_of_powers(n, d)
                for r in range(n, 13):
                    value = grid_minimize(f, r).value
                    assert value == sum_of_powers_grid_min(n, r, d)
                    ratio = (value - true_min) / span
                    assert ratio <= F(2**d, r * r)


def test_criterion_05_identity_suites():
    with _Budget("criterion 5: combinatorial identity suites", 10.0):
        for d in range(1, 9):
            for r in range(1, 21):
                lhs, rhs = falling_sum_sides(d, r)
                assert lhs == rhs
        for n in range(1, 4):
            for k in range(1, 5):
                for alpha in compositions(n, k):
                    for d in range(k + 1, 7):
                        lhs, rhs = stirling_split_sides(alpha, d)
                        assert lhs == rhs
        fact = 1
        for d in range(0, 9):
            for k in range(0, d + 1):
                fact_k = 1
                for i in range(1, k + 1):
                    fact_k *= i
                assert surjection_count(d, k) == fact_k * stirling2(d, k)
        del fact


def test_criterion_06_route_equivalence():
    with _Budget("criterion 6: Bernstein route equivalence", 60.0):
        rng = Random(606)
        for case in range(100):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            r = rng.randint(1, 8)
            f = random_polynomial(rng, n, d)
            definitional = bernstein_definitional(f, r).homogeneous
            closed = bernstein_closed_form(f, r).reduced
            for x in sample_grid_points(n, 50, rng):
                assert evaluate(definitional, x) == evaluate(closed, x)
        for case in range(40):
            n = rng.randint(2, 4)
            r = rng.randint(1, 8)
            quad = random_polynomial(rng, n, 2)
            assert (
                bernstein_quadratic(quad, r).reduced.terms
                == bernstein_closed_form(quad, r).reduced.terms
            )
            cubic = random_polynomial(rng, n, 3)
            assert (
                bernstein_cubic(cubic, r).reduced.terms
                == bernstein_closed_form(cubic, r).reduced.terms
            )
            sqf = random_polynomial(rng, n, rng.randint(1, n), square_free=True)
            assert is_square_free(sqf)
            assert (
                bernstein_squarefree(sqf, r).reduced.terms
                == bernstein_closed_form(sqf, r).reduced.terms
            )


def test_criterion_07_moment_equivalence():
    with _Budget("criterion 7: moment route equivalence", 60.0):
        rng = Random(707)
        for n in range(1, 5):
            betas = [b for total in range(0, 7) for b in compositions(n, total)]
            for r in range(1, 9):
                for x in sample_grid_points(n, 20, rng):
                    for beta in betas:
                        assert moment_direct(n, r, beta, x) == moment_stirling(n, r, beta, x)


def test_criterion_08_certificate_soundness():
    with _Budget("criterion 8: certificate soundness under surrogates", 120.0):
        rng = Random(808)
        for _ in range(200):
            n = rng.randint(2, 4)
            quad = random_polynomial(rng, n, 2)
            cert = bound_quadratic(quad, rng.randint(1, 8), coefficient_range(quad))
            assert cert.satisfied, f"quadratic false violation: {quad.terms}"
        for _ in range(200):
            n = rng.randint(2, 4)
            cubic = random_polynomial(rng, n, 3)
            cert = bound_cubic(cubic, rng.randint(2, 8), coefficient_range(cubic))
            assert cert.satisfied, f"cubic false violation: {cubic.terms}"
        for _ in range(200):
            n = rng.randint(2, 4)
            sqf = random_polynomial(rng, n, rng.randint(1, n), square_free=True)
            cert = bound_squarefree(sqf, rng.randint(1, 8), coefficient_range(sqf))
            assert cert.satisfied, f"square-free false violation: {sqf.terms}"
        for _ in range(200):
            n = rng.randint(2, 4)
            f = random_polynomial(rng, n, rng.randint(1, 4))
            for cert in bound_general(f, rng.randint(1, 8), coefficient_range(f)):
                assert cert.satisfied, f"general false violation: {f.terms}"


def test_criterion_09_monte_carlo_crosscheck():
    with _Budget("criterion 9: Monte Carlo statistical cross-check", 30.0):
        cases = [
            (parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2), 2, (F(1, 4), F(3, 4))),
            (sum_of_powers(3, 2), 4, (F(1, 5), F(2, 5), F(2, 5))),
            (parse_polynomial("x1^3 + x2^3", 2), 5, (F(1, 2), F(1, 2))),
            (parse_polynomial("-x1*x2", 2), 5, (F(1, 2), F(1, 2))),
            (parse_polynomial("x1*x2*x3", 3), 3, (F(1, 3), F(1, 3), F(1, 3))),
        ]
        for f, r, x in cases:
            exact = float(evaluate(bernstein_closed_form(f, r).reduced, list(x)))
            hits = 0
            for seed in range(100):
                estimate, stderr = monte_carlo_bernstein(
                    f, r, [float(v) for v in x], samples=4000, seed=seed
                )
                if abs(estimate - exact) <= 4 * stderr:
                    hits += 1
            assert hits >= 99, f"coverage {hits}/100 for {f.terms} at r={r}"


def test_criterion_10_scale_smoke():
    with _Budget("criterion 10: n=10 r=10 scale smoke", 10.0):
        f = sum_of_powers(10, 2)
        sequential = grid_minimize(f, 10)
        assert sequential.evaluations == 92378
        assert sequential.value == F(1, 10)
