import dataclasses
import json
import time
from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import example, given, settings, strategies as st

from simplexopt import (
    HomogeneousPolynomial,
    RangeInput,
    bernstein_excess_on_grid,
    bound_cubic,
    bound_general,
    bound_quadratic,
    bound_squarefree,
    brute_force_stable_set_number,
    coefficient_range,
    exact_range,
    grid_range,
    min_grid_order,
    parse_polynomial,
    ptas_approximate,
    stable_set_bounds,
    sum_of_powers_grid_min,
)
from simplexopt import bounds as bounds_module, grid as grid_module
from simplexopt.grid import MAX_GRID_POINTS
from conftest import homogeneous_polynomials, random_polynomial

F = Fraction


def sum_of_squares(n):
    return HomogeneousPolynomial(
        n, 2, {tuple(2 if j == i else 0 for j in range(n)): F(1) for i in range(n)}
    )


class TestRangeInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeInput(F(1), F(0), "exact_known")
        with pytest.raises(ValueError):
            RangeInput(F(0), F(1), "somewhere")

    def test_factories(self):
        f = sum_of_squares(2)
        rng = coefficient_range(f)
        assert (rng.lower, rng.upper) == (F(0), F(1))
        assert rng.provenance == "bernstein_coefficient_range"
        grng = grid_range(f, 3)
        assert grng.lower == F(0) and grng.upper == F(1)
        assert grng.provenance == "grid_surrogate"
        ex = exact_range(F(1, 2), 1)
        assert ex.is_exact and ex.span == F(1, 2)


class TestQuadraticBound:
    def test_sum_of_squares_exact_range(self):
        cert = bound_quadratic(sum_of_squares(2), 3, exact_range(F(1, 2), 1))
        assert cert.bound_value == F(1, 6)
        assert cert.grid_value == F(5, 9)
        assert cert.gap == F(1, 18)
        assert cert.satisfied
        assert cert.ratio == F(1, 9)

    def test_even_split_ratio(self):
        for n in (2, 4):
            r = 3 * n // 2
            cert = bound_quadratic(sum_of_squares(n), r, exact_range(F(1, n), 1))
            assert cert.ratio == F(1, 6 * r - 9)

    def test_example_one(self):
        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        cert = bound_quadratic(f, 2, exact_range(F(-17, 32), 2))
        assert cert.gap == F(1, 32)
        assert cert.bound_value == F(81, 64)
        assert cert.satisfied

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            bound_quadratic(parse_polynomial("x1^3", 1), 2, exact_range(0, 1))

    @settings(max_examples=80, deadline=None)
    @given(f=homogeneous_polynomials(n=st.integers(1, 5)))
    @example(f=HomogeneousPolynomial(3, 2, {}))
    @example(f=parse_polynomial("-3", 2))
    @example(f=parse_polynomial("-2*x1^2", 1))
    @example(f=parse_polynomial("-x1^2 - x2^2 + 4*x1*x3", 3))
    def test_vertex_value_is_the_largest_pure_power(self, f):
        vertices = [tuple(f.d if k == i else 0 for k in range(f.n)) for i in range(f.n)]
        assert bounds_module._largest_vertex_value(f) == max(f.terms.get(v, 0) for v in vertices)

    def test_wide_pure_square_within_budget(self):
        f = parse_polynomial("x1^2", 8000)
        start = time.process_time()
        cert = bound_quadratic(f, 1, coefficient_range(f))
        assert time.process_time() - start < 0.5
        assert cert.bound_value == 1 and cert.satisfied


class TestCubicBound:
    def test_odd_order(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        cert = bound_cubic(f, 3, exact_range(F(1, 4), 1))
        assert cert.bound_value == F(2, 3)
        assert cert.gap == F(1, 12)
        assert cert.satisfied

    def test_even_order_gap_vanishes(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        for r in (2, 4, 8):
            cert = bound_cubic(f, r, exact_range(F(1, 4), 1))
            assert cert.gap == 0 and cert.satisfied

    def test_zero_polynomial(self):
        zero = parse_polynomial("x1^3 - x1^3", 1)
        cert = bound_cubic(zero, 2, exact_range(0, 0))
        assert cert.gap == 0 and cert.bound_value == 0 and cert.satisfied

    def test_order_below_two_rejected(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        with pytest.raises(ValueError):
            bound_cubic(f, 1, exact_range(F(1, 4), 1))


class TestSquarefreeBound:
    def test_even_order(self):
        f = parse_polynomial("-x1*x2", 2)
        cert = bound_squarefree(f, 4, exact_range(F(-1, 4), 0))
        assert cert.bound_value == F(1, 16)
        assert cert.gap == 0 and cert.satisfied

    def test_odd_order(self):
        f = parse_polynomial("-x1*x2", 2)
        cert = bound_squarefree(f, 3, exact_range(F(-1, 4), 0))
        assert cert.gap == F(1, 36)
        assert cert.bound_value == F(1, 12)
        assert cert.satisfied

    def test_order_below_degree_keeps_full_span(self):
        f = parse_polynomial("x1*x2*x3", 3)
        cert = bound_squarefree(f, 2, exact_range(0, F(1, 27)))
        assert cert.bound_value == F(1, 27)

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            bound_squarefree(sum_of_squares(2), 2, exact_range(F(1, 2), 1))


class TestGeneralBound:
    def test_degree_two_constant(self):
        f = sum_of_squares(2)
        for r in (2, 5):
            cert, _ = bound_general(f, r, exact_range(F(1, 2), 1))
            assert cert.bound_value == F(12, r) * F(1, 2)

    def test_coefficient_range_leg_for_squarefree_matches_dedicated_bound(self):
        f = parse_polynomial("-x1*x2", 2)
        rng = exact_range(F(-1, 4), 0)
        _, coeff_cert = bound_general(f, 4, rng)
        sqf_cert = bound_squarefree(f, 4, rng)
        # coefficient span (0 - (-1/2)) = 1/2 vs true span 1/4: double
        assert coeff_cert.bound_value == 2 * sqf_cert.bound_value

    def test_degree_growth_family(self):
        # sum of d-th powers: relative gap is bounded by 2^d / r^2
        for d in (3, 4):
            for n in (2, 3):
                span = 1 - F(1, n ** (d - 1))
                for r in range(n, 13):
                    gap = sum_of_powers_grid_min(n, r, d) - F(1, n ** (d - 1))
                    assert gap <= F(2**d, r * r) * span

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            bound_general(parse_polynomial("3", 2), 2, exact_range(3, 3))


class TestExactRangeRefutation:
    # min f = -17/32, max f = 2; coefficient range [-5/2, 2]; the order-2
    # grid value is -1/2 and the vertex values are 2 and 1
    @pytest.mark.parametrize(
        "lower, upper",
        [
            (F(-1, 4), 2),  # lower above the grid value
            (-3, 2),  # lower below the coefficient low
            (F(-17, 32), F(3, 2)),  # upper below a vertex value
            (F(-17, 32), 3),  # upper above the coefficient high
        ],
    )
    def test_contradicted_range_rejected(self, lower, upper):
        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        with pytest.raises(ValueError, match="refuted"):
            bound_quadratic(f, 2, exact_range(lower, upper))

    def test_constant_polynomial(self):
        f = parse_polynomial("3", 2)
        assert bound_squarefree(f, 2, exact_range(3, 3)).satisfied
        with pytest.raises(ValueError, match="refuted"):
            bound_squarefree(f, 2, exact_range(2, 3))


class TestRelaxedProvenance:
    def test_bound_is_widened_and_sound(self):
        f = sum_of_squares(2)
        cert = bound_quadratic(f, 3, coefficient_range(f))
        # theorem form (1 - 0)/3 alone would undercut the observable gap 5/9
        assert cert.gap == F(5, 9)
        assert cert.bound_value == F(1)
        assert cert.satisfied
        assert cert.ratio is None

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.one_of(
            homogeneous_polynomials(n=st.integers(2, 4), d=st.integers(1, 4)),
            homogeneous_polynomials(n=st.integers(2, 4), d=st.integers(1, 4), square_free=True),
        ),
        r=st.integers(1, 8),
    )
    def test_random_certificates_never_violated(self, f, r):
        # every family that applies, under both relaxed provenances
        families = [entry for entry in bounds_module.THEOREMS.values() if entry.applies(f) and r >= entry.minimum]
        assert families
        for rng in (coefficient_range(f), grid_range(f, r)):
            for entry in families:
                for cert in entry.certificates(f, r, rng):
                    assert cert.satisfied == (cert.gap <= cert.bound_value)
                    assert cert.gap == cert.grid_value - cert.range.lower
                    assert cert.bound_value >= cert.range.span
                    assert cert.satisfied

    def test_grid_surrogate_certificates_hold(self, rng):
        for _ in range(20):
            n = rng.randint(2, 3)
            r = rng.randint(1, 6)
            f = random_polynomial(rng, n, 2)
            cert = bound_quadratic(f, r, grid_range(f, r))
            assert cert.satisfied


class TestMinGridOrder:
    def test_quadratic(self):
        assert min_grid_order(2, F(1, 10), "quadratic") == 10
        assert min_grid_order(2, F(1), "quadratic") == 1
        assert min_grid_order(2, F(2, 7), "quadratic") == 4

    def test_cubic(self):
        assert min_grid_order(3, F(1), "cubic") == 2
        assert min_grid_order(3, F(1, 2), "cubic") == 7
        # 4/6 - 4/36 = 5/9 > 1/2; 4/7 - 4/49 = 24/49 <= 1/2
        assert F(4, 6) - F(4, 36) > F(1, 2) >= F(4, 7) - F(4, 49)

    def test_squarefree(self):
        assert min_grid_order(2, F(1, 4), "squarefree") == 4
        assert min_grid_order(1, F(1, 100), "squarefree") == 1
        assert min_grid_order(3, F(1), "squarefree") == 1

    def test_general_matches_linear_scan(self):
        from simplexopt import falling_factorial, ptas_constant

        for d in (1, 2, 3):
            for eps in (F(1), F(1, 2), F(1, 7), F(1, 40)):
                expected = 1
                while (1 - F(falling_factorial(expected, d), expected**d)) * ptas_constant(
                    d
                ) > eps:
                    expected += 1
                assert min_grid_order(d, eps, "general") == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            min_grid_order(2, F(0), "quadratic")
        with pytest.raises(ValueError):
            min_grid_order(2, F(1, 2), "sharpest")

    @pytest.mark.parametrize(
        "name, d", [("general", 4), ("general", 200), ("squarefree", 200), ("cubic", 3), ("quadratic", 2)]
    )
    @pytest.mark.parametrize("exponent", [9, 3000])
    def test_refuses_orders_above_the_grid_limit_at_once(self, name, d, exponent):
        start = time.process_time()
        with pytest.raises(ValueError, match=f"above {MAX_GRID_POINTS}.*points"):
            min_grid_order(d, F(1, 10**exponent), name)
        assert time.process_time() - start < 1

    def test_largest_order_is_the_grid_limit(self):
        assert min_grid_order(2, F(1, MAX_GRID_POINTS), "quadratic") == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            min_grid_order(2, F(1, MAX_GRID_POINTS + 1), "quadratic")


class TestPtasApproximate:
    def test_sum_of_squares(self):
        point, value, cert = ptas_approximate(sum_of_squares(2), F(1, 3))
        assert cert.theorem == "quadratic" and cert.r == 3
        assert point.alpha == (1, 2)
        assert value == F(5, 9)

    def test_squarefree_selected_first(self):
        f = parse_polynomial("-x1*x2", 2)
        point, value, cert = ptas_approximate(f, F(1, 2))
        assert cert.theorem == "squarefree" and cert.r == 2
        assert value == F(-1, 4)

    def test_epsilon_one_minimal_order(self):
        _, _, cert = ptas_approximate(sum_of_squares(3), F(1))
        assert cert.r == 1
        f3 = parse_polynomial("x1^3 + x2^3", 2)
        _, _, cert3 = ptas_approximate(f3, F(1))
        assert cert3.theorem == "cubic" and cert3.r == 2

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            ptas_approximate(sum_of_squares(2), F(3, 2))
        with pytest.raises(ValueError):
            ptas_approximate(sum_of_squares(2), F(0))

    def test_order_is_bounded_by_the_grid_limit(self, monkeypatch):
        # two variables and a 15-point limit admit orders up to 14
        for module in (bounds_module, grid_module):
            monkeypatch.setattr(module, "MAX_GRID_POINTS", 15)
        _, _, cert = ptas_approximate(sum_of_squares(2), F(1, 14))
        assert cert.r == 14

        def count_factors(name):
            calls = []
            entry = bounds_module.THEOREMS[name]
            counted = lambda r, d: calls.append(r) or entry.factor(r, d)
            monkeypatch.setitem(bounds_module.THEOREMS, name, dataclasses.replace(entry, factor=counted))
            return calls

        # the order search is capped at MAX_GRID_POINTS: doubling, then bisection
        calls = count_factors("quadratic")
        with pytest.raises(ValueError, match="15 points"):
            ptas_approximate(sum_of_squares(2), F(1, 15))
        assert 0 < len(calls) <= 2 * ceil(log2(15)) + 2 and max(calls) <= 15
        monkeypatch.undo()
        calls = count_factors("general")
        # the general family at d = 100 needs an order of hundreds of digits
        with pytest.raises(ValueError, match="points") as err:
            ptas_approximate(parse_polynomial("x1^100 + x2^100", 2), F(1, 2))
        assert all(len(word) < 20 for word in str(err.value).split())  # no huge order
        assert len(calls) <= 2 * ceil(log2(MAX_GRID_POINTS)) + 2 and max(calls) == MAX_GRID_POINTS

    def test_constant_polynomial_takes_its_coefficient_range(self):
        _, value, cert = ptas_approximate(parse_polynomial("5", 2), F(1, 3))
        assert value == 5 and cert.gap == 0 and cert.satisfied
        assert cert.range == RangeInput(F(5), F(5), "bernstein_coefficient_range")

    def test_accuracy_guarantee_on_known_families(self):
        # (polynomial, true min, true max, accuracy target)
        cases = [
            (sum_of_squares(3), F(1, 3), F(1), F(1, 5)),
            (sum_of_squares(4), F(1, 4), F(1), F(1, 7)),
            (parse_polynomial("x1^3 + x2^3", 2), F(1, 4), F(1), F(1, 3)),
            (parse_polynomial("-x1*x2", 2), F(-1, 4), F(0), F(1, 5)),
            (parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2), F(-17, 32), F(2), F(1, 6)),
        ]
        for f, true_min, true_max, epsilon in cases:
            _, value, cert = ptas_approximate(f, epsilon, exact_range(true_min, true_max))
            assert cert.satisfied
            assert value - true_min <= epsilon * (true_max - true_min)


class TestStableSets:
    def five_cycle(self):
        adj = [[0] * 5 for _ in range(5)]
        for i in range(5):
            adj[i][(i + 1) % 5] = adj[(i + 1) % 5][i] = 1
        return adj

    def test_five_cycle(self):
        alpha_lower, f_grid, cert = stable_set_bounds(self.five_cycle(), 2)
        assert f_grid == F(1, 2)
        assert alpha_lower == 2 == brute_force_stable_set_number(self.five_cycle())
        assert cert.satisfied

    def test_complete_graph(self):
        # on a complete graph the form collapses to (sum x_i)^2 = 1 on the
        # whole simplex, so every grid order certifies alpha = 1 exactly
        k4 = [[int(i != j) for j in range(4)] for i in range(4)]
        assert brute_force_stable_set_number(k4) == 1
        for r in (1, 2, 3):
            alpha_lower, f_grid, _ = stable_set_bounds(k4, r)
            assert f_grid == 1 and alpha_lower == 1

    def test_empty_graph(self):
        empty = [[0] * 3 for _ in range(3)]
        alpha_lower, f_grid, _ = stable_set_bounds(empty, 3)
        assert f_grid == F(1, 3) and alpha_lower == 3

    def test_lower_bound_never_exceeds_truth(self, rng):
        for n in range(1, 7):
            for _ in range(30):
                adj = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.5:
                            adj[i][j] = adj[j][i] = 1
                truth = brute_force_stable_set_number(adj)
                for r in range(1, 5):
                    alpha_lower, _, _ = stable_set_bounds(adj, r)
                    assert alpha_lower <= truth


class TestCertificateSerialization:
    def test_round_trip(self):
        f = parse_polynomial("-x1*x2", 2)
        cert = bound_squarefree(f, 3, exact_range(F(-1, 4), 0))
        blob = json.dumps(cert.to_json_dict(), sort_keys=True)
        data = json.loads(blob)
        assert Fraction(data["grid_value"]) == cert.grid_value
        assert Fraction(data["bound_value"]) == cert.bound_value
        assert Fraction(data["gap"]) == cert.gap
        assert Fraction(data["ratio"]) == cert.ratio
        assert data["range"]["provenance"] == "exact_known"
        assert data["satisfied"] is True

    def test_ratio_absent_for_relaxed_ranges(self):
        f = sum_of_squares(2)
        cert = bound_quadratic(f, 2, coefficient_range(f))
        assert "ratio" not in cert.to_json_dict()


class TestExcessDiagnostic:
    def test_example_one_witness(self):
        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        excess, witness = bernstein_excess_on_grid(f, 2, verify_order=64)
        assert excess == 1
        assert witness.alpha == (32, 32)

    def test_never_negative_at_vertices(self, rng):
        f = random_polynomial(rng, 2, 3)
        excess, _ = bernstein_excess_on_grid(f, 4, verify_order=16)
        # vertices are interpolated, so the max excess is at least 0
        assert excess >= 0
