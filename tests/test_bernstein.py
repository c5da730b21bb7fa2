import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from simplexopt import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    bernstein_closed_form,
    bernstein_cubic,
    bernstein_definitional,
    bernstein_excess_on_grid,
    bernstein_quadratic,
    bernstein_squarefree,
    compositions,
    enumerate_grid,
    equal_on_simplex,
    evaluate,
    falling_factorial,
    grid_minimize,
    moment_direct,
    moment_stirling,
    monte_carlo_bernstein,
    multinomial,
    parse_polynomial,
    sample_grid_points,
    stirling2,
)
from simplexopt import bernstein as bernstein_module
from simplexopt import bounds as bounds_module
from simplexopt.grid import MAX_EXPANDED_POINTS, _Kernel, grid_size
from simplexopt.polynomial import MAX_DEGREE
from conftest import homogeneous_polynomials, naive_evaluate, random_polynomial

F = Fraction
EXAMPLE_QUADRATIC = "2*x1^2 + x2^2 - 5*x1*x2"


def monomial(n, exps):
    return HomogeneousPolynomial(n, sum(exps), {tuple(exps): F(1)})


class TestDefinitional:
    def test_example_quadratic_order_two(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        result = bernstein_definitional(f, 2)
        assert result.homogeneous.terms == {(2, 0): F(2), (0, 2): F(1), (1, 1): F(-1)}

    def test_constant_values_give_multinomial_coefficients(self):
        # degree-1 input with equal vertex values: coefficients collapse to r!/alpha!
        f = parse_polynomial("x1 + x2 + x3", 3)
        result = bernstein_definitional(f, 4).homogeneous
        assert result.d == 4
        for alpha, coeff in result.terms.items():
            assert coeff == multinomial(4, alpha)

    def test_cubic_sample_value(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        b = bernstein_definitional(f, 2).homogeneous
        assert evaluate(b, [F(1, 2), F(1, 2)]) == F(5, 8)

    def test_zero_polynomial_keeps_declared_order(self):
        zero = parse_polynomial("x1 - x1", 1)
        result = bernstein_definitional(zero, 3).homogeneous
        assert result.terms == {} and result.d == 3

    def test_grid_limit_is_checked_before_any_work(self, monkeypatch):
        # every term keeps an n-long alpha: 1000 points of 1000 entries fit
        # MAX_TERM_ENTRIES, 1001 of 1001 do not
        assert len(bernstein_definitional(parse_polynomial("1", 1000), 1).homogeneous.terms) == 1000
        f = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
        monkeypatch.setattr(bernstein_module, "MAX_EXPANDED_POINTS", grid_size(3, 4))
        assert len(bernstein_definitional(f, 4).homogeneous.terms) == grid_size(3, 4)

        def no_compile(*args):
            raise AssertionError("the kernel was compiled for a refused grid")

        monkeypatch.setattr(bernstein_module, "_Kernel", no_compile)
        with pytest.raises(ValueError, match="points"):
            bernstein_definitional(f, 5)
        monkeypatch.setattr(bernstein_module, "MAX_EXPANDED_POINTS", MAX_EXPANDED_POINTS)
        with pytest.raises(ValueError, match="1001 terms of 1001 entries, past 1000000 entries"):
            bernstein_definitional(parse_polynomial("1", 1001), 1)
        monkeypatch.undo()
        assert grid_size(200, 200) > MAX_EXPANDED_POINTS
        with pytest.raises(ValueError, match="points"):
            bernstein_definitional(parse_polynomial("x1^2 + x2^2", 200), 200)

    def test_weights_at_the_grid_limit(self):
        # a multinomial per grid point took 12-16 s of CPU at this order
        f, r = parse_polynomial("x1^2 + x2^2", 2), 9999
        assert grid_size(2, r) == MAX_EXPANDED_POINTS
        start = time.process_time()
        terms = bernstein_definitional(f, r).homogeneous.terms
        assert time.process_time() - start < 4
        assert len(terms) == r + 1
        for a1 in (0, 1, 2, 137, 4999, 5000, 9998, 9999):
            x = [F(a1, r), F(r - a1, r)]
            assert terms[(a1, r - a1)] == (x[0] ** 2 + x[1] ** 2) * comb(r, a1)

    @settings(max_examples=60, deadline=None)
    @given(f=homogeneous_polynomials(), r=st.integers(1, 6))
    def test_term_maps_match_fraction_oracles_in_order(self, f, r):
        # definitional: f(alpha/r) * r!/alpha! at every grid point, in the
        # order the kernel yields the points, zeros dropped
        order = [tuple(alpha) for alphas, _ in _Kernel(f, r).values() for alpha in alphas]
        expected = {}
        for alpha in order:
            c = naive_evaluate(f, [F(a, r) for a in alpha]) * multinomial(r, alpha)
            if c:
                expected[alpha] = c
        assert list(bernstein_definitional(f, r).homogeneous.terms.items()) == list(expected.items())
        # closed form: c * r^(|gamma| falling) * prod S(beta_i, gamma_i) / r^|beta|
        # summed per gamma, in the order gamma first appears, zeros dropped
        acc = {}
        for beta, c in f.terms.items():
            for gamma in product(*(range(1, b + 1) if b else range(1) for b in beta)):
                w = falling_factorial(r, sum(gamma)) * prod(map(stirling2, beta, gamma))
                if w:
                    acc[gamma] = acc.get(gamma, F(0)) + c * F(w, r ** sum(beta))
        expected = [(gamma, c) for gamma, c in acc.items() if c]
        assert list(bernstein_closed_form(f, r).reduced.terms.items()) == expected


class TestClosedFormMonomials:
    def test_linear_is_identity(self):
        for r in (1, 2, 5):
            result = bernstein_closed_form(monomial(3, (0, 1, 0)), r).reduced
            assert result.terms == {(0, 1, 0): F(1)}

    def test_square(self):
        for r in (1, 2, 3, 7):
            result = bernstein_closed_form(monomial(2, (2, 0)), r).reduced
            assert result.terms[(1, 0)] == F(1, r)
            assert result.terms.get((2, 0), F(0)) == 1 - F(1, r)

    def test_cross_term(self):
        for r in (2, 3, 7):
            result = bernstein_closed_form(monomial(2, (1, 1)), r).reduced
            assert result.terms == {(1, 1): F(r - 1, r)}

    def test_elementary_cubic(self):
        for r in (3, 4, 9):
            result = bernstein_closed_form(monomial(3, (1, 1, 1)), r).reduced
            assert result.terms == {(1, 1, 1): F((r - 1) * (r - 2), r * r)}

    def test_stirling_walk_is_capped(self, monkeypatch):
        # the walk takes max(beta_i, 1) values in slot i, summed over the
        # monomials of one expansion
        monkeypatch.setattr(bernstein_module, "MAX_STIRLING_TUPLES", 12)
        assert bernstein_closed_form(monomial(3, (0, 3, 4)), 2).reduced is not None
        assert moment_stirling(3, 2, (0, 3, 4), [F(1, 3)] * 3) > 0
        two = HomogeneousPolynomial(3, 7, {(0, 3, 4): F(1), (0, 4, 3): F(1)})

        def no_walk(*args):
            raise AssertionError("a refused expansion was walked")

        monkeypatch.setattr(bernstein_module, "_stirling_weights", no_walk)
        for f in (monomial(3, (0, 3, 5)), two):
            with pytest.raises(ValueError, match="Stirling"):
                bernstein_closed_form(f, 2)
        with pytest.raises(ValueError, match="Stirling"):
            moment_stirling(3, 2, (0, 3, 5), [F(1, 3)] * 3)
        monkeypatch.undo()
        for f in (monomial(5, (40,) * 5), parse_polynomial("x1^10*x2^10*x3^10*x4^10*x5^10 + x1^9*x2^11*x3^10*x4^10*x5^10", 5)):
            with pytest.raises(ValueError, match="Stirling"):
                bernstein_closed_form(f, 3)

    def test_stirling_entries_are_capped(self, monkeypatch):
        # 5 gamma tuples of 3 entries each: 15 entries
        f = monomial(3, (0, 1, 5))
        monkeypatch.setattr(bernstein_module, "MAX_TERM_ENTRIES", 15)
        assert bernstein_closed_form(f, 2).reduced is not None
        assert moment_stirling(3, 2, (0, 1, 5), [F(1, 3)] * 3) > 0
        monkeypatch.setattr(bernstein_module, "MAX_TERM_ENTRIES", 14)
        with pytest.raises(ValueError, match="Stirling"):
            bernstein_closed_form(f, 2)
        with pytest.raises(ValueError, match="Stirling"):
            moment_stirling(3, 2, (0, 1, 5), [F(1, 3)] * 3)

    def test_pure_cube(self):
        r = 5
        result = bernstein_closed_form(monomial(2, (3, 0)), r).reduced
        assert result.terms == {
            (1, 0): F(1, r * r),
            (2, 0): F(3 * (r - 1), r * r),
            (3, 0): F((r - 1) * (r - 2), r * r),
        }


class TestStirlingWeights:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), total=st.integers(0, 6), r=st.integers(1, 8), data=st.data())
    @example(n=3, total=3, r=1, data=(1, 2, 0))  # every gamma has |gamma| > r: no weight
    @example(n=3, total=0, r=8, data=(0, 0, 0))
    def test_matches_every_gamma_enumerated(self, n, total, r, data):
        # the same pairs in the same order: the closed form lists its terms
        # in the order the gamma first appear
        beta = data if isinstance(data, tuple) else data.draw(st.sampled_from(list(compositions(n, total))))
        assert list(bernstein_module._stirling_weights(beta, r)) == stirling_weights_reference(beta, r)


class TestQuadraticRoute:
    def test_example_reduced_form(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        reduced = bernstein_quadratic(f, 2).reduced
        assert reduced.terms == {
            (2, 0): F(1),
            (0, 2): F(1, 2),
            (1, 1): F(-5, 2),
            (1, 0): F(1),
            (0, 1): F(1, 2),
        }

    def test_sum_of_squares_family(self):
        for n in (2, 3, 4):
            f = HomogeneousPolynomial(
                n, 2, {tuple(2 if j == i else 0 for j in range(n)): F(1) for i in range(n)}
            )
            for r in (1, 2, 5):
                reduced = bernstein_quadratic(f, r).reduced
                expected = GeneralPolynomial(
                    n,
                    {
                        **{
                            tuple(1 if j == i else 0 for j in range(n)): F(1, r)
                            for i in range(n)
                        },
                        **(
                            {
                                tuple(2 if j == i else 0 for j in range(n)): 1 - F(1, r)
                                for i in range(n)
                            }
                            if r > 1
                            else {}
                        ),
                    },
                )
                assert reduced.terms == expected.terms

    def test_order_one_is_vertex_interpolant(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        reduced = bernstein_quadratic(f, 1).reduced
        assert reduced.terms == {(1, 0): F(2), (0, 1): F(1)}

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            bernstein_quadratic(parse_polynomial("x1^3", 1), 2)


class TestCubicRoute:
    def test_two_cubes_reduced_to_cross_term(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        for r in range(1, 9):
            reduced = bernstein_cubic(f, r).reduced
            expected = GeneralPolynomial(2, {(0, 0): F(1), (1, 1): F(3, r) - 3})
            assert equal_on_simplex(reduced, expected)

    def test_elementary_monomial(self):
        f = parse_polynomial("x1*x2*x3", 3)
        for r in (3, 5):
            reduced = bernstein_cubic(f, r).reduced
            assert reduced.terms == {(1, 1, 1): F((r - 1) * (r - 2), r * r)}

    def test_vertex_value_recovered(self):
        f = parse_polynomial("x1^3", 1)
        reduced = bernstein_cubic(f, 2).reduced
        assert reduced.terms == {(1,): F(1, 4), (2,): F(3, 4)}
        assert evaluate(reduced, [F(1)]) == 1

    def test_smoothed_minimum_of_two_cubes(self):
        # the reduced form 1 + (3/r - 3) x1 x2 is minimized where x1 x2 peaks,
        # i.e. at the center, giving 1/4 + 3/(4r); the center lies on the
        # order-2 grid so an exact grid scan recovers the value
        f = parse_polynomial("x1^3 + x2^3", 2)
        for r in range(2, 9):
            reduced = bernstein_cubic(f, r).reduced
            gm = grid_minimize(reduced, 2)
            assert gm.value == F(1, 4) + F(3, 4 * r)
            assert gm.argmin.alpha == (1, 1)
            assert gm.value > grid_minimize(f, r).value

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            bernstein_cubic(parse_polynomial("x1^2", 1), 2)

    def test_wide_cubic_within_budget(self):
        # one pass over the terms: nothing is sized by the n^2 pairs of variables
        f = parse_polynomial("x1^3 - 2*x1*x2*x3 + x399^2*x400", 400)
        start = time.process_time()
        reduced = bernstein_cubic(f, 5).reduced
        assert time.process_time() - start < 0.5
        assert reduced.terms == closed_form_reference(f, 5)


class TestSquarefreeRoute:
    def test_negative_cross_term(self):
        f = parse_polynomial("-x1*x2", 2)
        reduced = bernstein_squarefree(f, 5).reduced
        assert reduced.terms == {(1, 1): F(-4, 5)}

    def test_vanishes_below_degree(self):
        f = parse_polynomial("x1*x2*x3", 3)
        assert bernstein_squarefree(f, 2).reduced.terms == {}

    def test_elementary_cubic_scaling(self):
        f = parse_polynomial("x1*x2*x3", 3)
        reduced = bernstein_squarefree(f, 3).reduced
        assert reduced.terms == {(1, 1, 1): F(2, 9)}
        assert F(falling_factorial(3, 3), 27) == F(2, 9)

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            bernstein_squarefree(parse_polynomial("x1^2", 1), 2)


class TestRouteAgreement:
    def test_definitional_equals_closed_form_on_samples(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            r = rng.randint(1, 8)
            f = random_polynomial(rng, n, d)
            definitional = bernstein_definitional(f, r).homogeneous
            closed = bernstein_closed_form(f, r).reduced
            for x in sample_grid_points(n, 10, rng):
                assert evaluate(definitional, x) == evaluate(closed, x)

    def test_definitional_with_big_coefficients(self, rng):
        n, d, r = 4, 3, 6
        for _ in range(3):
            small = random_polynomial(rng, n, d, max_terms=12)
            f = HomogeneousPolynomial(n, d, {b: c * (10**21 + 7) for b, c in small.terms.items()})
            assert _Kernel(f, r).limbs > 1
            definitional = bernstein_definitional(f, r).homogeneous
            for alpha in enumerate_grid(n, r):
                value = evaluate(f, [F(a, r) for a in alpha])
                assert definitional.terms.get(alpha, 0) == value * multinomial(r, alpha)
            closed = bernstein_closed_form(f, r).reduced
            for x in sample_grid_points(n, 10, rng):
                assert evaluate(definitional, x) == evaluate(closed, x)

    @settings(max_examples=40, deadline=None)
    @given(f=homogeneous_polynomials(n=st.integers(1, 3), d=st.integers(1, 4)), r=st.integers(1, 6))
    def test_definitional_equals_closed_form_as_polynomial_identity(self, f, r):
        # full identity modulo sum(x) = 1, not just sampled agreement
        definitional = bernstein_definitional(f, r).homogeneous
        closed = bernstein_closed_form(f, r).reduced
        assert equal_on_simplex(definitional, closed)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just(bernstein_quadratic), homogeneous_polynomials(n=st.integers(2, 4), d=st.just(2))),
            st.tuples(st.just(bernstein_cubic), homogeneous_polynomials(n=st.integers(2, 4), d=st.just(3))),
            st.tuples(st.just(bernstein_squarefree), homogeneous_polynomials(n=st.integers(2, 4), square_free=True)),
        ),
        r=st.integers(1, 8),
    )
    def test_specialized_terms_match_closed_form(self, case, r):
        specialized, f = case
        assert specialized(f, r).reduced.terms == bernstein_closed_form(f, r).reduced.terms

    def test_values_dominate_grid_minimum(self, rng):
        for _ in range(15):
            n = rng.randint(1, 3)
            d = rng.randint(1, 3)
            r = rng.randint(1, 6)
            f = random_polynomial(rng, n, d)
            floor = grid_minimize(f, r).value
            closed = bernstein_closed_form(f, r).reduced
            for x in sample_grid_points(n, 20, rng):
                assert evaluate(closed, x) >= floor

    def test_vertices_are_interpolated(self, rng):
        for _ in range(15):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            r = rng.randint(1, 6)
            f = random_polynomial(rng, n, d)
            closed = bernstein_closed_form(f, r).reduced
            for i in range(n):
                e_i = [F(1) if j == i else F(0) for j in range(n)]
                assert evaluate(closed, e_i) == evaluate(f, e_i)


def assert_as_validated(poly, reference):
    """poly, built through the trusted constructor, equals the validating
    constructor's polynomial on the reference terms: the same items in the
    same order, Fraction values, and the same integer form."""
    fresh = replace(poly, terms=reference)
    assert list(poly.terms.items()) == list(fresh.terms.items())
    assert all(type(c) is F for c in poly.terms.values())
    assert "_integer_form" not in fresh.__dict__
    assert poly._integer_form == fresh._integer_form


def stirling2_reference(b, g):
    """S(b, g) by inclusion-exclusion: the surjections of b items onto g
    cells, over g!."""
    return sum((-1) ** j * comb(g, j) * (g - j) ** b for j in range(g + 1)) // factorial(g)


def stirling_weights_reference(beta, r):
    """The nonzero (gamma, r^(|gamma| falling) * prod S(beta_i, gamma_i)) over
    every gamma <= beta, zero entries included, in lexicographic order."""
    pairs = ((gamma, perm(r, sum(gamma)) * prod(map(stirling2_reference, beta, gamma))) for gamma in product(*(range(b + 1) for b in beta)))
    return [(gamma, w) for gamma, w in pairs if w]


def closed_form_reference(f, r):
    """B_r(f) on the simplex summed per gamma in Fractions, in the order the
    gamma first appear."""
    acc = {}
    for beta, c in f.terms.items():
        for gamma, w in stirling_weights_reference(beta, r):
            acc[gamma] = acc.get(gamma, F(0)) + c * w / r**f.d
    return acc


def excess_polynomial(f, r):
    """The polynomial B_r(f) - f that bernstein_excess_on_grid maximizes."""
    with mock.patch.object(bounds_module, "grid_maximize", wraps=bounds_module.grid_maximize) as spy:
        bernstein_excess_on_grid(f, r, verify_order=3)
    return spy.call_args.args[0]


ZERO_TOTALS = parse_polynomial("x1^2*x2 - x1*x2^2", 2)  # both monomials give gamma (1, 1) the weight r(r-1)
NEAR_LIMB = HomogeneousPolynomial(3, 2, {(2, 0, 0): F(10**22 + 1, 3), (1, 1, 0): F(-(10**22), 7), (0, 1, 1): F(1)})


class TestTrustedConstruction:
    @settings(max_examples=60, deadline=None)
    @given(f=homogeneous_polynomials(), r=st.integers(1, 5))
    @example(f=HomogeneousPolynomial(3, 2, {}), r=4)
    @example(f=ZERO_TOTALS, r=3)
    @example(f=NEAR_LIMB, r=5)
    @example(f=parse_polynomial("3/4*x1^3", 1), r=4)
    @example(f=HomogeneousPolynomial(2, 2, {(0, 2): 1, (2, 0): 1}), r=1)  # r < d: no beta among beta's images
    def test_builders_match_the_validating_constructor(self, f, r):
        definitional = bernstein_definitional(f, r).homogeneous
        closed = bernstein_closed_form(f, r).reduced
        grid = [*definitional.terms, *compositions(f.n, r)]  # terms first, in their order
        assert_as_validated(definitional, {alpha: naive_evaluate(f, [F(a, r) for a in alpha]) * multinomial(r, alpha) for alpha in grid})
        assert_as_validated(closed, closed_form_reference(f, r))
        # the excess takes each beta's Stirling images, then beta itself
        excess = {}
        for beta, c in f.terms.items():
            for gamma, w in stirling_weights_reference(beta, r):
                excess[gamma] = excess.get(gamma, F(0)) + c * w / r**f.d
            excess[beta] = excess.get(beta, F(0)) - c
        assert_as_validated(excess_polynomial(f, r), excess)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just(bernstein_quadratic), homogeneous_polynomials(d=st.just(2))),
            st.tuples(st.just(bernstein_cubic), homogeneous_polynomials(d=st.just(3))),
            st.tuples(st.just(bernstein_squarefree), homogeneous_polynomials(square_free=True)),
        ),
        r=st.integers(1, 6),
    )
    @example(case=(bernstein_quadratic, HomogeneousPolynomial(3, 2, {})), r=4)
    @example(case=(bernstein_cubic, parse_polynomial("3/4*x1^3", 1)), r=2)
    @example(case=(bernstein_cubic, ZERO_TOTALS), r=3)
    @example(case=(bernstein_quadratic, NEAR_LIMB), r=5)
    @example(case=(bernstein_squarefree, parse_polynomial("x1*x2*x3", 3)), r=2)
    def test_shortcuts_match_the_validating_constructor(self, case, r):
        # the shortcuts list terms in their own order, so terms and the integer
        # form are compared as maps: the integer form against a validated
        # rebuild of the same terms
        shortcut, f = case
        reduced = shortcut(f, r).reduced
        assert reduced.terms == {gamma: c for gamma, c in closed_form_reference(f, r).items() if c}
        assert all(type(c) is F for c in reduced.terms.values())
        fresh = replace(reduced, terms=reduced.terms)
        assert "_integer_form" not in fresh.__dict__
        assert reduced._integer_form == fresh._integer_form

    def test_integer_form_is_derived_on_first_read(self):
        quadratic, squarefree = parse_polynomial("x1^2 - 3/4*x1*x2 + 2/3*x2^2", 2), parse_polynomial("x1*x2*x3 - 2/5*x1*x2*x4", 4)
        built = [route(quadratic, 3) for route in (bernstein_definitional, bernstein_closed_form, bernstein_quadratic)]
        built += [route(squarefree, 4) for route in (bernstein_cubic, bernstein_squarefree)]
        for result in built:
            poly = result.homogeneous or result.reduced
            assert "_integer_form" not in poly.__dict__
            form = poly._integer_form
            assert poly.__dict__["_integer_form"] is form
            assert form == replace(poly, terms=poly.terms)._integer_form

    def test_numerator_over_the_common_denominator_is_kept(self):
        # 2/3 is scaled to 14/21; big/21, already over cden = 21, keeps its
        # numerator object, where big * 1 would copy thousands of digits
        big = 21**3000 + 1
        poly = GeneralPolynomial._from_numerators(2, [(1, 0), (0, 1)], [big, 14], 21)
        cden, _, numerators = poly._integer_form
        assert (cden, numerators) == (21, (big, 14))
        assert numerators[0] is poly.terms[(1, 0)].numerator

    def test_zero_polynomial_keeps_its_degree(self):
        f = HomogeneousPolynomial(3, 2, {})
        definitional = bernstein_definitional(f, 4).homogeneous
        assert not definitional.terms and definitional.d == 4
        assert definitional._integer_form == (1, 4, ())
        assert bernstein_closed_form(f, 4).reduced._integer_form == (1, 0, ())
        # B_r is the identity on linear forms, so B_r(f) - f is zero
        assert excess_polynomial(parse_polynomial("x1 - 2/3*x2", 2), 3)._integer_form == (1, 0, ())

    def test_closed_form_drops_totals_that_cancel(self):
        closed = bernstein_closed_form(ZERO_TOTALS, 3).reduced
        assert closed.terms == {(2, 1): F(2, 9), (1, 2): F(-2, 9)}
        assert closed._integer_form == (9, 3, (2, -2))

    def test_near_limb_coefficients_cross_a_rung(self):
        assert _Kernel(NEAR_LIMB, 5).limbs > 1


class TestMoments:
    def test_zero_order_is_total_probability(self):
        assert moment_direct(3, 4, (0, 0, 0), [F(1, 2), F(1, 3), F(1, 6)]) == 1
        assert moment_stirling(3, 4, (0, 0, 0), [F(1, 2), F(1, 3), F(1, 6)]) == 1

    def test_binomial_second_moment(self):
        x = [F(1, 3), F(2, 3)]
        assert moment_direct(2, 3, (2, 0), x) == F(5, 3)
        assert moment_stirling(2, 3, (2, 0), x) == F(5, 3)

    def test_paired_first_moments(self):
        x = [F(1, 2), F(1, 2)]
        assert moment_direct(2, 2, (1, 1), x) == F(1, 2)
        assert moment_stirling(2, 2, (1, 1), x) == F(1, 2)

    def test_routes_agree_randomly(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            r = rng.randint(1, 6)
            beta = tuple(rng.randint(0, 2) for _ in range(n))
            for x in sample_grid_points(n, 3, rng):
                assert moment_direct(n, r, beta, x) == moment_stirling(n, r, beta, x)

    def test_single_coordinate_order_collapses_to_univariate_sum(self, rng):
        # beta supported on one coordinate: the closed form collapses to a
        # univariate Stirling sum in that coordinate alone.
        for _ in range(10):
            n = rng.randint(2, 4)
            r = rng.randint(1, 6)
            i = rng.randrange(n)
            b = rng.randint(1, 4)
            beta = tuple(b if j == i else 0 for j in range(n))
            for x in sample_grid_points(n, 3, rng):
                expected = sum(
                    falling_factorial(r, a) * x[i] ** a * stirling2(b, a)
                    for a in range(0, b + 1)
                )
                assert moment_direct(n, r, beta, x) == expected

    def test_zero_one_order_collapses_to_falling_factorial(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            r = rng.randint(2, 6)
            k = rng.randint(1, min(n, r))
            beta = tuple(1 if j < k else 0 for j in range(n))
            for x in sample_grid_points(n, 3, rng):
                xprod = F(1)
                for e, v in zip(beta, x):
                    if e:
                        xprod *= v
                assert moment_direct(n, r, beta, x) == falling_factorial(r, k) * xprod

    def test_direct_sum_at_the_grid_limit(self):
        # the largest admitted order in 2, 3 and 4 variables; a walk paying a
        # binomial per grid point took 16-17 s of CPU at (2, 9999)
        for n, r, beta in ((2, 9999, (3, 2)), (3, 139, (2, 0, 3)), (4, 37, (1, 2, 0, 3))):
            assert grid_size(n, r) <= MAX_EXPANDED_POINTS < grid_size(n, r + 1)
            x = [F(i + 1, n * (n + 1) // 2) for i in range(n)]
            start = time.process_time()
            direct = moment_direct(n, r, beta, x)
            assert time.process_time() - start < 4
            assert direct == moment_stirling(n, r, beta, x)

    def test_one_variable_takes_any_order_in_constant_memory(self):
        # a one-variable grid is one point, whatever r is
        tracemalloc.start()
        try:
            assert moment_direct(1, 10**6, (3,), [1]) == 10**18
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_rejects_points_off_the_simplex(self):
        with pytest.raises(ValueError):
            moment_direct(2, 2, (1, 0), [F(1, 2), F(1, 3)])
        with pytest.raises(ValueError):
            moment_stirling(2, 2, (1, 0), [F(3, 2), F(-1, 2)])

    def test_point_checks_keep_their_messages(self):
        for route in (moment_direct, moment_stirling):
            with pytest.raises(ValueError, match="^point has dimension 3, expected 2$"):
                route(2, 2, (1, 0), [F(1, 3)] * 3)
            for x, shown in (
                ([F(3, 2), F(-1, 2)], "3/2, -1/2"),
                ([F(1, 2), F(1, 3)], "1/2, 1/3"),
                ((1, 1), "1, 1"),
                ([F(-1, 3), F(2, 3), F(2, 3)], "-1/3, 2/3, 2/3"),
            ):
                with pytest.raises(ValueError, match=f"^{re.escape(f'point ({shown}) is not on the standard simplex')}$"):
                    route(len(x), 2, (1,) + (0,) * (len(x) - 1), x)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        r=st.integers(1, 6),
        data=st.data(),
    )
    def test_routes_agree_with_naive_sum(self, n, r, data):
        beta = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
        x = [F(w, sum(weights)) for w in weights]  # zero entries, and unequal denominators
        naive = sum(
            prod(a**b for a, b in zip(alpha, beta)) * factorial(r) // prod(map(factorial, alpha))
            * prod(v**a for v, a in zip(x, alpha))
            for alpha in enumerate_grid(n, r)
        )
        assert moment_direct(n, r, beta, x) == moment_stirling(n, r, beta, x) == naive
        zero = (0,) * n
        assert moment_direct(n, r, zero, x) == moment_stirling(n, r, zero, x) == 1

    def test_moment_order_is_capped(self):
        x = [F(1, 3), F(2, 3)]
        assert moment_direct(2, 3, (MAX_DEGREE, 0), x) == moment_stirling(2, 3, (MAX_DEGREE, 0), x)
        for route in (moment_direct, moment_stirling):
            for beta in ((MAX_DEGREE, 1), (10**9, 0)):
                with pytest.raises(ValueError, match="moment order"):
                    route(2, 3, beta, x)

    def test_direct_sum_grid_is_capped(self):
        x, beta = [F(1, 30)] * 30, (1,) + (0,) * 29
        assert grid_size(30, 30) > MAX_EXPANDED_POINTS
        with pytest.raises(ValueError, match="points"):
            moment_direct(30, 30, beta, x)
        assert moment_stirling(30, 30, beta, x) == 1

    def test_rejects_bad_moment_orders(self):
        x = [F(1, 2), F(1, 2)]
        for bad in [(-1, 0), (1,), (1, 0, 0)]:
            with pytest.raises(ValueError):
                moment_direct(2, 2, bad, x)
            with pytest.raises(ValueError):
                moment_stirling(2, 2, bad, x)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        r=st.integers(1, 5),
        data=st.data(),
    )
    @example(n=1, r=3, data=None)
    def test_walks_match_the_single_order_routes_and_a_grid_sum(self, n, r, data):
        if data is None:  # one variable: the only point is x = (1)
            weights, orders = [1], [(2,), (0,), (2,), (5,)]
        else:
            weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
            orders = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6))
            # a repeated order, and one sharing all but its last entry with another
            orders += [orders[0], orders[-1][:-1] + (orders[-1][-1] ^ 1,)]
        den = sum(weights)
        x = [F(w, den) for w in weights]  # zero entries, and unequal denominators
        a, D = bernstein_module._check_simplex_point(n, x)
        direct = bernstein_module._direct_sums(a, r, orders)
        closed = bernstein_module._stirling_sums(a, D, [(sum(beta), bernstein_module._stirling_weights(beta, r)) for beta in orders])
        for beta, d, s in zip(orders, direct, closed):
            grid_sum = sum(
                prod(k**b for k, b in zip(alpha, beta)) * multinomial(r, alpha) * prod(v**k for v, k in zip(x, alpha))
                for alpha in enumerate_grid(n, r)
            )
            assert F(d, D**r) == moment_direct(n, r, beta, x) == grid_sum
            assert F(s, D ** sum(beta)) == moment_stirling(n, r, beta, x) == grid_sum


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        a = monte_carlo_bernstein(f, 3, [0.25, 0.75], 500, seed=11)
        b = monte_carlo_bernstein(f, 3, [0.25, 0.75], 500, seed=11)
        assert a == b
        c = monte_carlo_bernstein(f, 3, [0.25, 0.75], 500, seed=12)
        assert a != c

    def test_single_sample(self):
        f = parse_polynomial("x1^2", 1)
        estimate, stderr = monte_carlo_bernstein(f, 4, [1.0], 1, seed=0)
        assert estimate == 1.0 and stderr == 0.0

    def test_linear_recovers_value(self):
        f = parse_polynomial("x1 + 2*x2", 2)
        estimate, stderr = monte_carlo_bernstein(f, 6, [0.3, 0.7], 40000, seed=5)
        assert abs(estimate - 1.7) <= max(4 * stderr, 1e-12)

    def test_squarefree_exact_target(self):
        f = parse_polynomial("-x1*x2", 2)
        estimate, stderr = monte_carlo_bernstein(f, 5, [0.5, 0.5], 40000, seed=9)
        assert abs(estimate - (-0.2)) <= 4 * stderr

    def test_invalid_distribution_rejected(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        with pytest.raises(ValueError):
            monte_carlo_bernstein(f, 2, [0.7, 0.7], 10, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_bernstein(f, 2, [-0.1, 1.1], 10, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_bernstein(f, 2, [0.5, 0.5], 0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_bernstein(f, 2, [1.0], 10, seed=0)

    def test_order_validation(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        for op in (bernstein_definitional, bernstein_closed_form, bernstein_quadratic):
            with pytest.raises(ValueError):
                op(f, 0)
            with pytest.raises(ValueError):
                op(f, "2")
