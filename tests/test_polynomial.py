import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexopt import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    ParseError,
    bernstein_coefficients,
    coefficient_range_bounds,
    equal_on_simplex,
    evaluate,
    format_polynomial,
    is_square_free,
    motzkin_straus,
    parse_graph,
    parse_polynomial,
    ptas_constant,
    sample_grid_points,
)
import simplexopt
import simplexopt.polynomial as polynomial_module
from simplexopt.polynomial import MAX_DEGREE, MAX_TERM_ENTRIES
from conftest import coefficients, homogeneous_polynomials, naive_evaluate, random_polynomial

F = Fraction
EXAMPLE_QUADRATIC = "2*x1^2 + x2^2 - 5*x1*x2"


def oracle_value(f, x) -> Fraction:
    """sum of c * prod x_i^e over the terms, one Fraction at a time."""
    return sum((c * prod(F(v) ** e for v, e in zip(x, beta)) for beta, c in f.terms.items()), F(0))


def plus(f, g, c=1):
    """f + c * g, built through the validating constructor."""
    return HomogeneousPolynomial(f.n, f.d, {b: f.terms.get(b, 0) + c * g.terms.get(b, 0) for b in {**f.terms, **g.terms}})


def times(f, c):
    """c * f, built through the validating constructor."""
    return HomogeneousPolynomial(f.n, f.d, {b: c * v for b, v in f.terms.items()})


def points(n):
    return st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 9)), min_size=n, max_size=n)


def wide_points(n):
    """Entries of either sign and past D, with numerators up to 10^6, so
    the powers of a degree-4 form fall on both sides of evaluate's int64 gate."""
    return st.lists(st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**3)), min_size=n, max_size=n)


@st.composite
def general_polynomials(draw, n):
    """Up to six terms of mixed degrees 0..9, constants included."""
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    return GeneralPolynomial(n, draw(st.dictionaries(monomials, coefficients(draw(st.booleans())), max_size=6)))


class TestParsing:
    def test_example_quadratic(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        assert f.terms == {(2, 0): F(2), (0, 2): F(1), (1, 1): F(-5)}
        assert (f.n, f.d) == (2, 2)

    def test_cancellation_keeps_degree(self):
        f = parse_polynomial("x1 - x1", 1)
        assert f.terms == {}
        assert f.d == 1

    def test_mixed_degree_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1^3 + x1*x2", 2)
        assert "mixed degrees" in str(err.value)

    def test_leading_minus_and_fractions(self):
        f = parse_polynomial("-1/2*x1*x2 + 3/4*x2^2", 2)
        assert f.terms == {(1, 1): F(-1, 2), (0, 2): F(3, 4)}

    def test_constant_and_zero(self):
        assert parse_polynomial("7", 3).terms == {(0, 0, 0): F(7)}
        zero = parse_polynomial("0", 2)
        assert zero.terms == {} and zero.d == 0

    def test_repeated_factors_accumulate(self):
        f = parse_polynomial("x1*x1*x2", 2)
        assert f.terms == {(2, 1): F(1)}

    def test_whitespace_ignored(self):
        f = parse_polynomial("  2 * x1 ^ 2  +  x2^2 - 5*x1*x2 ", 2)
        assert f.terms == parse_polynomial(EXAMPLE_QUADRATIC, 2).terms

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("x0 + x1", "out of range"),
            ("x3", "out of range"),
            ("2x1", "expected '+' or '-'"),
            ("x1^0", "positive"),
            ("1/0", "positive"),
            ("x1 + ", "expected coefficient or variable"),
            ("x1 * 3", "expected variable"),
            ("", "empty"),
            ("x1 $ x2", "unexpected character"),
            ("1" * 5000 + "*x1", "integer literal"),
            ("x1\u00b2", "integer literal"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 2)
        assert fragment in str(err.value)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + x9", 2)
        assert err.value.position == 5

    def test_term_entries_are_capped_before_allocation(self):
        n = MAX_TERM_ENTRIES // 2
        assert len(parse_polynomial("x1^2 + x2^2", n).terms) == 2
        with pytest.raises(ParseError, match="terms times variables") as err:
            parse_polynomial("x1^2 + x2^2 + x3^2", n)
        assert err.value.position == 14
        with pytest.raises(ParseError, match="terms times variables"):
            parse_polynomial("x1", 10**8)

    def test_term_degree_is_capped(self):
        top = f"x1^{MAX_DEGREE - 1}*x2"
        assert parse_polynomial(top, 2).d == MAX_DEGREE
        for text in (f"x1^{MAX_DEGREE}*x2", "x1^100000000 + x2^100000000", "x1 + 3*x2^" + "9" * 4000):
            with pytest.raises(ParseError, match="term degree"):
                parse_polynomial(text, 2)


class TestConstruction:
    def test_homogeneous_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPolynomial(0, 1, {})
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, -1, {})
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, {(1, 1, 0): F(1)})  # wrong key length
        with pytest.raises(ValueError, match=r"term \(3, 0\) has degree 3, expected 2"):
            HomogeneousPolynomial(2, 2, {(3, 0): F(1)})  # wrong degree
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, {(-1, 3): F(1)})  # negative exponent

    @pytest.mark.parametrize(
        "make",
        [lambda terms: HomogeneousPolynomial(2, 2, terms), lambda terms: GeneralPolynomial(2, terms)],
        ids=["homogeneous", "general"],
    )
    @pytest.mark.parametrize(
        "key, message",
        [
            ((-1, 3), r"exponent vector \(-1, 3\) must hold nonnegative integers"),
            ((1.0, 1), r"exponent vector \(1.0, 1\) must hold nonnegative integers"),
            ((1, 1, 0), r"exponent vector \(1, 1, 0\) has length 3, expected 2"),
        ],
        ids=["negative", "non-int", "length"],
    )
    def test_public_constructors_validate_keys(self, make, key, message):
        with pytest.raises(ValueError, match=message):
            make({key: F(1)})

    def test_trusted_constructor_stays_private(self):
        # the library's builders skip validation through it; user input cannot
        assert "_from_numerators" not in simplexopt.__all__

    def test_zero_coefficients_dropped_and_merged(self):
        f = HomogeneousPolynomial(2, 2, {(2, 0): F(0), (1, 1): F(3)})
        assert f.terms == {(1, 1): F(3)}
        assert f.terms.get((2, 0), 0) == 0

    def test_general_polynomial_degree(self):
        g = GeneralPolynomial(2, {(0, 0): F(1), (2, 1): F(2)})
        assert g.degree() == 3
        assert GeneralPolynomial(2, {}).degree() == 0
        assert not GeneralPolynomial(2, {}).terms

    def test_equal_on_simplex_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equal_on_simplex(parse_polynomial("x1", 1), parse_polynomial("x1", 2))

    def test_parse_requires_positive_dimension(self):
        with pytest.raises(ValueError):
            parse_polynomial("x1", 0)

    def test_keys_that_collide_after_tuple_merge(self):
        # range(1, -1, -1) is the key (1, 0) once made a tuple
        assert not HomogeneousPolynomial(2, 1, {(1, 0): 1, range(1, -1, -1): -1}).terms
        f = HomogeneousPolynomial(2, 1, {(1, 0): 1, range(1, -1, -1): 2})
        assert f.terms == {(1, 0): F(3)}
        assert format_polynomial(f) == "3*x1"

    def test_term_order_follows_first_appearance(self):
        # a key summed into keeps its place; one that cancels and comes back
        # (bytes iterate as ints) goes to the end
        f = GeneralPolynomial(2, {(1, 0): 1, (0, 1): 2, (0, 0): 5, range(0, 2): F(1, 2)})
        assert list(f.terms.items()) == [((1, 0), F(1)), ((0, 1), F(5, 2)), ((0, 0), F(5))]
        g = GeneralPolynomial(2, {(1, 0): 1, (0, 1): 2, range(1, -1, -1): -1, b"\x01\x00": 4})
        assert list(g.terms.items()) == [((0, 1), F(2)), ((1, 0), F(4))]

    def test_coefficients_keep_value_and_type(self):
        c = F(3, 7)
        assert HomogeneousPolynomial(1, 1, {(1,): c}).terms[(1,)] is c
        f = HomogeneousPolynomial(2, 1, {(1, 0): 2, (0, 1): True})
        assert f.terms == {(1, 0): F(2), (0, 1): F(1)}
        assert all(type(v) is Fraction for v in f.terms.values())


class TestFormatting:
    def test_example_string(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        assert format_polynomial(f) == "2*x1^2 - 5*x1*x2 + x2^2"

    def test_zero(self):
        assert format_polynomial(parse_polynomial("x1 - x1", 1)) == "0"

    def test_term_order_of_text_and_map(self):
        # parsing keeps the text's term order; formatting writes exponents
        # in descending order and leaves the map as it was
        f = parse_polynomial("x2^2 - 5*x1*x2 + 2*x1^2", 2)
        assert list(f.terms) == [(0, 2), (1, 1), (2, 0)]
        assert format_polynomial(f) == format_polynomial(parse_polynomial(EXAMPLE_QUADRATIC, 2))
        assert list(f.terms) == [(0, 2), (1, 1), (2, 0)]

    def test_round_trip_random(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            d = rng.randint(0, 4)
            f = random_polynomial(rng, n, d)
            again = parse_polynomial(format_polynomial(f), n)
            assert again.terms == f.terms

    def test_mixed_degree_output_does_not_parse(self):
        # a reduced Bernstein form mixes degrees: it prints, but the round
        # trip holds for homogeneous forms only
        text = format_polynomial(GeneralPolynomial(2, {(1, 0): 1, (0, 0): 2}))
        assert text == "x1 + 2"
        with pytest.raises(ParseError, match="mixed degrees"):
            parse_polynomial(text, 2)


class TestEvaluate:
    def test_example_minimizer_value(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        assert evaluate(f, [F(7, 16), F(9, 16)]) == F(-17, 32)

    def test_sum_of_squares_at_barycenter(self):
        for n in range(1, 6):
            f = HomogeneousPolynomial(
                n, 2, {tuple(2 if j == i else 0 for j in range(n)): F(1) for i in range(n)}
            )
            assert evaluate(f, [F(1, n)] * n) == F(1, n)

    def test_unit_vectors_pick_out_diagonal_coefficients(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            f = random_polynomial(rng, n, d)
            for i in range(n):
                e_i = [F(1) if j == i else F(0) for j in range(n)]
                assert evaluate(f, e_i) == f.terms.get(tuple(d if j == i else 0 for j in range(n)), 0)

    def test_dimension_mismatch(self):
        f = parse_polynomial("x1^2", 2)
        with pytest.raises(ValueError):
            evaluate(f, [F(1)])

    def test_matches_naive_oracle(self, rng):
        for _ in range(80):
            n = rng.randint(1, 4)
            d = rng.randint(0, 4)
            f = random_polynomial(rng, n, d)
            x = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            assert evaluate(f, x) == naive_evaluate(f, x)

    def test_general_polynomial_matches_naive(self, rng):
        g = GeneralPolynomial(2, {(0, 0): F(1), (1, 1): F(-5, 2), (2, 0): F(1, 3)})
        for _ in range(20):
            x = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
            assert evaluate(g, x) == naive_evaluate(g, x)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_interleaved_calls_match_oracle(self, data):
        n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
        f, g = (data.draw(homogeneous_polynomials(n=st.just(n), d=st.just(d))) for _ in range(2))
        h = data.draw(general_polynomials(n))
        c = data.draw(coefficients(False))
        before = [(p, repr(p), list(p.terms.items())) for p in (f, g, h)]
        zeros = HomogeneousPolynomial(n, d, {}), GeneralPolynomial(n, {})
        # the same instances again and again, at points of other
        # denominators, between new sums and multiples of them
        for x in data.draw(st.lists(points(n), min_size=1, max_size=3)):
            for p in (f, g, h, plus(f, g), times(f, c), f, *zeros, h, plus(g, g, -1), g):
                assert evaluate(p, x) == oracle_value(p, x)
        for p, text, items in before:
            assert p == replace(p)
            assert repr(p) == text
            assert list(p.terms.items()) == items

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_homogeneous_forms_match_naive(self, data):
        f = data.draw(homogeneous_polynomials())
        x = data.draw(wide_points(f.n))
        assert evaluate(f, x) == naive_evaluate(f, x)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mixed_degree_forms_match_naive(self, data):
        # terms of degree 0..3n lack up to 3n powers of D, gathered like a variable's
        n = data.draw(st.integers(1, 4))
        g = data.draw(general_polynomials(n))
        x = data.draw(wide_points(n))
        assert evaluate(g, x) == naive_evaluate(g, x)

    def test_int64_gate_sits_at_2_to_63(self, monkeypatch):
        dtypes = []

        class Spy:  # polynomial's numpy, recording the dtype of each point array
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, values, dtype):
                dtypes.append(dtype)
                return np.array(values, dtype)

        monkeypatch.setattr(polynomial_module, "np", Spy())
        half, wide = [F(1, 2), F(1, 2)], [F(2), F(-1)]
        for e, dtype in ((62, np.int64), (63, object)):
            power = HomogeneousPolynomial(2, e, {(e, 0): F(1)})
            lifted = GeneralPolynomial(2, {(e, 0): F(1), (0, 0): F(1)})  # D^e = 2^e lifts the constant
            assert evaluate(power, half) == F(1, 2**e)
            assert evaluate(power, wide) == 2**e
            assert evaluate(lifted, half) == F(1, 2**e) + 1
            assert dtypes == [dtype] * 3
            dtypes.clear()

    def test_zero_constant_and_one_variable(self):
        far = [F(10**30, 7), F(-(10**30))]
        assert evaluate(HomogeneousPolynomial(2, 3, {}), far) == 0
        assert evaluate(GeneralPolynomial(2, {}), far) == 0
        assert evaluate(HomogeneousPolynomial(2, 0, {(0, 0): F(5, 3)}), far) == F(5, 3)
        assert evaluate(GeneralPolynomial(2, {(0, 0): F(-2)}), far) == -2
        assert evaluate(HomogeneousPolynomial(1, 3, {(3,): F(2, 5)}), [F(7, 3)]) == F(2, 5) * F(343, 27)
        g = GeneralPolynomial(1, {(0,): F(1), (2,): F(-1), (5,): F(10**30)})
        assert evaluate(g, [F(-3, 2)]) == 1 - F(9, 4) - 10**30 * F(243, 32)

    def test_coefficients_of_10_to_30(self):
        big = F(10**30, 7)
        f = HomogeneousPolynomial(3, 3, {(3, 0, 0): big, (1, 1, 1): -big, (0, 1, 2): F(1, 10**30)})
        for x in ([F(1, 3)] * 3, [F(-4), F(9, 2), F(11, 5)]):
            assert evaluate(f, x) == naive_evaluate(f, x)

    def test_flat_power_table_stays_small(self):
        # a rectangular table of n x (top + 1) entries would hold about 10^6 ints
        n = 5000
        g = GeneralPolynomial(n, {(200,) + (0,) * (n - 1): F(1), (0, 1) + (0,) * (n - 2): F(3, 7)})
        x = [F(1, 7), F(6, 7)] + [F(0)] * (n - 2)
        tracemalloc.start()
        try:
            value = evaluate(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == F(1, 7**200) + F(18, 49)
        assert peak < 2**20

    def test_linearity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            d = rng.randint(1, 3)
            f = random_polynomial(rng, n, d)
            g = random_polynomial(rng, n, d)
            x = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
            assert evaluate(plus(f, g), x) == evaluate(f, x) + evaluate(g, x)
            assert evaluate(times(f, F(3, 7)), x) == F(3, 7) * evaluate(f, x)


class TestBernsteinCoefficients:
    def test_example_quadratic(self):
        f = parse_polynomial(EXAMPLE_QUADRATIC, 2)
        assert bernstein_coefficients(f) == {
            (2, 0): F(2),
            (0, 2): F(1),
            (1, 1): F(-5, 2),
        }

    def test_pure_power(self):
        for d in range(1, 6):
            f = HomogeneousPolynomial(1, d, {(d,): F(1)})
            assert bernstein_coefficients(f) == {(d,): F(1)}

    def test_elementary_cube_monomial(self):
        f = parse_polynomial("x1*x2*x3", 3)
        assert bernstein_coefficients(f) == {(1, 1, 1): F(1, 6)}


class TestCoefficientRange:
    def test_sum_of_squares_includes_missing_monomials(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert coefficient_range_bounds(f) == (F(0), F(1))

    def test_negative_cross_term(self):
        f = parse_polynomial("-x1*x2", 2)
        assert coefficient_range_bounds(f) == (F(-1, 2), F(0))

    def test_full_support_linear(self):
        f = parse_polynomial("x1 + x2 + x3", 3)
        assert coefficient_range_bounds(f) == (F(1), F(1))

    def test_degree_zero_is_the_constant(self):
        assert coefficient_range_bounds(parse_polynomial("5", 2)) == (F(5), F(5))
        assert coefficient_range_bounds(parse_polynomial("-3/7", 3)) == (F(-3, 7), F(-3, 7))
        assert coefficient_range_bounds(HomogeneousPolynomial(2, 0, {})) == (F(0), F(0))

    @settings(max_examples=300, deadline=None)
    @given(
        f=homogeneous_polynomials(n=st.integers(1, 7), d=st.integers(1, 6)),
        factor=st.sampled_from([1, 10**22, F(-1, 10**22)]),
    )
    def test_matches_bernstein_coefficients(self, f, factor):
        f = times(f, factor)
        values = list(bernstein_coefficients(f).values())
        if len(f.terms) < comb(f.n + f.d - 1, f.d):
            values.append(F(0))
        low, high = coefficient_range_bounds(f)
        assert (low, high) == (min(values), max(values))
        assert type(low) is F and type(high) is F

    def test_sandwiches_values_on_simplex(self, rng):
        for _ in range(12):
            n = rng.randint(1, 5)
            d = rng.randint(1, 4)
            f = random_polynomial(rng, n, d)
            low, high = coefficient_range_bounds(f)
            for x in sample_grid_points(n, 100, rng):
                value = evaluate(f, x)
                assert low <= value <= high


class TestPtasConstant:
    @pytest.mark.parametrize("d, expected", [(1, 1), (2, 12), (3, 270), (4, 8960)])
    def test_values(self, d, expected):
        assert ptas_constant(d) == expected

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            ptas_constant(0)


class TestMotzkinStraus:
    def test_empty_graph(self):
        f = motzkin_straus([[0, 0], [0, 0]])
        assert f.terms == {(2, 0): F(1), (0, 2): F(1)}

    def test_single_edge(self):
        f = motzkin_straus([[0, 1], [1, 0]])
        assert f.terms == {(2, 0): F(1), (0, 2): F(1), (1, 1): F(2)}

    def test_five_cycle_shape(self):
        cycle = [[0] * 5 for _ in range(5)]
        for i in range(5):
            cycle[i][(i + 1) % 5] = cycle[(i + 1) % 5][i] = 1
        f = motzkin_straus(cycle)
        squares = [b for b in f.terms if max(b) == 2]
        crosses = [b for b in f.terms if max(b) == 1]
        assert len(squares) == 5 and len(crosses) == 5
        assert all(f.terms[b] == 2 for b in crosses)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    def test_matches_the_validating_constructor(self, graph):
        # squares first, then the edges in (i, j) order, as a validated build
        n, edges = graph
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        adjacency = [[0] * n for _ in range(n)]
        for (i, j), edge in zip(pairs, edges):
            adjacency[i][j] = adjacency[j][i] = int(edge)
        terms = {tuple(2 * (k == i) for k in range(n)): 1 for i in range(n)}
        terms.update({tuple(int(k in pair) for k in range(n)): 2 for pair, edge in zip(pairs, edges) if edge})
        f, reference = motzkin_straus(adjacency), HomogeneousPolynomial(n, 2, terms)
        assert list(f.terms.items()) == list(reference.terms.items())
        assert all(type(c) is F for c in f.terms.values())
        assert (f.n, f.d) == (n, 2)
        assert f._integer_form == reference._integer_form

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 1], [0, 0]],  # asymmetric
            [[1, 0], [0, 0]],  # nonzero diagonal
            [[0, 2], [2, 0]],  # non-binary
            [[0, 1]],  # not square
        ],
    )
    def test_rejections(self, matrix):
        with pytest.raises(ValueError):
            motzkin_straus(matrix)


class TestGraphParsing:
    def test_round_trip(self):
        text = "c toy graph\np 3 2\ne 1 2\ne 2 3\n"
        assert parse_graph(text) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_standard_edge_header(self):
        text = "c toy graph\np edge 3 2\ne 1 2\ne 2 3\n"
        assert parse_graph(text) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_vertex_cap_is_inclusive(self):
        # the stable-set form has n + m terms of n entries each
        assert len(parse_graph("p 1000 0")) == 1000
        edges = [f"e {i} {j}" for i in range(1, 501) for j in range(i + 1, 501)][:1500]
        assert 500 * (500 + 1500) == MAX_TERM_ENTRIES
        assert sum(map(sum, parse_graph("\n".join(["p 500 1500", *edges])))) == 2 * 1500

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("e 1 2", "before 'p' header"),
            ("p 3 1\ne 1 4", "out of range"),
            ("p 3 1\ne 2 2", "self-loop"),
            ("p 3 2\ne 1 2", "declared 2 edges"),
            ("p 3 0\nq 1 2", "unrecognized"),
            ("", "missing 'p' header"),
            ("p 1001 0", "terms times variables"),
            ("p 1000 1", "terms times variables"),
            ("p 200 19900", "terms times variables"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: GeneralPolynomial(0, {}), "dimension must be >= 1"),
        (lambda: motzkin_straus([]), "at least one vertex"),
    ],
    ids=["GeneralPolynomial", "motzkin_straus"],
)
def test_invalid_arguments_are_refused(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


class TestSquareFree:
    def test_examples(self):
        assert is_square_free(parse_polynomial("-x1*x2", 2))
        assert not is_square_free(parse_polynomial("x1^2 + x2^2", 2))
        assert is_square_free(parse_polynomial("x1 - x1", 1))


class TestEqualOnSimplex:
    def test_linear_partition_of_unity(self):
        f = parse_polynomial("x1 + x2", 2)
        one = GeneralPolynomial(2, {(0, 0): F(1)})
        assert equal_on_simplex(f, one)

    def test_squares_vs_reduced_form(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        g = GeneralPolynomial(2, {(0, 0): F(1), (1, 1): F(-2)})
        assert equal_on_simplex(f, g)

    def test_detects_disagreement(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        g = GeneralPolynomial(2, {(0, 0): F(1)})
        assert not equal_on_simplex(f, g)

    def test_agrees_with_sampling(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 3)
            f = random_polynomial(rng, n, d)
            g = random_polynomial(rng, n, d)
            verdict = equal_on_simplex(f, g)
            sampled = all(
                evaluate(f, x) == evaluate(g, x) for x in sample_grid_points(n, 30, rng)
            )
            if verdict:
                assert sampled
            # 30 distinct rational points on a degree <= 3 curve cannot all
            # coincide unless the difference vanishes identically for n <= 2;
            # for safety only assert the forward implication above.
