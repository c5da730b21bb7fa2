"""The public surface: what `import simplexopt` offers, and nothing more.

A name added to or dropped from `__all__` has to change this list too, so a
change to the public API is always deliberate.
"""

import pytest

import simplexopt
from simplexopt import ParseError, bernstein_closed_form, parse_polynomial
from simplexopt import bernstein, combinatorics, polynomial

PUBLIC = [
    "BernsteinResult",
    "BoundCertificate",
    "GeneralPolynomial",
    "GridMinimum",
    "GridPoint",
    "HomogeneousPolynomial",
    "MultiIndex",
    "ParseError",
    "RangeInput",
    "bernstein_closed_form",
    "bernstein_coefficients",
    "bernstein_cubic",
    "bernstein_definitional",
    "bernstein_excess_on_grid",
    "bernstein_quadratic",
    "bernstein_squarefree",
    "bound_cubic",
    "bound_general",
    "bound_quadratic",
    "bound_squarefree",
    "brute_force_stable_set_number",
    "coefficient_range",
    "coefficient_range_bounds",
    "composition_unrank",
    "compositions",
    "enumerate_grid",
    "equal_on_simplex",
    "evaluate",
    "exact_range",
    "falling_factorial",
    "format_polynomial",
    "grid_maximize",
    "grid_minimize",
    "grid_range",
    "grid_size",
    "is_square_free",
    "min_grid_order",
    "moment_direct",
    "moment_stirling",
    "monte_carlo_bernstein",
    "motzkin_straus",
    "multinomial",
    "parse_graph",
    "parse_polynomial",
    "ptas_approximate",
    "ptas_constant",
    "run_selftest",
    "sample_grid_points",
    "stable_set_bounds",
    "stirling2",
    "sum_of_powers_grid_min",
    "surjection_count",
]


def test_all_is_the_public_list():
    assert simplexopt.__all__ == PUBLIC
    assert all(hasattr(simplexopt, name) for name in PUBLIC)


def _parse_error() -> ParseError:
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +", 1)
    return err.value


OWNERS = {
    "polynomial": lambda: polynomial,
    "HomogeneousPolynomial": lambda: polynomial.HomogeneousPolynomial,
    "GeneralPolynomial": lambda: polynomial.GeneralPolynomial,
    "ParseError": _parse_error,
    "combinatorics": lambda: combinatorics,
    "BernsteinResult": lambda: bernstein_closed_form(parse_polynomial("x1^2", 2), 2),
    "bernstein": lambda: bernstein,
}
REMOVED = [
    ("polynomial", "add"),
    ("polynomial", "scale"),
    ("HomogeneousPolynomial", "coefficient"),
    ("GeneralPolynomial", "coefficient"),
    ("HomogeneousPolynomial", "is_zero"),
    ("GeneralPolynomial", "is_zero"),
    ("ParseError", "reason"),
    ("combinatorics", "check_identity_falling_sum"),
    ("combinatorics", "check_identity_stirling_split"),
    ("BernsteinResult", "r"),
    ("BernsteinResult", "source"),
    ("bernstein", "SOURCE_DEFINITIONAL"),
    ("bernstein", "SOURCE_CLOSED_FORM"),
    ("bernstein", "SOURCE_QUADRATIC"),
    ("bernstein", "SOURCE_CUBIC"),
    ("bernstein", "SOURCE_SQUAREFREE"),
]


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{owner}.{name}" for owner, name in REMOVED])
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(OWNERS[owner](), name)
    assert not hasattr(simplexopt, name)
