"""Exact minimization of homogeneous polynomials over the standard simplex.

The library evaluates polynomials on regular simplex grids in exact rational
arithmetic, computes Bernstein approximations by independent routes, and
emits machine-checkable certificates for the grid-vs-true-minimum error
bounds, including the accuracy-driven choice of grid order.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, and its extra
# workers cost more CPU than they save (README, "BLAS threads and memory").
# Unless the caller chose a count or imported numpy, load it with one thread
# and leave os.environ, and so every child process, as it was.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
del os, sys

from .bernstein import (
    BernsteinResult,
    bernstein_closed_form,
    bernstein_cubic,
    bernstein_definitional,
    bernstein_quadratic,
    bernstein_squarefree,
    moment_direct,
    moment_stirling,
    monte_carlo_bernstein,
)
from .bounds import (
    BoundCertificate,
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
    ptas_approximate,
    stable_set_bounds,
)
from .combinatorics import (
    MultiIndex,
    compositions,
    falling_factorial,
    multinomial,
    stirling2,
    surjection_count,
)
from .grid import (
    GridMinimum,
    GridPoint,
    composition_unrank,
    enumerate_grid,
    grid_maximize,
    grid_minimize,
    grid_size,
    sample_grid_points,
    sum_of_powers_grid_min,
)
from .polynomial import (
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
)
from .selftest import run_selftest

__all__ = [
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

__version__ = "0.1.0"
