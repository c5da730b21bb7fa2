"""Exact grid search over the standard simplex.

A homogeneous polynomial can be minimized over the regular grid of order r
(all points whose coordinates are multiples of 1/r) with nothing but integer
arithmetic: at a grid point alpha/r the value of f has a fixed positive
denominator, so comparing values means comparing integers.  This script walks
through the worked quadratic example and then scans a 92378-point grid to
show the arithmetic stays exact at scale.
"""

from fractions import Fraction
from time import perf_counter

from simplexopt import (
    evaluate,
    format_polynomial,
    grid_maximize,
    grid_minimize,
    grid_size,
    parse_polynomial,
)

f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
print("polynomial:", format_polynomial(f))

# The true minimum of this polynomial over the simplex is -17/32, attained
# at (7/16, 9/16); exact evaluation confirms the value.
x_star = [Fraction(7, 16), Fraction(9, 16)]
print("value at (7/16, 9/16):", evaluate(f, x_star))

# The order-2 grid has only three points; its minimum -1/2 at (1/2, 1/2)
# already lands within 1/32 of the true minimum.
gm = grid_minimize(f, 2)
print(f"order-2 grid minimum: {gm.value} at alpha={gm.argmin.alpha} "
      f"({gm.evaluations} evaluations)")

# Denser grids tighten the approximation; the sequence of grid minima is not
# monotone in r (parity effects), which is why certificates never assume it.
for r in range(1, 9):
    print(f"  r={r}: grid min = {grid_minimize(f, r).value}")

print("order-3 grid maximum:", grid_maximize(f, 3).value)

# Scale check: ten variables, order ten, C(19,10) = 92378 exact evaluations.
big = parse_polynomial(" + ".join(f"x{i}^2" for i in range(1, 11)), 10)
start = perf_counter()
result = grid_minimize(big, 10)
elapsed = perf_counter() - start
print(f"\nn=10, r=10: {grid_size(10, 10)} points, min = {result.value} "
      f"in {elapsed:.2f}s (exact rational arithmetic throughout)")

