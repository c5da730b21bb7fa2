"""Error-bound certificates for grid minimization on the simplex.

Each certificate records an exact grid minimum, a theorem-specific bound on
the distance from the true minimum, the range information the bound was
computed from, and an exactly-checked verdict.  True extrema of a polynomial
on the simplex are NP-hard, so ranges come in three provenances:

  exact_known                -- caller asserts (lower, upper) = (min f, max f);
                                the certificate then checks the bound theorem
                                itself, exactly.
  bernstein_coefficient_range -- (lower, upper) from the Bernstein-basis
                                coefficient range, which provably sandwiches
                                the true range.
  grid_surrogate             -- lower from the coefficient range, upper from a
                                same-order grid maximum (a heuristic stand-in
                                for the true maximum).

For non-exact provenances the observable gap (grid value minus the range
lower bound) overstates the true gap by the unknown slack between the lower
bound and the true minimum, so the theorem form alone cannot certify it.
The recorded bound_value is therefore widened to
max(theorem form, upper - lower), the tightest quantity the certified range
data provably dominates; such certificates are sound but possibly loose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

from .combinatorics import falling_factorial
from .grid import GridMinimum, GridPoint, grid_maximize, grid_minimize
from .polynomial import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    coefficient_range_bounds,
    is_square_free,
    motzkin_straus,
    ptas_constant,
)
from .bernstein import bernstein_closed_form

PROVENANCE_EXACT = "exact_known"
PROVENANCE_COEFFICIENT = "bernstein_coefficient_range"
PROVENANCE_GRID = "grid_surrogate"
_PROVENANCES = (PROVENANCE_EXACT, PROVENANCE_COEFFICIENT, PROVENANCE_GRID)

THEOREM_QUADRATIC = "quadratic"
THEOREM_CUBIC = "cubic"
THEOREM_SQUAREFREE = "squarefree"
THEOREM_GENERAL = "general"
THEOREM_GENERAL_COEFFICIENT = "general_coefficient_range"


@dataclass(frozen=True)
class RangeInput:
    """Certified bracket lower <= min f <= max f <= upper (the upper leg is
    heuristic for grid_surrogate provenance)."""

    lower: Fraction
    upper: Fraction
    provenance: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if self.lower > self.upper:
            raise ValueError(f"range lower {self.lower} exceeds upper {self.upper}")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def span(self) -> Fraction:
        return self.upper - self.lower

    @property
    def is_exact(self) -> bool:
        return self.provenance == PROVENANCE_EXACT


def exact_range(lower, upper) -> RangeInput:
    """Caller-asserted true range (min f, max f)."""
    return RangeInput(Fraction(lower), Fraction(upper), PROVENANCE_EXACT)


def coefficient_range(f: HomogeneousPolynomial) -> RangeInput:
    """Certified range from the Bernstein-basis coefficient bounds."""
    low, high = coefficient_range_bounds(f)
    return RangeInput(low, high, PROVENANCE_COEFFICIENT)


def grid_range(f: HomogeneousPolynomial, r: int, threads: int | None = None) -> RangeInput:
    """Certified lower bound from the coefficient range, heuristic upper
    bound from the order-r grid maximum."""
    low, _ = coefficient_range_bounds(f)
    high = grid_maximize(f, r, threads=threads).value
    return RangeInput(low, high, PROVENANCE_GRID)


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record: gap = grid_value - range.lower, and
    satisfied holds exactly when gap <= bound_value.  ratio is the relative
    gap (gap / range span) and is present only for exact ranges."""

    theorem: str
    n: int
    d: int
    r: int
    grid_value: Fraction
    bound_value: Fraction
    range: RangeInput
    gap: Fraction
    satisfied: bool
    ratio: Fraction | None

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "n": self.n,
            "d": self.d,
            "r": self.r,
            "grid_value": _rat(self.grid_value),
            "bound_value": _rat(self.bound_value),
            "range": {
                "lower": _rat(self.range.lower),
                "upper": _rat(self.range.upper),
                "provenance": self.range.provenance,
            },
            "gap": _rat(self.gap),
            "satisfied": self.satisfied,
        }
        if self.ratio is not None:
            out["ratio"] = _rat(self.ratio)
        return out


def _rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _certify(
    theorem: str,
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    theorem_bound: Fraction,
    grid_result: GridMinimum | None,
    threads: int | None,
) -> BoundCertificate:
    gm = grid_result if grid_result is not None else grid_minimize(f, r, threads=threads)
    if rng.is_exact:
        _refute_exact_range(f, rng, gm.value)
    gap = gm.value - rng.lower
    bound = theorem_bound if rng.is_exact else max(theorem_bound, rng.span)
    ratio = gap / rng.span if rng.is_exact and rng.span else None
    return BoundCertificate(
        theorem=theorem,
        n=f.n,
        d=f.d,
        r=r,
        grid_value=gm.value,
        bound_value=bound,
        range=rng,
        gap=gap,
        satisfied=gap <= bound,
        ratio=ratio,
    )


def _largest_vertex_value(f: HomogeneousPolynomial) -> Fraction:
    """max_i f(e_i): the coefficient of the largest pure power x_i^d."""
    return max(f.coefficient(tuple(f.d if k == i else 0 for k in range(f.n))) for i in range(f.n))


def _refute_exact_range(f: HomogeneousPolynomial, rng: RangeInput, grid_value: Fraction) -> None:
    """Reject an asserted (min f, max f) that evidence already in hand
    contradicts: the true minimum lies between the Bernstein-coefficient low
    and the grid value, and the true maximum between the largest vertex value
    f(e_i) and the coefficient high."""
    if f.d >= 1:
        low, high = coefficient_range_bounds(f)
    else:
        low = high = f.coefficient((0,) * f.n)
    vertex = _largest_vertex_value(f)
    if not low <= rng.lower <= grid_value:
        raise ValueError(
            f"asserted minimum {rng.lower} is refuted: the minimum lies in [{low}, {grid_value}]"
        )
    if not vertex <= rng.upper <= high:
        raise ValueError(
            f"asserted maximum {rng.upper} is refuted: the maximum lies in [{vertex}, {high}]"
        )


def _require_order(r: int, minimum: int = 1) -> None:
    if not isinstance(r, int) or r < minimum:
        raise ValueError(f"grid order must be an integer >= {minimum}, got {r!r}")


def bound_quadratic(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
    threads: int | None = None,
) -> BoundCertificate:
    """Quadratic bound (q_max - lower)/r, where q_max is the largest diagonal
    coefficient (the largest vertex value of f)."""
    _require_order(r)
    if f.d != 2:
        raise ValueError(f"quadratic bound needs degree 2, got degree {f.d}")
    bound = Fraction(_largest_vertex_value(f) - rng.lower, r)
    return _certify(THEOREM_QUADRATIC, f, r, rng, bound, grid_result, threads)


def bound_cubic(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
    threads: int | None = None,
) -> BoundCertificate:
    """Cubic bound (4/r - 4/r^2) * (upper - lower), valid for orders r >= 2."""
    _require_order(r, minimum=2)
    if f.d != 3:
        raise ValueError(f"cubic bound needs degree 3, got degree {f.d}")
    bound = (Fraction(4, r) - Fraction(4, r * r)) * rng.span
    return _certify(THEOREM_CUBIC, f, r, rng, bound, grid_result, threads)


def _shrink_factor(r: int, d: int) -> Fraction:
    """1 - r^(d falling)/r^d: the order-dependent contraction common to the
    square-free and general bounds (equal to 1 while r < d)."""
    return 1 - Fraction(falling_factorial(r, d), r**d)


def bound_squarefree(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
    threads: int | None = None,
) -> BoundCertificate:
    """Square-free bound (1 - r^(d falling)/r^d) * (upper - lower)."""
    _require_order(r)
    if not is_square_free(f):
        raise ValueError("square-free bound needs a square-free polynomial")
    bound = _shrink_factor(r, f.d) * rng.span
    return _certify(THEOREM_SQUAREFREE, f, r, rng, bound, grid_result, threads)


def bound_general(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
    threads: int | None = None,
) -> tuple[BoundCertificate, BoundCertificate]:
    """General-degree bounds, two certificates for the same grid run:

      * 'general': (1 - r^(d falling)/r^d) * C(2d-1, d) * d^d * (upper - lower),
      * 'general_coefficient_range': the same contraction applied to the
        Bernstein-basis coefficient range of f, which is the tighter leg of
        the comparison.
    """
    _require_order(r)
    if f.d < 1:
        raise ValueError(f"general bound needs degree >= 1, got degree {f.d}")
    gm = grid_result if grid_result is not None else grid_minimize(f, r, threads=threads)
    factor = _shrink_factor(r, f.d)
    constant_bound = factor * ptas_constant(f.d) * rng.span
    bc_low, bc_high = coefficient_range_bounds(f)
    coefficient_bound = factor * (bc_high - bc_low)
    cert_constant = _certify(THEOREM_GENERAL, f, r, rng, constant_bound, gm, threads)
    cert_coefficient = _certify(
        THEOREM_GENERAL_COEFFICIENT, f, r, rng, coefficient_bound, gm, threads
    )
    return cert_constant, cert_coefficient


# ---------------------------------------------------------------------------
# Choosing the grid order from a target accuracy
# ---------------------------------------------------------------------------


def _select_theorem(f: HomogeneousPolynomial) -> str:
    """Sharpest applicable bound: square-free beats quadratic beats cubic
    beats general."""
    if is_square_free(f):
        return THEOREM_SQUAREFREE
    if f.d == 2:
        return THEOREM_QUADRATIC
    if f.d == 3:
        return THEOREM_CUBIC
    return THEOREM_GENERAL


def min_grid_order(d: int, epsilon: Fraction, theorem: str) -> int:
    """Smallest grid order whose relative bound factor is <= epsilon:

      quadratic            1/r
      cubic                4/r - 4/r^2           (orders r >= 2)
      squarefree           1 - r^(d falling)/r^d
      general              (1 - r^(d falling)/r^d) * C(2d-1, d) * d^d
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"accuracy must be positive, got {epsilon}")
    if theorem == THEOREM_QUADRATIC:
        return max(1, ceil(1 / epsilon))
    if theorem == THEOREM_CUBIC:
        # 4/r - 4/r^2 is non-increasing for r >= 2
        def ok(r: int) -> bool:
            return Fraction(4, r) - Fraction(4, r * r) <= epsilon

        return _smallest_admissible(ok, minimum=2)
    if theorem in (THEOREM_SQUAREFREE, THEOREM_GENERAL):
        constant = 1 if theorem == THEOREM_SQUAREFREE else ptas_constant(d)

        def ok(r: int) -> bool:
            return _shrink_factor(r, d) * constant <= epsilon

        return _smallest_admissible(ok, minimum=1, first_guess=max(2, 2 * d))
    raise ValueError(f"unknown bound family {theorem!r}")


def _smallest_admissible(ok, minimum: int, first_guess: int | None = None) -> int:
    """Least r >= minimum with ok(r), for a predicate that is monotone
    (False then True) in r: doubling search then bisection."""
    if ok(minimum):
        return minimum
    hi = first_guess if first_guess is not None and first_guess > minimum else 2 * minimum
    while not ok(hi):
        hi *= 2
    lo = minimum
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def ptas_approximate(
    f: HomogeneousPolynomial,
    epsilon: Fraction,
    rng: RangeInput | None = None,
    theorem: str | None = None,
    threads: int | None = None,
) -> tuple[GridPoint, Fraction, BoundCertificate]:
    """Pick the sharpest applicable bound family (unless overridden), choose
    the smallest adequate grid order for the target accuracy, and return the
    minimizing grid point, its exact value, and the certificate.

    With an exact range the returned value is guaranteed within
    epsilon * (upper - lower) of the true minimum.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError(f"accuracy must lie in (0, 1], got {epsilon}")
    chosen = theorem if theorem is not None else _select_theorem(f)
    if rng is None:
        if f.d >= 1:
            rng = coefficient_range(f)
        else:
            value = f.coefficient((0,) * f.n)
            rng = exact_range(value, value)
    r = min_grid_order(f.d, epsilon, chosen)
    gm = grid_minimize(f, r, threads=threads)
    if chosen == THEOREM_QUADRATIC:
        cert = bound_quadratic(f, r, rng, grid_result=gm)
    elif chosen == THEOREM_CUBIC:
        cert = bound_cubic(f, r, rng, grid_result=gm)
    elif chosen == THEOREM_SQUAREFREE:
        cert = bound_squarefree(f, r, rng, grid_result=gm)
    elif chosen == THEOREM_GENERAL:
        cert = bound_general(f, r, rng, grid_result=gm)[0]
    else:
        raise ValueError(f"unknown bound family {chosen!r}")
    return gm.argmin, gm.value, cert


# ---------------------------------------------------------------------------
# Stable sets
# ---------------------------------------------------------------------------


def stable_set_bounds(
    adjacency: Sequence[Sequence[int]], r: int, threads: int | None = None
) -> tuple[int, Fraction, BoundCertificate]:
    """Grid-based lower bound on the stable-set number.

    The minimum of x^T (I + A) x over the simplex equals 1/alpha(G), so the
    order-r grid minimum v satisfies v >= 1/alpha(G); the largest integer a
    with 1/a >= v, i.e. floor(1/v), is a certified lower bound on alpha(G).
    """
    f = motzkin_straus(adjacency)
    gm = grid_minimize(f, r, threads=threads)
    alpha_lower = int(1 / gm.value) if gm.value else 0
    cert = bound_quadratic(f, r, coefficient_range(f), grid_result=gm)
    return alpha_lower, gm.value, cert


def brute_force_stable_set_number(adjacency: Sequence[Sequence[int]]) -> int:
    """Exact stable-set number by branch-and-bound on vertex inclusion.
    Intended for small graphs (the 'slow but correct' oracle)."""
    n = len(adjacency)
    neighbors = [
        sum(1 << j for j in range(n) if adjacency[i][j]) for i in range(n)
    ]

    def best(candidates: int) -> int:
        if candidates == 0:
            return 0
        v = (candidates & -candidates).bit_length() - 1
        without = best(candidates & ~(1 << v))
        with_v = 1 + best(candidates & ~((1 << v) | neighbors[v]))
        return max(without, with_v)

    return best((1 << n) - 1)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def bernstein_excess_on_grid(
    f: HomogeneousPolynomial, r: int, verify_order: int = 64
) -> tuple[Fraction, GridPoint]:
    """Empirical maximum of B_r(f) - f over a fine verification grid, with
    its witness point (the lexicographically smallest index among ties).
    This is an exact lower estimate of the true maximum over the simplex
    (which is not computable exactly in general)."""
    reduced = bernstein_closed_form(f, r).reduced
    assert reduced is not None
    excess = dict(reduced.terms)
    for beta, c in f.terms.items():
        excess[beta] = excess.get(beta, Fraction(0)) - c
    gm = grid_maximize(GeneralPolynomial(f.n, excess), verify_order)
    return gm.value, gm.argmin
