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
from typing import Callable, Sequence

from .combinatorics import falling_factorial
from .grid import MAX_GRID_POINTS, GridMinimum, GridPoint, _require_order
from .grid import grid_maximize, grid_minimize
from .polynomial import (
    HomogeneousPolynomial,
    _rat,
    coefficient_range_bounds,
    is_square_free,
    motzkin_straus,
    ptas_constant,
)
from .bernstein import _closed_form_excess

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


def grid_range(f: HomogeneousPolynomial, r: int) -> RangeInput:
    """Certified lower bound from the coefficient range, heuristic upper
    bound from the order-r grid maximum."""
    low, _ = coefficient_range_bounds(f)
    high = grid_maximize(f, r).value
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


def _certify(
    theorem: str,
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    theorem_bound: Fraction,
    grid_result: GridMinimum | None,
) -> BoundCertificate:
    gm = grid_result if grid_result is not None else grid_minimize(f, r)
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
    """max_i f(e_i): the largest coefficient of a pure power x_i^d, and 0
    when some x_i^d is absent (with d = 0 every f(e_i) is the constant)."""
    pure = [c for beta, c in f.terms.items() if f.d in beta]
    if f.d and len(pure) < f.n:
        pure.append(Fraction(0))
    return max(pure, default=Fraction(0))


def _refute_exact_range(f: HomogeneousPolynomial, rng: RangeInput, grid_value: Fraction) -> None:
    """Reject an asserted (min f, max f) that evidence already in hand
    contradicts: the true minimum lies between the Bernstein-coefficient low
    and the grid value, and the true maximum between the largest vertex value
    f(e_i) and the coefficient high."""
    low, high = coefficient_range_bounds(f)
    vertex = _largest_vertex_value(f)
    if not low <= rng.lower <= grid_value:
        raise ValueError(
            f"asserted minimum {rng.lower} is refuted: the minimum lies in [{low}, {grid_value}]"
        )
    if not vertex <= rng.upper <= high:
        raise ValueError(
            f"asserted maximum {rng.upper} is refuted: the maximum lies in [{vertex}, {high}]"
        )


def _shrink_factor(r: int, d: int) -> Fraction:
    """1 - r^(d falling)/r^d: the order-dependent contraction common to the
    square-free and general bounds (equal to 1 while r < d)."""
    return 1 - Fraction(falling_factorial(r, d), r**d)


@dataclass(frozen=True)
class _Theorem:
    """One bound family: its --theorem flag, the least grid order it holds
    for, which polynomials it applies to, and its relative factor at order r
    and degree d (the bound over the range span, non-increasing in r).  The
    certificate function is held by name and looked up at each call, so a
    replaced module attribute is the one that runs."""

    flag: str
    minimum: int
    applies: Callable[[HomogeneousPolynomial], bool]
    needs: str
    factor: Callable[[int, int], Fraction]
    bound: str

    def certificates(
        self,
        f: HomogeneousPolynomial,
        r: int,
        rng: RangeInput,
        grid_result: GridMinimum | None = None,
    ) -> tuple[BoundCertificate, ...]:
        certs = globals()[self.bound](f, r, rng, grid_result=grid_result)
        return certs if isinstance(certs, tuple) else (certs,)


# Every bound family, sharpest first: the first one that applies is the one
# chosen when none is named.
THEOREMS = {
    THEOREM_SQUAREFREE: _Theorem(
        "sqfree", 1, is_square_free, "a square-free polynomial", _shrink_factor, "bound_squarefree"
    ),
    THEOREM_QUADRATIC: _Theorem(
        "quad", 1, lambda f: f.d == 2, "degree 2", lambda r, d: Fraction(1, r), "bound_quadratic"
    ),
    THEOREM_CUBIC: _Theorem(
        "cubic", 2, lambda f: f.d == 3, "degree 3",
        lambda r, d: Fraction(4, r) - Fraction(4, r * r), "bound_cubic",
    ),
    THEOREM_GENERAL: _Theorem(
        "general", 1, lambda f: f.d >= 1, "degree >= 1",
        lambda r, d: _shrink_factor(r, d) * ptas_constant(d), "bound_general",
    ),
}


def _admit(name: str, f: HomogeneousPolynomial, r: int) -> Fraction:
    """Check that the family applies to f at order r; return its factor."""
    entry = THEOREMS[name]
    _require_order(r, entry.minimum)
    if not entry.applies(f):
        raise ValueError(f"{name} bound needs {entry.needs}; f has degree {f.d}")
    return entry.factor(r, f.d)


def bound_quadratic(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
) -> BoundCertificate:
    """Quadratic bound (q_max - lower)/r, where q_max is the largest diagonal
    coefficient (the largest vertex value of f)."""
    factor = _admit(THEOREM_QUADRATIC, f, r)
    bound = factor * (_largest_vertex_value(f) - rng.lower)
    return _certify(THEOREM_QUADRATIC, f, r, rng, bound, grid_result)


def bound_cubic(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
) -> BoundCertificate:
    """Cubic bound (4/r - 4/r^2) * (upper - lower), valid for orders r >= 2."""
    factor = _admit(THEOREM_CUBIC, f, r)
    return _certify(THEOREM_CUBIC, f, r, rng, factor * rng.span, grid_result)


def bound_squarefree(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
) -> BoundCertificate:
    """Square-free bound (1 - r^(d falling)/r^d) * (upper - lower)."""
    factor = _admit(THEOREM_SQUAREFREE, f, r)
    return _certify(THEOREM_SQUAREFREE, f, r, rng, factor * rng.span, grid_result)


def bound_general(
    f: HomogeneousPolynomial,
    r: int,
    rng: RangeInput,
    grid_result: GridMinimum | None = None,
) -> tuple[BoundCertificate, BoundCertificate]:
    """General-degree bounds, two certificates for the same grid run:

      * 'general': (1 - r^(d falling)/r^d) * C(2d-1, d) * d^d * (upper - lower),
      * 'general_coefficient_range': the same contraction applied to the
        Bernstein-basis coefficient range of f, which is the tighter leg of
        the comparison.
    """
    factor = _admit(THEOREM_GENERAL, f, r)
    gm = grid_result if grid_result is not None else grid_minimize(f, r)
    bc_low, bc_high = coefficient_range_bounds(f)
    # the contraction alone, without the constant C(2d-1, d) * d^d
    coefficient_bound = factor / ptas_constant(f.d) * (bc_high - bc_low)
    return (
        _certify(THEOREM_GENERAL, f, r, rng, factor * rng.span, gm),
        _certify(THEOREM_GENERAL_COEFFICIENT, f, r, rng, coefficient_bound, gm),
    )


# ---------------------------------------------------------------------------
# Choosing the grid order from a target accuracy
# ---------------------------------------------------------------------------


def _select_theorem(f: HomogeneousPolynomial) -> str:
    """Sharpest applicable bound family: the first entry of THEOREMS that
    applies to f."""
    return next(name for name, entry in THEOREMS.items() if entry.applies(f))


def min_grid_order(d: int, epsilon: Fraction, theorem: str) -> int:
    """Smallest grid order, at least the family's minimum, whose relative
    factor in THEOREMS is <= epsilon: a doubling search from the minimum,
    capped at MAX_GRID_POINTS, then bisection.  An accuracy that no order up
    to MAX_GRID_POINTS meets is refused, since no larger order has a grid a
    scan accepts in two or more variables."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"accuracy must be positive, got {epsilon}")
    if theorem not in THEOREMS:
        raise ValueError(f"unknown bound family {theorem!r}")
    entry = THEOREMS[theorem]
    # the factor is non-increasing in r, so the least order lies in (lo, hi]
    lo, hi = entry.minimum - 1, entry.minimum
    while entry.factor(hi, d) > epsilon:
        if hi >= MAX_GRID_POINTS:
            raise ValueError(
                f"accuracy {epsilon} needs a grid order above {MAX_GRID_POINTS}, whose grid in two or more "
                f"variables has more than {MAX_GRID_POINTS} points, the most a scan accepts"
            )
        lo, hi = hi, min(2 * hi, MAX_GRID_POINTS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if entry.factor(mid, d) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def ptas_approximate(
    f: HomogeneousPolynomial,
    epsilon: Fraction,
    rng: RangeInput | None = None,
) -> tuple[GridPoint, Fraction, BoundCertificate]:
    """Pick the sharpest applicable bound family, choose the smallest
    adequate grid order for the target accuracy, and return the minimizing
    grid point, its exact value, and the certificate.

    With an exact range the returned value is guaranteed within
    epsilon * (upper - lower) of the true minimum.  An accuracy that needs
    an order above MAX_GRID_POINTS is refused by min_grid_order, and a grid
    larger than a scan accepts by grid_minimize, before any scan work.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError(f"accuracy must lie in (0, 1], got {epsilon}")
    chosen = _select_theorem(f)
    r = min_grid_order(f.d, epsilon, chosen)
    gm = grid_minimize(f, r)
    rng = coefficient_range(f) if rng is None else rng
    cert = THEOREMS[chosen].certificates(f, r, rng, grid_result=gm)[0]
    return gm.argmin, gm.value, cert


# ---------------------------------------------------------------------------
# Stable sets
# ---------------------------------------------------------------------------

MAX_BRUTE_VERTICES = 20  # the exact search visits up to 2^n vertex subsets


def stable_set_bounds(
    adjacency: Sequence[Sequence[int]], r: int
) -> tuple[int, Fraction, BoundCertificate]:
    """Grid-based lower bound on the stable-set number.

    The minimum of x^T (I + A) x over the simplex equals 1/alpha(G), so the
    order-r grid minimum v satisfies v >= 1/alpha(G); the largest integer a
    with 1/a >= v, i.e. floor(1/v), is a certified lower bound on alpha(G).
    """
    f = motzkin_straus(adjacency)
    gm = grid_minimize(f, r)
    alpha_lower = int(1 / gm.value) if gm.value else 0
    cert = bound_quadratic(f, r, coefficient_range(f), grid_result=gm)
    return alpha_lower, gm.value, cert


def brute_force_stable_set_number(adjacency: Sequence[Sequence[int]]) -> int:
    """Exact stable-set number by branch-and-bound on vertex inclusion, the
    'slow but correct' oracle, for at most MAX_BRUTE_VERTICES vertices."""
    n = len(adjacency)
    if n > MAX_BRUTE_VERTICES:
        raise ValueError(f"an exact stable-set search takes at most {MAX_BRUTE_VERTICES} vertices, got {n}")
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
    gm = grid_maximize(_closed_form_excess(f, r), verify_order)
    return gm.value, gm.argmin
