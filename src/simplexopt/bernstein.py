"""Bernstein approximation on the simplex, by several independent routes.

The order-r Bernstein approximation of a degree-d homogeneous polynomial f is

    B_r(f)(x) = sum over |alpha| = r of  f(alpha/r) * (r!/alpha!) * x^alpha,

a degree-r homogeneous polynomial whose value at any simplex point is a
convex combination of the values of f on the order-r grid.  Restricted to
the simplex it collapses to a polynomial of degree at most d, which this
module computes three independent ways:

  * definitional     -- the degree-r form above, coefficient by coefficient;
  * closed form      -- per-monomial expansion through falling factorials and
                        Stirling numbers of the second kind:
                        B_r(x^beta) = r^(-|beta|) * sum over gamma <= beta of
                        r^(|gamma| falling) * x^gamma * prod S(beta_i, gamma_i);
  * specialized      -- hand closed forms for quadratic, cubic and square-free
                        inputs.

The same machinery evaluates the moments of the multinomial distribution two
ways (the grid sum as a chain of binomials vs the Stirling closed form), and a
seeded Monte Carlo random walk provides a floating-point cross-check of B_r(f)(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod, sqrt
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import MultiIndex, binomial_row, falling_factorial, stirling2
from .grid import MAX_EXPANDED_POINTS, _Kernel, _require_grid, _require_order
from .polynomial import (
    MAX_DEGREE,
    MAX_TERM_ENTRIES,
    GeneralPolynomial,
    HomogeneousPolynomial,
    RationalLike,
    _cleared_point,
    _format_rational,
    is_square_free,
)

MAX_STIRLING_TUPLES = 10**5  # most gamma one Stirling expansion walks over all its monomials, a few us each


@dataclass(frozen=True)
class BernsteinResult:
    """One route's output: exactly one of the degree-r homogeneous form
    (the definitional route) and the reduced (degree <= d) simplex form
    (every other route)."""

    homogeneous: HomogeneousPolynomial | None
    reduced: GeneralPolynomial | None


def bernstein_definitional(f: HomogeneousPolynomial, r: int) -> BernsteinResult:
    """Degree-r homogeneous form: the coefficient of x^alpha is f(alpha/r) *
    r!/alpha!, r!/alpha! a product of entries of rows C(m, .) built once each,
    a term per point of a grid of at most MAX_EXPANDED_POINTS points and, as
    each term keeps an n-long alpha, MAX_TERM_ENTRIES entries."""
    size = _require_grid(f.n, r, MAX_EXPANDED_POINTS, "the definitional route")
    if size * f.n > MAX_TERM_ENTRIES:
        raise ValueError(f"the definitional route would keep {size} terms of {f.n} entries, past {MAX_TERM_ENTRIES} entries")
    kernel = _Kernel(f, r)
    rows: dict[int, list[int]] = {}
    numerators = {}
    for alphas, values in kernel.values():
        for alpha, v in zip(alphas, values):
            w, m = 1, r
            for a_i in alpha[:-1]:
                if m not in rows:
                    rows[m] = binomial_row(m)
                w *= rows[m][a_i]
                m -= a_i
            numerators[tuple(alpha)] = v * w
    del rows  # at the grid limit the binomial rows weigh as much as the terms: free them first
    poly = HomogeneousPolynomial._from_numerators(f.n, numerators, numerators.values(), kernel.denom, d=r)
    return BernsteinResult(homogeneous=poly, reduced=None)


def _stirling_weights(beta: MultiIndex, r: int) -> Iterator[tuple[MultiIndex, int]]:
    """Yield (gamma, r^(|gamma| falling) * prod_i S(beta_i, gamma_i)) for
    every gamma <= beta whose weight is nonzero.

    Only gamma with gamma_i >= 1 wherever beta_i >= 1 can contribute, since
    S(b, 0) = 0 for b >= 1, so the walk takes prod max(beta_i, 1) tuples.  On
    those S(beta_i, gamma_i) >= 1, so a weight is zero only when |gamma| > r,
    where the falling factorial is 0 and the Stirling product is not taken.
    """
    ranges = [range(1, b + 1) if b else range(0, 1) for b in beta]
    for gamma in product(*ranges):
        falling = falling_factorial(r, sum(gamma))
        if falling:
            yield gamma, falling * prod(map(stirling2, beta, gamma))


def _require_stirling(monomials: Iterable[MultiIndex], n: int) -> None:
    """Refuse an expansion whose walks take more than MAX_STIRLING_TUPLES gamma
    in all, or whose n-long gamma hold more than MAX_TERM_ENTRIES entries."""
    tuples = sum(prod(max(b, 1) for b in beta) for beta in monomials)
    if tuples > MAX_STIRLING_TUPLES or n * tuples > MAX_TERM_ENTRIES:
        raise ValueError(f"the Stirling expansion walks {tuples} tuples of {n} entries, past {MAX_STIRLING_TUPLES} tuples or {MAX_TERM_ENTRIES} entries")


def _summed(f: HomogeneousPolynomial, images: Callable[[MultiIndex], Iterable[tuple[MultiIndex, int]]], den: int) -> BernsteinResult:
    """Reduced form sum over the terms c * x^beta of f of c * w * x^gamma, for
    each (gamma, w) in images(beta), over cden * den: B_r is linear, so each
    route gives B_r(x^beta) = sum w * x^gamma / den one monomial at a time."""
    cden, _, numerators = f._integer_form
    acc: dict[MultiIndex, int] = {}
    for beta, c in zip(f.terms, numerators):
        for gamma, w in images(beta):
            acc[gamma] = acc.get(gamma, 0) + c * w
    reduced = GeneralPolynomial._from_numerators(f.n, acc, acc.values(), cden * den)
    return BernsteinResult(homogeneous=None, reduced=reduced)


def bernstein_closed_form(f: HomogeneousPolynomial, r: int) -> BernsteinResult:
    """Reduced form of degree <= d: the per-monomial Stirling closed forms,
    weighted by the numerators of f and summed per gamma over cden * r^d."""
    _require_order(r)
    _require_stirling(f.terms, f.n)
    return _summed(f, lambda beta: _stirling_weights(beta, r), r**f.d)


def _closed_form_excess(f: HomogeneousPolynomial, r: int) -> GeneralPolynomial:
    """B_r(f) - f on the simplex in the closed form's one pass: each beta's
    Stirling images, then beta itself weighted -r^d, over cden * r^d."""
    _require_order(r)
    _require_stirling(f.terms, f.n)
    rd = r**f.d
    return _summed(f, lambda beta: (*_stirling_weights(beta, r), (beta, -rd)), rd).reduced


def bernstein_quadratic(f: HomogeneousPolynomial, r: int) -> BernsteinResult:
    """Quadratic shortcut B_r(f) = (1/r) sum_i Q_ii x_i + (1 - 1/r) f on the
    simplex, f = x^T Q x, taken per monomial: r B_r(x^beta) is (r-1) x^beta,
    plus x_i when beta = 2e_i."""
    _require_order(r)
    if f.d != 2:
        raise ValueError(f"quadratic route needs degree 2, got degree {f.d}")

    def images(beta: MultiIndex) -> list[tuple[MultiIndex, int]]:
        out = [(beta, r - 1)]
        if 2 in beta:  # beta = 2e_i
            out.append((tuple(b // 2 for b in beta), 1))
        return out

    return _summed(f, images, r)


def bernstein_cubic(f: HomogeneousPolynomial, r: int) -> BernsteinResult:
    """Cubic shortcut, the source paper's formula taken per monomial: on the
    simplex r^2 B_r(x^beta) is (r-1)(r-2) x^beta, plus x_i + 3(r-1) x_i^2
    when beta = 3e_i and (r-1) x_i x_j when beta = 2e_i + e_j."""
    _require_order(r)
    if f.d != 3:
        raise ValueError(f"cubic route needs degree 3, got degree {f.d}")

    def images(beta: MultiIndex) -> list[tuple[MultiIndex, int]]:
        out = [(beta, (r - 1) * (r - 2))]
        if 3 in beta:  # beta = 3e_i
            e_i = tuple(b // 3 for b in beta)
            out += [(e_i, 1), (tuple(2 * b for b in e_i), 3 * (r - 1))]
        elif 2 in beta:  # beta = 2e_i + e_j
            out.append((tuple(min(b, 1) for b in beta), r - 1))
        return out

    return _summed(f, images, r * r)


def bernstein_squarefree(f: HomogeneousPolynomial, r: int) -> BernsteinResult:
    """Square-free shortcut: B_r(f) = (r^(d falling) / r^d) * f on the
    simplex, hence the zero polynomial whenever r < d."""
    _require_order(r)
    if not is_square_free(f):
        raise ValueError("square-free route needs a square-free polynomial")
    w = falling_factorial(r, f.d)
    return _summed(f, lambda beta: ((beta, w),), r**f.d)


# ---------------------------------------------------------------------------
# Multinomial moments
# ---------------------------------------------------------------------------


def _check_simplex_point(n: int, x: Sequence[RationalLike]) -> tuple[list[int], int]:
    """(a, D) with x = a / D; refuses a dimension below 1 and a point off the
    standard simplex."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    a, den = _cleared_point(n, x)
    if min(a, default=0) < 0 or sum(a) != den:
        point = ", ".join(_format_rational(Fraction(v, den)) for v in a)
        raise ValueError(f"point ({point}) is not on the standard simplex")
    return a, den


def _check_moment_order(n: int, beta: Sequence[int]) -> MultiIndex:
    order = tuple(beta)
    if len(order) != n:
        raise ValueError(f"moment order has dimension {len(order)}, expected {n}")
    if any(not isinstance(b, int) or b < 0 for b in order):
        raise ValueError(f"moment order must hold nonnegative integers: {order}")
    if sum(order) > MAX_DEGREE:
        raise ValueError(f"moment order passes {MAX_DEGREE}, the largest accepted")
    return order


def _chain_step(sums: list[int], a_i: int, b_i: int, r: int) -> list[int]:
    """The chain's sums after one more entry alpha_i, weighed by alpha_i^b_i."""
    nxt = [0] * (r + 1)
    for s, c in enumerate(sums):
        m = r - s
        for k in range(m + 1):  # c = sums[s] * C(m, k) * a_i^k
            nxt[s + k] += c * k**b_i
            c = c * a_i * (m - k) // (k + 1)
    return nxt


def _direct_sums(a: list[int], r: int, orders: Sequence[MultiIndex]) -> list[int]:
    """D^r times the grid sum of moment_direct at x = a / D, for each order.
    The orders share their chains: the sums after the entries beta_1..beta_i
    are built once per distinct such leading part, from the sums of its own
    leading part, and the last entry is taken per order by Horner's rule."""
    chains: dict[MultiIndex, list[int]] = {}
    totals = []
    for beta in orders:
        sums = [1]
        for i in range(len(a) - 1):
            head = beta[: i + 1]
            if head not in chains:
                chains[head] = _chain_step(sums, a[i], beta[i], r)
            sums = chains[head]
        # the last entry is r - s: Horner in a_n over the totals s (with one
        # variable, sums is [1] and a_n = D = 1, so no power of a_n is missing)
        total, a_n, b_n = 0, a[-1], beta[-1]
        for s, acc in enumerate(sums):
            total = total * a_n + acc * (r - s) ** b_n
        totals.append(total)
    return totals


def _stirling_sums(a: list[int], den: int, weighted: Iterable[tuple[int, Iterable[tuple[MultiIndex, int]]]]) -> list[int]:
    """D^|beta| times the Stirling closed form of moment_stirling at x = a / D,
    for each pair (|beta|, the (gamma, weight) of _stirling_weights(beta, r)),
    which depend on the order only, so a caller builds them once for all its
    points."""
    return [sum(w * prod(map(pow, a, gamma)) * den ** (depth - sum(gamma)) for gamma, w in weights)
            for depth, weights in weighted]


def moment_direct(
    n: int, r: int, beta: Sequence[int], x: Sequence[RationalLike]
) -> Fraction:
    """Moment of order beta of the multinomial distribution with r trials and
    cell probabilities x = a / D, the grid sum

        sum over |alpha| = r of  alpha^beta * (r!/alpha!) * x^alpha,

    taken one coordinate at a time as a chain of binomials: sums[s] holds the
    sum over the leading entries of alpha with total s of prod C(r - s_i,
    alpha_i) * a_i^alpha_i * alpha_i^beta_i, s_i the total before alpha_i.  At
    most 3 * grid_size(n, r) + 2r + 2 steps, each a big int times a small one."""
    a, den = _check_simplex_point(n, x)
    beta = _check_moment_order(n, beta)
    _require_grid(n, r, MAX_EXPANDED_POINTS, "the direct moment sum")
    return Fraction(_direct_sums(a, r, [beta])[0], den**r)


def moment_stirling(
    n: int, r: int, beta: Sequence[int], x: Sequence[RationalLike]
) -> Fraction:
    """Same moment via the Stirling closed form:

        sum over gamma <= beta of
            r^(|gamma| falling) * x^gamma * prod_i S(beta_i, gamma_i).
    """
    _require_order(r)
    a, den = _check_simplex_point(n, x)
    beta = _check_moment_order(n, beta)
    _require_stirling([beta], n)
    return Fraction(_stirling_sums(a, den, [(sum(beta), _stirling_weights(beta, r))])[0], den ** sum(beta))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


def monte_carlo_bernstein(
    f: HomogeneousPolynomial,
    r: int,
    x: Sequence[float],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate B_r(f)(x) by simulating the r-step categorical walk whose
    endpoint counts are multinomial(r, x), and averaging f(counts/r).

    Returns (sample mean, standard error); the result is a deterministic
    function of (f, r, x, samples, seed).  This is the only floating-point
    surface of the module.
    """
    _require_order(r)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    probs = np.asarray(list(x), dtype=float)
    if probs.shape != (f.n,):
        raise ValueError(f"point has dimension {probs.size}, expected {f.n}")
    if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError("invalid distribution: entries must be nonnegative and sum to 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(r, probs / probs.sum(), size=samples)
    points = counts / float(r)
    values = np.zeros(samples, dtype=float)
    for beta, c in f.terms.items():
        term = np.full(samples, float(c))
        for i, e in enumerate(beta):
            if e:
                term = term * points[:, i] ** e
        values += term
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1)) / sqrt(samples) if samples > 1 else 0.0
    return estimate, stderr
