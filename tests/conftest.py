"""Shared test helpers: seeded random polynomials and naive oracles."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import strategies as st

from simplexopt import HomogeneousPolynomial, compositions
from simplexopt.selftest import _random_polynomial as random_polynomial


def naive_evaluate(f, x) -> Fraction:
    """Straightforward Fraction-by-Fraction evaluation, kept independent of
    the library's integer-cleared fast path."""
    point = [Fraction(v) for v in x]
    total = Fraction(0)
    for beta, c in f.terms.items():
        term = c
        for e, v in zip(beta, point):
            if e:
                term *= v**e
        total += term
    return total


@pytest.fixture
def rng() -> Random:
    return Random(20260808)


def coefficients(big):
    numerators = st.integers(-(10**30), 10**30) if big else st.integers(-9, 9)
    return st.builds(Fraction, numerators, st.integers(1, 9))


@st.composite
def homogeneous_polynomials(
    draw, n=st.integers(1, 4), d=st.integers(0, 4), big=st.booleans(), square_free=False
):
    """Up to six terms of degree d in n variables, with small or big
    coefficients; square-free ones use no exponent above 1, so d <= n."""
    n, d = draw(n), draw(d)
    if square_free:
        d = min(d, n)
    monomials = [beta for beta in compositions(n, d) if not square_free or max(beta) <= 1]
    support = draw(st.lists(st.sampled_from(monomials), max_size=6, unique=True))
    big = draw(big)
    return HomogeneousPolynomial(n, d, {beta: draw(coefficients(big)) for beta in support})
