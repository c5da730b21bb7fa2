"""Shared test helpers: seeded random polynomials and naive oracles."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

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
