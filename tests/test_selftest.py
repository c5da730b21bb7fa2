from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from simplexopt import GeneralPolynomial, compositions, run_selftest
from simplexopt import selftest as selftest_module
from simplexopt.selftest import (
    check_falling_sum,
    check_moment_equivalence,
    check_route_agreement,
    check_specialized_routes,
    check_stirling_split,
    check_surjections,
)

SUITE = [
    "falling-factorial sum identity (d<=8, r<=20)",
    "Stirling splitting identity (n<=3, |alpha|<=4, d<=6)",
    "surjection count vs k!*S(d,k) (d<=8)",
    "moment route equivalence (n<=3, r<=5, |beta|<=4)",
    "Bernstein route agreement (10 cases, n<=3, d<=3, r<=5)",
    "specialized routes vs closed form (10 cases)",
]
DEEP_SUITE = [
    "falling-factorial sum identity (d<=10, r<=40)",
    "Stirling splitting identity (n<=3, |alpha|<=5, d<=7)",
    "surjection count vs k!*S(d,k) (d<=9)",
    "moment route equivalence (n<=4, r<=8, |beta|<=6)",
    "Bernstein route agreement (25 cases, n<=4, d<=4, r<=8)",
    "specialized routes vs closed form (25 cases)",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_names_and_results_are_pinned(seed):
    assert [(c.name, c.passed) for c in run_selftest(seed=seed)] == [(name, True) for name in SUITE]


def test_deep_suite_names_and_results_are_pinned():
    assert [(c.name, c.passed) for c in run_selftest(deep=True)] == [(name, True) for name in DEEP_SUITE]


@pytest.mark.parametrize("seed, args, next_bits", [
    (0, (3, 5, 4, 5), 3391779328945752268),
    (7, (4, 3, 3, 2), 11574100089835139896),
])
def test_moment_check_draws_the_same_points(seed, args, next_bits):
    # one point draw per (n, r), as when each order was a separate call
    rng = Random(seed)
    assert check_moment_equivalence(*args, rng).passed
    assert rng.getrandbits(64) == next_bits


@pytest.mark.parametrize("walk", ["_direct_sums", "_stirling_sums"])
def test_a_walk_off_in_one_order_fails_and_names_it(monkeypatch, walk):
    wrong = (1, 2, 0)
    real = getattr(selftest_module, walk)

    def off_by_one(a, *args):
        # both walks take the point first and return a total per order |beta| <= 3
        orders = [beta for total in range(4) for beta in compositions(len(a), total)]
        return [t + (beta == wrong) for beta, t in zip(orders, real(a, *args), strict=True)]

    monkeypatch.setattr(selftest_module, walk, off_by_one)
    result = check_moment_equivalence(3, 2, 3, 2, Random(0))
    assert not result.passed
    assert len(result.failures) == 2 * 2  # r = 1, 2 at two points each
    assert all(f"beta={wrong} " in failure for failure in result.failures)
    # the message shows both moments as fractions, and they differ
    direct, stirling = (Fraction(side.split("=")[1]) for side in result.failures[0].split(": ")[1].split(" "))
    assert direct != stirling


@pytest.mark.parametrize("oracle, case, check, named", [
    ("falling_sum_sides", (2, 3), lambda: check_falling_sum(3, 4), "d=2 r=3: lhs=4 rhs=3"),
    ("stirling_split_sides", ((1, 2), 4), lambda: check_stirling_split(2, 3, 5), "alpha=(1, 2) d=4: lhs="),
    ("surjection_count", (3, 2), lambda: check_surjections(4), "d=3 k=2: enumerated=7 k!*S=6"),
], ids=["falling-sum", "stirling-split", "surjections"])
def test_an_identity_off_in_one_case_fails_and_names_it(monkeypatch, oracle, case, check, named):
    real = getattr(selftest_module, oracle)

    def off_by_one(*args):
        value = real(*args)
        if args != case:
            return value
        return value + 1 if isinstance(value, int) else (value[0] + 1, value[1])

    monkeypatch.setattr(selftest_module, oracle, off_by_one)
    result = check()
    assert result.passed is False
    assert len(result.failures) == 1 and result.failures[0].startswith(named)


def shifted_once(monkeypatch, route):
    """Patch route in the self-test so that its first result is off by one
    everywhere on the simplex; returns the list that receives (f, r) of
    that call."""
    real, seen = getattr(selftest_module, route), []

    def off_once(f, r):
        result = real(f, r)
        if seen:
            return result
        seen.append((f, r))
        origin = (0,) * f.n
        terms = {**result.reduced.terms, origin: result.reduced.terms.get(origin, 0) + 1}
        return replace(result, reduced=GeneralPolynomial(f.n, terms))

    monkeypatch.setattr(selftest_module, route, off_once)
    return seen


def test_a_route_off_in_one_case_fails_and_names_it(monkeypatch):
    seen = shifted_once(monkeypatch, "bernstein_closed_form")
    result = check_route_agreement(3, 3, 3, 4, 5, Random(0))
    (f, r), = seen
    assert result.passed is False
    assert len(result.failures) == 5  # every point of the first case
    assert all(failure.startswith(f"n={f.n} d={f.d} r={r} x=(") for failure in result.failures)
    definitional, closed = (Fraction(side.split("=")[1]) for side in result.failures[0].split(": ")[1].split(" "))
    assert closed == definitional + 1


@pytest.mark.parametrize("route, label", [
    ("bernstein_quadratic", "quadratic"), ("bernstein_cubic", "cubic"), ("bernstein_squarefree", "squarefree"),
])
def test_a_shortcut_off_in_one_case_fails_and_names_it(monkeypatch, route, label):
    seen = shifted_once(monkeypatch, route)
    result = check_specialized_routes(3, 4, Random(0))
    (f, r), = seen
    degree = f" d={f.d}" if label == "squarefree" else ""
    assert result.passed is False
    assert result.failures == [f"{label} n={f.n}{degree} r={r}: {f.terms}"]
