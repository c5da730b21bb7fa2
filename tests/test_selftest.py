from fractions import Fraction
from random import Random

import pytest

from simplexopt import compositions, run_selftest
from simplexopt import selftest as selftest_module
from simplexopt.selftest import check_moment_equivalence

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
