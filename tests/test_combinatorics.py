from fractions import Fraction
import tracemalloc

import pytest

from simplexopt import combinatorics
from simplexopt.combinatorics import (
    binomial_row,
    compositions,
    falling_factorial,
    falling_sum_sides,
    multinomial,
    stirling2,
    stirling_split_sides,
    surjection_count,
)


def brute_partition_count(b: int, a: int) -> int:
    """Count partitions of {0..b-1} into exactly a nonempty blocks by
    enumerating block assignments in canonical order."""

    def grow(element: int, blocks: int) -> int:
        if element == b:
            return 1 if blocks == a else 0
        total = blocks * grow(element + 1, blocks)  # join an existing block
        if blocks < a:
            total += grow(element + 1, blocks + 1)  # open a new block
        return total

    return grow(0, 0)


class TestCompositions:
    def test_lexicographic_order_and_count(self):
        got = list(compositions(3, 2))
        assert got == sorted(got)
        assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_single_slot_and_zero_total(self):
        assert list(compositions(1, 5)) == [(5,)]
        assert list(compositions(4, 0)) == [(0, 0, 0, 0)]

    def test_counts_match_binomials(self):
        from math import comb

        for n in range(1, 5):
            for r in range(0, 6):
                assert sum(1 for _ in compositions(n, r)) == comb(n + r - 1, r)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            list(compositions(0, 2))
        with pytest.raises(ValueError):
            list(compositions(2, -1))


class TestFallingFactorial:
    @pytest.mark.parametrize(
        "r, d, expected", [(5, 3, 60), (3, 5, 0), (7, 0, 1), (4, 4, 24), (1, 1, 1)]
    )
    def test_values(self, r, d, expected):
        assert falling_factorial(r, d) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)


class TestStirling:
    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(3, 1) == 1
        for d in range(0, 9):
            assert stirling2(d, d) == 1
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(2, 5) == 0

    def test_against_partition_enumeration(self):
        for b in range(0, 8):
            for a in range(0, b + 1):
                assert stirling2(b, a) == brute_partition_count(b, a)

    def test_existing_rows_are_read_without_the_lock(self, monkeypatch):
        acquired = []

        class Recording:
            def __enter__(self):
                acquired.append(True)

            def __exit__(self, *exc):
                return False

        stirling2(12, 4)
        monkeypatch.setattr(combinatorics, "_stirling_lock", Recording())
        assert stirling2(12, 4) == 611501 and stirling2(7, 3) == 301
        assert not acquired
        # a new row still grows under the lock
        new = len(combinatorics._stirling_rows)
        assert stirling2(new, new) == 1 and acquired


class TestMultinomial:
    @pytest.mark.parametrize(
        "r, alpha, expected",
        [(2, (1, 1), 2), (4, (2, 2), 6), (5, (5, 0, 0), 1), (0, (), 1), (6, (1, 2, 3), 60)],
    )
    def test_values(self, r, alpha, expected):
        assert multinomial(r, alpha) == expected

    def test_rejects_mismatched_total(self):
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))

    def test_factorial_identity(self):
        from math import factorial

        for alpha in compositions(3, 6):
            prod = 1
            for a in alpha:
                prod *= factorial(a)
            assert multinomial(6, alpha) * prod == factorial(6)


class TestBinomialRow:
    def test_matches_comb(self):
        from math import comb

        for m in (0, 1, 2, 7, 40, 333):
            assert binomial_row(m) == [comb(m, k) for k in range(m + 1)]


class TestSurjections:
    @pytest.mark.parametrize("d, k, expected", [(3, 2, 6), (4, 1, 1), (2, 3, 0), (0, 0, 1)])
    def test_values(self, d, k, expected):
        assert surjection_count(d, k) == expected

    def test_matches_stirling(self):
        from math import factorial

        for d in range(0, 9):
            for k in range(0, d + 1):
                assert surjection_count(d, k) == factorial(k) * stirling2(d, k)

    def test_matches_counting_every_map(self):
        from itertools import product

        for d in range(0, 7):
            for k in range(0, d + 2):
                onto = sum(1 for image in product(range(k), repeat=d) if len(set(image)) == k)
                assert surjection_count(d, k) == onto

    # (10, 10) is checked by the memory test below
    @pytest.mark.parametrize("d, ks", [(9, range(0, 10)), (10, (9,))])
    def test_matches_stirling_at_the_largest_degrees(self, d, ks):
        from math import factorial

        for k in ks:
            assert surjection_count(d, k) == factorial(k) * stirling2(d, k)

    @pytest.mark.parametrize("d, k", [(0, 1), (3, 4), (9, 10), (9, 30), (10, 10**6)])
    def test_more_values_than_elements_is_zero_at_once(self, monkeypatch, d, k):
        def no_walk(*args):
            raise AssertionError("pigeonhole case walked its maps")

        monkeypatch.setattr(combinatorics, "_cover_masks", no_walk)
        assert surjection_count(d, k) == 0

    def test_largest_walk_runs_in_bounded_memory(self):
        from math import factorial

        tracemalloc.start()
        try:
            count = surjection_count(10, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == factorial(10) * stirling2(10, 10)
        assert peak < 4 * 2**20

    def test_brute_force_guard(self):
        with pytest.raises(ValueError):
            surjection_count(11, 2)
        with pytest.raises(ValueError):
            surjection_count(-1, 2)


class TestIdentities:
    def test_falling_sum_example(self):
        lhs, rhs = falling_sum_sides(3, 4)
        assert (lhs, rhs) == (40, 40)

    def test_falling_sum_degree_one(self):
        for r in range(1, 10):
            lhs, rhs = falling_sum_sides(1, r)
            assert lhs == rhs

    def test_falling_sum_small(self):
        lhs, rhs = falling_sum_sides(2, 2)
        assert lhs == rhs

    def test_stirling_split_examples(self):
        lhs, rhs = stirling_split_sides((1, 1), 3)
        assert lhs == rhs == Fraction(3)
        lhs, rhs = stirling_split_sides((2, 1), 4)
        assert lhs == rhs

    def test_stirling_split_single_coordinate(self):
        for k in range(1, 4):
            for d in range(k + 1, 7):
                lhs, rhs = stirling_split_sides((k,), d)
                assert lhs == rhs

    def test_stirling_split_requires_larger_degree(self):
        with pytest.raises(ValueError, match=r"need d > \|alpha\|"):
            stirling_split_sides((1, 1), 2)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: stirling2(-1, 0), "must be nonnegative"),
        (lambda: multinomial(2, (3, -1)), "must be nonnegative"),
    ],
    ids=["stirling2", "multinomial"],
)
def test_invalid_arguments_are_refused(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
