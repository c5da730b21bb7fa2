from fractions import Fraction
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from math import comb
from itertools import islice, zip_longest
from random import Random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from simplexopt import (
    GeneralPolynomial,
    GridPoint,
    HomogeneousPolynomial,
    coefficient_range_bounds,
    composition_unrank,
    compositions,
    enumerate_grid,
    evaluate,
    grid_maximize,
    grid_minimize,
    grid_size,
    motzkin_straus,
    parse_polynomial,
    sum_of_powers_grid_min,
)
from simplexopt import bernstein_definitional, multinomial
from simplexopt import grid as grid_module
from simplexopt.combinatorics import _next_composition
from simplexopt.grid import _BLOCK_CELLS, _BLOCK_ROWS, _Kernel, _grid_blocks
from conftest import coefficients, homogeneous_polynomials, naive_evaluate, random_polynomial

F = Fraction


def sum_of_powers(n: int, d: int) -> HomogeneousPolynomial:
    return HomogeneousPolynomial(
        n, d, {tuple(d if j == i else 0 for j in range(n)): F(1) for i in range(n)}
    )


def brute_minimum(f, r):
    """Independent full enumeration with the naive evaluator."""
    best = None
    best_alpha = None
    for alpha in enumerate_grid(f.n, r):
        value = naive_evaluate(f, [F(a, r) for a in alpha])
        if best is None or value < best:
            best, best_alpha = value, alpha
    return best, best_alpha


class TestEnumeration:
    def test_examples(self):
        assert list(enumerate_grid(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(enumerate_grid(3, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert sum(1 for _ in enumerate_grid(3, 4)) == 15

    def test_grid_size(self):
        assert grid_size(2, 2) == 3
        assert grid_size(10, 10) == 92378
        for n in range(1, 6):
            assert grid_size(n, 0) == 1

    def test_unrank_matches_enumeration(self):
        for n in range(1, 5):
            for r in range(0, 6):
                for rank, alpha in enumerate(enumerate_grid(n, r)):
                    assert composition_unrank(n, r, rank) == alpha

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            composition_unrank(3, 2, 6)
        with pytest.raises(ValueError):
            composition_unrank(3, 2, -1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            grid_size(0, 2)
        with pytest.raises(ValueError):
            grid_size(2, -1)


class TestGridPoint:
    def test_coordinates_sum_to_one(self):
        p = GridPoint((1, 2, 0), 3)
        assert sum(p.coordinates()) == 1
        assert p.coordinates() == (F(1, 3), F(2, 3), F(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridPoint((1, 1), 3)
        with pytest.raises(ValueError):
            GridPoint((0,), 0)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: GridPoint((1.5, 0.5), 2), "nonnegative integers"),
        (lambda: sum_of_powers_grid_min(0, 1, 1), "need n, r, d >= 1"),
    ],
    ids=["GridPoint", "sum_of_powers_grid_min"],
)
def test_invalid_arguments_are_refused(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


class TestMinimize:
    def test_example_quadratic(self):
        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        gm = grid_minimize(f, 2)
        assert gm.value == F(-1, 2)
        assert gm.argmin.alpha == (1, 1)
        assert gm.evaluations == 3

    def test_cubic_parity_example(self):
        f = parse_polynomial("x1^3 + x2^3", 2)
        assert grid_minimize(f, 3).value == F(1, 3)
        assert grid_minimize(f, 4).value == F(1, 4)

    def test_squarefree_example(self):
        f = parse_polynomial("-x1*x2", 2)
        assert grid_minimize(f, 4).value == F(-1, 4)

    def test_zero_polynomial(self):
        zero = parse_polynomial("x1 - x1", 1)
        gm = grid_minimize(zero, 3)
        assert gm.value == 0 and gm.argmin.alpha == (3,)

    def test_rejects_order_zero(self):
        f = parse_polynomial("x1^2", 1)
        with pytest.raises(ValueError):
            grid_minimize(f, 0)

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            d = rng.randint(0, 4)
            r = rng.randint(1, 5)
            f = random_polynomial(rng, n, d)
            gm = grid_minimize(f, r)
            value, alpha = brute_minimum(f, r)
            assert gm.value == value
            assert gm.argmin.alpha == alpha
            assert gm.evaluations == grid_size(n, r)

    def test_tie_break_is_lexicographic(self):
        f = parse_polynomial("x1^2 + x2^2", 2)  # symmetric: minimizers come in pairs
        gm = grid_minimize(f, 3)
        assert gm.argmin.alpha == (1, 2)

    def test_value_dominates_coefficient_lower_bound(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            f = random_polynomial(rng, n, d)
            low, _ = coefficient_range_bounds(f)
            for r in range(1, 7):
                assert grid_minimize(f, r).value >= low

    def test_tie_break_on_constant_values(self):
        # every grid point ties: the first point of the first block must win
        zero = parse_polynomial("x1 - x1", 3)
        gm = grid_minimize(zero, 4)
        assert gm.value == 0 and gm.argmin.alpha == (0, 0, 4)
        gx = grid_maximize(zero, 4)
        assert gx.argmin.alpha == (0, 0, 4)

    def test_accepts_mixed_degree_polynomials(self):
        from simplexopt import GeneralPolynomial, bernstein_quadratic

        f = parse_polynomial("2*x1^2 + x2^2 - 5*x1*x2", 2)
        smoothed = bernstein_quadratic(f, 2).reduced
        assert isinstance(smoothed, GeneralPolynomial)
        gm = grid_minimize(smoothed, 8)
        # smoothing never dips below the order-2 grid minimum of f
        assert gm.value >= grid_minimize(f, 2).value
        assert gm.value == min(
            naive_evaluate(smoothed, [F(a, 8), F(8 - a, 8)]) for a in range(9)
        )


class TestMaximize:
    def test_sum_of_squares_vertex(self):
        f = sum_of_powers(3, 2)
        for r in (1, 2, 5):
            gm = grid_maximize(f, r)
            assert gm.value == 1
            assert gm.argmin.alpha == (0, 0, r)

    def test_zero_polynomial(self):
        zero = parse_polynomial("x1 - x1", 1)
        assert grid_maximize(zero, 2).value == 0

    def test_cross_term_argmax_tie_break(self):
        f = parse_polynomial("-x1*x2", 2)
        gm = grid_maximize(f, 2)
        assert gm.value == 0
        assert gm.argmin.alpha == (0, 2)


class TestSumOfPowersOracle:
    @pytest.mark.parametrize(
        "n, r, d, expected",
        [(2, 3, 2, F(5, 9)), (2, 4, 3, F(1, 4)), (3, 3, 2, F(1, 3))],
    )
    def test_examples(self, n, r, d, expected):
        assert sum_of_powers_grid_min(n, r, d) == expected

    def test_agrees_with_grid_minimize(self):
        for n in range(1, 5):
            for r in range(1, 9):
                for d in range(1, 5):
                    f = sum_of_powers(n, d)
                    assert grid_minimize(f, r).value == sum_of_powers_grid_min(n, r, d)

    def test_even_split_ratio_identity(self):
        # n even, r = 3n/2: the gap equals (max - min) / (6r - 9)
        for n in (2, 4, 6):
            r = 3 * n // 2
            gap = sum_of_powers_grid_min(n, r, 2) - F(1, n)
            assert gap == (1 - F(1, n)) / (6 * r - 9)


class TestStableSetGridProperty:
    def all_graphs(self, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            adj = [[0] * n for _ in range(n)]
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    adj[i][j] = adj[j][i] = 1
            yield adj

    def stable_set_number(self, adj):
        from simplexopt import brute_force_stable_set_number

        return brute_force_stable_set_number(adj)

    def test_grid_min_dominates_reciprocal_alpha_exhaustive(self):
        for n in range(1, 5):
            for adj in self.all_graphs(n):
                f = motzkin_straus(adj)
                alpha = self.stable_set_number(adj)
                for r in range(1, 5):
                    assert grid_minimize(f, r).value >= F(1, alpha)

    def test_grid_min_dominates_reciprocal_alpha_sampled(self):
        rng = Random(7)
        for n in (5, 6):
            for _ in range(120):
                adj = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.5:
                            adj[i][j] = adj[j][i] = 1
                f = motzkin_straus(adj)
                alpha = self.stable_set_number(adj)
                for r in range(1, 5):
                    assert grid_minimize(f, r).value >= F(1, alpha)


def brute_extremum(f, r, prefer_smaller):
    """Oracle for the block kernel: exact evaluate at every enumerated grid
    point, keeping the first strict improvement in lexicographic order."""
    best = best_alpha = None
    for alpha in enumerate_grid(f.n, r):
        value = evaluate(f, [F(a, r) for a in alpha])
        if best is None or (value < best if prefer_smaller else value > best):
            best, best_alpha = value, alpha
    return best, best_alpha


def scan_both(f, r):
    lo, hi = grid_minimize(f, r), grid_maximize(f, r)
    return (lo.value, lo.argmin.alpha), (hi.value, hi.argmin.alpha)


@st.composite
def general_polynomials(draw):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    support = draw(st.lists(exponents, max_size=6, unique=True))
    big = draw(st.booleans())
    return GeneralPolynomial(n, {beta: draw(coefficients(big)) for beta in support})


@pytest.fixture
def cold_split_tables(monkeypatch):
    """An empty memo of split tables for the test, so it sees every table
    a scan builds, whatever scans ran before it."""
    monkeypatch.setattr(grid_module, "_split_tables", {})
    return grid_module._split_tables


def memo_cells():
    return sum(h.size + t.size for h, t in grid_module._split_tables.values())


def spy_table_lookups(monkeypatch):
    """Record (m, s) for every table the stream builds, of every m-vector of
    total at most s, and for every whole piece written in closed form; a
    wide piece written a slice at a time records nothing."""
    requested = []
    closed_form, by_total = grid_module._closed_form, grid_module._by_total

    def closed_spy(out, s, c, anti):
        if out.shape[1] == comb(s + len(out) - 1, s):
            requested.append((len(out), s))
        closed_form(out, s, c, anti)

    def table_spy(k, m, r, dtype):
        requested.append((m, r))
        return by_total(k, m, r, dtype)

    monkeypatch.setattr(grid_module, "_closed_form", closed_spy)
    monkeypatch.setattr(grid_module, "_by_total", table_spy)
    return requested


def last_points(n, r, count):
    """The last `count` index vectors of the order-r grid, in order."""
    cur = list(composition_unrank(n, r, grid_size(n, r) - count))
    points = [list(cur)]
    while _next_composition(cur):
        points.append(list(cur))
    return points


class TestBlockKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        f=st.one_of(homogeneous_polynomials(), general_polynomials()),
        r=st.integers(1, 6),
    )
    def test_matches_brute_force_oracle(self, f, r):
        assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    @pytest.mark.parametrize(
        "n, r", [(1, 7), (2, 3000), (4, 30), (7, 9), (12, 4), (1100, 1)]
    )
    def test_blocks_enumerate_the_grid_in_order(self, n, r):
        blocks = list(_grid_blocks(n, r))
        assert all(1 <= b.shape[1] <= _BLOCK_ROWS and b.size <= _BLOCK_CELLS for b in blocks)
        # every block but the last is full
        rows = min(_BLOCK_ROWS, _BLOCK_CELLS // n)
        assert all(b.shape[1] == rows for b in blocks[:-1])
        columns = (tuple(col) for b in blocks for col in b.T.tolist())
        assert all(a == b for a, b in zip_longest(columns, enumerate_grid(n, r)))

    @pytest.mark.parametrize("n, r, block_rows", [(1000, 2, _BLOCK_ROWS), (300, 1, 64)])
    def test_wide_total_one_pieces_are_sliced_in_order(self, monkeypatch, cold_split_tables, n, r, block_rows):
        # an (m, 1) piece wider than a block is written in closed form, not
        # built as a table nor split into single points
        monkeypatch.setattr(grid_module, "_BLOCK_ROWS", block_rows)
        rows = min(block_rows, _BLOCK_CELLS // n)
        requested = spy_table_lookups(monkeypatch)
        total = grid_size(n, r)
        head = min(total, 2000)
        start, end = [], deque(maxlen=head // rows + 2)
        last, points, blocks = None, 0, 0
        # every column is a grid point, each one lexicographically after the
        # one before, and there are as many as grid points: the whole grid
        # in enumerate_grid's order
        for b in _grid_blocks(n, r):
            assert 1 <= b.shape[1] <= rows
            cols = b.astype(np.int16)
            assert (cols.sum(axis=0) == r).all()
            if last is not None:
                cols = np.hstack((last, cols))
            step = np.diff(cols, axis=1)
            first = (step != 0).argmax(axis=0)
            assert (step[first, np.arange(step.shape[1])] > 0).all()
            last = cols[:, -1:]
            if points < head:
                start.append(b)
            end.append(b)
            points += b.shape[1]
            blocks += 1
        assert points == total
        # no wide (m, 1) table, and fewer lookups than blocks: a split into
        # single points would take a lookup per point
        assert not [(m, s) for m, s in requested if s == 1 and m > rows]
        assert len(requested) < blocks
        # and, read off at both ends, the very points enumerate_grid yields
        assert np.hstack(start)[:, :head].T.tolist() == list(map(list, islice(enumerate_grid(n, r), head)))
        assert np.hstack(end)[:, -head:].T.tolist() == last_points(n, r, head)

    @pytest.mark.parametrize("n, r, block_rows", [(2, 5000, _BLOCK_ROWS), (3, 200, 64), (4, 40, 16)])
    def test_wide_two_slot_pieces_are_sliced_in_order(self, monkeypatch, cold_split_tables, n, r, block_rows):
        # a (2, s) piece wider than a block is written in closed form, not
        # split into single points
        monkeypatch.setattr(grid_module, "_BLOCK_ROWS", block_rows)
        requested = spy_table_lookups(monkeypatch)
        blocks = list(_grid_blocks(n, r))
        assert all(1 <= b.shape[1] <= block_rows for b in blocks)
        columns = [tuple(col) for b in blocks for col in b.T.tolist()]
        assert columns == list(enumerate_grid(n, r))
        # a split into single points would take a lookup per point
        assert not [(m, s) for m, s in requested if m == 2 and s + 1 > block_rows]
        assert len(requested) < len(blocks)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), r=st.integers(0, 12), block_rows=st.sampled_from([1, 2, 3, 7, 64]))
    def test_blocks_match_enumeration_at_any_block_size(self, n, r, block_rows):
        # narrow blocks send pieces down every path: tables, closed forms
        # and splits, each written across as many blocks as it fills
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "_BLOCK_ROWS", block_rows)
            blocks = list(_grid_blocks(n, r))
        assert all(1 <= b.shape[1] <= block_rows and b.size <= _BLOCK_CELLS for b in blocks)
        assert all(b.shape[1] == min(block_rows, _BLOCK_CELLS // n) for b in blocks[:-1])
        columns = [tuple(col) for b in blocks for col in b.T.tolist()]
        assert columns == list(enumerate_grid(n, r))

    def test_first_block_of_a_huge_two_slot_grid_is_cheap(self):
        tracemalloc.start()
        try:
            first = next(_grid_blocks(2, 10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape[1] == _BLOCK_ROWS
        assert first[:, :2].T.tolist() == [[0, 10**9], [1, 10**9 - 1]]
        assert peak < 4 * 2**20

    def test_grid_limit_is_checked_before_any_work(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", grid_size(3, 4))
        f = sum_of_powers(3, 2)
        assert grid_minimize(f, 4).evaluations == grid_size(3, 4)

        def no_compile(*args):
            raise AssertionError("the kernel was compiled for a refused grid")

        monkeypatch.setattr(grid_module, "_Kernel", no_compile)
        # (3, 5) has 21 points and (2, 15) one more than the limit
        for scan in (grid_minimize, grid_maximize):
            for g, r in ((f, 5), (sum_of_powers(2, 2), 15)):
                with pytest.raises(ValueError, match="points"):
                    scan(g, r)

    @pytest.mark.parametrize("n, r", [(1100, 1), (400, 2), (2, 1000), (35, 6)])
    def test_wide_grids_stream_in_bounded_memory(self, n, r):
        # a table for many parts and a small total, e.g. (m, 1) with m^2
        # entries, is never built, and the tables a scan holds, with the
        # arrays that build the next one, fit _BLOCK_CELLS entries; (35, 6)
        # builds the same stream tables as (45, 6) in a quarter of the points
        tracemalloc.start()
        try:
            points = sum(b.shape[1] for b in _grid_blocks(n, r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points == grid_size(n, r)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n, r", [(25, 6), (45, 6), (80, 3)])
    def test_stream_table_builds_stay_within_their_charge(self, monkeypatch, n, r):
        # a stream table's build is charged 4 entries a table entry plus
        # 4096 for its views and lists; its peak stays within that charge,
        # and with the tables held before it within _BLOCK_CELLS entries
        by_total, builds, held = grid_module._by_total, [], {}

        def measured(k, m, s, dtype):
            tracemalloc.start()
            try:
                tables = by_total(k, m, s, dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            builds.append((m, s, peak, sum(held.values())))
            held[m] = tables[1].nbytes
            return tables

        monkeypatch.setattr(grid_module, "_by_total", measured)
        points = sum(b.shape[1] for b in _grid_blocks(n, r))
        assert points == grid_size(n, r) and builds
        itemsize = np.dtype(np.min_scalar_type(r)).itemsize
        for m, s, peak, before in builds:
            assert peak <= (4 * m * comb(s + m, m) + 4096) * itemsize, (m, s, peak)
            assert peak + before <= _BLOCK_CELLS * itemsize, (m, s, peak, before)

    def test_grids_larger_than_one_block(self, rng):
        for n, d, r in [(6, 3, 9), (5, 4, 12), (8, 2, 6)]:
            assert grid_size(n, r) > _BLOCK_ROWS
            f = random_polynomial(rng, n, d, max_terms=12)
            assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    @pytest.mark.parametrize(
        "text, n, r", [("3", 1, 4), ("2*x1^2", 1, 5), ("x1 - x1", 6, 9), ("-7/3", 6, 9)]
    )
    def test_small_cases(self, text, n, r):
        f = parse_polynomial(text, n)
        assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    def test_ties_resolve_to_smallest_index_across_blocks(self):
        zero = parse_polynomial("x1 - x1", 6)
        first = (0, 0, 0, 0, 0, 9)
        assert scan_both(zero, 9) == ((0, first), (0, first))
        # symmetric, so every minimizer's permutations tie with it
        f = sum_of_powers(6, 2)
        assert grid_minimize(f, 9).argmin.alpha == (1, 1, 1, 2, 2, 2)

    def test_int64_gate_boundary(self):
        # the gate bound is sum |c'| * r^d; 2^63 - 1 = 7 * k, and r^d = 7
        # leaves room for float64 digits, so both take float64 limbs
        k = (2**63 - 1) // 7
        at_limit = HomogeneousPolynomial(2, 1, {(1, 0): 2**59, (0, 1): -(k - 2**59)})
        past_limit = HomogeneousPolynomial(1, 3, {(3,): 2**54})  # 2^54 * 8^3 = 2^63
        for f, r in ((at_limit, 7), (past_limit, 8)):
            assert _Kernel(f, r).dtype is np.float64 and _Kernel(f, r).limbs > 1
            assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))
        top = HomogeneousPolynomial(2, 1, {(1, 0): k})
        assert grid_maximize(top, 7).value * 7 == 2**63 - 1
        assert grid_maximize(past_limit, 8).value == 2**54
        # 8^18 = 2^54 leaves no float64 digit: 511 * 2^54 < 2^63 takes one
        # int64 matrix and reaches its numerator exactly, 512 * 2^54 limbs
        for c, limbs in ((511, 1), (-511, 1), (512, 2)):
            top = HomogeneousPolynomial(2, 18, {(18, 0): F(c)})
            assert (_Kernel(top, 8).dtype, _Kernel(top, 8).limbs) == (np.int64, limbs)
            assert (grid_minimize if c < 0 else grid_maximize)(top, 8).value == c
            assert scan_both(top, 8) == (brute_extremum(top, 8, True), brute_extremum(top, 8, False))

    def test_float64_gate_boundary(self):
        # sum |c'| * r^d = 2^53 takes one float64 matrix, and every integer
        # up to 2^53 is a double; one past it takes limbs, whose numerator
        # 2^53 + 1 no double holds, with digits as wide as T * (2^s - 1)
        # <= 2^51 allows
        for terms, r, limbs, shift in (
            ({(1, 0): 2**53}, 1, 1, 0),
            ({(1, 0): 2**53 - 1, (0, 1): -1}, 1, 1, 0),
            ({(2, 0): 2**50 + 1, (1, 1): -(2**50 - 3), (0, 2): -2}, 2, 1, 0),
            ({(1, 0): 2**53 + 1}, 1, 2, 51),
            ({(1, 0): 2**53 - 1, (0, 1): -2}, 1, 2, 50),
        ):
            f = HomogeneousPolynomial(2, sum(next(iter(terms))), {b: F(c) for b, c in terms.items()})
            kernel = _Kernel(f, r)
            assert (kernel.dtype, kernel.limbs, kernel.shift) == (np.float64, limbs, shift)
            assert kernel.extremum(False)[0] == max(terms.values()) * r ** f.d
            assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    @settings(max_examples=40, deadline=None)
    @given(
        f=homogeneous_polynomials(n=st.integers(2, 4), d=st.integers(1, 3), big=st.just(False)),
        r=st.integers(2, 8),
    )
    def test_int64_and_limb_paths_agree(self, f, r):
        # small coefficients take one float64 matrix, lifted ones its limbs
        assume(f.terms)
        lifted = HomogeneousPolynomial(f.n, f.d, {b: c * 2**70 for b, c in f.terms.items()})
        assert (_Kernel(f, r).dtype, _Kernel(f, r).limbs) == (np.float64, 1)
        assert _Kernel(lifted, r).dtype is np.float64 and _Kernel(lifted, r).limbs > 1
        (lo, lo_a), (hi, hi_a) = scan_both(f, r)
        assert scan_both(lifted, r) == ((lo * 2**70, lo_a), (hi * 2**70, hi_a))

    @pytest.mark.parametrize(
        "rung, dtype, limbs",
        [("float64", np.float64, False), ("float64 limbs", np.float64, True), ("int64", np.int64, False),
         ("int64 limbs", np.int64, True), ("object", object, False)],
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_rung_matches_brute_force_oracle(self, rung, dtype, limbs, data):
        f, r = data.draw(rung_cases(rung))
        kernel = _Kernel(f, r)
        assert kernel.dtype is dtype and (kernel.limbs > 1) == limbs
        assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))
        # no float reaches a caller: the numerators are Python ints
        numerators = [v for _, values in kernel.values() for v in values]
        assert all(type(v) is int for v in numerators)
        expected = {}
        for alpha in enumerate_grid(f.n, r):
            value = evaluate(f, [F(a, r) for a in alpha]) * multinomial(r, alpha)
            if value:
                expected[alpha] = value
        assert bernstein_definitional(f, r).homogeneous.terms == expected

    def test_int64_limbs_keep_a_grid_past_the_python_int_limit(self):
        # 20^12 leaves no float64 digit, and 1/7 * 20^10 * 7 * 20^12 passes
        # 2^63, but a 7-bit int64 digit fits: the 10,626 points, more than
        # a scan in Python ints accepts, scan on 7 int64 limbs
        f = GeneralPolynomial(5, {(12, 0, 0, 0, 0): F(1), (0, 12, 0, 0, 0): F(-3), (0, 0, 0, 0, 12): F(1), (1, 1, 0, 0, 0): F(1, 7)})
        kernel = _Kernel(f, 20)
        assert (kernel.dtype, kernel.limbs, kernel.shift) == (np.int64, 7, 7)
        assert grid_size(5, 20) > grid_module.MAX_EXPANDED_POINTS
        low, high = grid_minimize(f, 20), grid_maximize(f, 20)
        assert (low.value, low.argmin.alpha) == (-3, (0, 20, 0, 0, 0))
        assert (high.value, high.argmin.alpha) == (1, (0, 0, 0, 0, 20))

    @settings(max_examples=30, deadline=None)
    @given(
        f=homogeneous_polynomials(n=st.integers(1, 3), d=st.integers(20, 24)),
        lower=general_polynomials(),
        r=st.integers(9, 12),
    )
    def test_object_path_matches_brute_force_oracle(self, f, lower, r):
        # a term of degree d >= 20 at r >= 9 makes r^d alone pass 2^63, which
        # leaves no room for a limb digit; lower-degree terms, when the
        # dimensions match, make the input mixed-degree
        assume(f.terms)
        if lower.n == f.n:
            f = GeneralPolynomial(f.n, {**lower.terms, **f.terms})
        assert _Kernel(f, r).dtype is object
        assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    def test_python_int_scans_are_limited_before_the_first_block(self, monkeypatch):
        # both scans cover the 17 points of the order-16 grid in 2 variables
        wide, narrow = GeneralPolynomial(2, {(20, 0): F(1), (0, 20): F(-3)}), sum_of_powers(2, 2)
        assert _Kernel(wide, 16).dtype is object and _Kernel(narrow, 16).dtype is np.float64
        monkeypatch.setattr(grid_module, "MAX_EXPANDED_POINTS", grid_size(2, 16))
        assert grid_minimize(wide, 16).evaluations == grid_size(2, 16)
        monkeypatch.setattr(grid_module, "MAX_EXPANDED_POINTS", grid_size(2, 16) - 1)
        assert grid_maximize(narrow, 16).evaluations == grid_size(2, 16)

        def no_blocks(*args):
            raise AssertionError("a refused scan walked the grid")

        monkeypatch.setattr(grid_module, "_grid_blocks", no_blocks)
        for scan in (grid_minimize, grid_maximize):
            with pytest.raises(ValueError, match="points"):
                scan(wide, 16)

    def test_object_fallback_when_the_monomial_bound_leaves_no_room(self):
        # 16^20 = 2^80 is past the 2^61 limb budget, so no digit fits
        f = GeneralPolynomial(2, {(20, 0): F(1), (0, 20): F(-3)})
        assert _Kernel(f, 16).dtype is object
        assert scan_both(f, 16) == (brute_extremum(f, 16, True), brute_extremum(f, 16, False))

    def test_top_limb_ties_are_narrowed_across_blocks(self, monkeypatch, rng):
        # 2^70 * (x1 + ... + x6)^2 is 2^70 * 81 at every point of the order-9
        # grid (2002 points, several chunks of 2^9 entries), so the top limb
        # ties on every point whose small part has the same sign and only
        # lower limbs tell them apart
        n, r = 6, 9
        monkeypatch.setattr(grid_module, "_BLOCK_CELLS", 2**9)
        square = {beta: F(2**70 * (1 if max(beta) == 2 else 2)) for beta in compositions(n, 2)}
        mixed = parse_polynomial("x5*x6 - x1*x2", n).terms
        for small in (mixed, random_polynomial(rng, n, 2).terms, random_polynomial(rng, n, 2).terms):
            terms = dict(square)
            for beta, c in small.items():
                terms[beta] += c
            f = HomogeneousPolynomial(n, 2, terms)
            kernel = _Kernel(f, r)
            assert kernel.limbs > 1
            for prefer_smaller in (True, False):
                best = min if prefer_smaller else max
                tops = [acc.copy() for acc, _ in kernel.chunks()]
                top = best(best(acc[-1]) for acc in tops)
                assert sum(top in acc[-1] for acc in tops) > 1
                tied = np.hstack([acc[:, acc[-1] == top] for acc in tops])
                assert len({tuple(column) for column in tied.T.tolist()}) > 1
                scan = grid_minimize(f, r) if prefer_smaller else grid_maximize(f, r)
                assert (scan.value, scan.argmin.alpha) == brute_extremum(f, r, prefer_smaller)

    @pytest.mark.parametrize("r", [2, 7, 1500])
    def test_limb_carries_borrow_for_mixed_signs(self, r):
        f = parse_polynomial(f"{2**70}*x1^2 - x1*x2 + {2**70}*x2^2", 2)
        assert _Kernel(f, r).limbs > 1
        assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))

    @pytest.mark.parametrize(
        "f",
        [
            HomogeneousPolynomial(2, 0, {(0, 0): F(2**64 + 1)}),
            HomogeneousPolynomial(2, 0, {(0, 0): F(-(2**64) - 1, 3)}),
            GeneralPolynomial(3, {(0, 0, 0): F(2**64 + 1), (2, 0, 0): F(-1), (0, 1, 1): F(3, 2)}),
        ],
    )
    def test_constant_term_above_int64(self, f):
        for r in (1, 5, 12):
            assert _Kernel(f, r).limbs > 1
            assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))


@st.composite
def rung_cases(draw, rung):
    """(f, r) whose scan runs on the given rung.  Small coefficients of
    either sign, plus on the limb and object rungs one term scaled past
    2^63, so carries borrow.  r^d up to 6^4 leaves room for float64 digits;
    from 2^54 to 2^58 only for int64 digits, and sum |c'| * r^d passes
    2^53; past 2^61 for none."""
    n = draw(st.integers(1, 3))
    if rung.startswith("float64"):
        r, d = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    else:
        r = draw(st.integers(2, 4))
        d = next(d for d in range(200) if r**d >= 2 ** (62 if rung == "object" else 54))
        d += draw(st.integers(0, 1))
    monomials = list(compositions(n, d))
    terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    if rung != "float64" and rung != "int64":
        big = draw(st.sampled_from(monomials))
        terms[big] = terms.get(big, 0) + draw(st.sampled_from([-1, 1])) * 2 ** draw(st.integers(70, 100))
    return HomogeneousPolynomial(n, d, {b: F(c) for b, c in terms.items()}), r


@st.composite
def split_cases(draw):
    """(f, r) for one-matrix, limb and Python-int scans, mixed degrees with a
    constant, and minimizers that tie across head totals."""
    kind = draw(st.sampled_from(["matrix", "limbs", "object", "mixed", "ties"]))
    if kind == "object":
        # r^d alone passes 2^63, leaving no room for a limb digit
        f = draw(homogeneous_polynomials(n=st.integers(1, 3), d=st.integers(20, 22)))
        return f, draw(st.integers(9, 10))
    r = draw(st.integers(1, 6))
    if kind == "mixed":
        f = draw(general_polynomials())
        return GeneralPolynomial(f.n, {**f.terms, (0,) * f.n: draw(coefficients(draw(st.booleans())))}), r
    if kind == "ties":
        # power sums and constants: every permutation of a minimizer ties,
        # across head totals, and the lexicographically first must win
        n, d = draw(st.integers(2, 5)), draw(st.integers(0, 3))
        c = draw(coefficients(draw(st.booleans())).filter(bool))
        return HomogeneousPolynomial(n, d, {b: c * v for b, v in sum_of_powers(n, d).terms.items()}), r
    return draw(homogeneous_polynomials(n=st.integers(1, 5), big=st.just(kind == "limbs"))), r


class TestSplitKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        case=split_cases(),
        cells=st.sampled_from([1, 3, 8, 64, _BLOCK_CELLS]),
        tables=st.sampled_from([2, 40, 400, grid_module._TABLE_CELLS]),
        data=st.data(),
    )
    def test_every_split_matches_brute_force_oracle(self, case, cells, tables, data):
        # a few cells put chunk boundaries inside one total and inside a
        # streamed block; small tables share G and Psi among fewer totals,
        # or cut one total in tiles
        f, r = case
        k = data.draw(st.integers(0, f.n - 1), label="k")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "_split", lambda *args: k)
            patch.setattr(grid_module, "_BLOCK_CELLS", cells)
            patch.setattr(grid_module, "_TABLE_CELLS", tables)
            assert _Kernel(f, r).k == k
            assert scan_both(f, r) == (brute_extremum(f, r, True), brute_extremum(f, r, False))
            if isinstance(f, HomogeneousPolynomial):
                expected = {}
                for alpha in enumerate_grid(f.n, r):
                    value = evaluate(f, [F(a, r) for a in alpha]) * multinomial(r, alpha)
                    if value:
                        expected[alpha] = value
                assert bernstein_definitional(f, r).homogeneous.terms == expected

    @pytest.mark.parametrize("cells", [4, _BLOCK_CELLS])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_ties_across_totals_resolve_to_the_first_point(self, monkeypatch, k, cells):
        # with 4 cells the ties below land in different chunks, otherwise in
        # different parts of one chunk
        monkeypatch.setattr(grid_module, "_split", lambda *args: k)
        monkeypatch.setattr(grid_module, "_BLOCK_CELLS", cells)
        zero = parse_polynomial("x1 - x1", 4)
        assert scan_both(zero, 6) == ((0, (0, 0, 0, 6)), (0, (0, 0, 0, 6)))
        assert grid_minimize(sum_of_powers(4, 2), 6).argmin.alpha == (1, 1, 2, 2)
        assert grid_maximize(sum_of_powers(4, 2), 6).argmin.alpha == (0, 0, 0, 6)
        # -1 at exactly (0, 2, 0, 0) and (1, 0, 1, 0): at k = 2 the second
        # has the smaller head total, so it is evaluated first
        for c in (1, 2**70):
            low = parse_polynomial(f"{-c}*x2^2 - {4 * c}*x1*x3", 4)
            high = parse_polynomial(f"{c}*x2^2 + {4 * c}*x1*x3", 4)
            assert grid_minimize(low, 2).argmin.alpha == grid_maximize(high, 2).argmin.alpha == (0, 2, 0, 0)

    @pytest.mark.parametrize("n, r", [(2, 10**6), (3, 450), (3, 3000), (1000, 2)])
    def test_narrow_and_wide_grids_take_few_products(self, monkeypatch, n, r):
        # a Python loop over r + 1 tiny products, or over single points,
        # would take far more products than the grid's blocks; a streamed
        # chunk keeps its blocks, so it holds 2^17 index entries, not 2^17
        # points
        f = parse_polynomial(f"x1^2 - 3*x1*x{n} + x{n}^2", n)
        pieces = _Kernel._pieces
        counts = {"products": 0, "chunks": 0}

        def counting(kernel):
            for piece in pieces(kernel):
                counts["products"] += 1
                yield piece

        monkeypatch.setattr(_Kernel, "_pieces", counting)
        kernel = _Kernel(f, r)
        tracemalloc.start()
        try:
            for _ in kernel.chunks():
                counts["chunks"] += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size, rows = grid_size(n, r), min(_BLOCK_ROWS, _BLOCK_CELLS // n)
        columns = _BLOCK_CELLS // max(kernel.limbs, 1 if kernel.k else n)
        assert counts["products"] <= 1.2 * -(-size // rows) + 2
        assert counts["chunks"] <= 1.2 * -(-size // columns) + 2
        assert peak < 4 * 2**20
        assert grid_minimize(f, r).evaluations == size

    @pytest.mark.parametrize("r", [64, 200, 450])
    def test_three_variables_stream(self, r):
        # one head per total: a split would take r + 1 matrix-vector products
        f = HomogeneousPolynomial(3, 4, {b: F(2 * i - 15, i + 1) for i, b in enumerate(compositions(3, 4))})
        assert _Kernel(f, r).k == 0

    @pytest.mark.parametrize("n, r", [(72, 3), (80, 3), (5, 31), (10, 20)])
    def test_split_tables_stay_within_their_budget(self, monkeypatch, cold_split_tables, n, r):
        # the head table is kept while the tail table is built; the two,
        # with the arrays that build them, fit _TABLE_CELLS entries, and a
        # split whose tables would not fit streams instead.  The stream's
        # tables, each build with the tables held before it, fit
        # _BLOCK_CELLS entries
        f = parse_polynomial(f"x1^2 - 3*x1*x{n} + x{n}^2", n)
        by_total, peaks, held = grid_module._by_total, [], {}

        def measured(k, m, r, dtype):
            tracemalloc.start()
            try:
                tables = by_total(k, m, r, dtype)
                peaks.append(sum(held.values()) + tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            held[m] = tables[1].nbytes
            return tables

        monkeypatch.setattr(grid_module, "_by_total", measured)
        kernel = _Kernel(f, r)
        for _ in kernel.chunks():
            pass
        assert (kernel.k > 0) == (n != 80)
        assert len(peaks) == 1 if kernel.k else len(peaks) >= 1
        itemsize = np.dtype(np.min_scalar_type(r)).itemsize
        budget = grid_module._TABLE_CELLS if kernel.k else _BLOCK_CELLS
        assert max(peaks) <= budget * itemsize


def scan_cold(f, r):
    """scan_both with the memo of split tables emptied before each scan."""
    lo_hi = []
    for scan in (grid_minimize, grid_maximize):
        grid_module._split_tables.clear()
        result = scan(f, r)
        lo_hi.append((result.value, result.argmin.alpha))
    return tuple(lo_hi)


class TestSplitTableMemo:
    @pytest.mark.parametrize("k, m, r", [(1, 1, 5), (2, 2, 6), (2, 3, 7), (1, 2, 300)])
    def test_a_hit_equals_a_fresh_build(self, cold_split_tables, k, m, r):
        dtype = np.min_scalar_type(r)
        built = grid_module._shape_tables(k, m, r)
        assert cold_split_tables[(k, m, r)] is built
        hit = grid_module._shape_tables(k, m, r)
        assert hit is built
        for kept, fresh in zip(hit, grid_module._by_total(k, m, r, dtype)):
            assert kept.dtype == fresh.dtype == dtype
            assert np.array_equal(kept, fresh)

    def test_a_scan_keeps_its_shape(self, cold_split_tables):
        f = parse_polynomial("x1^2 - 3*x1*x6 + x6^2 + x2*x5", 6)
        kernel = _Kernel(f, 7)
        assert kernel.k == 3 and not cold_split_tables
        grid_minimize(f, 7)
        heads, tails = cold_split_tables[(3, 3, 7)]
        fresh = grid_module._by_total(3, 3, 7, np.min_scalar_type(7))
        assert np.array_equal(heads, fresh[0]) and np.array_equal(tails, fresh[1])

    def test_kept_tables_are_read_only(self, cold_split_tables):
        grid_minimize(parse_polynomial("x1*x4 - x2^2", 4), 5)
        (heads, tails), = cold_split_tables.values()
        for table in (heads, tails):
            with pytest.raises(ValueError):
                table[0, 0] = 1
            with pytest.raises(ValueError):
                table[:, 1:] += 1

    def test_scans_past_the_budget_keep_at_most_its_entries(self, monkeypatch, cold_split_tables):
        # small enough that a few split shapes overflow it, large enough
        # that each of them splits
        monkeypatch.setattr(grid_module, "_TABLE_CELLS", 4000)
        built = []
        by_total = grid_module._by_total

        def counted(k, m, r, dtype):
            tables = by_total(k, m, r, dtype)
            built.append(tables[0].size + tables[1].size)
            return tables

        monkeypatch.setattr(grid_module, "_by_total", counted)
        for n, r in [(4, 26), (4, 25), (5, 10), (4, 24), (6, 5), (4, 26)]:
            f = parse_polynomial(f"x1^2 - 3*x1*x{n} + x{n}^2", n)
            assert _Kernel(f, r).k == n // 2
            grid_minimize(f, r)
            assert memo_cells() <= 4000
            # the newest shape is kept
            assert list(cold_split_tables)[-1] == (n // 2, n - n // 2, r)
        assert sum(built) > 4000 and len(cold_split_tables) < len(built)

    def test_the_memo_keeps_at_most_its_budget(self, cold_split_tables):
        # at the real budget: four shapes of 0.5-1M entries each evict the
        # oldest, and a shape of 2.8M entries is not kept at all
        cells = grid_module._TABLE_CELLS
        shapes = [(5, 5, 20), (5, 5, 21), (5, 5, 22), (5, 5, 23)]
        for shape in shapes:
            grid_module._shape_tables(*shape)
            assert memo_cells() <= cells
            assert list(cold_split_tables)[-1] == shape
        assert sum(2 * 5 * comb(r + 5, 5) for _, _, r in shapes) > cells
        assert shapes[0] not in cold_split_tables
        kept = dict(cold_split_tables)
        heads, tails = grid_module._shape_tables(6, 6, 20)
        assert heads.size + tails.size > cells
        assert not heads.flags.writeable and not tails.flags.writeable
        assert cold_split_tables == kept

    @settings(max_examples=100, deadline=None)
    @given(
        case=split_cases(),
        tables=st.sampled_from([2, 40, 400, grid_module._TABLE_CELLS]),
        data=st.data(),
    )
    def test_warm_and_cold_memos_give_the_same_extrema(self, case, tables, data):
        # on every rung, at every head length, with tables kept, evicted
        # and not kept at all
        f, r = case
        k = data.draw(st.integers(0, f.n - 1), label="k")
        kept = k and tables == grid_module._TABLE_CELLS
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "_split", lambda *args: k)
            patch.setattr(grid_module, "_TABLE_CELLS", tables)
            patch.setattr(grid_module, "_split_tables", {})
            cold = scan_cold(f, r)
            if kept:
                assert (k, f.n - k, r) in grid_module._split_tables
            assert scan_both(f, r) == cold
            assert scan_both(f, r) == cold

    def test_threads_agree_with_serial_scans(self, monkeypatch, cold_split_tables):
        # a budget that a few shapes overflow, so threads insert and evict
        # while others read
        monkeypatch.setattr(grid_module, "_TABLE_CELLS", 6000)
        rng = Random(23)
        jobs = []
        for n, r in [(4, 6), (5, 5), (6, 4), (7, 3), (4, 9), (5, 7), (6, 5), (8, 3)]:
            for _ in range(3):
                jobs.append((random_polynomial(rng, n, rng.randint(1, 3), max_terms=8), r))
        serial = [scan_cold(f, r) for f, r in jobs]
        cold_split_tables.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda job: scan_both(*job), jobs * 3))
        assert threaded == serial * 3
        assert memo_cells() <= 6000
