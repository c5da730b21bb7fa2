"""Regular grids on the standard simplex.

The order-r grid consists of the points alpha/r where alpha ranges over all
nonnegative integer n-vectors summing to r.  This module enumerates those
index vectors in lexicographic order, unranks them (combinatorial number
system) to sample grid points, and scans them for exact extrema with a
deterministic lexicographic tie-break.  Every scan, and every expansion of
a whole grid, checks the grid's size against a limit before any work.

Every grid scan runs through one vectorized kernel: the grid is produced as
numpy blocks of index vectors and the polynomial, compiled to integer
numerators over a common denominator, is evaluated a block at a time in
int64.  An a-priori bound decides how: one int64 row when no product or
partial sum can overflow, otherwise several int64 limbs, each coefficient
split into signed base-2^s digits under a 2^61 per-limb budget and the
carries normalized after each block.  Only when the monomials alone leave no
room for such digits does the same code run on arrays of Python ints.
Results are exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from random import Random
from typing import Iterator

import numpy as np

from .combinatorics import MultiIndex, compositions
from .polynomial import HomogeneousPolynomial, Polynomial


@dataclass(frozen=True)
class GridPoint:
    """The rational simplex point alpha/r, held as the integer vector alpha
    and the grid order r."""

    alpha: MultiIndex
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"grid order must be >= 1, got {self.r}")
        if any(not isinstance(a, int) or a < 0 for a in self.alpha):
            raise ValueError(f"index vector must hold nonnegative integers: {self.alpha}")
        if sum(self.alpha) != self.r:
            raise ValueError(f"index vector {self.alpha} must sum to {self.r}")

    def coordinates(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.r) for a in self.alpha)


@dataclass(frozen=True)
class GridMinimum:
    """Result of a full grid scan: the extremal value, the witness point
    (lexicographically smallest index among ties), and how many grid points
    were evaluated."""

    value: Fraction
    argmin: GridPoint
    evaluations: int


def enumerate_grid(n: int, r: int) -> Iterator[MultiIndex]:
    """Yield every index vector of the order-r grid in n variables exactly
    once, in ascending lexicographic order."""
    return compositions(n, r)


def grid_size(n: int, r: int) -> int:
    """Number of order-r grid points in n variables: C(n+r-1, r)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"order must be >= 0, got {r}")
    return comb(n + r - 1, r)


def composition_unrank(n: int, r: int, rank: int) -> MultiIndex:
    """The rank-th vector, counting from 0, in lexicographic order among
    nonnegative n-vectors summing to r."""
    total = grid_size(n, r)
    if rank < 0 or rank >= total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    out = []
    remaining = r
    for i in range(n - 1):
        slots = n - 1 - i
        v = 0
        while True:
            count = comb(slots + remaining - v - 1, slots - 1)
            if rank < count:
                break
            rank -= count
            v += 1
        out.append(v)
        remaining -= v
    out.append(remaining)
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact extrema
# ---------------------------------------------------------------------------


# A block holds at most _BLOCK_ROWS grid points and at most _BLOCK_CELLS
# index-vector entries (n * rows), so wide grids get narrower blocks: large
# enough that numpy's per-call overhead is spread over many points, small
# enough that a block's working set (its index vectors, one int64 or object
# row per variable, two accumulators) stays small.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 17
# Largest grid a scan accepts; a larger one is refused before any work.
MAX_GRID_POINTS = 10**8
# Largest grid a walk with a Python object per point accepts (the definitional
# form, the direct moment sum, a Python-int scan: tens of us, ~200 B each).
MAX_EXPANDED_POINTS = 10**4
_INT64_MAX = 2**63 - 1
_LIMB_BUDGET = 2**61


def _closed_form(out: np.ndarray, s: int, c: int, anti: np.ndarray) -> None:
    """Write into out columns c, c+1, ... of the table of every composition
    of s into m = len(out) parts, for a total of 0 or 1 or for one or two
    parts: column j of (m, 1) has its 1 in row m-1-j, a slice of the
    anti-identity anti, and column j of (2, s) is (j, s-j)."""
    m, cols = out.shape
    if s == 0 or m == 1:
        out[:] = s
    elif s == 1:
        if cols < m:
            out[:] = 0
        top = m - c - cols
        out[top : top + cols] = anti[len(anti) - cols :, :cols]
    else:
        out[0] = np.arange(c, c + cols)
        out[1] = s - out[0]


def _suffix_table(tables: dict, anti: np.ndarray, m: int, s: int) -> np.ndarray:
    """The (m, C(s+m-1, s)) array of every composition of s into m parts,
    one per column, in lexicographic order: those with first part 0 are the
    (m-1, s) table behind a 0, the rest the (m, s-1) table with the first
    part raised by one.  Tables built so are memoised in tables."""
    table = tables.get((m, s))
    if table is None:
        table = np.empty((m, comb(s + m - 1, s)), anti.dtype)
        if s <= 1 or m <= 2:
            _closed_form(table, s, 0, anti)
            return table
        zero_first = _suffix_table(tables, anti, m - 1, s)
        w = zero_first.shape[1]
        table[0, :w] = 0
        table[1:, :w] = zero_first
        table[:, w:] = _suffix_table(tables, anti, m, s - 1)
        table[0, w:] += 1
        tables[m, s] = table
    return table


def _grid_blocks(n: int, r: int) -> Iterator[np.ndarray]:
    """Yield the order-r grid as (n, rows) arrays of index vectors, one
    vector per column, in ascending lexicographic order, in the smallest
    integer dtype that holds r.  No block has more than _BLOCK_ROWS columns
    or more than _BLOCK_CELLS entries.

    A block is stitched from pieces "fixed prefix + every composition of the
    remaining total over the remaining slots"; the suffix tables are
    memoised for this scan only and dropped when the generator finishes.  A
    piece wider than a block is split by its next entry, except a piece with
    a closed form, which is written across as many blocks as it fills.
    """
    dtype = np.min_scalar_type(r)
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n))
    tables: dict = {}
    # a total-1 piece is never written more than min(n, rows) columns at once
    anti = np.eye(min(n, rows), dtype=dtype)[::-1]
    prefix = np.zeros(n, dtype)
    block = np.empty((n, rows), dtype)
    filled = 0
    # depth-first over prefixes, smallest first; an entry (k, v, m, s) is the
    # prefix of length k that ends in v, with total s left over m slots
    stack = [(0, 0, n, r)]
    while stack:
        k, v, m, s = stack.pop()
        if k:
            prefix[k - 1] = v
        width = comb(s + m - 1, s)
        if width <= rows:
            if filled + width > rows:
                yield block[:, :filled]
                block = np.empty((n, rows), dtype)
                filled = 0
            end = filled + width
            block[:k, filled:end] = prefix[:k, None]
            if s <= 1 or m <= 2:
                _closed_form(block[k:, filled:end], s, 0, anti)
            else:
                block[k:, filled:end] = _suffix_table(tables, anti, m, s)
            filled = end
        elif s <= 1 or m <= 2:
            # a wide closed form fills this block and then whole blocks, a
            # slice of columns at a time
            c = 0
            while c < width:
                if filled == rows:
                    yield block
                    block = np.empty((n, rows), dtype)
                    filled = 0
                cols = min(width - c, rows - filled)
                piece = block[:, filled : filled + cols]
                piece[:k] = prefix[:k, None]
                _closed_form(piece[k:], s, c, anti)
                filled += cols
                c += cols
        else:
            stack.extend((k + 1, u, m - 1, s - u) for u in range(s, -1, -1))
    yield block[:, :filled]


class _Kernel:
    """f compiled for exact evaluation on the order-r grid.

    At the grid point alpha/r the value of f is values(alpha) / denom with a
    fixed positive integer denom, so value comparisons are integer
    comparisons.  Each term keeps its integer-cleared coefficient c' (times
    r^deficit for terms below the top degree) and its variables, each
    repeated as often as its exponent, so its monomial at alpha is at most
    r^degree in absolute value.

    The arithmetic is int64 throughout when the input allows it.  If
    sum |c'| * r^degree <= 2^63 - 1, no product or partial sum can overflow
    and each block is evaluated in one int64 row (limbs == 1).  Otherwise
    every c' is split into `limbs` signed base-2^s digits, the sign of c' on
    each, with s the largest width such that
    terms * (2^s - 1) * r^degree <= 2^61.  Limb l accumulates
    monomial * digit_l over the terms, so no limb passes 2^61 before
    normalization; carries then run from the low limb up (carry =
    acc[l] >> s, acc[l] &= 2^s - 1), which leaves every limb but the top one
    in [0, 2^s) and every intermediate below 2^62.  After that, the value
    order of the block is the lexicographic order of (acc[L-1], ..., acc[0]).
    Only when the monomial bound leaves no room for two-bit digits (s < 2)
    do the arrays hold Python ints instead (dtype=object).
    """

    def __init__(self, f: Polynomial, r: int):
        dmax = f.d if isinstance(f, HomogeneousPolynomial) else f.degree()
        cden = lcm(*(c.denominator for c in f.terms.values())) if f.terms else 1
        factors_of, coeffs = [], []
        for beta, c in f.terms.items():
            factors = tuple(i for i, e in enumerate(beta) for _ in range(e))
            factors_of.append(factors)
            coeffs.append(c.numerator * (cden // c.denominator) * r ** (dmax - len(factors)))
        self.denom = cden * r**dmax
        self.dtype: type = np.int64
        self.limbs, self.shift = 1, 0
        if sum(map(abs, coeffs)) * r**dmax > _INT64_MAX:
            # the widest digit with terms * (2^shift - 1) * r^dmax <= 2^61
            shift = (_LIMB_BUDGET // (len(coeffs) * r**dmax) + 1).bit_length() - 1
            if shift < 2:
                self.dtype = object
            else:
                self.shift = shift
                self.limbs = -(-max(map(abs, coeffs)).bit_length() // shift)
        # per term: its coefficient, or the column of its digits, and its
        # variables
        self.terms = []
        for c, factors in zip(coeffs, factors_of):
            if self.limbs > 1:
                mask, sign = (1 << shift) - 1, (-1 if c < 0 else 1)
                digits = [((abs(c) >> (shift * l)) & mask) * sign for l in range(self.limbs)]
                c = np.array(digits, dtype=np.int64)[:, None]
            self.terms.append((c, factors))
        self.variables = sorted({i for factors in factors_of for i in factors})

    def _limbs(self, block: np.ndarray) -> np.ndarray:
        """(limbs, rows) array whose limb l holds the base-2^shift digit l
        of each column's numerator, carries normalized so that every limb
        but the top one lies in [0, 2^shift)."""
        rows = {i: block[i].astype(self.dtype) for i in self.variables}
        # one limb stays one-dimensional: the same numpy calls on (1, rows)
        # arrays measured slower per block than on (rows,) arrays
        shape = (self.limbs, block.shape[1]) if self.limbs > 1 else block.shape[1]
        out = np.zeros(shape, dtype=self.dtype)
        prod = np.empty_like(out)
        monomial = np.empty(block.shape[1], dtype=self.dtype)
        for coeff, factors in self.terms:
            if not factors:
                out += coeff
                continue
            # the coefficient goes in last: on the object path the products
            # of grid entries are cheap and only two big-integer operations
            # per point remain.  A column of digits scales the one monomial
            # row into every limb row
            if len(factors) == 1:
                np.multiply(rows[factors[0]], coeff, out=prod)
            else:
                np.multiply(rows[factors[0]], rows[factors[1]], out=monomial)
                for i in factors[2:]:
                    monomial *= rows[i]
                np.multiply(monomial, coeff, out=prod)
            out += prod
        acc = out.reshape(self.limbs, -1)
        for l in range(self.limbs - 1):
            acc[l + 1] += acc[l] >> self.shift
            acc[l] &= (1 << self.shift) - 1
        return acc

    def values(self, block: np.ndarray) -> np.ndarray:
        """Numerators of f at every index vector (column) of a block: int64
        when one limb holds them, Python ints otherwise."""
        acc = self._limbs(block)
        if self.limbs == 1:
            return acc[0]
        out = acc[-1].astype(object)
        for l in range(self.limbs - 2, -1, -1):
            out = (out << self.shift) + acc[l]
        return out

    def extremum(self, block: np.ndarray, prefer_smaller: bool) -> tuple[int, int]:
        """(column, numerator) of the block's smallest or largest value; the
        first such column among ties."""
        acc = self._limbs(block)
        top = acc[-1]
        j = int(top.argmin() if prefer_smaller else top.argmax())
        if self.limbs == 1:
            return j, int(top[j])
        # narrow the top limb's ties limb by limb; flatnonzero keeps them in
        # column order, so the first survivor is the first tie
        ties = np.flatnonzero(top == top[j])
        for l in range(self.limbs - 2, -1, -1):
            if ties.size == 1:
                break
            lower = acc[l, ties]
            ties = ties[lower == (lower.min() if prefer_smaller else lower.max())]
        j = int(ties[0])
        return j, sum(int(acc[l, j]) << (self.shift * l) for l in range(self.limbs))


def _require_order(r: int, minimum: int = 1) -> None:
    if not isinstance(r, int) or r < minimum:
        raise ValueError(f"grid order must be an integer >= {minimum}, got {r!r}")


def _size_within(n: int, r: int, limit: int) -> int | None:
    """grid_size(n, r) if at most limit, else None.  C(n+r-1, r) is at least
    2^min(n-1, r), so a large min(n-1, r) needs no huge binomial."""
    if min(n - 1, r) >= limit.bit_length() or grid_size(n, r) > limit:
        return None
    return grid_size(n, r)


def _require_grid(n: int, r: int, limit: int, walk: str) -> int:
    """Size of the order-r grid in n variables; refuses an order below 1 or
    more than limit points.  Every grid walk calls this before any work."""
    _require_order(r)
    size = _size_within(n, r, limit)
    if size is None:
        raise ValueError(f"the order-{r} grid in {n} variables has more than {limit} points, the most {walk} accepts")
    return size


def _scan_extremum(f: Polynomial, r: int, prefer_smaller: bool) -> GridMinimum:
    size = _require_grid(f.n, r, MAX_GRID_POINTS, "a scan")
    kernel = _Kernel(f, r)
    if kernel.dtype is object:
        _require_grid(f.n, r, MAX_EXPANDED_POINTS, "a scan in Python ints")
    best_v: int | None = None
    best_a: list[int] = []
    for block in _grid_blocks(f.n, r):
        # the block's first extremal column is its lexicographically
        # smallest index vector among ties, and a later block must improve
        # strictly to displace an earlier one
        j, v = kernel.extremum(block, prefer_smaller)
        if best_v is None or (v < best_v if prefer_smaller else v > best_v):
            best_v, best_a = v, block[:, j].tolist()
    assert best_v is not None
    point = GridPoint(tuple(best_a), r)
    return GridMinimum(Fraction(best_v, kernel.denom), point, size)


def grid_minimize(f: Polynomial, r: int) -> GridMinimum:
    """Exact minimum of f over the order-r grid.

    Ties break to the lexicographically smallest index vector.  A grid of
    more than MAX_GRID_POINTS points (MAX_EXPANDED_POINTS when the kernel runs
    on Python ints) is refused with ValueError before any work.
    """
    return _scan_extremum(f, r, prefer_smaller=True)


def grid_maximize(f: Polynomial, r: int) -> GridMinimum:
    """Exact maximum of f over the order-r grid, same contract as
    grid_minimize (argmin field holds the maximizing point)."""
    return _scan_extremum(f, r, prefer_smaller=False)


def sum_of_powers_grid_min(n: int, r: int, d: int) -> Fraction:
    """Closed-form grid minimum of x_1^d + ... + x_n^d.

    Writing r = k*n + s with 0 <= s < n, the minimum over the order-r grid is
    attained by any point with s coordinates (k+1)/r and n-s coordinates k/r:

        s*((k+1)/r)^d + (n-s)*(k/r)^d

    Serves as an independent oracle for grid_minimize on this family.
    """
    if n < 1 or r < 1 or d < 1:
        raise ValueError(f"need n, r, d >= 1, got ({n}, {r}, {d})")
    k, s = divmod(r, n)
    return s * Fraction(k + 1, r) ** d + (n - s) * Fraction(k, r) ** d


_SAMPLE_ORDER = 37  # a prime, so samples rarely align with the small grids under test


def sample_grid_points(n: int, count: int, rng: Random) -> list[tuple[Fraction, ...]]:
    """Draw `count` uniform points from the order-37 grid.  Exact rational
    coordinates; duplicates possible."""
    total = grid_size(n, _SAMPLE_ORDER)
    points = []
    for _ in range(count):
        alpha = composition_unrank(n, _SAMPLE_ORDER, rng.randrange(total))
        points.append(tuple(Fraction(a, _SAMPLE_ORDER) for a in alpha))
    return points
