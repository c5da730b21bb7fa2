"""Regular grids on the standard simplex.

The order-r grid consists of the points alpha/r where alpha ranges over all
nonnegative integer n-vectors summing to r.  This module enumerates those
index vectors in lexicographic order, unranks them (combinatorial number
system) to sample grid points, and scans them for exact extrema with a
deterministic lexicographic tie-break.  Every scan, and every expansion of
a whole grid, checks the grid's size against a limit before any work.

Every grid scan runs through one kernel.  The polynomial, compiled to
integer numerators over a common denominator, is evaluated as
Phi(head) . C . Psi(tail): a point's first k coordinates are its head, the
rest its tail, C holds the coefficients by head and tail monomial, and each
total of the heads meets the matching total of the tails in one matrix
product.  The head and tail tables of a grid shape are built once per
process and kept, read-only, while their entries fit a fixed budget.  k = 0
streams numpy blocks of index vectors as tails.  An
a-priori bound decides the arithmetic, the first rung that fits of: one
float64 matrix, so that every product runs in BLAS; a digit matrix per
float64 limb under a 2^51 per-limb budget; one int64 matrix; int64 limbs
under 2^61; and, only when the monomials alone leave no room for digits,
arrays of Python ints.  Each rung holds every integer its products and
partial sums can reach, so results are exact on every rung, and callers
see only Python ints.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from random import Random
from typing import Iterator

import numpy as np

from .combinatorics import MultiIndex, compositions
from .polynomial import Polynomial


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
# enough that a block's working set (its index vectors, one row per
# variable, two accumulators) stays small.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 17
# Largest grid a scan accepts; a larger one is refused before any work.
MAX_GRID_POINTS = 10**8
# Largest grid a walk with a Python object per point accepts (the definitional
# form, a Python-int scan: tens of us, ~200 B each); the direct moment sum keeps
# none, but takes up to 3x as many integer steps, under the same limit.
MAX_EXPANDED_POINTS = 10**4
# Largest n * grid_size a walk accepts: a block holds at least one point, so
# a grid wider than a block is walked a point at a time.
MAX_GRID_ENTRIES = 10**9
# A split scan's index tables, with the arrays that build them, hold at most
# _TABLE_CELLS entries, and so do the monomial rows and G = Phi @ C of the
# totals built at once; a scan whose tables would not fit streams.  The
# memo of split tables below holds at most _TABLE_CELLS entries in all.
_TABLE_CELLS = 1 << 21
# The kernel's arithmetic rungs, in order: (dtype, largest sum |c'| * r^degree
# of one matrix, per-limb budget); float64 holds every integer up to 2^53.
_RUNGS = ((np.float64, 2**53, 2**51), (np.int64, 2**63 - 1, 2**61))


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


def _grid_blocks(n: int, r: int) -> Iterator[np.ndarray]:
    """Yield the order-r grid as (n, rows) arrays of index vectors, one
    vector per column, in ascending lexicographic order, in the smallest
    integer dtype that holds r; every block but the last has
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n)) columns.

    Each piece, a fixed prefix over every composition of the remaining
    total s into the remaining m slots, is written a slice of columns at a
    time across the blocks it fills: a closed form if s <= 1 or m <= 2, else
    the total-s columns of _by_total's m-slot table, kept for this scan while
    the tables held, plus 4x a new one and 4096 entries for its build, fit
    _BLOCK_CELLS.  A piece whose table would not fit is split by its next
    entry.
    """
    dtype = np.min_scalar_type(r)
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n))
    tables: dict[int, np.ndarray] = {}
    # a total-1 piece is never written more than min(n, rows) columns at once
    anti = np.eye(min(n, rows), dtype=dtype)[::-1]
    prefix = np.zeros(n, dtype)
    block, filled = np.empty((n, rows), dtype), 0
    # depth-first over prefixes, smallest first; an entry (k, v, m, s) is the
    # prefix of length k that ends in v, with total s left over m slots
    stack = [(0, 0, n, r)]
    while stack:
        k, v, m, s = stack.pop()
        if k:
            prefix[k - 1] = v
        width, table = comb(s + m - 1, s), None
        if s > 1 and m > 2:
            end = comb(s + m, m)
            table = tables.get(m)
            if table is None or table.shape[1] < end:
                # a build's views and lists take up to ~2 KiB whatever its size
                if sum(t.size for t in tables.values()) + 4 * m * end + 4096 > _BLOCK_CELLS:
                    stack.extend((k + 1, u, m - 1, s - u) for u in range(s, -1, -1))
                    continue
                table = tables[m] = _by_total(1, m, s, dtype)[1]
            table = table[:, end - width : end]
        c = 0
        while c < width:
            if filled == rows:
                yield block
                block, filled = np.empty((n, rows), dtype), 0
            cols = min(width - c, rows - filled)
            piece = block[:, filled : filled + cols]
            piece[:k] = prefix[:k, None]
            if table is None:
                _closed_form(piece[k:], s, c, anti)
            else:
                piece[k:] = table[:, c : c + cols]
            filled, c = filled + cols, c + cols
    yield block[:, :filled]


def _by_total(k: int, m: int, r: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The tables of every k-vector and of every m-vector of total at most
    r, a vector per column, by total and lexicographically within a total.
    The j-vectors of total t with first entry u are u over the
    (j - 1)-vectors of total t - u: a suffix of the shorter table's totals
    in reverse order, each under its total s, then u = t - s.  Only the
    shorter of the two tables is kept while the longer is built."""
    totals = np.arange(r + 1, dtype=dtype)
    table, counts = totals[None], [1] * (r + 1)
    short = table
    for j in range(2, max(k, m) + 1):
        ends = list(accumulate(counts))
        rows = np.concatenate((np.repeat(totals, counts)[None], table))
        rev = np.concatenate([rows[:, e - c : e] for e, c in zip(ends[::-1], counts[::-1])], axis=1)
        table = np.concatenate([rev[:, rev.shape[1] - e :] for e in ends], axis=1)
        counts = ends
        table[0] = np.repeat(totals, counts) - table[0]
        if j == min(k, m):
            short = table
    return (short, table) if k <= m else (table, short)


# The split tables (heads, tails) of each grid shape (k, m, r), read-only, in
# the order they were built: an insert evicts the oldest shapes until the
# memo's entries fit _TABLE_CELLS, and a shape whose tables alone would not
# fit is not kept.  Inserts and evictions are serialized; a lookup of a kept
# shape takes no lock.
_split_tables: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_split_tables_lock = threading.Lock()


def _shape_tables(k: int, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """_by_total's (heads, tails) tables for k-vectors and m-vectors of total
    at most r, in the smallest integer dtype that holds r, from the memo."""
    shape = k, m, r
    tables = _split_tables.get(shape)
    if tables is not None:
        return tables
    tables = _by_total(k, m, r, np.min_scalar_type(r))
    for table in tables:
        table.flags.writeable = False
    cells = lambda pair: pair[0].size + pair[1].size
    if cells(tables) <= _TABLE_CELLS:
        with _split_tables_lock:
            if shape in _split_tables:
                return _split_tables[shape]
            held = sum(map(cells, _split_tables.values()))
            while held + cells(tables) > _TABLE_CELLS:
                held -= cells(_split_tables.pop(next(iter(_split_tables))))
            _split_tables[shape] = tables
    return tables


def _monomials(points: np.ndarray, variables: np.ndarray, factors: np.ndarray, dtype) -> np.ndarray:
    """(monomials, columns) array of every monomial at every column x of
    points: row q of factors lists the variables of monomial q, each as often
    as its exponent, as row numbers of (1, x[variables]), padded with 0."""
    rows = np.empty((len(variables) + 1, points.shape[1]), dtype)
    rows[0], rows[1:] = 1, points[variables]
    out = rows[factors[:, 0]]
    for j in range(1, factors.shape[1]):
        out *= rows[factors[:, j]]
    return out


def _split(n: int, r: int, q: int, p: int, limbs: int) -> int:
    """The head length of a scan: n // 2 when n >= 4 and its index tables,
    with C's q distinct head monomials by p distinct tail monomials at that
    split in every limb, fit _TABLE_CELLS, else 0.  With n <= 3 the head is
    one coordinate, so each total has a single head, and the split would pay
    per total for a matrix-vector product that streaming does as one product
    per block."""
    if n < 4:
        return 0
    k, m = n // 2, n - n // 2
    # the head table is kept while the tail table is built: the shorter
    # table, the row of totals over it and its reordering, then the table
    return k if k * comb(r + k, k) + 4 * m * comb(r + m, m) + limbs * q * p <= _TABLE_CELLS else 0


class _Kernel:
    """f compiled for exact evaluation on the order-r grid.

    At alpha/r the value of f is its numerator at alpha over a fixed positive
    integer denom, so comparisons are integer comparisons.  Each term keeps
    its cleared coefficient c' (times r^deficit below the top degree), so its
    monomial is at most r^degree.  The first k coordinates of a point are
    its head, the others its tail, k = n // 2 when n >= 4 and the index
    tables fit _TABLE_CELLS, else 0 (_split), and with a row per distinct
    head monomial and a column per distinct tail monomial the c' form C:
    f(head, tail) = Phi(head) . C . Psi(tail), Phi and Psi the monomial
    rows.  The heads of total t meet the tails of total r - t in one matrix
    product of rows of G = Phi @ C with columns of Psi, both built once for
    each run of totals that fits _TABLE_CELLS (a larger total in tiles); the
    head and tail index tables come from the memo (_shape_tables).
    k = 0 streams the grid's blocks as the tails of one empty head, whose G
    is C.  Products fill a buffer of _BLOCK_CELLS entries, a chunk.

    Every product and partial sum of Phi(head) . C . Psi(tail), in any
    order, with or without fused multiply-add, is an integer of magnitude at
    most sum |c'| * r^degree, so a dtype holding every integer up to that
    bound is exact.  The first of _RUNGS (float64 to 2^53, then int64 to
    2^63 - 1) that holds it takes C as one matrix (limbs == 1).  Otherwise
    each c' is split into `limbs` signed base-2^s digits, the sign of c' on
    each, a digit matrix per limb, s the largest width such that
    terms * (2^s - 1) * r^degree is within the rung's per-limb budget.  A
    float64 chunk is converted to int64, exactly, its entries being integers,
    and carries then run from the low limb up (acc[l+1] += acc[l] >> s,
    acc[l] &= 2^s - 1), every intermediate below twice the budget, and
    values order as (acc[L-1], ..., acc[0]) do.  A rung with no room for
    two-bit digits (s < 2) passes to the next; past the last, the arrays
    hold Python ints (dtype=object).  float64 assumes the classical matrix
    product, as OpenBLAS computes it, not a Strassen-type one.
    """

    def __init__(self, f: Polynomial, r: int):
        n = self.n = f.n
        self.r = r
        cden, dmax, numerators = f._integer_form
        terms = {b: c * r ** (dmax - sum(b)) for b, c in zip(f.terms, numerators)} or {(0,) * n: 0}
        self.denom = cden * r**dmax
        self.dtype: type = object
        self.limbs, self.shift = 1, 0
        bound = sum(map(abs, terms.values())) * r**dmax
        for dtype, single, budget in _RUNGS:
            if bound <= single:
                self.dtype = dtype
                break
            # the widest digit with terms * (2^shift - 1) * r^dmax <= budget
            shift = (budget // (len(terms) * r**dmax) + 1).bit_length() - 1
            if shift >= 2:
                self.dtype, self.shift = dtype, shift
                self.limbs = -(-max(map(abs, terms.values())).bit_length() // shift)
                break
        # the distinct head and tail monomials, at the split _split weighs
        half = n // 2
        heads, tails = dict.fromkeys(b[:half] for b in terms), dict.fromkeys(b[half:] for b in terms)
        self.k = k = _split(n, r, len(heads), len(tails), self.limbs)
        if k != half:
            heads, tails = dict.fromkeys(b[:k] for b in terms), dict.fromkeys(b[k:] for b in terms)
        heads, tails = ({m: i for i, m in enumerate(monomials)} for monomials in (heads, tails))
        self.factors = []
        for monomials in (heads, tails):
            variables = sorted({i for m in monomials for i, e in enumerate(m) if e})
            row_of = {v: j + 1 for j, v in enumerate(variables)}
            rows = [[row_of[i] for i, e in enumerate(m) if e for _ in range(e)] for m in monomials]
            width = max(1, *map(len, rows))
            self.factors.append((np.array(variables, np.intp), np.array([row + [0] * (width - len(row)) for row in rows], np.intp)))
        digits = list(terms.values())
        if self.limbs > 1:
            mask = (1 << self.shift) - 1
            digits = [[(abs(c) >> self.shift * l & mask) * (1 if c > 0 else -1) for c in digits] for l in range(self.limbs)]
        self.coeffs = np.zeros((self.limbs, len(heads), len(tails)), self.dtype)
        self.coeffs[:, [heads[b[:k]] for b in terms], [tails[b[k:]] for b in terms]] = np.array(digits, self.dtype)

    def _pieces(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """(heads, G, tails, Psi) with every pair of a head and a tail a grid
        point, once over all pieces."""
        n, r, k = self.n, self.r, self.k
        g = lambda heads: _monomials(heads, *self.factors[0], self.dtype).T @ self.coeffs
        psi = lambda tails: _monomials(tails, *self.factors[1], self.dtype)
        none = np.zeros((0, 1), np.min_scalar_type(r))
        if k:
            heads, tails = _shape_tables(k, n - k, r)
            h, t = (list(accumulate([0] + [comb(s + j - 1, s) for s in range(r + 1)])) for j in (k, n - k))
            # totals s..end - 1 share one G and one Psi while they fit half of
            # _TABLE_CELLS each; a total that does not fit is cut in tiles
            (q, p), s = self.coeffs.shape[1:], 0
            rows, cols = max(1, _TABLE_CELLS // 2 // (q + self.limbs * p)), max(1, _TABLE_CELLS // 2 // p)
            while s <= r:
                end = s + 1
                while end <= r and h[end + 1] - h[s] <= rows and t[r - s + 1] - t[r - end] <= cols:
                    end += 1
                for j in range(t[r - end + 1], t[r - s + 1], cols):
                    j1 = min(j + cols, t[r - s + 1])
                    psi_part = psi(tails[:, j:j1])
                    for i in range(h[s], h[end], rows):
                        i1 = min(i + rows, h[end])
                        g_part = g(heads[:, i:i1])
                        for u in range(s, end):
                            a, b, c, d = max(h[u], i), min(h[u + 1], i1), max(t[r - u], j), min(t[r - u + 1], j1)
                            if a < b and c < d:
                                yield heads[:, a:b], g_part[:, a - i : b - i], tails[:, c:d], psi_part[:, c - j : d - j]
                s = end
            return
        width = max(1, _BLOCK_CELLS // max(self.limbs, *self.coeffs.shape[1:]))
        for block in _grid_blocks(n, r):
            for part in (block[:, j : j + width] for j in range(0, block.shape[1], width)):
                yield none, self.coeffs, part, psi(part)

    def chunks(self) -> Iterator[tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]]:
        """Yield (acc, parts) covering the grid once: acc is the (limbs,
        columns) chunk, carries normalized, and a part (offset, heads, tails)
        owns the columns from offset on, a pair of a head and a tail column
        each, heads major, so in lexicographic order within the part.  The
        buffer is reused: acc holds until the next chunk is asked for.  A
        streamed part keeps its block alive, so a streamed chunk also has at
        most _BLOCK_CELLS index entries."""
        cells = max(self.limbs, 1 if self.k else self.n)
        columns = max(1, min(_BLOCK_CELLS // cells, comb(self.n + self.r - 1, self.r)))
        buffer, filled, parts = np.empty((self.limbs, columns), self.dtype), 0, []
        for heads, g, tails, psi in self._pieces():
            width = min(tails.shape[1], columns)
            for j in range(0, tails.shape[1], width):
                for i in range(0, heads.shape[1], columns // width):
                    h, t = heads[:, i : i + columns // width], tails[:, j : j + width]
                    if filled + h.shape[1] * t.shape[1] > columns:
                        yield self._normalized(buffer[:, :filled]), parts
                        filled, parts = 0, []
                    out = buffer[:, filled : filled + h.shape[1] * t.shape[1]]
                    np.matmul(g[:, i : i + h.shape[1]], psi[:, j : j + t.shape[1]], out=out.reshape(self.limbs, h.shape[1], t.shape[1]))
                    parts.append((filled, h, t))
                    filled += out.shape[1]
        yield self._normalized(buffer[:, :filled]), parts

    def _normalized(self, acc: np.ndarray) -> np.ndarray:
        """acc as integers, a float64 chunk as an int64 copy, with its
        carries run from the low limb up."""
        if self.dtype is np.float64:
            acc = acc.astype(np.int64)
        for l in range(self.limbs - 1):
            acc[l + 1] += acc[l] >> self.shift
            acc[l] &= (1 << self.shift) - 1
        return acc

    def values(self) -> Iterator[tuple[list[list[int]], list[int]]]:
        """Batches (alphas, numerators of f there) covering every grid point
        whose numerator is not 0."""
        for acc, parts in self.chunks():
            out = acc[-1] if self.limbs == 1 else acc[-1].astype(object)
            for l in range(self.limbs - 2, -1, -1):
                out = (out << self.shift) + acc[l]
            for offset, heads, tails in parts:
                part = out[offset : offset + heads.shape[1] * tails.shape[1]]
                nonzero = np.flatnonzero(part)
                i, j = np.divmod(nonzero, tails.shape[1])
                yield np.concatenate((heads[:, i], tails[:, j])).T.tolist(), part[nonzero].tolist()

    def extremum(self, prefer_smaller: bool) -> tuple[int, list[int]]:
        """(numerator, alpha) of the smallest or largest value on the grid,
        at the lexicographically smallest alpha among ties."""
        best: tuple[int, list[int]] | None = None
        for acc, parts in self.chunks():
            # the chunk's extremal columns: ties of the top limb, narrowed
            # limb by limb
            ties = np.flatnonzero(acc[-1] == (acc[-1].min() if prefer_smaller else acc[-1].max()))
            for l in range(self.limbs - 2, -1, -1):
                lower = acc[l, ties]
                ties = ties[lower == (lower.min() if prefer_smaller else lower.max())]
            v = sum(int(acc[l, ties[0]]) << (self.shift * l) for l in range(self.limbs))
            if best is not None and (v > best[0] if prefer_smaller else v < best[0]):
                continue
            offsets = [offset for offset, _, _ in parts]
            if not self.k:
                # streamed chunks come in lexicographic order: the first tie
                # competes, and only a strictly better value
                if best is not None and v == best[0]:
                    continue
                ties = ties[:1]
            elif ties.size > 1:
                # parts, and chunks, of different totals are not in
                # lexicographic order: the first tie of each part competes,
                # and an equal value displaces the incumbent when its alpha
                # is smaller
                ties = ties[np.unique(np.searchsorted(offsets, ties, side="right"), return_index=True)[1]]
            for c in ties.tolist():
                offset, heads, tails = parts[bisect_right(offsets, c) - 1]
                i, j = divmod(c - offset, tails.shape[1])
                alpha = heads[:, i].tolist() + tails[:, j].tolist()
                if best is None or v != best[0] or alpha < best[1]:
                    best = v, alpha
        assert best is not None
        return best


def _require_order(r: int, minimum: int = 1) -> None:
    if not isinstance(r, int) or r < minimum:
        raise ValueError(f"grid order must be an integer >= {minimum}, got {r!r}")


def _require_grid(n: int, r: int, limit: int, walk: str) -> int:
    """Size of the order-r grid in n variables; refuses an order below 1, more
    than limit points or more than MAX_GRID_ENTRIES entries.  Every grid walk
    calls this before any work."""
    _require_order(r)
    cap = min(limit, MAX_GRID_ENTRIES // n)
    # C(n+r-1, r) is at least 2^min(n-1, r), so a large min(n-1, r) needs no huge binomial
    if min(n - 1, r) >= cap.bit_length() or (size := grid_size(n, r)) > cap:
        raise ValueError(f"the order-{r} grid in {n} variables has more than {cap} points, the most {walk} accepts: {limit} points and {MAX_GRID_ENTRIES} entries in all")
    return size


def _scan_extremum(f: Polynomial, r: int, prefer_smaller: bool) -> GridMinimum:
    size = _require_grid(f.n, r, MAX_GRID_POINTS, "a scan")
    kernel = _Kernel(f, r)
    if kernel.dtype is object:
        _require_grid(f.n, r, MAX_EXPANDED_POINTS, "a scan in Python ints")
    value, alpha = kernel.extremum(prefer_smaller)
    return GridMinimum(Fraction(value, kernel.denom), GridPoint(tuple(alpha), r), size)


def grid_minimize(f: Polynomial, r: int) -> GridMinimum:
    """Exact minimum of f over the order-r grid.

    Ties break to the lexicographically smallest index vector.  A grid of
    more than MAX_GRID_POINTS points (MAX_EXPANDED_POINTS when the kernel runs
    on Python ints), or more than MAX_GRID_ENTRIES index entries, is refused
    with ValueError before any work.
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
