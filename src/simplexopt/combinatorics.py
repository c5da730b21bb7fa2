"""Exact combinatorial kernels.

Falling factorials, Stirling numbers of the second kind, multinomial
coefficients, plus the two identities the general error-bound analysis rests
on, each paired with a brute-force oracle.  Everything here is exact
integer arithmetic: arbitrary precision, except the surjection walk's numpy
masks and histograms, whose entries and sums are bounded far below their
dtypes; nothing overflows silently.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, perm
from typing import Iterator, Sequence

import numpy as np

# Exponent/count vector: element i is a nonnegative integer.  Tuples compare
# lexicographically, which is the canonical order used throughout.
MultiIndex = tuple[int, ...]


def compositions(n: int, r: int) -> Iterator[MultiIndex]:
    """Yield every nonnegative integer n-tuple summing to r, in ascending
    lexicographic order, starting at (0, ..., 0, r) and ending at (r, 0, ..., 0).
    """
    if n < 1:
        raise ValueError(f"need at least one slot, got n={n}")
    if r < 0:
        raise ValueError(f"total must be nonnegative, got r={r}")
    if n == 1:
        yield (r,)
        return
    cur = [0] * (n - 1) + [r]
    while True:
        yield tuple(cur)
        if not _next_composition(cur):
            return


def _next_composition(cur: list[int]) -> bool:
    """Advance ``cur`` to its lexicographic successor in place.

    Returns False when ``cur`` is already the last composition (all mass in
    the first slot).
    """
    n = len(cur)
    j = n - 1
    while j >= 0 and cur[j] == 0:
        j -= 1
    if j <= 0:
        return False
    moved = cur[j] - 1
    cur[j - 1] += 1
    cur[j] = 0
    cur[n - 1] = moved
    return True


def falling_factorial(r: int, d: int) -> int:
    """r·(r−1)···(r−d+1): 1 when d == 0, and 0 whenever d > r."""
    if r < 0 or d < 0:
        raise ValueError(f"arguments must be nonnegative, got ({r}, {d})")
    return perm(r, d)


# Stirling numbers of the second kind, built bottom-up via
# S(b+1, a) = S(b, a-1) + a*S(b, a), with S(0,0)=1, S(b,0)=0 for b>=1.
# Rows grow on demand; growth is serialized, lookups of an existing row are
# read-only and take no lock.
_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling2(b: int, a: int) -> int:
    """Number of partitions of a b-element set into a nonempty blocks."""
    if b < 0 or a < 0:
        raise ValueError(f"arguments must be nonnegative, got ({b}, {a})")
    if a > b:
        return 0
    if b >= len(_stirling_rows):
        with _stirling_lock:
            while len(_stirling_rows) <= b:
                m = len(_stirling_rows)
                prev = _stirling_rows[-1]
                row = [0] * (m + 1)
                for j in range(1, m + 1):
                    below = prev[j] if j < len(prev) else 0
                    row[j] = prev[j - 1] + j * below
                _stirling_rows.append(row)
    return _stirling_rows[b][a]


def binomial_row(m: int) -> list[int]:
    """[C(m, 0), ..., C(m, m)], each entry from the one before it."""
    return list(accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1))


def multinomial(r: int, alpha: Sequence[int]) -> int:
    """r! / (alpha_1! ··· alpha_n!) via incremental binomial products."""
    total = sum(alpha)
    if total != r:
        raise ValueError(f"multi-index sums to {total}, expected {r}")
    out = 1
    rem = r
    for a in alpha:
        if a < 0:
            raise ValueError(f"multi-index entries must be nonnegative, got {a}")
        out *= comb(rem, a)
        rem -= a
    return out


def _cover_masks(k: int, length: int) -> np.ndarray:
    """Bitmask of the values covered by each of the k^length maps of a
    length-element set into range(k), in lexicographic order of the maps."""
    bits = (1 << np.arange(k)).astype(np.uint16)
    masks = np.zeros(1, np.uint16)
    for _ in range(length):
        masks = (masks[:, None] | bits).ravel()
    return masks


def surjection_count(d: int, k: int) -> int:
    """Count surjections from a d-element set onto a k-element set by
    exhaustively enumerating maps: every assignment of the first d-1 elements
    is weighed by the number of admissible images for the last element (k
    when the prefix already covers everything, 1 when exactly one value is
    missing, 0 otherwise).

    A prefix splits into its first d-1-L elements, the head, and its last
    L = floor(d/2) elements, the tail.  The k^(d-1-L) heads and the k^L
    tails are enumerated in numpy as uint16 bitmasks of the values they
    cover, at most 10^5 of them, and each side is reduced to a bincount
    histogram over the 2^k covered sets.  A prefix's weight depends only on
    the union of its head's and its tail's masks, so each distinct head
    mask is weighed once against the tail histogram, 2^k products, and
    counted as often as it occurs.  For k > d there is no surjection
    (pigeonhole) and 0 is returned before any work, so masks never need
    more than d <= 10 bits.

    Oracle-only: equals k!·S(d, k) and uses neither, and d is capped at 10
    to keep the enumeration honest about its cost.
    """
    if d < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got ({d}, {k})")
    if d > 10:
        raise ValueError(f"brute-force surjection count capped at d <= 10, got {d}")
    if k == 0:
        return 1 if d == 0 else 0
    if k > d:
        return 0
    # images left for the last element, by the bitmask a prefix covers:
    # k when no value is missing, 1 when one is, 0 otherwise
    missing = (k - bin(mask).count("1") for mask in range(1 << k))
    weights = np.array([{0: k, 1: 1}.get(m, 0) for m in missing], np.int64)
    tail = d // 2
    tails = np.bincount(_cover_masks(k, tail), minlength=1 << k)
    heads = np.bincount(_cover_masks(k, d - 1 - tail), minlength=1 << k)
    sets = np.arange(1 << k)
    count = 0
    for head in np.flatnonzero(heads).tolist():
        count += int(heads[head]) * int(weights[sets | head] @ tails)
    return count


def falling_sum_sides(d: int, r: int) -> tuple[int, int]:
    """Both sides of: sum_{k=1}^{d-1} r^(k falling)·S(d,k) = r^d − r^(d falling)."""
    lhs = sum(falling_factorial(r, k) * stirling2(d, k) for k in range(1, d))
    rhs = r**d - falling_factorial(r, d)
    return lhs, rhs


def stirling_split_sides(alpha: Sequence[int], d: int) -> tuple[Fraction, Fraction]:
    """Both sides of the Stirling splitting identity for alpha with |alpha|=k < d:

        S(d, k) = (alpha!/k!) * sum over beta with |beta|=d of
                  (d!/beta!) * prod_i S(beta_i, alpha_i)
    """
    alpha = tuple(alpha)
    k = sum(alpha)
    if d <= k:
        raise ValueError(f"need d > |alpha|, got d={d}, |alpha|={k}")
    n = len(alpha)
    lhs = Fraction(stirling2(d, k))
    total = 0
    for beta in compositions(n, d):
        p = 1
        for b_i, a_i in zip(beta, alpha):
            s = stirling2(b_i, a_i)
            if s == 0:
                p = 0
                break
            p *= s
        if p:
            total += multinomial(d, beta) * p
    alpha_fact = 1
    for a in alpha:
        alpha_fact *= factorial(a)
    rhs = Fraction(alpha_fact * total, factorial(k))
    return lhs, rhs
