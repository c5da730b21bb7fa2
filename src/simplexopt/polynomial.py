"""Exact sparse polynomials over the rationals.

A polynomial is a dictionary mapping exponent tuples to Fraction
coefficients; zero coefficients are never stored.  Two flavours exist:

  HomogeneousPolynomial -- every stored term has the same total degree d
                           (the zero polynomial is allowed and keeps its
                           declared degree),
  GeneralPolynomial     -- mixed total degrees, as produced by restricting
                           operators to the simplex.

All arithmetic is exact; evaluation at rational points returns the exact
Fraction value.  Instances are treated as immutable after construction and
are safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .combinatorics import MultiIndex, compositions, multinomial

RationalLike = Union[int, Fraction]


class ParseError(ValueError):
    """Input text rejected, with the offending position (0-based offset for
    polynomial text, 1-based line number for graph files)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _clean_terms(terms: Mapping[MultiIndex, RationalLike], n: int) -> dict[MultiIndex, Fraction]:
    clean: dict[MultiIndex, Fraction] = {}
    for beta, c in terms.items():
        key = tuple(beta)
        if len(key) != n:
            raise ValueError(f"exponent vector {key} has length {len(key)}, expected {n}")
        if any(not isinstance(e, int) or e < 0 for e in key):
            raise ValueError(f"exponent vector {key} must hold nonnegative integers")
        coeff = c if type(c) is Fraction else Fraction(c)
        if key in clean:
            coeff += clean[key]  # a repeated key keeps its first place
        if coeff:
            clean[key] = coeff
        elif key in clean:
            del clean[key]
    return clean


class _SparsePolynomial:
    """What both polynomial classes share: the integer form (the least common
    denominator cden of the coefficients, the top degree dmax and the
    numerators over cden in term order), derived on first read however the
    polynomial was built, and, as the grid kernel never reads it, the power
    index that evaluate gathers through, built on first use.  Instances are
    immutable, so neither goes stale."""

    @classmethod
    def _from_numerators(cls, n: int, keys: Iterable[MultiIndex], numerators: Iterable[int], den: int, **degree: int) -> Polynomial:
        """Coefficient v / den at each key, as given: keys distinct, valid and
        in term order, den > 0, a zero v dropped; degree is d=... if homogeneous."""
        poly = cls(n, terms={}, **degree)
        object.__setattr__(poly, "terms", {key: Fraction(v, den) for key, v in zip(keys, numerators) if v})
        return poly

    @cached_property
    def _integer_form(self) -> tuple[int, int, tuple[int, ...]]:
        coeffs = self.terms.values()
        cden = lcm(*(c.denominator for c in coeffs))
        dmax = self.d if isinstance(self, HomogeneousPolynomial) else self.degree()
        # a numerator already over cden is kept: p * 1 would copy a big p
        return cden, dmax, tuple(c.numerator if c.denominator == cden else c.numerator * (cden // c.denominator) for c in coeffs)

    @cached_property
    def _power_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, owner, power): entry j of a point's flat power table is
        v_owner[j]^power[j], v = (a_1, ..., a_n, D), and column t of index
        picks term t's factors from it, D^(dmax - |beta|) among them when the
        degrees differ."""
        m, n = len(self.terms), self.n
        index = np.empty((n + 1, m), np.int64)
        index[:n] = np.fromiter(chain.from_iterable(zip(*self.terms)), np.int64, m * n).reshape(n, m)
        index[n] = self._integer_form[1] - index[:n].sum(axis=0)
        if not index[n].any():
            index = index[:n]
        sizes = index.max(axis=1, initial=0) + 1
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(sizes)), sizes)
        index += starts[:, None]
        return index, owner, np.arange(len(owner)) - starts[owner]


@dataclass(frozen=True)
class HomogeneousPolynomial(_SparsePolynomial):
    """Sparse homogeneous polynomial of fixed degree d in n variables."""

    n: int
    d: int
    terms: dict[MultiIndex, Fraction]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.d < 0:
            raise ValueError(f"degree must be >= 0, got {self.d}")
        clean = _clean_terms(self.terms, self.n)
        for key in clean:
            if sum(key) != self.d:
                raise ValueError(f"term {key} has degree {sum(key)}, expected {self.d}")
        object.__setattr__(self, "terms", clean)


@dataclass(frozen=True)
class GeneralPolynomial(_SparsePolynomial):
    """Sparse polynomial with mixed total degrees in n variables."""

    n: int
    terms: dict[MultiIndex, Fraction]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "terms", _clean_terms(self.terms, self.n))

    def degree(self) -> int:
        return max((sum(beta) for beta in self.terms), default=0)


Polynomial = Union[HomogeneousPolynomial, GeneralPolynomial]


# ---------------------------------------------------------------------------
# Parsing and printing
#
# Grammar, over the tokens of _TOKEN:
#   poly   := term (('+'|'-') term)*        leading '-' negates the first term
#   term   := [coeff '*'] factor ('*' factor)*  |  coeff
#   coeff  := integer | integer '/' positive-integer
#   factor := 'x' index ['^' positive-integer]
# An integer is a run of decimal digits (str.isdecimal, so Arabic-Indic
# digits are read); a digit that is not decimal, such as '²', or a run that
# int() refuses is an unreadable integer literal.  Whitespace between tokens
# is ignored, variables are 1-indexed x1..xn, and positions are 0-based
# offsets into the text.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*((\d+)|\S)")

# Each parsed term, and each of a graph's n + m stable-set terms, holds an
# n-long exponent vector, so terms times n is capped before one is allocated;
# the degree too, as the kernel holds a factor per unit of degree and the
# closed-form routes Stirling rows as deep.
MAX_TERM_ENTRIES = 10**6
MAX_DEGREE = 200


def _digit_run(text: str, i: int) -> ParseError:
    """The error for the run of str.isdigit characters at i."""
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    return ParseError(f"unreadable integer literal of {j - i} digits", i)


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(kind, value, position) triples ending in ('end', 0, len(text)); kind
    is 'int' or the character itself, one of '+-*/^x', and value is
    meaningful for 'int' only."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, digits = m.groups()
        i = m.start(1)
        if digits:
            j = m.end()
            if j < len(text) and text[j].isdigit():  # runs on into a non-decimal digit, as in '12²'
                raise _digit_run(text, i)
            try:
                tokens.append(("int", int(digits), i))
            except ValueError:  # more digits than int() accepts
                raise _digit_run(text, i) from None
        elif tok in "+-*/^x":
            tokens.append((tok, 0, i))
        elif tok.isdigit():
            raise _digit_run(text, i)
        else:
            raise ParseError(f"unexpected character {tok!r}", i)
    tokens.append(("end", 0, len(text)))
    return tokens


def parse_polynomial(text: str, n: int) -> HomogeneousPolynomial:
    """Parse polynomial text into a homogeneous polynomial in n variables.

    Like terms are merged and zero coefficients dropped; the declared degree
    survives even if everything cancels (e.g. "x1 - x1" is the zero
    polynomial of degree 1).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise ParseError("empty polynomial", 0)
    i = int(tokens[0][0] == "-")
    sign = -1 if i else 1
    terms: dict[MultiIndex, RationalLike] = {}
    degree: int | None = None
    entries = 0
    while True:
        kind, value, start = tokens[i]
        entries += n
        if entries > MAX_TERM_ENTRIES:
            raise ParseError(f"terms times variables pass {MAX_TERM_ENTRIES}, the most a polynomial may hold", start)
        exps = [0] * n
        coeff: RationalLike = 1
        more = kind == "x"
        if kind == "int":
            coeff, i = value, i + 1
            if tokens[i][0] == "/":
                kind, denom, pos = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected positive denominator", pos)
                if not denom:
                    raise ParseError("denominator must be positive", pos)
                coeff = Fraction(value, denom)
                i += 2
            more = tokens[i][0] == "*"
            i += more
        elif not more:
            raise ParseError("expected coefficient or variable", start)
        while more:  # one factor: 'x' index ['^' exponent]
            kind, _, xpos = tokens[i]
            if kind != "x":
                raise ParseError("expected variable", xpos)
            kind, index, pos = tokens[i + 1]
            if kind != "int":
                raise ParseError("expected variable index", pos)
            if not 1 <= index <= n:
                raise ParseError(f"variable index x{index} out of range 1..{n}", xpos)
            i += 2
            power = 1
            if tokens[i][0] == "^":
                kind, power, pos = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected positive exponent", pos)
                if not power:
                    raise ParseError("exponent must be a positive integer", pos)
                i += 2
            exps[index - 1] += power
            more = tokens[i][0] == "*"
            i += more
        td = sum(exps)
        if td > MAX_DEGREE:
            raise ParseError(f"term degree passes {MAX_DEGREE}, the most a polynomial may have", start)
        if degree is None:
            degree = td
        elif td != degree:
            raise ParseError(f"mixed degrees: term of degree {td} after degree {degree}", start)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff  # a key keeps its first place
        kind, _, pos = tokens[i]
        if kind == "end":
            return HomogeneousPolynomial(n, degree, terms)
        if kind not in ("+", "-"):
            raise ParseError("expected '+' or '-'", pos)
        sign = 1 if kind == "+" else -1
        i += 1


def format_polynomial(p: Polynomial) -> str:
    """Render a polynomial in the input grammar.  For a homogeneous form,
    parsing the output reproduces the term map exactly; the parser refuses
    mixed degrees, so a mixed-degree form's output does not parse."""
    if not p.terms:
        return "0"
    parts: list[str] = []
    for beta in sorted(p.terms, reverse=True):
        coeff = p.terms[beta]
        factors = []
        for i, e in enumerate(beta):
            if e == 0:
                continue
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        mag = abs(coeff)
        if not factors:
            body = _format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_rational(mag) + "*" + "*".join(factors)
        parts.append(("- " if coeff < 0 else "+ ") + body)
    head = parts[0]
    first = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([first] + parts[1:])


def _format_int(n: int) -> str:
    """n in decimal; unlike str(n), str(Decimal(n)) has no limit on digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _rat(v: Fraction) -> str:
    return f"{_format_int(v.numerator)}/{_format_int(v.denominator)}"


def _format_rational(v: Fraction) -> str:
    return _format_int(v.numerator) if v.denominator == 1 else _rat(v)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _cleared_point(n: int, x: Sequence[RationalLike]) -> tuple[list[int], int]:
    """(a, D) with x = a / D, D the least common denominator of x's
    entries; refuses a point of a dimension other than n."""
    point = [v if type(v) is Fraction else Fraction(v) for v in x]
    if len(point) != n:
        raise ValueError(f"point has dimension {len(point)}, expected {n}")
    den = lcm(*(v.denominator for v in point))
    return [v.numerator * (den // v.denominator) for v in point], den


def evaluate(f: Polynomial, x: Sequence[RationalLike]) -> Fraction:
    """Exact value of f at a rational point.

    With x = a/D and f's integer form, each term contributes the integer
    c * a^beta * D^(dmax - |beta|), its factors gathered from one flat table
    of powers through the cached power index.  They are multiplied in int64
    while max(D, max|a_i|)^max(dmax, 1) < 2^63, which bounds every entry and
    partial product, and as Python ints otherwise; one Fraction is formed at
    the end.
    """
    a, den = _cleared_point(f.n, x)
    cden, dmax, numerators = f._integer_form
    index, owner, power = f._power_index
    dtype = np.int64 if max(den, *map(abs, a)) ** max(dmax, 1) < 2**63 else object
    monomials = (np.array([*a, den], dtype)[owner] ** power)[index].prod(axis=0)
    return Fraction(sum(map(mul, numerators, monomials.tolist())), cden * den**dmax)


# ---------------------------------------------------------------------------
# Bernstein-basis coefficient analysis
# ---------------------------------------------------------------------------


def bernstein_coefficients(f: HomogeneousPolynomial) -> dict[MultiIndex, Fraction]:
    """Coefficients of f in the basis {(d!/beta!) x^beta}: value
    f_beta * beta!/d! for every stored term.  Absent keys are zero, and the
    full index set of degree-d exponents must be treated as present when
    ranging over them."""
    return {beta: c / multinomial(f.d, beta) for beta, c in f.terms.items()}


def coefficient_range_bounds(f: HomogeneousPolynomial) -> tuple[Fraction, Fraction]:
    """Exact (low, high) over the Bernstein-basis coefficients of f, taken
    over *all* degree-d exponent vectors -- monomials that f omits contribute
    coefficient 0.  Every value of f on the simplex is a convex combination
    of these coefficients, so low <= min f <= max f <= high there.  The
    coefficient f_beta * beta!/d! is num_beta * beta! over cden * d!, so the
    range is taken over those integer numerators.  At degree 0 the only
    coefficient is the constant c, so the range is (c, c), and (0, 0) for the
    zero form."""
    cden, d, numerators = f._integer_form
    values = [c * prod(map(factorial, beta)) for beta, c in zip(f.terms, numerators)]
    if len(f.terms) < comb(f.n + f.d - 1, f.d):
        values.append(0)
    den = cden * factorial(d)
    return Fraction(min(values), den), Fraction(max(values), den)


def ptas_constant(d: int) -> int:
    """The degree-dependent constant C(2d-1, d) * d^d in the general
    coefficient-range comparison."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return comb(2 * d - 1, d) * d**d


# ---------------------------------------------------------------------------
# Graphs and the stable-set quadratic form
# ---------------------------------------------------------------------------


def motzkin_straus(adjacency: Sequence[Sequence[int]]) -> HomogeneousPolynomial:
    """Quadratic form x^T (I + A) x for a simple graph with adjacency matrix
    A: squares get coefficient 1, edge cross terms coefficient 2.  Its
    minimum over the simplex equals 1/(stable-set number)."""
    n = len(adjacency)
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    rows = [list(row) for row in adjacency]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"adjacency row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValueError(f"adjacency entry ({i},{j}) must be 0 or 1, got {v!r}")
            if v != rows[j][i]:
                raise ValueError(f"adjacency matrix is asymmetric at ({i},{j})")
        if row[i] != 0:
            raise ValueError(f"adjacency diagonal must be zero, got {row[i]} at {i}")
    keys = [tuple(2 if k == i else 0 for k in range(n)) for i in range(n)]
    keys += [tuple(1 if k in (i, j) else 0 for k in range(n)) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    return HomogeneousPolynomial._from_numerators(n, keys, [1] * n + [2] * (len(keys) - n), 1, d=2)


def parse_graph(text: str) -> list[list[int]]:
    """Parse a DIMACS-like edge list: a header line "p <n> <m>" followed by m
    lines "e <i> <j>" with 1-indexed endpoints.  Comment lines starting with
    'c' are skipped.  Returns the n x n adjacency matrix.  A header whose
    n + m stable-set terms of n entries pass MAX_TERM_ENTRIES is rejected first."""
    n: int | None = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p' header", lineno)
            body = fields[1:]
            if len(body) == 3 and not body[0].isdigit():
                body = body[1:]  # tolerate the usual "p edge n m" variant
            if len(body) != 2 or not all(w.isdigit() for w in body):
                raise ParseError("header must read 'p <n> <m>'", lineno)
            try:
                n, declared = int(body[0]), int(body[1])
            except ValueError:  # more digits than int() accepts, or non-ASCII digits
                raise ParseError("unreadable number in 'p' header", lineno) from None
            if n < 1:
                raise ParseError("graph must have at least one vertex", lineno)
            if n * (n + declared) > MAX_TERM_ENTRIES:
                raise ParseError(f"terms times variables of the graph's stable-set form pass {MAX_TERM_ENTRIES}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before 'p' header", lineno)
            if len(fields) != 3 or not all(w.isdigit() for w in fields[1:]):
                raise ParseError("edge line must read 'e <i> <j>'", lineno)
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:  # more digits than int() accepts, or non-ASCII digits
                raise ParseError("unreadable vertex number in 'e' line", lineno) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"edge endpoint out of range 1..{n}", lineno)
            if i == j:
                raise ParseError("self-loops are not allowed", lineno)
            edges.append((i - 1, j - 1))
        else:
            raise ParseError(f"unrecognized line {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' header", 1)
    if len(edges) != declared:
        raise ParseError(f"declared {declared} edges, found {len(edges)}", 1)
    adjacency = [[0] * n for _ in range(n)]
    for i, j in edges:
        adjacency[i][j] = adjacency[j][i] = 1
    return adjacency


def is_square_free(f: HomogeneousPolynomial) -> bool:
    """True iff every variable appears with exponent at most 1 in every term
    (vacuously true for the zero polynomial)."""
    return all(e <= 1 for beta in f.terms for e in beta)


# ---------------------------------------------------------------------------
# Equality on the simplex
# ---------------------------------------------------------------------------


def eliminate_last_variable(p: Polynomial) -> dict[MultiIndex, Fraction]:
    """Canonical representative of p modulo the relation sum(x) = 1, obtained
    by substituting x_n = 1 - x_1 - ... - x_{n-1} and expanding.  Two
    polynomials agree everywhere on the simplex iff these maps are equal."""
    acc: dict[MultiIndex, Fraction] = {}
    m_vars = p.n - 1
    for beta, c in p.terms.items():
        head = beta[:-1]
        power = beta[-1]
        for j in range(power + 1):
            sgn = comb(power, j) * (-1) ** j
            if m_vars == 0:
                if j == 0:
                    key: MultiIndex = ()
                    acc[key] = acc.get(key, Fraction(0)) + c * sgn
                continue
            for gamma in compositions(m_vars, j):
                key = tuple(h + g for h, g in zip(head, gamma))
                weight = c * sgn * multinomial(j, gamma)
                acc[key] = acc.get(key, Fraction(0)) + weight
    return {k: v for k, v in acc.items() if v}


def equal_on_simplex(p: Polynomial, q: Polynomial) -> bool:
    """Exact test that p and q take the same value at every point of the
    standard simplex."""
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    return eliminate_last_variable(p) == eliminate_last_variable(q)
