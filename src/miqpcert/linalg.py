"""Exact rational scalars, vectors, matrices, and linear solving.

:class:`fractions.Fraction` (always in lowest terms, positive denominator,
value equality) is the API type: every scalar, vector and matrix this
package takes or returns is made of them.  Inside, elimination and row tests
run on integers: a rational row is scaled, with its right-hand side, to
integers by the positive lcm of its denominators (:func:`_integer_row`),
eliminated fraction-free, and turned back into Fractions only for the
returned entries.  :func:`solve_linear_system` is that scaling followed by
the integer core :func:`_solve_integer`.  No solve of the search calls it: its
vertices, rays, QP pools and cone multipliers are back-substituted from a
subset walk's own elimination (``polyhedra._affine_hull``).  No floating
point anywhere.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


# the one rational spelling: ASCII digits, an optional leading minus, an
# optional denominator; Fraction(str) also takes 1_000, 1e3, 1.5, +3 and
# non-ASCII digits, and which of them depends on the Python version
_RATIONAL_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?")

# instance data is mostly small integers: their Fractions are built once and
# shared (a Fraction is immutable), which keeps a parsed instance small
_SMALL_INTEGERS = {i: Fraction(i) for i in range(-256, 257)}


def _integer_fraction(value: int) -> Fraction:
    shared = _SMALL_INTEGERS.get(value)
    return Fraction(value) if shared is None else shared


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" / "p" string (minus sign allowed).

    A string must match ``-?[0-9]+(/[0-9]+)?`` once stripped, with the
    typeset minus sign read as "-"; anything else raises ValueError, and a
    zero denominator ZeroDivisionError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return _integer_fraction(value)
    if isinstance(value, str):
        # tolerate the typeset minus sign in hand-written files
        text = value.replace("−", "-").strip()
        if not _RATIONAL_TOKEN.fullmatch(text):
            raise ValueError(f"not a rational 'p/q' or 'p': {value!r}")
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den)) if den else _integer_fraction(int(num))
    raise TypeError(f"not a rational: {value!r}")


@dataclass(frozen=True, order=True)
class QVector:
    """Immutable vector of rationals.  Zero-dimensional vectors are allowed
    (empty integer prefixes of continuous-only instances)."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[RationalLike]) -> "QVector":
        return QVector(tuple(as_rational(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector((Fraction(0),) * dim)

    @staticmethod
    def unit(index: int, dim: int) -> "QVector":
        entries = [Fraction(0)] * dim
        entries[index] = Fraction(1)
        return QVector(tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "QVector":
        return QVector(tuple(-a for a in self.entries))

    def scale(self, factor: RationalLike) -> "QVector":
        f = as_rational(factor)
        return QVector(tuple(a * f for a in self.entries))

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def concat(self, other: "QVector") -> "QVector":
        return QVector(self.entries + other.entries)

    def take(self, count: int) -> "QVector":
        return QVector(self.entries[:count])

    def drop(self, count: int) -> "QVector":
        return QVector(self.entries[count:])

    def _check_dim(self, other: "QVector") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(f"{len(self.entries)} vs {len(other.entries)}")

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class QMatrix:
    """Immutable row-major rational matrix.  Zero rows are allowed (an
    unconstrained polyhedron has an empty constraint matrix)."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be non-negative")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]], cols: int | None = None) -> "QMatrix":
        converted = tuple(tuple(as_rational(v) for v in row) for row in rows)
        if cols is None:
            if not converted:
                raise ValueError("cols required for an empty matrix")
            cols = len(converted[0])
        return QMatrix(converted, cols)

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(tuple((Fraction(0),) * cols for _ in range(rows)), cols)

    @staticmethod
    def identity(dim: int) -> "QMatrix":
        return QMatrix(
            tuple(tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)),
            dim,
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), self.cols)

    def row(self, index: int) -> QVector:
        return QVector(self.entries[index])

    def transpose(self) -> "QMatrix":
        return QMatrix(
            tuple(tuple(row[j] for row in self.entries) for j in range(self.cols)),
            len(self.entries),
        )

    def matvec(self, x: QVector) -> QVector:
        if x.dim != self.cols:
            raise DimensionMismatch(f"matrix cols {self.cols} vs vector dim {x.dim}")
        return QVector(
            tuple(sum((a * b for a, b in zip(row, x.entries)), Fraction(0)) for row in self.entries)
        )

    def is_symmetric(self) -> bool:
        if len(self.entries) != self.cols:
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.cols)
            for j in range(i + 1, self.cols)
        )

    def stack(self, other: "QMatrix") -> "QMatrix":
        if other.cols != self.cols:
            raise DimensionMismatch("column counts differ")
        return QMatrix(self.entries + other.entries, self.cols)

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(v) for v in row) + "]" for row in self.entries)


# ---------------------------------------------------------------------------
# encoding size


@dataclass(frozen=True, order=True)
class EncodingSize:
    """Bit count of the pinned binary encoding measure."""

    bits: int

    def __add__(self, other: "EncodingSize") -> "EncodingSize":
        return EncodingSize(self.bits + other.bits)


def _header_bits(dim: int) -> int:
    # non-negative integer header: sign bit + magnitude bits
    return 1 + dim.bit_length()


def _rational_bits(q: Fraction) -> int:
    # 1 + ceil(log2(|p|+1)) + ceil(log2(den+1)); bit_length gives both ceilings
    return 1 + abs(q.numerator).bit_length() + q.denominator.bit_length()


def encoding_size(obj: Union[RationalLike, QVector, QMatrix]) -> EncodingSize:
    """Binary encoding size: per-entry rational sizes plus dimension headers."""
    if isinstance(obj, QVector):
        return EncodingSize(_header_bits(obj.dim) + sum(_rational_bits(e) for e in obj.entries))
    if isinstance(obj, QMatrix):
        total = _header_bits(obj.rows) + _header_bits(obj.cols)
        total += sum(_rational_bits(v) for row in obj.entries for v in row)
        return EncodingSize(total)
    return EncodingSize(_rational_bits(as_rational(obj)))


# ---------------------------------------------------------------------------
# exact linear solving


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution set of M x = rhs: particular point plus nullspace basis.

    The solution is unique exactly when ``nullspace`` is empty.
    """

    particular: QVector
    nullspace: tuple[QVector, ...]

    @property
    def is_unique(self) -> bool:
        return not self.nullspace


def _integer_row(values: Iterable[Fraction]) -> list[int]:
    """The values times the positive lcm of their denominators.

    The one place that clears denominators.  Put a row's right-hand side
    last to scale it with the row (the solution set and every inequality's
    sense are unchanged), or a 1 last to write a point x as (u, D) with
    x = u / D."""
    values = tuple(values)
    dens = [v.denominator for v in values]
    scale = math.lcm(*dens)
    if scale == 1:
        return [v.numerator for v in values]
    return [v.numerator * (scale // d) for v, d in zip(values, dens)]


def _dot(row: Sequence[int], u: Sequence[int]) -> int:
    """Integer dot product over the shorter operand (a row that carries its
    right-hand side last dots with a point's numerators alone)."""
    return sum(map(operator.mul, row, u))


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer rows; pivots chosen
    as the first nonzero entry in column order (deterministic).

    A row r with a pivot p in column c is eliminated as r <- p*r - r[c]*pivot
    row and divided by its content (the gcd of its entries), so every row
    stays a nonzero multiple of the matching row of the rational reduced
    echelon form: entry j of that form is row[j] / row[pivot column].  Only
    the list is rearranged; the row lists passed in are never modified.
    Returns (rows, pivot columns)."""
    rows = list(rows)
    pivot_cols: list[int] = []
    pivot_row = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        target = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        prow = rows[pivot_row]
        p = prow[col]
        for r in range(len(rows)):
            e = rows[r][col]
            if r != pivot_row and e != 0:
                g = math.gcd(p, e)
                pg, eg = p // g, e // g
                new = [pg * a - eg * b for a, b in zip(rows[r], prow)]
                g = math.gcd(*new)
                rows[r] = [v // g for v in new] if g > 1 else new
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivot_cols


def solve_linear_system(m: QMatrix, rhs: QVector) -> LinearSolution | None:
    """Exact solution set of M x = rhs, or None when inconsistent.

    The particular solution sets all free variables to zero; the nullspace
    basis has one vector per free variable (that variable set to one).
    Every returned vector is verified by substitution.
    """
    if m.rows != rhs.dim:
        raise DimensionMismatch(f"matrix rows {m.rows} vs rhs dim {rhs.dim}")
    return _solve_integer([_integer_row((*row, rhs[i])) for i, row in enumerate(m.entries)], m.cols)


def _solve_integer(aug: Sequence[Sequence[int]], n: int) -> LinearSolution | None:
    """:func:`solve_linear_system` on integer rows in n unknowns, each with
    its right-hand side last.  Scaling a row by a nonzero factor changes
    neither the solution set nor the result, which is built from ratios of
    the reduced rows' entries, so integer rows go in as they are."""
    if not aug:
        return LinearSolution(QVector.zero(n), tuple(QVector.unit(j, n) for j in range(n)))
    reduced, pivot_cols = _echelon(aug)
    pivot_set = set(pivot_cols)
    if n in pivot_set:
        return None  # pivot in the rhs column: inconsistent
    for row in reduced:
        if all(v == 0 for v in row[:n]) and row[n] != 0:
            return None
    particular = [Fraction(0)] * n
    for row, col in zip(reduced, pivot_cols):
        particular[col] = Fraction(row[n], row[col])
    free_cols = [j for j in range(n) if j not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivot_cols):
            vec[col] = Fraction(-row[free], row[col])
        basis.append(QVector(tuple(vec)))
    solution = LinearSolution(QVector(tuple(particular)), tuple(basis))
    # substitution, in integers: x = u / D solves row . x = b iff row . u = b * D
    *u, den = _integer_row((*particular, 1))
    assert all(_dot(row, u) == row[n] * den for row in aug)
    assert all(all(_dot(row, _integer_row(v)) == 0 for row in aug) for v in basis)
    return solution


def rank(m: QMatrix) -> int:
    """Exact rank via elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivot_cols = _echelon([_integer_row(row) for row in m.entries])
    return len(pivot_cols)


def nullspace_basis(m: QMatrix) -> tuple[QVector, ...]:
    solution = solve_linear_system(m, QVector.zero(m.rows))
    assert solution is not None
    return solution.nullspace


# ---------------------------------------------------------------------------
# exact integer square roots of rationals


def isqrt_ceil(q: Fraction) -> int:
    """Smallest non-negative integer s with s*s >= q."""
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    s = math.isqrt((num + den - 1) // den)
    while s * s * den < num:
        s += 1
    while s > 0 and (s - 1) * (s - 1) * den >= num:
        s -= 1
    return s
