"""Exact rational scalars, vectors, matrices, and linear solving.

:class:`fractions.Fraction` (always in lowest terms, positive denominator,
value equality) is the API type: every scalar, vector and matrix this
package takes or returns is made of them.  Inside, elimination and row tests
run on integers: a rational row is scaled, with its right-hand side, to
integers by the positive lcm of its denominators (:func:`_integer_row`).
There is one elimination, fraction-free: a walk over the independent row
subsets (:func:`_independent_extensions`), each subset's affine hull
back-substituted in integers from the walk's reduced rows
(:func:`_affine_hull`).  The search's vertices, rays and QP pools walk every
independent subset of the sizes they need; :func:`solve_linear_system`,
:func:`rank` and the cone multipliers take the walk's first descent, a
greedy basis (:func:`_greedy_basis`).  Only the returned entries become
Fractions.  No floating point anywhere.
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


def _independent_extensions(
    rows: Sequence[Sequence[int]], size: int, cols: int,
    start: int, chosen: list[int], basis: list[tuple[Sequence[int], int]],
    every_depth: bool = False,
) -> Iterator[tuple[tuple[int, ...], list[tuple[Sequence[int], int]]]]:
    """The subsets that extend ``chosen`` by rows from ``start`` on, given
    the chosen rows' reduced rows and pivot columns in ``basis``.  Pivots lie
    in the first ``cols`` columns: a right-hand side kept last is eliminated
    along but makes no row independent.  Each subset comes with its basis:
    reduced row k is zero in the pivot columns of rows 0..k-1, and rows 0..k
    span the subset's first k+1 rows.  The list is the walk's own, valid
    until the walk moves on.  With ``every_depth``, one walk yields every
    subset of at most ``size`` rows, ``chosen`` first, each before its
    extensions, so each prefix is reduced once for all sizes.  A module
    function, not a recursive closure: a closure that calls itself is a
    reference cycle, which keeps every finished walk in memory until the
    cyclic collector runs."""
    if every_depth or len(chosen) == size:
        yield tuple(chosen), basis
        if len(chosen) == size:
            return
    stop = len(rows) if every_depth else len(rows) - (size - len(chosen)) + 1
    for i in range(start, stop):
        v = rows[i]
        for prow, pcol in basis:  # fraction-free: v <- p*v - v[pcol]*prow keeps v[pcol] = 0
            e = v[pcol]
            if e != 0:
                p = prow[pcol]
                g = math.gcd(p, e)
                v = [(p // g) * a - (e // g) * b for a, b in zip(v, prow)]
        pivot = next((j for j in range(cols) if v[j] != 0), None)
        if pivot is None:
            continue
        basis.append((v, pivot))
        chosen.append(i)
        yield from _independent_extensions(rows, size, cols, i + 1, chosen, basis, every_depth)
        basis.pop()
        chosen.pop()


def _affine_hull(basis: Sequence[tuple[Sequence[int], int]], n: int) -> tuple[list[int], list[list[int]], int]:
    """The affine hull {a . x = b} of a walk's basis of integer rows (a, b),
    pivots in the n coefficient columns, as x = (w0 + N z) / scale with
    A_S w0 = b_S scale, A_S N = 0 (one column per free coefficient column)
    and scale > 0, so that no inequality flips; with n rows, w0 / scale is
    their unique solution.  Integer back-substitution with no gcd: a column
    starts as a free column's unit vector, and each row, last to first,
    scales it by its pivot and sets its pivot entry to minus the row's dot
    product with it; a later row is zero in an earlier one's pivot column,
    so done rows stay zero."""
    pivots = {pcol for _, pcol in basis}
    columns = []
    for j in range(n + 1):  # the free coefficient columns' unit vectors, then the right-hand side's
        if j not in pivots:
            g = [0] * (n + 1)
            g[j] = 1
            for prow, pcol in reversed(basis):
                t = _dot(prow, g)
                g = [prow[pcol] * x for x in g]
                g[pcol] = -t
            columns.append(g)
    *dirs, w0 = columns
    sign = -1 if w0[n] > 0 else 1  # a . w0[:n] + b w0[n] = 0 on every row
    return [sign * x for x in w0[:n]], [d[:n] for d in dirs], -sign * w0[n]


def _greedy_basis(rows: Sequence[Sequence[int]], cols: int) -> list[tuple[Sequence[int], int]]:
    """The walk's first descent: each row in turn kept when it is independent
    of the rows kept before it in the first ``cols`` columns, with the kept
    rows' reduced rows and pivot columns.  Its size is the rank of those
    columns, and its pivot columns are those of the reduced echelon form."""
    descent: list[tuple[Sequence[int], int]] = []
    walk = _independent_extensions(rows, cols, cols, 0, [], [], every_depth=True)
    for depth, (chosen, basis) in enumerate(walk):
        if len(chosen) < depth:
            break  # the walk backtracked: the descent ended one yield earlier
        descent = basis[:]
    return descent


def solve_linear_system(m: QMatrix, rhs: QVector) -> LinearSolution | None:
    """Exact solution set of M x = rhs, or None when inconsistent.

    The particular solution sets all free variables to zero; the nullspace
    basis has one vector per free variable (that variable set to one).  Both
    are back-substituted (:func:`_affine_hull`) from a greedy basis of the
    integer rows, and the particular solution is checked against every row
    by substitution, in integers: that is the consistency test.
    """
    if m.rows != rhs.dim:
        raise DimensionMismatch(f"matrix rows {m.rows} vs rhs dim {rhs.dim}")
    n = m.cols
    rows = [_integer_row((*row, rhs[i])) for i, row in enumerate(m.entries)]
    basis = _greedy_basis(rows, n)
    w0, dirs, scale = _affine_hull(basis, n)
    if any(_dot(row, w0) != row[-1] * scale for row in rows):
        return None
    pivots = {pcol for _, pcol in basis}
    free = [j for j in range(n) if j not in pivots]  # one direction each, in order
    return LinearSolution(
        QVector(tuple(Fraction(x, scale) for x in w0)),
        tuple(QVector(tuple(Fraction(x, d[j]) for x in d)) for j, d in zip(free, dirs)),
    )


def rank(m: QMatrix) -> int:
    """Exact rank: the size of a greedy basis of the integer rows."""
    return len(_greedy_basis([_integer_row(row) for row in m.entries], m.cols))


def nullspace_basis(m: QMatrix) -> tuple[QVector, ...]:
    solution = solve_linear_system(m, QVector.zero(m.rows))
    assert solution is not None
    return solution.nullspace


# ---------------------------------------------------------------------------
# exact integer square roots of rationals


def isqrt_ceil(q: Fraction) -> int:
    """Smallest non-negative integer s with s*s >= q.  An integer square is
    at least q exactly when it is at least m = ceil(q), and the least s with
    s*s >= m > 0 is isqrt(m - 1) + 1."""
    if q < 0:
        raise ValueError("negative radicand")
    m = math.ceil(q)
    return math.isqrt(m - 1) + 1 if m else 0
