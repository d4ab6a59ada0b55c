"""Rational polyhedra: H- and V-descriptions, cones, and conversions.

All enumeration here is desk scale and exact: vertices come from independent
row subsets, extreme rays from independent (n-1)-subsets, and facets of a
point set from affinely independent d-subsets.  A vertex or ray candidate
is back-substituted in integers from the subset walk's own elimination,
sign-tested with integer dot products, and made into Fractions only when it
is kept.  Deterministic throughout; ties are broken by lexicographic order
on rational tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from .linalg import (
    DimensionMismatch,
    QMatrix,
    QVector,
    _dot,
    _integer_row,
    nullspace_basis,
    rank,
    solve_linear_system,
)


class NotPointed(ValueError):
    """Operation requires a pointed polyhedron or cone."""


class NotInCone(ValueError):
    """Vector is not a member of the given cone."""


def primitivize(v: QVector) -> QVector:
    """Scale a nonzero vector to the integral primitive of its direction
    (positive scaling only: the sign pattern is preserved)."""
    if v.is_zero():
        raise ValueError("zero vector has no primitive form")
    ints = _integer_row(v.entries)
    g = math.gcd(*ints)
    return QVector.of(x // g for x in ints)


@dataclass(frozen=True)
class HPolyhedron:
    """{x : Ax <= b}.  m >= 0 rows, n >= 1 columns."""

    a: QMatrix
    b: QVector

    def __post_init__(self) -> None:
        if self.a.rows != self.b.dim:
            raise DimensionMismatch("row count of A must match dim of b")
        if self.a.cols < 1:
            raise ValueError("ambient dimension must be positive")

    @property
    def dim(self) -> int:
        return self.a.cols

    @property
    def num_rows(self) -> int:
        return self.a.rows

    @cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row i with its right-hand side last, scaled to integers by the
        positive lcm of its denominators: the same inequality.  Computed
        once per object; not a field, so eq and hash ignore it."""
        return tuple(tuple(_integer_row((*row, self.b[i]))) for i, row in enumerate(self.a.entries))

    def contains(self, x: QVector) -> bool:
        return next(self._violations(x), None) is None

    def violated_rows(self, x: QVector) -> tuple[int, ...]:
        return tuple(self._violations(x))

    def _violations(self, x: QVector) -> Iterator[int]:
        """Indices of the rows with A_i x > b_i, tested as A_i u > b_i D
        in integers for x = u / D."""
        if x.dim != self.dim:
            raise DimensionMismatch(f"point dim {x.dim} vs ambient {self.dim}")
        *u, den = _integer_row((*x.entries, 1))
        return (i for i, row in enumerate(self.integer_rows) if _dot(row, u) > row[-1] * den)

    def with_rows(self, rows: Sequence[QVector], rhs: Sequence[Fraction]) -> "HPolyhedron":
        extra = QMatrix.from_rows([r.entries for r in rows], self.dim)
        return HPolyhedron(self.a.stack(extra), self.b.concat(QVector.of(rhs)))

    def with_equality(self, normal: QVector, value: Fraction) -> "HPolyhedron":
        return self.with_rows([normal, -normal], [value, -value])


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays); rays are integral primitive vectors."""

    vertices: tuple[QVector, ...]
    rays: tuple[QVector, ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def vertex_box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(min, max) of the vertices' coordinate t, for each t.  Computed
        once per object; not a field, so eq and hash ignore it."""
        return tuple((min(col), max(col)) for col in zip(*(v.entries for v in self.vertices)))


@dataclass(frozen=True)
class SimpleCone:
    """Cone spanned by linearly independent integral rays (simplicity means
    exactly that: ray count equals cone dimension)."""

    rays: tuple[QVector, ...]

    def __post_init__(self) -> None:
        for r in self.rays:
            if not r.is_integral():
                raise ValueError(f"ray {r} is not integral")
        if self.rays:
            m = QMatrix.from_rows([r.entries for r in self.rays])
            if rank(m) != len(self.rays):
                raise ValueError("rays are linearly dependent; cone is not simple")

    @property
    def dim(self) -> int:
        return len(self.rays)

    def multipliers(self, x: QVector) -> QVector | None:
        """The unique mu >= 0 with sum(mu_j rays_j) = x, or None."""
        if not self.rays:
            return QVector.of([]) if x.is_zero() else None
        cols = QMatrix.from_rows([r.entries for r in self.rays]).transpose()
        sol = solve_linear_system(cols, x)
        if sol is None:
            return None
        assert sol.is_unique
        if any(m < 0 for m in sol.particular):
            return None
        return sol.particular

    def contains(self, x: QVector) -> bool:
        return self.multipliers(x) is not None


# ---------------------------------------------------------------------------
# basic operations


def recession_cone(p: HPolyhedron) -> HPolyhedron:
    """{x : Ax <= 0}: the right-hand sides zeroed."""
    return HPolyhedron(p.a, QVector.zero(p.num_rows))


def is_pointed(p: HPolyhedron) -> bool:
    """Lineality space {x : Ax = 0} is trivial iff rank(A) = n."""
    return rank(p.a) == p.dim


def iter_orthant_parts(p: HPolyhedron) -> Iterator[tuple[tuple[int, ...], HPolyhedron]]:
    """Sign-restricted parts of p, one per sign pattern, all-nonnegative first."""
    n = p.dim
    for signs in product((1, -1), repeat=n):
        rows = []
        rhs = []
        for i, s in enumerate(signs):
            unit = QVector.unit(i, n)
            rows.append(-unit if s > 0 else unit)
            rhs.append(Fraction(0))
        yield signs, p.with_rows(rows, rhs)


# ---------------------------------------------------------------------------
# H -> V conversion


def independent_row_subsets(rows: Sequence[Sequence[int]], size: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Index subsets of the given size whose integer rows are linearly
    independent in their first ``cols`` columns, in lexicographic order,
    pruning dependent prefixes with an incremental elimination basis."""
    return (idx for idx, _ in _independent_extensions(rows, size, cols, 0, [], []))


def _independent_extensions(
    rows: Sequence[Sequence[int]], size: int, cols: int,
    start: int, chosen: list[int], basis: list[tuple[Sequence[int], int]],
) -> Iterator[tuple[tuple[int, ...], list[tuple[Sequence[int], int]]]]:
    """The subsets that extend ``chosen`` by rows from ``start`` on, given
    the chosen rows' reduced rows and pivot columns in ``basis``.  Pivots lie
    in the first ``cols`` columns: a right-hand side kept last is eliminated
    along but makes no row independent.  Each subset comes with its basis:
    reduced row k is zero in the pivot columns of rows 0..k-1, and rows 0..k
    span the subset's first k+1 rows.  The list is the walk's own, valid
    until the walk moves on.  A module function, not a recursive closure: a
    closure that calls itself is a reference cycle, which keeps every
    finished walk in memory until the cyclic collector runs."""
    if len(chosen) == size:
        yield tuple(chosen), basis
        return
    for i in range(start, len(rows) - (size - len(chosen)) + 1):
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
        yield from _independent_extensions(rows, size, cols, i + 1, chosen, basis)
        basis.pop()
        chosen.pop()


def _kernel_direction(basis: Sequence[tuple[Sequence[int], int]], n: int) -> list[int]:
    """The primitive integer g, up to sign, with row . g = 0 for every
    reduced row of a walk's basis that leaves one of the first n columns
    free of pivots: n - 1 rows over n columns, or n rows over n + 1 with
    the right-hand side free.  Integer back-substitution: g starts as the
    free column's unit vector, and each row, last to first, scales g by its
    pivot and sets g's pivot entry to minus its dot product with g; a later
    row is zero in an earlier one's pivot column, so done rows stay zero."""
    pivots = {pcol for _, pcol in basis}
    g = [0] * n
    g[next(j for j in range(n) if j not in pivots)] = 1
    for prow, pcol in reversed(basis):
        t = _dot(prow, g)
        g = [prow[pcol] * x for x in g]
        g[pcol] = -t
    d = math.gcd(*g)
    return [x // d for x in g]


@lru_cache(maxsize=4096)
def h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Exact vertex and extreme-ray enumeration of a pointed polyhedron.

    Both passes walk ``p.integer_rows`` with pivots in the n coefficient
    columns and back-substitute in integers (:func:`_kernel_direction`).  An
    independent n-subset S gives (u, s), s < 0, with A_S u + s b_S = 0: the
    vertex -u / s, kept when a . u + s b <= 0 on every row.  An independent
    (n-1)-subset gives its nullspace g; g and -g are kept when every row
    dots to <= 0 with them.  Only what is kept becomes Fractions.  An empty
    polyhedron yields empty lists; rank(A) < n raises :class:`NotPointed`,
    as the vertex walk then finds no subset.
    """
    n = p.dim
    rows = p.integer_rows
    candidates = set()
    for idx, basis in _independent_extensions(rows, n, n, 0, [], []):
        g = _kernel_direction(basis, n + 1)  # the right-hand side is free, so s = g[n] != 0
        assert all(_dot(rows[i], g) == 0 for i in idx)  # substitution
        candidates.add(tuple(g) if g[n] < 0 else tuple(-x for x in g))
    if not candidates:
        raise NotPointed("polyhedron has a nontrivial lineality space")
    kept = [g for g in candidates if all(_dot(row, g) <= 0 for row in rows)]
    if not kept:
        return VPolyhedron((), ())
    vertices = [QVector(tuple(Fraction(x, -g[n]) for x in g[:n])) for g in kept]
    rays = set()
    for idx, basis in _independent_extensions(rows, n - 1, n, 0, [], []):
        g = _kernel_direction(basis, n)
        assert all(_dot(rows[i], g) == 0 for i in idx)  # substitution
        for cand in (g, [-x for x in g]):
            if all(_dot(row, cand) <= 0 for row in rows):
                rays.add(QVector.of(cand))
    result = VPolyhedron(tuple(sorted(vertices)), tuple(sorted(rays)))
    assert all(p.contains(v) for v in result.vertices)
    assert all(_is_recession_direction(p, r) for r in result.rays)
    return result


def _is_recession_direction(p: HPolyhedron, r: QVector) -> bool:
    """A r <= 0, tested in integers on r scaled by a positive factor."""
    u = _integer_row(r.entries)
    return all(_dot(row, u) <= 0 for row in p.integer_rows)


# ---------------------------------------------------------------------------
# Caratheodory selection and faces


def caratheodory_simple_cone(
    rays: Sequence[QVector], r: QVector
) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """A linearly independent subset K of rays with r = sum of mu_j rays[j],
    mu >= 0, verified by substitution.  Raises NotInCone otherwise."""
    if r.is_zero():
        return (), ()
    n = r.dim
    rows = [_integer_row(ray.entries) for ray in rays]
    for size in range(1, min(len(rays), n) + 1):
        for subset in independent_row_subsets(rows, size, n):
            sol = solve_linear_system(QMatrix.from_rows([rays[i].entries for i in subset], n).transpose(), r)
            if sol is None or any(v < 0 for v in sol.particular):
                continue
            assert sol.is_unique
            mu = sol.particular
            combo = QVector.zero(n)
            for j, i in enumerate(subset):
                combo = combo + rays[i].scale(mu[j])
            assert combo == r
            return subset, tuple(mu.entries)
    raise NotInCone(f"{r} is not a non-negative combination of the given rays")


def faces_of_simple_cone(cone: SimpleCone) -> list[SimpleCone]:
    """All 2^k ray-subset faces, from the apex {0} up to the cone itself."""
    faces = []
    for size in range(0, len(cone.rays) + 1):
        for subset in combinations(range(len(cone.rays)), size):
            faces.append(SimpleCone(tuple(cone.rays[i] for i in subset)))
    return faces


# ---------------------------------------------------------------------------
# V -> H conversion (desk scale; the search itself never builds a hull)


def _canonical_facet(normal: QVector, offset: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    prim = primitivize(normal)
    factor = None
    for a, b in zip(prim.entries, normal.entries):
        if b != 0:
            factor = a / b
            break
    assert factor is not None and factor > 0
    return prim.entries, offset * factor


def polytope_hull(points: Sequence[QVector]) -> HPolyhedron:
    """Exact inequality description of conv(points).

    Affine-hull equalities c.x = c.base are emitted as row pairs.  When the
    hull has dimension d, each facet is spanned by an affinely independent
    d-subset: its normal is the one-dimensional nullspace of the subset's
    differences stacked with the equality normals c, kept when every point
    lies on one side.  Every row is primitive integral.
    """
    if not points:
        raise ValueError("hull of an empty point set")
    pts = sorted(set(points))
    n = pts[0].dim
    base = pts[0]
    basis: list[QVector] = []
    for p in pts[1:]:
        d = p - base
        trial = QMatrix.from_rows([v.entries for v in basis + [d]], n)
        if rank(trial) == len(basis) + 1:
            basis.append(d)
    dim = len(basis)
    span_rows = QMatrix.from_rows([v.entries for v in basis], n)
    complement = [primitivize(c) for c in nullspace_basis(span_rows)]
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    for c in complement:
        rows.extend([c.entries, (-c).entries])
        rhs.extend([c.dot(base), -c.dot(base)])
    seen = set()
    facet_subsets = combinations(range(len(pts)), dim) if dim else ()  # a point has no facets
    for subset in facet_subsets:
        anchor = pts[subset[0]]
        span = [(pts[i] - anchor).entries for i in subset[1:]] + [c.entries for c in complement]
        null = nullspace_basis(QMatrix.from_rows(span, n))
        if len(null) != 1:
            continue  # not affinely independent
        g = null[0]
        h = g.dot(anchor)
        values = [g.dot(p) for p in pts]
        if all(v <= h for v in values):
            pass
        elif all(v >= h for v in values):
            g, h = -g, -h
        else:
            continue
        key = _canonical_facet(g, h)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key[0])
        rhs.append(key[1])
    hull = HPolyhedron(QMatrix.from_rows(rows, n), QVector.of(rhs))
    assert all(hull.contains(p) for p in pts)
    return hull


# ---------------------------------------------------------------------------
# prefix substitution (fixing the leading integer coordinates)


def restrict_prefix(p: HPolyhedron, y: QVector) -> HPolyhedron:
    """The polyhedron of trailing coordinates once the first len(y) are fixed
    to y.  Requires at least one trailing coordinate.  A row whose trailing
    part is zero is dropped when it holds at y, as it no longer constrains
    anything, and kept when it fails, so the result stays empty."""
    k = y.dim
    q = p.dim - k
    if q < 1:
        raise ValueError("no trailing coordinates left")
    rows, rhs = [], []
    for row, bound in zip(p.a.entries, p.b):
        value = bound - sum(a * v for a, v in zip(row, y))
        if any(row[k:]) or value < 0:
            rows.append(row[k:])
            rhs.append(value)
    return HPolyhedron(QMatrix.from_rows(rows, q), QVector.of(rhs))
