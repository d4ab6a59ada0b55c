"""Rational polyhedra: H- and V-descriptions, cones, and conversions.

All enumeration here is desk scale and exact.  Vertices and extreme rays
both come from one walk over the independent (n-1)-row subsets: each gives
a line, back-substituted in integers from the walk's own elimination
(``linalg._affine_hull``), whose rates against every row give its interval
inside the polyhedron.  The intervals' finite endpoints are the vertices,
and a line's direction is an extreme ray where its interval has no end.  The
lines that meet the polyhedron stay with its V-description for the QP pool.
Facets of a point set come from affinely independent d-subsets.  Tests are
integer dot products, and only what is kept becomes Fractions.
Deterministic throughout; ties are broken by lexicographic order on rational
tuples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from .linalg import (
    DimensionMismatch,
    QMatrix,
    QVector,
    _affine_hull,
    _dot,
    _greedy_basis,
    _independent_extensions,
    _integer_fraction,
    _integer_row,
    nullspace_basis,
    rank,
    solve_linear_system,
)


_denominator = operator.attrgetter("denominator")


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

    def __hash__(self) -> int:  # equal (A, b) give equal integer rows, and ints hash natively
        return hash(self.integer_rows)

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
    # h_to_v's lines in the polyhedron, (subset, w0, d, scale, lo, hi), for the QP pool
    _lines: tuple = field(default=(), compare=False, repr=False)
    # h_to_v's vertices as integer points (u, den), v = u / den in lowest terms, den > 0
    _ends: tuple = field(default=(), compare=False, repr=False)

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
        """The unique mu >= 0 with sum(mu_j rays_j) = x, or None.  For x = u / D,
        D mu solves the rows (r_1[t], ..., r_k[t], u[t]) over the coordinates t,
        back-substituted from a greedy basis of k of them (:func:`_affine_hull`)."""
        if not self.rays:
            return QVector.of([]) if x.is_zero() else None
        k = len(self.rays)
        if x.dim != self.rays[0].dim:
            raise DimensionMismatch(f"point dim {x.dim} vs ray dim {self.rays[0].dim}")
        *u, den = _integer_row((*x.entries, 1))
        rows = [(*(r[t].numerator for r in self.rays), u[t]) for t in range(x.dim)]
        w, _, t = _affine_hull(_greedy_basis(rows, k), k)  # D mu = w / t
        if min(w) < 0 or any(_dot(row, w) != row[-1] * t for row in rows):
            return None  # a negative multiplier, or x is not in the rays' span
        return QVector(tuple(Fraction(v, t * den) for v in w))

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


@lru_cache(maxsize=4096)
def h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Exact vertex and extreme-ray enumeration of a pointed polyhedron, in
    one walk over the independent (n-1)-subsets S of ``p.integer_rows``.

    Each S gives a line x(t) = (w0 + t d) / scale (:func:`_affine_hull`), on
    which row i holds exactly when t (a_i . d) <= b_i scale - a_i . w0, so
    the rates a_i . d give the line's interval in p.  Its finite endpoints
    are exactly the vertices: an endpoint has n independent tight rows, S and
    a row with a nonzero rate, and a vertex is an endpoint of the line of any
    n - 1 of its n independent tight rows.  Where it has no end, d (every
    rate <= 0) or -d (every rate >= 0) is an extreme ray, and each extreme
    ray is found so, as the direction of an unbounded edge, whose line meets
    p.  Those lines are kept for the QP pool, with the vertices as integer
    points (u, den), and vertices sort on integer numerators over one shared
    denominator.  An empty polyhedron yields empty lists; rank(A) < n raises
    :class:`NotPointed`: no line has a nonzero rate."""
    n = p.dim
    rows = p.integer_rows
    pointed, ends, rays, lines = False, set(), set(), []
    for idx, basis in _independent_extensions(rows, n - 1, n, 0, [], []):
        w0, (d,), scale = _affine_hull(basis, n)
        assert all(_dot(rows[i], w0) == rows[i][-1] * scale and _dot(rows[i], d) == 0 for i in idx)  # substitution
        lo = hi = None  # (num, den), den > 0: lo <= t <= hi
        for row in rows:
            rate, slack = _dot(row, d), row[-1] * scale - _dot(row, w0)
            if rate > 0 and (hi is None or slack * hi[1] < hi[0] * rate):
                hi = (slack, rate)
            elif rate < 0 and (lo is None or slack * lo[1] < lo[0] * rate):
                lo = (-slack, -rate)
            elif rate or slack >= 0:
                continue
            if rate == 0 or (lo and hi and lo[0] * hi[1] > hi[0] * lo[1]):
                break  # a parallel row violated all along the line, or an empty interval
        else:  # the line meets p
            g = math.gcd(*d)
            rays.update(tuple(sign * x // g for x in d) for sign, end in ((1, hi), (-1, lo)) if end is None)
            lines.append((idx, tuple(w0), tuple(d), scale, lo, hi))
            for num, den in filter(None, (lo, hi)):
                u = [w * den + num * x for w, x in zip(w0, d)]
                g = math.gcd(*u, scale * den)
                ends.add((tuple(x // g for x in u), scale * den // g))
        pointed = pointed or lo is not None or hi is not None or any(_dot(row, d) for row in rows)
    if not pointed:
        raise NotPointed("polyhedron has a nontrivial lineality space")
    if not ends:
        return VPolyhedron((), ())
    common = math.lcm(*(den for _, den in ends))
    ordered = sorted(ends, key=lambda end: [x * (common // end[1]) for x in end[0]])
    assert all(_dot(row, u) <= row[-1] * den for u, den in ordered for row in rows)  # in p
    assert all(_dot(row, r) <= 0 for r in rays for row in rows)  # recession directions
    vertices = tuple(QVector(tuple(Fraction(x, den) for x in u)) for u, den in ordered)
    return VPolyhedron(vertices, tuple(QVector.of(r) for r in sorted(rays)), tuple(lines), tuple(ordered))


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
    anything, and kept when it fails, so the result stays empty.

    Computed from ``p.integer_rows`` with y = u / D: integer row (a, b),
    L times the rational row with L the lcm of its denominators, keeps its
    coefficients and gets the right-hand side (b D - a_y . u) / (L D)."""
    k = y.dim
    q = p.dim - k
    if q < 1:
        raise ValueError("no trailing coordinates left")
    *u, den = _integer_row((*y.entries, 1))
    rows, rhs = [], []
    for row, bound, int_row in zip(p.a.entries, p.b, p.integer_rows):
        value = int_row[-1] * den - _dot(int_row, u)  # the right-hand side times L D
        if not any(int_row[k:-1]) and value >= 0:
            continue
        scale = math.lcm(bound.denominator, *map(_denominator, row)) * den
        rows.append(row[k:])
        rhs.append(Fraction(value, scale) if scale > 1 else _integer_fraction(value))
    return HPolyhedron(QMatrix(tuple(rows), q), QVector(tuple(rhs)))
