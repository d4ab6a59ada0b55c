"""Exact global minimization of rational quadratics over polytopes.

The kernel enumerates face affine hulls (independent active-row subsets),
solves the reduced stationarity system on each exactly, and keeps every
vertex as a fallback candidate.  A global minimizer of a quadratic over a
polytope is stationary on the affine hull of the face whose relative
interior contains it, so the candidate pool always contains an optimal
point; the minimum is exact and the reported minimizer deterministic
(lexicographically smallest among optimal candidates).

Everything here is a pure function of immutable inputs; candidate active
sets are independent, so callers may fan the enumeration out and min-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import DimensionMismatch, QMatrix, QVector, nullspace_basis, solve_linear_system
from .polyhedra import HPolyhedron, SimpleCone, independent_row_subsets, h_to_v


class Unbounded(ValueError):
    """The feasible set has a recession direction; no global minimum is
    guaranteed and the kernel refuses."""


class EmptyFeasibleSet(ValueError):
    """The feasible set is empty."""


@dataclass(frozen=True)
class QuadraticForm:
    """x^T H x + c^T x + d with H exactly symmetric."""

    h: QMatrix
    c: QVector
    d: Fraction

    def __post_init__(self) -> None:
        if not self.h.is_symmetric():
            raise ValueError("quadratic matrix must be symmetric")
        if self.c.dim != self.h.cols:
            raise DimensionMismatch("linear term dimension mismatch")

    @property
    def dim(self) -> int:
        return self.h.cols

    @staticmethod
    def pure(h: QMatrix) -> "QuadraticForm":
        return QuadraticForm(h, QVector.zero(h.cols), Fraction(0))


@dataclass(frozen=True)
class QpResult:
    minimizer: QVector
    value: Fraction


def eval_quadratic(q: QuadraticForm, x: QVector) -> Fraction:
    if x.dim != q.dim:
        raise DimensionMismatch(f"point dim {x.dim} vs form dim {q.dim}")
    return x.dot(q.h.matvec(x)) + q.c.dot(x) + q.d


def restrict_quadratic(q: QuadraticForm, y: QVector) -> QuadraticForm:
    """The quadratic in the trailing coordinates once the first len(y)
    coordinates are fixed to y."""
    k = y.dim
    n = q.dim
    if not 0 < k < n:
        raise ValueError("prefix must fix a proper nonempty subset of coordinates")
    hzz = QMatrix.from_rows([row[k:] for row in q.h.entries[k:]], n - k)
    new_c = QVector.of(
        q.c[k + j] + 2 * sum(y[i] * q.h.entries[i][k + j] for i in range(k))
        for j in range(n - k)
    )
    head = QVector.of(y[i] for i in range(k))
    hyy = QMatrix.from_rows([row[:k] for row in q.h.entries[:k]], k)
    new_d = head.dot(hyy.matvec(head)) + sum(q.c[i] * y[i] for i in range(k)) + q.d
    return QuadraticForm(hzz, new_c, new_d)


def _stationary_candidates(q: QuadraticForm, p: HPolyhedron) -> list[QVector]:
    """Stationary points over every face affine hull, plus representatives of
    flat stationary sets that miss the particular solution."""
    n = p.dim
    rows = [p.a.row(i) for i in range(p.num_rows)]
    candidates: list[QVector] = []
    for size in range(0, n + 1):
        for idx in independent_row_subsets(rows, size):
            sub = QMatrix.from_rows([p.a.entries[i] for i in idx], n)
            hull = solve_linear_system(sub, QVector.of(p.b[i] for i in idx))
            if hull is None:
                continue
            x0, directions = hull.particular, hull.nullspace
            if not directions:
                candidates.append(x0)
                continue
            k = len(directions)
            h_dirs = [q.h.matvec(d) for d in directions]
            reduced_h = QMatrix.from_rows(
                [[2 * directions[i].dot(h_dirs[j]) for j in range(k)] for i in range(k)]
            )
            grad0 = q.h.matvec(x0).scale(2) + q.c
            rhs = QVector.of(-directions[i].dot(grad0) for i in range(k))
            stat = solve_linear_system(reduced_h, rhs)
            if stat is None:
                continue
            x_s = x0
            for j in range(k):
                x_s = x_s + directions[j].scale(stat.particular[j])
            if p.contains(x_s):
                candidates.append(x_s)
            elif stat.nullspace:
                # the stationary set is a flat on which the quadratic is
                # constant; pick it up where it meets the polytope
                flats = []
                for u in stat.nullspace:
                    w = QVector.zero(n)
                    for j in range(k):
                        w = w + directions[j].scale(u[j])
                    flats.append(w)
                complement = nullspace_basis(QMatrix.from_rows([w.entries for w in flats], n))
                restricted = p
                for c_row in complement:
                    restricted = restricted.with_equality(c_row, c_row.dot(x_s))
                candidates.extend(h_to_v(restricted).vertices)
    return candidates


def qp_global_min(q: QuadraticForm, p: HPolyhedron) -> QpResult:
    """Exact global minimum of q over the polytope p.

    Raises :class:`Unbounded` when p has recession directions and
    :class:`EmptyFeasibleSet` when p is empty.
    """
    if q.dim != p.dim:
        raise DimensionMismatch("form and polytope dimensions differ")
    vrep = h_to_v(p)
    if vrep.rays:
        raise Unbounded("feasible set is unbounded")
    if not vrep.vertices:
        raise EmptyFeasibleSet("feasible set is empty")
    pool = list(vrep.vertices)
    pool.extend(x for x in _stationary_candidates(q, p) if p.contains(x))
    best_value = None
    best_point = None
    for x in pool:
        value = eval_quadratic(q, x)
        if best_value is None or value < best_value or (value == best_value and x < best_point):
            best_value = value
            best_point = x
    assert best_point is not None
    return QpResult(best_point, best_value)


def min_quadratic_on_cone_slice(
    h: QMatrix, cone: HPolyhedron | SimpleCone, f: QVector
) -> QpResult:
    """Global minimum of x^T H x over {x in cone : f^T x = 1}.

    The slice must be compact, which holds whenever f is a valid normalizing
    hyperplane for the cone; an unbounded slice raises :class:`Unbounded`.
    """
    cone_h = cone.to_hpolyhedron(f.dim) if isinstance(cone, SimpleCone) else cone
    slab = cone_h.with_equality(f, Fraction(1))
    try:
        return qp_global_min(QuadraticForm.pure(h), slab)
    except Unbounded as exc:
        raise Unbounded(
            "cone slice is unbounded; the hyperplane does not normalize this cone"
        ) from exc
