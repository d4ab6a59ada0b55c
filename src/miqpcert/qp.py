"""Exact global minimization of rational quadratics over polytopes.

The candidate pool follows Vavasis (1990): the vertices of the polytope,
plus, for every face affine hull of dimension at least one (an independent
active-row subset of size below n), the stationary point of the quadratic
on that hull when it is the unique one and lies in the polytope.  Some
global minimizer is always in this pool (see :func:`qp_global_min`), so the
minimum is exact and the reported minimizer deterministic
(lexicographically smallest among optimal candidates).

Everything here is a pure function of immutable inputs; candidate active
sets are independent, so callers may fan the enumeration out and min-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import DimensionMismatch, QMatrix, QVector, solve_linear_system
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
    """Unique stationary points of q on the affine hulls of p's faces of
    dimension at least one that lie in p.  Row subsets of size n are not
    walked: their feasible basic solutions are the vertices of p."""
    n = p.dim
    rows = [p.a.row(i) for i in range(p.num_rows)]
    candidates: list[QVector] = []
    for size in range(n):
        for idx in independent_row_subsets(rows, size):
            sub = QMatrix.from_rows([p.a.entries[i] for i in idx], n)
            hull = solve_linear_system(sub, QVector.of(p.b[i] for i in idx))
            assert hull is not None  # independent rows are always consistent
            x0, directions = hull.particular, hull.nullspace
            k = len(directions)
            h_dirs = [q.h.matvec(d) for d in directions]
            reduced_h = QMatrix.from_rows(
                [[2 * directions[i].dot(h_dirs[j]) for j in range(k)] for i in range(k)]
            )
            grad0 = q.h.matvec(x0).scale(2) + q.c
            rhs = QVector.of(-directions[i].dot(grad0) for i in range(k))
            stat = solve_linear_system(reduced_h, rhs)
            if stat is None or not stat.is_unique:
                continue
            x_s = x0
            for j in range(k):
                x_s = x_s + directions[j].scale(stat.particular[j])
            if p.contains(x_s):
                candidates.append(x_s)
    return candidates


def qp_global_min(q: QuadraticForm, p: HPolyhedron) -> QpResult:
    """Exact global minimum of q over the polytope p.

    The pool is complete.  Among the optimal points take one, x*, whose
    face F of p (the face with x* in its relative interior) has the least
    dimension.  If F is a vertex, x* is in the pool.  Otherwise x* is a
    local minimum of q on aff(F), so it is stationary there, and the
    stationary set S of q on aff(F) is a flat through x*.  Were S more than
    a point, q would be constant on S (its gradient vanishes along S and
    its curvature along S is zero), and since F is bounded a line of S
    through x* would leave F at a point of a proper face of F with the same
    optimal value, contradicting the choice of x*.  So S = {x*}: the
    reduced stationarity system on aff(F), cut out by a maximal independent
    subset of the rows tight on F, has the unique solution x*.

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
    pool.extend(_stationary_candidates(q, p))
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
