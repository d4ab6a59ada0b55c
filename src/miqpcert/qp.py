"""Exact global minimization of rational quadratics over polytopes.

The candidate pool follows Vavasis (1990): the vertices of the polytope,
plus, for every independent row subset S of size below n (a face affine
hull of dimension at least one), the x of the KKT system
[2H A_S^T; A_S 0] (x, y) = (-c, b_S) when that solution is unique and x
lies in the polytope.  Some global minimizer is always in this pool (see
:func:`qp_global_min`), so the minimum is exact and the reported minimizer
deterministic (lexicographically smallest among optimal candidates).

The arithmetic is on integers: a form keeps H and c as integer numerators
over one denominator each, made once per object.  The KKT rows start from
those and from the polytope's integer rows, and :func:`eval_quadratic` sums
over a point's integer numerators, building one Fraction for the value.

Everything here is a pure function of immutable inputs; candidate active
sets are independent, so callers may fan the enumeration out and min-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import DimensionMismatch, QMatrix, QVector, _dot, _integer_row, _solve_integer
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

    @cached_property
    def _integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...], int]:
        """(Ĥ, hs, ĉ, cs): H = Ĥ / hs and c = ĉ / cs with hs and cs the
        positive lcm of the denominators of H and of c.  Computed once per
        object; not a field, so eq and hash ignore it."""
        n = self.dim
        *h_flat, hs = _integer_row((*(v for row in self.h.entries for v in row), 1))
        *c_int, cs = _integer_row((*self.c.entries, 1))
        return tuple(tuple(h_flat[i * n : (i + 1) * n]) for i in range(n)), hs, tuple(c_int), cs


@dataclass(frozen=True)
class QpResult:
    minimizer: QVector
    value: Fraction


def eval_quadratic(q: QuadraticForm, x: QVector) -> Fraction:
    """x^T H x + c^T x + d, summed in integers: with x = u / D, H = Ĥ / hs
    and c = ĉ / cs it is (u^T Ĥ u cs + ĉ . u hs D) / (hs cs D^2) + d."""
    if x.dim != q.dim:
        raise DimensionMismatch(f"point dim {x.dim} vs form dim {q.dim}")
    h, hs, c, cs = q._integer_form
    *u, den = _integer_row((*x.entries, 1))
    quadratic = sum(ui * _dot(row, u) for ui, row in zip(u, h) if ui)
    return Fraction(quadratic * cs + _dot(c, u) * hs * den, hs * cs * den * den) + q.d


def restrict_quadratic(q: QuadraticForm, y: QVector) -> QuadraticForm:
    """The quadratic in the trailing coordinates once the first len(y)
    coordinates are fixed to y: its value and gradient at x = (y, 0) give
    the constant and linear term, and H's trailing block stays."""
    k = y.dim
    n = q.dim
    if not 0 < k < n:
        raise ValueError("prefix must fix a proper nonempty subset of coordinates")
    x = y.concat(QVector.zero(n - k))
    gradient = q.h.matvec(x).scale(2) + q.c
    hzz = QMatrix.from_rows([row[k:] for row in q.h.entries[k:]], n - k)
    return QuadraticForm(hzz, gradient.drop(k), eval_quadratic(q, x))


def _stationary_candidates(q: QuadraticForm, p: HPolyhedron) -> list[QVector]:
    """Unique stationary points of q on the affine hulls of p's faces of
    dimension at least one that lie in p, one KKT solve per hull.  A_S has
    full row rank, so the KKT solution is unique exactly when x is.  Row
    subsets of size n are not walked: their feasible basic solutions are
    the vertices of p."""
    n = p.dim
    rows = [p.a.row(i) for i in range(p.num_rows)]
    int_rows = p.integer_rows
    h, hs, c, cs = q._integer_form
    # 2H x + A_S^T y = -c times hs cs, with A_S's rows scaled to integers;
    # y_j is free, so its column takes integer row j as it is (y rescaled)
    stationary = [[2 * cs * v for v in row] for row in h]
    minus_c = [-hs * v for v in c]
    candidates: list[QVector] = []
    for size in range(n):
        for idx in independent_row_subsets(rows, size):
            kkt = [stationary[i] + [int_rows[j][i] for j in idx] + [minus_c[i]] for i in range(n)]
            kkt += [[*int_rows[j][:n], *[0] * size, int_rows[j][n]] for j in idx]
            solution = _solve_integer(kkt, n + size)
            if solution is None or not solution.is_unique:
                continue
            x = solution.particular.take(n)
            if p.contains(x):
                candidates.append(x)
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
    optimal value, contradicting the choice of x*.  So S = {x*}: the KKT
    system of a maximal independent subset of the rows tight on F has a
    unique solution whose x is x*.

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
