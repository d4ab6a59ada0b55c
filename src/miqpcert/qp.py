"""Exact global minimization of rational quadratics over polytopes.

The candidate pool follows Vavasis (1990): the vertices of the polytope,
plus, for every independent row subset S of size below n (a face affine
hull of dimension at least one), the x of the KKT system
[2H A_S^T; A_S 0] (x, y) = (-c, b_S) when that solution is unique and x
lies in the polytope.  The lexicographically least global minimizer is
always in this pool (see :func:`qp_global_min`), so the minimum is exact and
the reported minimizer is that point: the least (value, x) over the pool.
A cone's slice is minimized the same way in its ray multipliers.

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
from typing import Sequence

from .linalg import DimensionMismatch, QMatrix, QVector, _dot, _integer_row, _solve_integer
from .polyhedra import HPolyhedron, independent_row_subsets, h_to_v


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


def restrict_quadratic(q: QuadraticForm, y: QVector, offset: QVector | None = None) -> QuadraticForm:
    """The quadratic z -> q(y, z + offset), offset zero when not given, in
    the trailing coordinates once the first len(y), possibly none, are fixed
    to y: its value and gradient at the base point (y, offset) give the
    constant and linear term, and H's trailing block stays."""
    k = y.dim
    n = q.dim
    if not 0 <= k < n:
        raise ValueError("prefix must leave at least one trailing coordinate")
    x = y.concat(QVector.zero(n - k) if offset is None else offset)
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
    int_rows = p.integer_rows
    h, hs, c, cs = q._integer_form
    # 2H x + A_S^T y = -c times hs cs, with A_S's rows scaled to integers;
    # y_j is free, so its column takes integer row j as it is (y rescaled)
    stationary = [[2 * cs * v for v in row] for row in h]
    minus_c = [-hs * v for v in c]
    candidates: list[QVector] = []
    for size in range(n):
        for idx in independent_row_subsets(int_rows, size, n):
            kkt = [stationary[i] + [int_rows[j][i] for j in idx] + [minus_c[i]] for i in range(n)]
            kkt += [[*int_rows[j][:n], *[0] * size, int_rows[j][n]] for j in idx]
            solution = _solve_integer(kkt, n + size)
            if solution is None or not solution.is_unique:
                continue
            x = solution.particular.take(n)
            if p.contains(x):
                candidates.append(x)
    return candidates


def _pool(q: QuadraticForm, p: HPolyhedron) -> list[QVector]:
    """The vertices of the polytope p and the face-hull candidates of q on
    it; raises as :func:`qp_global_min` does."""
    if q.dim != p.dim:
        raise DimensionMismatch("form and polytope dimensions differ")
    vrep = h_to_v(p)
    if vrep.rays:
        raise Unbounded("feasible set is unbounded")
    if not vrep.vertices:
        raise EmptyFeasibleSet("feasible set is empty")
    return [*vrep.vertices, *_stationary_candidates(q, p)]


def qp_global_min(q: QuadraticForm, p: HPolyhedron) -> QpResult:
    """Exact global minimum of q over the polytope p, attained at the
    lexicographically least point of the whole optimal set.

    That point is in the pool, so the least (value, x) over the pool is it.
    The optimal set is compact, so it has a least point y.  Let F be the face
    of p with y in its relative interior.  If F is a vertex, y is in the
    pool.  Otherwise y, a minimum of q on F, is a local minimum of q on
    aff(F), so q's stationary set on aff(F) is a flat through y.  Were it
    more than a point, it would hold a line through y along which the
    gradient and the curvature of q vanish, so q would be constant on it.
    Lexicographic order is monotone along a line, so the points of that line
    near y on one side lie in F, are optimal and are less than y: a
    contradiction.  So y is the unique stationary point of q on aff(F), and
    the KKT system of a maximal independent subset of the rows tight on F
    has the unique solution with x = y, which the pool keeps.

    The same holds for an affine map m -> Rm from a polytope onto the
    feasible set, injective or not, when q is pulled back to m and ties are
    broken on x = Rm: take for m* a vertex of the preimage of y, and F the
    face with m* in its relative interior.  A line of the stationary set
    through m* either fixes x, and then m* is not a vertex of the preimage,
    or moves x along a line of optimal points as above.

    Raises :class:`Unbounded` when p has recession directions and
    :class:`EmptyFeasibleSet` when p is empty.
    """
    value, x = min((eval_quadratic(q, x), x) for x in _pool(q, p))
    return QpResult(x, value)


def min_quadratic_on_cone_slice(h: QMatrix, rays: Sequence[QVector], f: QVector) -> QpResult:
    """Global minimum of x^T H x over {x in cone(rays) : f^T x = 1}, at the
    lexicographically least minimizer.  The cone need not be simple.

    With G = R^T H R, the slice is the image x = R m of the simplex
    {m >= 0 : sum m_i (f . r_i) = 1}.  The pool holds, per support T of
    linearly independent rays, the m_T of [2 G_TT f_T; f_T^T 0] (m_T, lam) =
    (0, 1) when it is unique and m_T >= 0; ties are broken on x = R m.  It
    holds the least optimal x, y: a vertex m* of the preimage
    {m >= 0 : R m = y} has a support T of independent rays (or a null
    combination would move it inside the preimage) and lies in the relative
    interior of the face {m_i = 0 off T}, so by the second paragraph of
    :func:`qp_global_min` it is the unique stationary point on that face's
    affine hull; as f_T != 0, (m_T*, lam) is the KKT system's unique solution.

    Raises :class:`EmptyFeasibleSet` when f . r <= 0 on every ray, and
    :class:`Unbounded` when on only some: then f does not normalize the cone.
    """
    ray_rows = [_integer_row(r.entries) for r in rays]  # positive multiples: the same cone and slice
    *f_int, fs = _integer_row((*f.entries, 1))
    rates = [_dot(f_int, r) for r in ray_rows]  # f . r_i times fs
    if all(rate <= 0 for rate in rates):
        raise EmptyFeasibleSet("the hyperplane misses the cone")
    if any(rate <= 0 for rate in rates):
        raise Unbounded("cone slice is unbounded; the hyperplane does not normalize this cone")
    h_int, hs, _, _ = QuadraticForm.pure(h)._integer_form
    gram = [[_dot(r, [_dot(row, s) for row in h_int]) for s in ray_rows] for r in ray_rows]  # G times hs
    pool = []
    for size in range(1, min(len(rays), f.dim) + 1):
        for t in independent_row_subsets(ray_rows, size, f.dim):
            g = [[gram[i][j] for j in t] for i in t]
            # 2 G_TT m_T + f_T lam = 0 with lam rescaled, and f_T . m_T = 1, in integers
            kkt = [[2 * v for v in row] + [rates[i], 0] for row, i in zip(g, t)] + [[rates[j] for j in t] + [0, fs]]
            solution = _solve_integer(kkt, size + 1)
            if solution is None or not solution.is_unique:
                continue
            *u, den = _integer_row((*solution.particular.take(size), 1))  # m_T = u / den
            if min(u) >= 0:
                value = Fraction(sum(a * _dot(row, u) for a, row in zip(u, g)), hs * den * den)
                x = QVector(tuple(Fraction(_dot(u, [ray_rows[i][c] for i in t]), den) for c in range(f.dim)))
                pool.append((value, x))
    value, x = min(pool)
    return QpResult(x, value)
