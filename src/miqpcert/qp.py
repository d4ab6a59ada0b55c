"""Exact global minimization of rational quadratics over polytopes.

The candidate pool follows Vavasis (1990): the vertices of the polytope,
plus, for every independent row subset S of size below n (a face affine
hull of dimension at least one), the stationary point of q on the hull
{A_S x = b_S} when it is unique and lies in the polytope.  The
lexicographically least global minimizer is always in this pool (see
:func:`qp_global_min`), so the minimum is exact and the reported minimizer
is that point: the least (value, x) over the pool.  A cone's slice is
minimized the same way in its ray multipliers.

Each stationary point is solved in its hull's own coordinates, read from a
subset walk (``linalg._affine_hull``): x = (w0 + N z) / P with
A_S w0 = b_S P and A_S N = 0, and z solves the k x k system
N^T H N z = -N^T (H w0 + P c / 2), k = n - |S|.  A_S has full row rank, so
the point is unique exactly when the KKT system
[2H A_S^T; A_S 0] (x, y) = (-c, b_S) has a unique solution: the pool is the
KKT pool, and no KKT matrix is built.  The lines (k = 1) are the ones
``h_to_v`` already walked, with their interval in the polytope, so each
polytope's lines are derived once for every form minimized over it.
Forms that differ only in c share more: :func:`_pool_min` minimizes several
of them over one polytope with one walk, each hull and its k x k matrix
derived once, and only each c's right-hand side solved on its own.

The arithmetic is on integers: a form keeps H and c as integer numerators
over one denominator each.  The pool is a list of integer points u / den,
the vertices as ``h_to_v`` found them and the tested stationary points;
each is valued by the numerator of :func:`eval_quadratic`'s one fraction,
the values and then the points are compared by cross-multiplication, and
only the least point and its value become Fractions.  A cone slice's pool
is valued and compared the same way.

Everything here is a pure function of immutable inputs; candidate active
sets are independent, so callers may fan the enumeration out and min-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import (
    DimensionMismatch, QMatrix, QVector, _affine_hull, _dot, _greedy_basis, _independent_extensions, _integer_row
)
from .polyhedra import HPolyhedron, h_to_v


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
        *c_int, cs = _integer_row((*self.c.entries, 1))
        return (*_integer_matrix(self.h), tuple(c_int), cs)


def _integer_matrix(h: QMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(Ĥ, hs): the square H = Ĥ / hs with hs the positive lcm of its
    denominators, one scaled row for the whole matrix."""
    n = h.cols
    *flat, hs = _integer_row((*(v for row in h.entries for v in row), 1))
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)), hs


@dataclass(frozen=True)
class QpResult:
    minimizer: QVector
    value: Fraction


def eval_quadratic(q: QuadraticForm, x: QVector) -> Fraction:
    """x^T H x + c^T x + d, summed in integers: with x = u / D, H = Ĥ / hs
    and c = ĉ / cs it is (u^T Ĥ u cs + ĉ . u hs D) / (hs cs D^2) + d."""
    if x.dim != q.dim:
        raise DimensionMismatch(f"point dim {x.dim} vs form dim {q.dim}")
    *u, den = _integer_row((*x.entries, 1))
    form = q._integer_form
    return Fraction(_quadratic_numerator(form, u, den), form[1] * form[3] * den * den) + q.d


def _quadratic_numerator(form: tuple, u: Sequence[int], den: int) -> int:
    """u^T Ĥ u cs + ĉ . u hs D: x^T H x + c . x at x = u / D times
    hs cs D^2, for a form's ``_integer_form`` (Ĥ, hs, ĉ, cs)."""
    h, hs, c, cs = form
    return sum(ui * _dot(row, u) for ui, row in zip(u, h) if ui) * cs + _dot(c, u) * hs * den


def restrict_quadratic(q: QuadraticForm, y: QVector, offset: QVector | None = None) -> QuadraticForm:
    """The quadratic z -> q(y, z + offset), offset zero when not given, in
    the trailing coordinates once the first len(y), possibly none, are fixed
    to y: its value and gradient at the base point x = (y, offset) give the
    constant and linear term, and H's trailing block stays.

    Computed from ``q._integer_form`` with x = u / D: the gradient 2Hx + c is
    (2 cs Ĥu + hs D ĉ) / (hs cs D) and the value is :func:`eval_quadratic`'s
    sum."""
    k = y.dim
    n = q.dim
    if not 0 <= k < n:
        raise ValueError("prefix must leave at least one trailing coordinate")
    form = q._integer_form
    h, hs, c, cs = form
    x = y.entries if offset is None else y.entries + offset.entries
    *u, den = _integer_row((*x, 1))  # Ĥu and ĉ . u below run over x's entries
    grad_den = hs * cs * den
    return QuadraticForm(
        QMatrix(tuple(row[k:] for row in q.h.entries[k:]), n - k),
        QVector(tuple(Fraction(2 * cs * _dot(row, u) + hs * den * w, grad_den) for row, w in zip(h[k:], c[k:]))),
        Fraction(_quadratic_numerator(form, u, den), hs * cs * den * den) + q.d,
    )


def _hull_stationary_point(
    basis: Sequence[tuple[Sequence[int], int]], n: int, h: Sequence[Sequence[int]], terms: Sequence[Sequence[int]]
) -> list[tuple[list[int], int] | None]:
    """For each linear term c in ``terms``, the stationary point u / den,
    den > 0, of x^T h x + c . x on the affine hull {a . x = b} of a walk's
    basis of integer rows (a, b), with pivots in the n coefficient columns,
    or None when it is not unique.

    On the hull x = (w0 + N z) / P, stationarity is the k x k integer system
    2 N^T h N z = -(2 N^T h w0 + P N^T c); its greedy basis keeps all k
    rows exactly when it is nonsingular, and back-substitution then gives
    z = -v / t with t > 0.  The hull and the matrix do not depend on c, so
    they are derived once: the basis carries one right-hand side column per
    term, and only the back-substitution runs once per term."""
    w0, dirs, scale = _affine_hull(basis, n)
    h_dirs = [[_dot(row, d) for row in h] for d in dirs]
    h_w0 = [_dot(row, w0) for row in h]
    # rows (2 N^T h N, then 2 N^T h w0 + P N^T c for each c): M z = -rhs
    system = [
        [2 * _dot(d, e) for e in h_dirs] + [2 * _dot(d, h_w0) + scale * _dot(d, c) for c in terms]
        for d in dirs
    ]
    k = len(dirs)
    chosen, basis = _greedy_basis(system, k)
    if len(chosen) < k:
        return [None] * len(terms)
    points: list[tuple[list[int], int] | None] = []
    for j in range(k, k + len(terms)):
        # _affine_hull reads a row's first k + 1 entries: term j's column must sit at k
        v, _, t = _affine_hull(basis if j == k else [(row[:k] + [row[j]], pcol) for row, pcol in basis], k)
        assert all(_dot(row, v) == row[j] * t for row in system)  # a zero residual of the reduced system
        points.append(([t * w - sum(vj * d[i] for vj, d in zip(v, dirs)) for i, w in enumerate(w0)], t * scale))
    return points


def _stationary_candidates(
    p: HPolyhedron, h: Sequence[Sequence[int]], terms: Sequence[Sequence[int]]
) -> list[list[tuple[list[int], int]]]:
    """For each integer linear term c, the unique stationary points of
    x^T h x + c . x on the affine hulls of p's faces of dimension at least
    one that lie in p, as integer points (u, den), x = u / den with den > 0.
    The lines come from ``h_to_v(p)`` with their interval in p, which tests
    the 1 x 1 system's solution; one walk over the row subsets of size at
    most n - 2 gives the other hulls, each derived once for every term.
    Subsets of size n are not walked: their feasible points are the vertices."""
    n = p.dim
    int_rows = p.integer_rows
    candidates: list[list[tuple[list[int], int]]] = [[] for _ in terms]
    for idx, w0, d, scale, lo, hi in h_to_v(p)._lines:
        h_d = [_dot(row, d) for row in h]
        # 2 d^T h d t = -(2 d^T h w0 + scale d . c), as t_num / t_den, t_den > 0
        curvature = 2 * _dot(h_d, d)
        if curvature == 0:
            continue
        slope = 2 * _dot(h_d, w0)
        for c, found in zip(terms, candidates):
            t_num, t_den = -(slope + scale * _dot(d, c)), curvature
            if t_den < 0:
                t_num, t_den = -t_num, -t_den
            if (lo and t_num * lo[1] < lo[0] * t_den) or (hi and t_num * hi[1] > hi[0] * t_den):
                continue
            u, den = [w * t_den + t_num * x for w, x in zip(w0, d)], scale * t_den
            assert all(_dot(int_rows[i], u) == int_rows[i][-1] * den for i in idx)  # on the hull
            found.append((u, den))
    for idx, basis in _independent_extensions(int_rows, n - 2, n, every_depth=True) if n > 1 else ():
        for point, found in zip(_hull_stationary_point(basis, n, h, terms), candidates):
            if point is None:
                continue
            u, den = point
            assert all(_dot(int_rows[i], u) == int_rows[i][-1] * den for i in idx)  # on the hull
            if all(_dot(row, u) <= row[-1] * den for row in int_rows):
                found.append(point)
    return candidates


def _pool_min(p: HPolyhedron, h: Sequence[Sequence[int]], terms: Sequence[Sequence[int]]) -> tuple[int, list[int], int]:
    """The least (value, x) over the pools of the forms x^T h x + c . x on
    the polytope p, one form per integer linear term c, as (value, u, den):
    x = u / den with den > 0, and value / den^2 the form's value there.  So
    it is the least (value, minimizer) of the terms' :func:`qp_global_min`.
    Each pool is p's vertices plus the term's face-hull candidates; the
    terms share the vertices, the subset walk, each hull's (w0, N, P) and
    the reduced matrix 2 N^T h N.  A point is valued as
    :func:`eval_quadratic` sums it, and the values and then the points are
    compared by cross-multiplication.  Raises as :func:`qp_global_min` does."""
    vrep = h_to_v(p)
    if vrep.rays:
        raise Unbounded("feasible set is unbounded")
    if not vrep.vertices:
        raise EmptyFeasibleSet("feasible set is empty")
    best = None
    for c, stationary in zip(terms, _stationary_candidates(p, h, terms)):
        form = (h, 1, c, 1)
        for u, den in (*vrep._ends, *stationary):
            value = _quadratic_numerator(form, u, den)
            if _precedes(value, u, den, best):
                best = value, u, den
    return best


def _precedes(value: int, u: Sequence[int], den: int, best: tuple[int, Sequence[int], int] | None) -> bool:
    """Whether the pool point u / den, den > 0, of value value / den^2 comes
    before ``best``, another such (value, u, den) or None: the values and
    then the points compared by cross-multiplication."""
    if best is None:
        return True
    best_value, best_u, best_den = best
    left, right = value * best_den * best_den, best_value * den * den
    return left < right or (left == right and [x * best_den for x in u] < [x * den for x in best_u])


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
    contradiction.  So y is the unique stationary point of q on aff(F), which
    is the hull of a maximal independent subset of the rows tight on F, and
    the pool keeps it.

    The same holds for an affine map m -> Rm from a polytope onto the
    feasible set, injective or not, when q is pulled back to m and ties are
    broken on x = Rm: take for m* a vertex of the preimage of y, and F the
    face with m* in its relative interior.  A line of the stationary set
    through m* either fixes x, and then m* is not a vertex of the preimage,
    or moves x along a line of optimal points as above.

    The pool's points are integer points u / den, valued and compared in
    integers by :func:`_pool_min`; only the least one becomes Fractions.

    Raises :class:`Unbounded` when p has recession directions and
    :class:`EmptyFeasibleSet` when p is empty.
    """
    if q.dim != p.dim:
        raise DimensionMismatch("form and polytope dimensions differ")
    h, hs, c, cs = q._integer_form
    # H and c times hs cs: cs Ĥ and hs ĉ, with the same minimizers
    h_scaled = h if cs == 1 else [[cs * v for v in row] for row in h]
    value, u, den = _pool_min(p, h_scaled, [c if hs == 1 else [hs * v for v in c]])
    minimizer = QVector(tuple(Fraction(x, den) for x in u))
    return QpResult(minimizer, Fraction(value, hs * cs * den * den) + q.d)


def min_quadratic_on_cone_slice(h: QMatrix, rays: Sequence[QVector], f: QVector) -> QpResult:
    """Global minimum of x^T H x over {x in cone(rays) : f^T x = 1}, at the
    lexicographically least minimizer.  The cone need not be simple.

    With G = R^T H R, the slice is the image x = R m of the simplex
    {m >= 0 : sum m_i (f . r_i) = 1}.  The pool holds, per support T of
    linearly independent rays, the stationary point m_T of m^T G_TT m on
    the hull f_T . m_T = 1 when it is unique and m_T >= 0; ties are broken
    on x = R m.  It is solved in the hull's own coordinates, as in the
    polytope pool, with the one row f_T, G's integer form for H and c = 0;
    f_T != 0, so the point is unique exactly when the KKT system
    [2 G_TT f_T; f_T^T 0] (m_T, lam) = (0, 1) has a unique solution.  The
    pool holds the least optimal x, y: a vertex m* of the preimage
    {m >= 0 : R m = y} has a support T of independent rays (or a null
    combination would move it inside the preimage) and lies in the relative
    interior of the face {m_i = 0 off T}, so by the second paragraph of
    :func:`qp_global_min` it is the unique stationary point on that face's
    affine hull.  One walk over the rays yields every support, each
    independent prefix reduced once.

    The pool is in integers, as :func:`_pool_min`'s is: the rays and H are
    scaled to integers once, H = Ĥ / hs, and Ĥ times each ray once gives
    Ĝ = R^T Ĥ R.  A support's multipliers m_T = m / den give the integer
    point x = R_T m / den of value m^T Ĝ_TT m / (hs den^2); the values and
    then the points are compared by cross-multiplication, so only the least
    point and its value become Fractions.

    Raises :class:`DimensionMismatch` when a ray or f is not in H's space,
    :class:`EmptyFeasibleSet` when f . r <= 0 on every ray, and
    :class:`Unbounded` when on only some: then f does not normalize the cone.
    """
    n = h.cols
    if not h.is_symmetric():
        raise ValueError("quadratic matrix must be symmetric")
    if f.dim != n or any(r.dim != n for r in rays):
        raise DimensionMismatch(f"rays {[r.dim for r in rays]} and f {f.dim} must have H's dimension {n}")
    ray_rows = [_integer_row(r.entries) for r in rays]  # positive multiples: the same cone and slice
    *f_int, fs = _integer_row((*f.entries, 1))
    rates = [_dot(f_int, r) for r in ray_rows]  # f . r_i times fs
    if all(rate <= 0 for rate in rates):
        raise EmptyFeasibleSet("the hyperplane misses the cone")
    if any(rate <= 0 for rate in rates):
        raise Unbounded("cone slice is unbounded; the hyperplane does not normalize this cone")
    h_int, hs = _integer_matrix(h)
    h_rays = [[_dot(row, s) for row in h_int] for s in ray_rows]
    gram = [[_dot(r, hr) for hr in h_rays] for r in ray_rows]  # Ĝ = G hs
    best = None
    for t, _ in _independent_extensions(ray_rows, min(len(rays), n), n, every_depth=True):
        if not t:
            continue
        # the hull f_T . m_T = 1 as the integer row (rates_T, fs): the rates
        # are positive, so it is its own walk basis with pivot column 0
        hull = [rates[i] for i in t] + [fs]
        g = [[gram[i][j] for j in t] for i in t]
        (point,) = _hull_stationary_point([(hull, 0)], len(t), g, [[0] * len(t)])
        if point is None:
            continue
        m, den = point  # m_T = m / den
        assert _dot(hull, m) == fs * den  # on the hull
        if min(m) < 0:
            continue
        value = sum(a * _dot(row, m) for a, row in zip(m, g))
        x = [sum(mi * ray_rows[i][col] for mi, i in zip(m, t)) for col in range(n)]
        if _precedes(value, x, den, best):
            best = value, x, den
    value, x, den = best
    return QpResult(QVector(tuple(Fraction(v, den) for v in x)), Fraction(value, hs * den * den))
