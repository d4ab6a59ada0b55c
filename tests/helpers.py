"""Shared builders and independent oracles for the test suite.

The grid oracle works in scaled integer arithmetic (numpy int64), so it is
exact and shares nothing with the library's kernels.  The reference
elimination works on Fractions, so it shares nothing with the library's
fraction-free one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from miqpcert import (
    HPolyhedron,
    MiqpInstance,
    QMatrix,
    QVector,
    QuadraticForm,
    SimpleCone,
    VPolyhedron,
    h_to_v,
)
from miqpcert.certifier import Certificate, SearchTrace, _ceil_root
from miqpcert.linalg import _solve_integer, encoding_size, isqrt_ceil, solve_linear_system
from miqpcert.milp import Fiber, ray_families
from miqpcert.polyhedra import (
    NotPointed,
    _is_recession_direction,
    independent_row_subsets,
    polytope_hull,
    primitivize,
    restrict_prefix,
)
from miqpcert.qp import eval_quadratic, qp_global_min, restrict_quadratic


def vec(*values) -> QVector:
    return QVector.of(values)


def mat(rows) -> QMatrix:
    return QMatrix.from_rows(rows)


def hpoly(rows, rhs) -> HPolyhedron:
    return HPolyhedron(QMatrix.from_rows(rows), QVector.of(rhs))


def instance(h_rows, c, d, a_rows, b, p) -> MiqpInstance:
    n = len(c)
    quad = QuadraticForm(QMatrix.from_rows(h_rows, n), QVector.of(c), Fraction(d))
    poly = HPolyhedron(QMatrix.from_rows(a_rows, n), QVector.of(b))
    return MiqpInstance(quad, poly, p)


def random_symmetric(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def random_boxed_instance(rng: random.Random, max_dim: int = 3) -> tuple[MiqpInstance, int]:
    """Instance with integer data in [-5, 5] and explicit box constraints;
    returns (instance, box radius) with every feasible integer part provably
    inside the box."""
    n = rng.randint(1, max_dim)
    p = rng.randint(0, n)
    h = random_symmetric(rng, n)
    c = [rng.randint(-5, 5) for _ in range(n)]
    d = rng.randint(-5, 5)
    box = rng.randint(1, 4)
    rows = []
    rhs = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(list(unit))
        rhs.append(box)
        rows.append([-u for u in unit])
        rhs.append(box)
    for _ in range(rng.randint(0, 2)):
        rows.append([rng.randint(-3, 3) for _ in range(n)])
        rhs.append(rng.randint(-3, 5))
    return instance(h, c, d, rows, rhs, p), box


def random_bounded_polytope(rng: random.Random, n: int) -> HPolyhedron:
    """Nonempty bounded polytope: a box plus a few random cuts that keep the
    origin-ish point feasible."""
    while True:
        box = rng.randint(1, 3)
        rows = []
        rhs = []
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            rows.append(list(unit))
            rhs.append(box)
            rows.append([-u for u in unit])
            rhs.append(box)
        for _ in range(rng.randint(0, 3)):
            row = [rng.randint(-3, 3) for _ in range(n)]
            rows.append(row)
            rhs.append(rng.randint(0, 5))  # keeps x = 0 feasible
        poly = hpoly(rows, rhs)
        if not h_to_v(poly).is_empty:
            return poly


def reference_h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Vertex and extreme-ray enumeration with a separate elimination per
    candidate: one ``_solve_integer`` per independent n-subset for its
    unique solution, tested with ``contains``, and one per
    independent (n-1)-subset for its nullspace, ``primitivize``, and both
    signs tested on Fractions with ``_is_recession_direction``.  The
    reference for ``h_to_v``, whose vertex and ray passes back-substitute
    from the subset walk's own elimination.  Uncached."""
    n = p.dim
    int_rows = p.integer_rows
    rows = [row[:n] for row in int_rows]
    bases = [_solve_integer([int_rows[i] for i in idx], n) for idx in independent_row_subsets(rows, n, n)]
    if not bases:
        raise NotPointed("polyhedron has a nontrivial lineality space")
    assert all(sol is not None and sol.is_unique for sol in bases)
    vertices = {sol.particular for sol in bases if p.contains(sol.particular)}
    if not vertices:
        return VPolyhedron((), ())
    rays = set()
    for idx in independent_row_subsets(rows, n - 1, n):
        null = _solve_integer([(*rows[i], 0) for i in idx], n).nullspace
        if len(null) != 1:
            continue
        g = primitivize(null[0])
        for cand in (g, -g):
            if _is_recession_direction(p, cand):
                rays.add(cand)
    result = VPolyhedron(tuple(sorted(vertices)), tuple(sorted(rays)))
    assert all(p.contains(v) for v in result.vertices)
    assert all(_is_recession_direction(p, r) for r in result.rays)
    return result


def reference_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Rational reduced row echelon form, the reference for the library's
    fraction-free elimination: pivots chosen as the first nonzero entry in
    column order, each pivot row divided by its pivot.  Returns (rows,
    pivot columns)."""
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
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivot_cols


def reference_solve(m: QMatrix, rhs: QVector) -> tuple[QVector, tuple[QVector, ...]] | None:
    """(particular, nullspace) of M x = rhs by rational elimination, or None
    when inconsistent; the free variables are zero in the particular
    solution and each nullspace vector sets one of them to one."""
    n = m.cols
    aug = [list(row) + [rhs[i]] for i, row in enumerate(m.entries)]
    if not aug:
        return QVector.zero(n), tuple(QVector.unit(j, n) for j in range(n))
    reduced, pivot_cols = reference_echelon(aug)
    if n in pivot_cols:
        return None  # pivot in the rhs column: inconsistent
    if any(all(v == 0 for v in row[:n]) and row[n] != 0 for row in reduced):
        return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        particular[col] = reduced[r][n]
    basis = []
    for free in (j for j in range(n) if j not in pivot_cols):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            v[col] = -reduced[r][free]
        basis.append(QVector(tuple(v)))
    return QVector(tuple(particular)), tuple(basis)


def reference_rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(reference_echelon([list(row) for row in m.entries])[1])


def _clear_row(row, rhs) -> tuple[list[int], int]:
    den = math.lcm(*(Fraction(v).denominator for v in list(row) + [rhs]))
    return [int(Fraction(v) * den) for v in row], int(Fraction(rhs) * den)


def grid_min_scaled(inst_quad: QuadraticForm, poly: HPolyhedron, bounds, den: int = 8):
    """Exact minimum of the quadratic over grid points of step 1/den inside
    the given integer coordinate bounds, restricted to the polytope.

    Returns (min of den^2 * Q over feasible grid points, count) with the
    minimum as a python int, or (None, 0) when no grid point is feasible.
    All arithmetic is integer (object dtype guards against overflow).
    """
    n = poly.dim
    axes = [np.arange(lo * den, hi * den + 1, dtype=object) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)  # scaled by den
    keep = np.ones(len(pts), dtype=bool)
    for i in range(poly.num_rows):
        row, rhs = _clear_row(poly.a.entries[i], poly.b[i])
        keep &= pts @ np.array(row, dtype=object) <= rhs * den
    pts = pts[keep]
    if len(pts) == 0:
        return None, 0
    # the corpora feeding this oracle always carry integer H, c, d
    assert all(v.denominator == 1 for row in inst_quad.h.entries for v in row)
    assert all(v.denominator == 1 for v in inst_quad.c.entries)
    assert inst_quad.d.denominator == 1
    h_int = np.array([[int(v) for v in row] for row in inst_quad.h.entries], dtype=object)
    c_int = np.array([int(v) for v in inst_quad.c.entries], dtype=object)
    quad = np.einsum("ij,jk,ik->i", pts, h_int, pts)
    lin = (pts @ c_int) * den
    values = quad + lin + int(inst_quad.d) * den * den
    return int(values.min()), len(pts)


def sample_in_polytope(rng: random.Random, vertices) -> QVector:
    """Random rational convex combination of the vertices."""
    weights = [Fraction(rng.randint(0, 4)) for _ in vertices]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    point = vertices[0].scale(Fraction(0))
    for w, v in zip(weights, vertices):
        point = point + v.scale(w / total)
    return point


def window_points(vrep: VPolyhedron, family: SimpleCone) -> list[QVector]:
    """Reference point set whose hull is B^K = conv(vertices) + sum over the
    family's rays of [0, r]: every vertex shifted by every subset sum of the
    rays."""
    points = set(vrep.vertices)
    for size in range(1, len(family.rays) + 1):
        for subset in combinations(family.rays, size):
            shift = subset[0]
            for r in subset[1:]:
                shift = shift + r
            points.update(v + shift for v in vrep.vertices)
    return sorted(points)


def reference_box(vertices, rays) -> list[tuple[Fraction, Fraction]]:
    """The bounding box of conv(vertices) + sum of segments [0, r] over the
    rays, every vertex scanned per call:
    min_v v_t + sum_r min(r_t, 0) <= x_t <= max_v v_t + sum_r max(r_t, 0)."""
    return [
        (
            min(v[t] for v in vertices) + sum(min(r[t], 0) for r in rays),
            max(v[t] for v in vertices) + sum(max(r[t], 0) for r in rays),
        )
        for t in range(vertices[0].dim)
    ]


def reference_window_fibers(s, vrep: VPolyhedron) -> list:
    """The nonempty fibers of a pointed part by one loop per family, as the
    search built them before they came as one stream: each family's window
    P cap box(B^K) from a fresh vertex scan, its integer prefixes in product
    order, and the completions of each prefix."""
    poly, p = s.polyhedron, s.integer_count
    fibers = []
    for family_index, family in enumerate(ray_families(vrep)):
        box = reference_box(vrep.vertices, family.rays)
        window = poly
        if family.rays:
            units = [QVector.unit(t, poly.dim).scale(sign) for t in range(poly.dim) for sign in (1, -1)]
            window = poly.with_rows(units, [bound for lo, hi in box for bound in (hi, -lo)])
        for combo in product(*(range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box[:p])):
            y = QVector.of(combo)
            if poly.dim == p:
                if window.contains(y):
                    fibers.append(Fiber(window, y, family_index, (y,), None))
                continue
            reduced = restrict_prefix(window, y)
            verts = h_to_v(reduced).vertices
            if verts:
                fibers.append(Fiber(window, y, family_index, tuple(sorted(y.concat(z) for z in verts)), reduced))
    return fibers


def cone_hull(rays) -> HPolyhedron:
    """Exact inequality description of the pointed cone spanned by the rays:
    the rhs-0 rows of polytope_hull({0} + rays).  The origin is a vertex of
    that hull, and the rows through a vertex (its facets and the affine-hull
    equalities) cut out the tangent cone there, which is cone(rays)."""
    if not rays:
        raise ValueError("hull of an empty ray set")
    if any(r.is_zero() for r in rays):
        raise ValueError("zero vector is not a ray")
    hull = polytope_hull([QVector.zero(rays[0].dim), *rays])
    keep = [i for i in range(hull.num_rows) if hull.b[i] == 0]
    return HPolyhedron(
        QMatrix.from_rows([hull.a.entries[i] for i in keep], hull.dim), QVector.zero(len(keep))
    )


def sample_in_cone(rng: random.Random, rays, max_scale: int = 3) -> QVector:
    """Random small non-negative rational combination of the rays."""
    point = rays[0].scale(Fraction(0))
    for r in rays:
        point = point + r.scale(Fraction(rng.randint(0, max_scale), rng.randint(1, 3)))
    return point


def max_cut_value(edges: list[tuple[int, int]], num_vertices: int) -> int:
    best = 0
    for mask in range(2**num_vertices):
        cut = sum(1 for a, b in edges if ((mask >> a) & 1) != ((mask >> b) & 1))
        best = max(best, cut)
    return best


def all_graphs(num_vertices: int):
    """Every labeled graph on the given vertex count, as edge lists."""
    pairs = [(i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)]
    for mask in range(2 ** len(pairs)):
        yield [e for i, e in enumerate(pairs) if (mask >> i) & 1]


def enumerate_integer_box(radius: int, dim: int):
    return product(range(-radius, radius + 1), repeat=dim)


def decomposition_covers_point(dec, f, x) -> bool:
    """Exact membership of x in the union of fiber + intcone(family) pairs.

    Complete: any witnessing multiplier tuple m satisfies
    sum(m_j f.r_j) = f.x - f.(x - w) <= f.x - min f over the fiber, so the
    budgeted enumeration always reaches it.  f may be None only when the
    decomposition has no rays.
    """
    for family in dec.ray_families:
        rays = family.rays
        for fib in dec.fiber_records:
            if not rays:
                if fib.polyhedron.contains(x):
                    return True
                continue
            lo = min(f.dot(v) for v in fib.vertices)
            budget = f.dot(x) - lo
            if budget < 0:
                continue
            f_values = [f.dot(r) for r in rays]
            assert all(fv > 0 for fv in f_values)
            caps = [int((budget / fv).__floor__()) for fv in f_values]
            for counts in product(*(range(c + 1) for c in caps)):
                if sum(m * fv for m, fv in zip(counts, f_values)) > budget:
                    continue
                w = x.scale(0)
                for m, r in zip(counts, rays):
                    w = w + r.scale(m)
                if fib.polyhedron.contains(x - w):
                    return True
    return False


def family_index_by_rays(dec, rays) -> int:
    key = frozenset(rays)
    for i, fam in enumerate(dec.ray_families):
        if frozenset(fam.rays) == key:
            return i
    raise AssertionError(f"no family with rays {rays}")


def shift_lower_bound(quad: QuadraticForm, fiber, v3: Fraction, shift: QVector) -> Fraction:
    """A lower bound on the quadratic over fiber + shift, given its exact
    minimum v3 over the fiber itself: q(x + s) = q(x) + 2 x^T H s + c^T s +
    s^T H s, where the linear term is least at one of the fiber's vertices.
    Exact when the fiber is a single point."""
    hs = quad.h.matvec(shift)
    return v3 + min(2 * v.dot(hs) for v in fiber.vertices) + quad.c.dot(shift) + shift.dot(hs)


def reference_fiber_min(quad: QuadraticForm, fiber, shift: QVector) -> tuple[Fraction, QVector]:
    """The exact minimum of the quadratic over fiber + shift and a point
    where it is attained, over the moved polytope itself: the trailing
    coordinates of prefix y + s_p range over {w : Aw <= b + A s_q} when the
    fiber's reduced polytope is Az <= b.  The reference for the certifier's
    ``_fiber_min``, which moves the quadratic instead of the polytope."""
    p = fiber.integer_part.dim
    prefix = fiber.integer_part + shift.take(p)
    if fiber.reduced is None:  # no continuous coordinates: the fiber is its prefix
        return eval_quadratic(quad, prefix), prefix
    a, b = fiber.reduced.a, fiber.reduced.b
    moved = HPolyhedron(a, b + a.matvec(shift.drop(p)))
    inner = quad if p == 0 else restrict_quadratic(quad, prefix)
    point = prefix.concat(qp_global_min(inner, moved).minimizer)
    return eval_quadratic(quad, point), point


def reference_window_bounds(inst: MiqpInstance, fiber, piece, f: QVector):
    """(v3, lam_max, norm_bound, caps) of a curving residual window, with v2
    and the slice norm read off the vertices of the curving slice
    {x in cone(curving) : f . x = 1}, enumerated by h_to_v."""
    n = inst.dim
    slice_v = h_to_v(cone_hull(piece.curving).with_equality(f, Fraction(1)))
    assert not slice_v.rays and slice_v.vertices
    v1 = piece.v1
    quad = inst.quad
    v2 = min(2 * pv.dot(quad.h.matvec(u)) + quad.c.dot(u) for pv in fiber.vertices for u in slice_v.vertices)
    v3, _ = reference_fiber_min(quad, fiber, QVector.zero(n))
    v4 = max(math.ceil(abs(coord)) for vert in fiber.vertices for coord in vert.entries)
    disc = v2 * v2 - 4 * v1 * v3
    lam_max = 0 if disc < 0 else max(0, _ceil_root(-v2, disc, 2 * v1))
    norm_bound = isqrt_ceil(Fraction(n)) * v4 + lam_max * isqrt_ceil(max(u.dot(u) for u in slice_v.vertices))
    caps = [math.floor(Fraction(lam_max) / f.dot(r)) for r in piece.curving]
    return v3, lam_max, norm_bound, caps


def reference_window_search(inst: MiqpInstance, fiber, piece, f: QVector, signs, indices):
    """A curving residual window as a full scan, the reference for the branch
    and bound of ``bounded_window_search``: every multiplier tuple up to the
    caps in product order, the simplex filter f . m <= lam_max, the
    single-shift lower bound, then the exact minimum of the shifted fiber."""
    fiber_index, family_index, piece_index = indices

    def certificate(counts, shift, bound):
        value, point = reference_fiber_min(inst.quad, fiber, shift)
        if value > 0:
            return None
        trace = SearchTrace(
            signs, "window-qp", fiber_index, family_index, piece_index, shift=counts, norm_bound=bound
        )
        return Certificate(point, encoding_size(point), trace)

    v3, lam_max, norm_bound, caps = reference_window_bounds(inst, fiber, piece, f)
    for counts in product(*(range(cap + 1) for cap in caps)):
        if sum(m * f.dot(r) for m, r in zip(counts, piece.curving)) > lam_max:
            continue
        shift = QVector.zero(inst.dim)
        for m, ray in zip(counts, piece.curving):
            shift = shift + ray.scale(m)
        if shift_lower_bound(inst.quad, fiber, v3, shift) > 0:
            continue
        cert = certificate(counts, shift, norm_bound)
        if cert is not None:
            return cert
    return None


def reference_eval_quadratic(q: QuadraticForm, x: QVector) -> Fraction:
    """x . Hx + c . x + d in Fraction arithmetic, the reference for
    ``qp.eval_quadratic``'s sum over integer numerators."""
    return x.dot(q.h.matvec(x)) + q.c.dot(x) + q.d


def reference_stationary_candidates(q: QuadraticForm, p: HPolyhedron) -> tuple[list[QVector], int]:
    """The QP pool's face-hull candidates in two stages, the reference for the
    single KKT solve of ``qp._stationary_candidates``: each hull of an
    independent row subset of size below n as a particular point plus
    nullspace directions, then the stationarity system of q reduced to those
    directions.  Also returns how many hulls carry a flat stationary set
    (consistent but not unique), which the pool skips."""
    n = p.dim
    rows = [row[:n] for row in p.integer_rows]
    candidates: list[QVector] = []
    flats = 0
    for size in range(n):
        for idx in independent_row_subsets(rows, size, n):
            sub = QMatrix.from_rows([p.a.entries[i] for i in idx], n)
            hull = solve_linear_system(sub, QVector.of(p.b[i] for i in idx))
            assert hull is not None  # independent rows are always consistent
            x0, directions = hull.particular, hull.nullspace
            k = len(directions)
            h_dirs = [q.h.matvec(d) for d in directions]
            reduced_h = QMatrix.from_rows(
                [[2 * directions[i].dot(h_dirs[j]) for j in range(k)] for i in range(k)], k
            )
            grad0 = q.h.matvec(x0).scale(2) + q.c
            rhs = QVector.of(-directions[i].dot(grad0) for i in range(k))
            stat = solve_linear_system(reduced_h, rhs)
            if stat is None:
                continue
            if not stat.is_unique:
                flats += 1
                continue
            x_s = x0
            for j in range(k):
                x_s = x_s + directions[j].scale(stat.particular[j])
            if p.contains(x_s):
                candidates.append(x_s)
    return candidates, flats
