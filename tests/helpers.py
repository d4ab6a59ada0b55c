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
from miqpcert.certifier import _BRANCHES, _TAG_KEYS, Certificate, SearchTrace
from miqpcert.cones import ConeNotPointed, NormalizingHyperplane
from miqpcert.linalg import _independent_extensions, _integer_row, encoding_size, isqrt_ceil, solve_linear_system
from miqpcert.milp import Fiber, ray_families
from miqpcert.polyhedra import (
    NotInCone,
    NotPointed,
    polytope_hull,
    primitivize,
    restrict_prefix,
)
from miqpcert.qp import QpResult, eval_quadratic, qp_global_min, restrict_quadratic


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


def _is_recession_direction(p: HPolyhedron, r: QVector) -> bool:
    """A r <= 0, on Fractions."""
    return all(r.dot(QVector(row)) <= 0 for row in p.a.entries)


def reference_h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Vertex and extreme-ray enumeration with a separate elimination per
    candidate: one ``reference_solve_rows`` per independent n-subset for its
    unique solution, tested with ``contains``, and one per
    independent (n-1)-subset for its nullspace, ``primitivize``, and both
    signs tested on Fractions with ``_is_recession_direction``.  The
    reference for ``h_to_v``, whose vertex and ray passes back-substitute
    from the subset walk's own elimination.  Uncached."""
    n = p.dim
    int_rows = p.integer_rows
    rows = [row[:n] for row in int_rows]
    bases = [reference_solve_rows([int_rows[i] for i in idx], n) for idx, _ in _independent_extensions(rows, n, n)]
    if not bases:
        raise NotPointed("polyhedron has a nontrivial lineality space")
    assert all(sol is not None and not sol[1] for sol in bases)
    vertices = {x for x, _ in bases if p.contains(x)}
    if not vertices:
        return VPolyhedron((), ())
    rays = set()
    for idx, _ in _independent_extensions(rows, n - 1, n):
        null = reference_solve_rows([(*rows[i], 0) for i in idx], n)[1]
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


def reference_solve_rows(rows, n: int) -> tuple[QVector, tuple[QVector, ...]] | None:
    """``reference_solve`` on rows in n unknowns, each with its right-hand
    side last."""
    return reference_solve(QMatrix.from_rows([row[:n] for row in rows], n), QVector.of(row[n] for row in rows))


def line_key(direction: QVector, ends, unbounded) -> tuple[frozenset, frozenset, frozenset]:
    """A line segment, ray or line inside a polyhedron as sets, whatever its
    parametrization: the primitive direction both ways, the finite
    endpoints, and the primitive directions in which it has no end."""
    prim = primitivize(direction)
    return frozenset((prim, -prim)), frozenset(ends), frozenset(primitivize(d) for d in unbounded)


def reference_lines(p: HPolyhedron) -> tuple[dict, int]:
    """Each independent (n-1)-subset's line and its interval in p, on
    Fractions: a point x0 and the direction d of the subset's equalities by
    ``reference_solve``, then per row t (a . d) <= b - a . x0.  The reference
    for the lines ``h_to_v`` keeps.  Returns {subset: ``line_key``} over the
    lines that meet p, and how many lines miss it."""
    n = p.dim
    rows = [row[:n] for row in p.integer_rows]
    meeting, missed = {}, 0
    for idx, _ in _independent_extensions(rows, n - 1, n):
        x0, (d,) = reference_solve(QMatrix.from_rows([p.a.entries[i] for i in idx], n), QVector.of(p.b[i] for i in idx))
        lo = hi = None
        meets = True
        for a, b in zip(p.a.entries, p.b):
            rate = sum(x * y for x, y in zip(a, d.entries) if x)
            slack = b - sum(x * y for x, y in zip(a, x0.entries) if x)
            if rate > 0:
                hi = slack / rate if hi is None else min(hi, slack / rate)
            elif rate < 0:
                lo = slack / rate if lo is None else max(lo, slack / rate)
            elif slack < 0:
                meets = False
                break
        if not meets or (lo is not None and hi is not None and lo > hi):
            missed += 1
            continue
        ends = [x0 + d.scale(t) for t in (lo, hi) if t is not None]
        unbounded = [end for end, t in ((-d, lo), (d, hi)) if t is None]
        meeting[idx] = line_key(d, ends, unbounded)
    return meeting, missed


def reference_rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(reference_echelon([list(row) for row in m.entries])[1])


def reference_independent_subsets(rows, size: int, cols: int) -> list[tuple[int, ...]]:
    """The index subsets of the given size whose rows are linearly
    independent in their first ``cols`` columns, in lexicographic order:
    ``itertools.combinations`` filtered by ``reference_rank``, which shares
    no code with the library's subset walk."""
    return [
        idx
        for idx in combinations(range(len(rows)), size)
        if reference_rank(QMatrix.from_rows([rows[i][:cols] for i in idx], cols)) == size
    ]


def reference_caratheodory(rays, r: QVector) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """``polyhedra.caratheodory_simple_cone`` as it was before it solved
    with the cone multipliers: one general solve of the subset's transposed
    rays per independent subset, then a re-summing check.  Only the subsets'
    source differs: ``reference_independent_subsets``, in the walk's order."""
    if r.is_zero():
        return (), ()
    n = r.dim
    rows = [_integer_row(ray.entries) for ray in rays]
    for size in range(1, min(len(rays), n) + 1):
        for subset in reference_independent_subsets(rows, size, n):
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


def reference_tag(trace: SearchTrace) -> str:
    """``SearchTrace.tag`` as it was before it read the keys off
    ``_TAG_KEYS`` and the dataclass fields: each key spelled out."""

    def fmt(v: int | None) -> str:
        return "-" if v is None else str(v)

    orthant = "all" if trace.orthant is None else "".join("+" if s > 0 else "-" for s in trace.orthant)
    shift = "-" if trace.shift is None else (",".join(str(x) for x in trace.shift) or "()")
    parts = [
        f"orthant={orthant}",
        f"branch={trace.branch}",
        f"fiber={fmt(trace.fiber_index)}",
        f"family={fmt(trace.family_index)}",
        f"piece={fmt(trace.piece_index)}",
        f"ray={fmt(trace.ray_index)}",
        f"step={fmt(trace.step)}",
        f"shift={shift}",
        f"bound={fmt(trace.norm_bound)}",
    ]
    return ";".join(parts)


def reference_from_tag(tag: str) -> SearchTrace:
    """``SearchTrace.from_tag`` as it was before it read the keys off
    ``_TAG_KEYS`` and the dataclass fields: each key spelled out."""
    items = [item.split("=", 1) for item in tag.split(";")]
    if [item[0] for item in items] != list(_TAG_KEYS):
        raise ValueError(f"trace tag must have the fields {', '.join(_TAG_KEYS)} in this order")
    fields = dict(items)
    if fields["branch"] not in _BRANCHES:
        raise ValueError(f"unknown branch {fields['branch']!r}")
    if fields["orthant"] != "all" and not (fields["orthant"] and set(fields["orthant"]) <= {"+", "-"}):
        raise ValueError(f"orthant must be 'all' or a string of signs, got {fields['orthant']!r}")

    def opt_int(key: str) -> int | None:
        v = fields[key]
        return None if v == "-" else int(v)

    orthant = None
    if fields["orthant"] != "all":
        orthant = tuple(1 if ch == "+" else -1 for ch in fields["orthant"])
    shift = None
    if fields["shift"] != "-":
        raw = fields["shift"]
        shift = () if raw == "()" else tuple(int(x) for x in raw.split(","))
    trace = SearchTrace(
        orthant=orthant,
        branch=fields["branch"],
        fiber_index=opt_int("fiber"),
        family_index=opt_int("family"),
        piece_index=opt_int("piece"),
        ray_index=opt_int("ray"),
        step=opt_int("step"),
        shift=shift,
        norm_bound=opt_int("bound"),
    )
    if trace.tag() != tag:  # integers such as "+3", "03" or "1_0"
        raise ValueError(f"trace tag would be written back as {trace.tag()!r}")
    return trace


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


def reference_ceil_root(e: Fraction, disc: Fraction, g: Fraction) -> int:
    """ceil((e + sqrt(disc)) / g) computed exactly for disc >= 0, g > 0, by
    bisection on the condition g k - e >= sqrt(disc) itself.  The reference
    for the certifier's closed-form ``_ceil_root``."""
    assert disc >= 0 and g > 0
    hi = math.ceil((e + isqrt_ceil(disc)) / g)
    lo = math.floor(e / g) - 1  # below (e + 0)/g <= true root

    def reaches(k: int) -> bool:
        lhs = g * k - e
        return lhs >= 0 and lhs * lhs >= disc

    assert reaches(hi)
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_normalizing_hyperplane(rays) -> NormalizingHyperplane:
    """A normalizing hyperplane by search: every set of unit vectors,
    smallest first and in ``combinations`` order, with one ``h_to_v`` each,
    until the generators span R^n (no ``NotPointed``) and leave
    {w : w^T g >= 1} nonempty; f is its least vertex.  The reference for
    ``normalizing_hyperplane``, which reads the set off one subset walk."""
    rays = tuple(rays)
    if not rays:
        raise ValueError("at least one ray is required")
    n = rays[0].dim
    if any(r.is_zero() for r in rays):
        raise ValueError("zero vector is not a ray")
    for count in range(0, n + 1):
        for aug_idx in combinations(range(n), count):
            augmented = tuple(QVector.unit(i, n) for i in aug_idx)
            generators = rays + augmented
            feasible = HPolyhedron(
                QMatrix.from_rows([(-g).entries for g in generators], n),
                QVector.of([-1] * len(generators)),
            )
            try:
                vertices = h_to_v(feasible).vertices
            except NotPointed:
                continue  # the generators do not span R^n
            if not vertices:
                continue  # this augmentation broke pointedness
            f = vertices[0]
            assert all(f.dot(g) >= 1 for g in generators)
            return NormalizingHyperplane(f, augmented)
    raise ConeNotPointed("cone has no strictly separating functional")


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
    lam_max = 0 if disc < 0 else max(0, reference_ceil_root(-v2, disc, 2 * v1))
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
    """The QP pool's face-hull candidates in two stages on Fractions, a
    reference for ``qp._stationary_candidates``: each hull of an independent
    row subset of size below n as a particular point plus nullspace
    directions from ``reference_solve``, then the stationarity system of
    q reduced to those directions.  Also returns how many hulls carry a flat stationary set
    (consistent but not unique), which the pool skips."""
    n = p.dim
    rows = [row[:n] for row in p.integer_rows]
    candidates: list[QVector] = []
    flats = 0
    for size in range(n):
        for idx, _ in _independent_extensions(rows, size, n):
            sub = QMatrix.from_rows([p.a.entries[i] for i in idx], n)
            hull = reference_solve(sub, QVector.of(p.b[i] for i in idx))
            assert hull is not None  # independent rows are always consistent
            x0, directions = hull
            k = len(directions)
            h_dirs = [q.h.matvec(d) for d in directions]
            reduced_h = QMatrix.from_rows(
                [[2 * directions[i].dot(h_dirs[j]) for j in range(k)] for i in range(k)], k
            )
            grad0 = q.h.matvec(x0).scale(2) + q.c
            rhs = QVector.of(-directions[i].dot(grad0) for i in range(k))
            stat = reference_solve(reduced_h, rhs)
            if stat is None:
                continue
            if stat[1]:
                flats += 1
                continue
            x_s = x0
            for j in range(k):
                x_s = x_s + directions[j].scale(stat[0][j])
            if p.contains(x_s):
                candidates.append(x_s)
    return candidates, flats


def reference_kkt_candidates(q: QuadraticForm, p: HPolyhedron) -> tuple[list[QVector], list[int]]:
    """The QP pool's face-hull candidates with one ``reference_solve_rows``
    per hull on the full KKT rows [2H A_S^T; A_S 0] (x, y) = (-c, b_S), a walk
    per size, the reference for ``qp._stationary_candidates``, which solves
    each hull's reduced system from the walk's own elimination.  Also
    returns the hull dimension n - |S| of every subset whose KKT system has
    no unique solution."""
    n = p.dim
    int_rows = p.integer_rows
    h, hs, c, cs = q._integer_form
    # 2H x + A_S^T y = -c times hs cs, with A_S's rows scaled to integers;
    # y_j is free, so its column takes integer row j as it is (y rescaled)
    stationary = [[2 * cs * v for v in row] for row in h]
    minus_c = [-hs * v for v in c]
    candidates: list[QVector] = []
    singular: list[int] = []
    for size in range(n):
        for idx, _ in _independent_extensions(int_rows, size, n):
            kkt = [stationary[i] + [int_rows[j][i] for j in idx] + [minus_c[i]] for i in range(n)]
            kkt += [[*int_rows[j][:n], *[0] * size, int_rows[j][n]] for j in idx]
            solution = reference_solve_rows(kkt, n + size)
            if solution is None or solution[1]:
                singular.append(n - size)
                continue
            x = solution[0].take(n)
            if p.contains(x):
                candidates.append(x)
    return candidates, singular


def reference_cone_slice_min(h: QMatrix, rays, f: QVector) -> tuple[QpResult, int]:
    """The minimum of x^T H x over {x in cone(rays) : f . x = 1} with one
    ``reference_solve_rows`` per support T of independent rays on the KKT rows
    [2 G_TT f_T; f_T^T 0] (m_T, lam) = (0, 1), G = R^T H R, a walk per
    support size: the reference for ``qp.min_quadratic_on_cone_slice``,
    which solves each support's reduced system on the hull f_T . m_T = 1.
    f must be positive on every ray.  Also returns how many supports have
    no unique KKT solution."""
    n = f.dim
    ray_rows = [_integer_row(r.entries) for r in rays]
    *f_int, fs = _integer_row((*f.entries, 1))
    rates = [sum(a * b for a, b in zip(f_int, r)) for r in ray_rows]  # f . r_i times fs
    assert all(rate > 0 for rate in rates)
    h_int, hs, _, _ = QuadraticForm.pure(h)._integer_form
    h_rays = [[sum(a * b for a, b in zip(row, s)) for row in h_int] for s in ray_rows]
    gram = [[sum(a * b for a, b in zip(r, hr)) for hr in h_rays] for r in ray_rows]  # G times hs
    pool = []
    singular = 0
    for size in range(1, min(len(rays), n) + 1):
        for t, _ in _independent_extensions(ray_rows, size, n):
            g = [[gram[i][j] for j in t] for i in t]
            kkt = [[2 * v for v in row] + [rates[i], 0] for row, i in zip(g, t)] + [[rates[j] for j in t] + [0, fs]]
            solution = reference_solve_rows(kkt, size + 1)
            if solution is None or solution[1]:
                singular += 1
                continue
            m = solution[0].take(size)
            if min(m) >= 0:
                x = QVector(tuple(Fraction(sum(mj * ray_rows[i][c] for mj, i in zip(m, t))) for c in range(n)))
                value = sum(a * sum(v * b for v, b in zip(row, m)) for a, row in zip(m, g)) / hs
                pool.append((value, x))
    value, x = min(pool)
    return QpResult(x, value), singular
