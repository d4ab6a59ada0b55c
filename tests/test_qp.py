import random
from collections import Counter
from fractions import Fraction

import pytest

from miqpcert import linalg, polyhedra, qp
from miqpcert.certifier import find_certificate, verify_certificate
from miqpcert.cones import normalizing_hyperplane
from miqpcert.linalg import QMatrix, QVector, _independent_extensions, rank
from miqpcert.polyhedra import HPolyhedron, NotPointed, SimpleCone, h_to_v
from miqpcert.qp import (
    EmptyFeasibleSet,
    QuadraticForm,
    Unbounded,
    _stationary_candidates,
    eval_quadratic,
    min_quadratic_on_cone_slice,
    qp_global_min,
    restrict_quadratic,
)

from helpers import (
    cone_hull,
    grid_min_scaled,
    hpoly,
    mat,
    random_bounded_polytope,
    random_boxed_instance,
    random_symmetric,
    reference_cone_slice_min,
    reference_eval_quadratic,
    reference_h_to_v,
    reference_kkt_candidates,
    reference_stationary_candidates,
    sample_in_polytope,
    vec,
)


def form(h, c, d):
    return QuadraticForm(QMatrix.from_rows(h), QVector.of(c), Fraction(d))


def _candidates(q: QuadraticForm, p: HPolyhedron) -> list:
    """The face-hull candidates of q on p, with q's integer form scaled as
    ``qp_global_min`` scales it: cs Ĥ and hs ĉ, the same stationary points."""
    h, hs, c, cs = q._integer_form
    return _stationary_candidates(p, [[cs * v for v in row] for row in h], [[hs * v for v in c]])[0]


def _points(pool) -> list[QVector]:
    """A pool's integer points (u, den) as the points u / den."""
    assert all(den > 0 for _, den in pool)
    return [QVector(tuple(Fraction(x, den) for x in u)) for u, den in pool]


def test_eval_examples():
    assert eval_quadratic(form([[0]], [0], 5), vec(9)) == 5
    assert eval_quadratic(form([[1]], [0], -1), vec(1)) == 0
    assert eval_quadratic(form([[1, -1], [-1, 1]], [0, 0], 0), vec(3, 1)) == 4


def _rational(rng: random.Random, size: int = 6) -> Fraction:
    return Fraction(rng.randint(-size, size), rng.randint(1, 6))


def test_eval_quadratic_matches_fraction_reference():
    # the integer sum (u^T Ĥ u cs + ĉ . u hs D) / (hs cs D^2) + d against
    # x . Hx + c . x + d in Fractions, on rational data and rational points;
    # restrict_quadratic's form must give the full form's value at (y, z)
    rng = random.Random(3141)
    restricted = 0
    for trial in range(600):
        n = rng.randint(1, 5)
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = _rational(rng) if trial % 5 else Fraction(rng.randint(-3, 3))
        c = [_rational(rng) if trial % 3 else Fraction(0) for _ in range(n)]
        q = form(h, c, _rational(rng))
        x = vec(*[_rational(rng, 9) if trial % 4 else rng.randint(-3, 3) for _ in range(n)])
        assert eval_quadratic(q, x) == reference_eval_quadratic(q, x)
        assert eval_quadratic(q, QVector.zero(n)) == q.d
        if n > 1:
            k = rng.randint(1, n - 1)
            inner = restrict_quadratic(q, x.take(k))
            z = vec(*[_rational(rng, 9) for _ in range(n - k)])
            assert eval_quadratic(inner, z) == reference_eval_quadratic(q, x.take(k).concat(z))
            assert eval_quadratic(inner, x.drop(k)) == reference_eval_quadratic(q, x)
            restricted += 1
    assert restricted >= 400


def test_symmetry_required():
    with pytest.raises(ValueError):
        form([[0, 1], [2, 0]], [0, 0], 0)


def test_qp_interior_minimum():
    # min x^2 - x over [0, 1]: calculus oracle gives x = 1/2, value -1/4
    res = qp_global_min(form([[1]], [-1], 0), hpoly([[1], [-1]], [1, 0]))
    assert res.minimizer == vec(Fraction(1, 2))
    assert res.value == Fraction(-1, 4)


def test_qp_concave_vertex_minimum():
    # min -x^2 over [-1, 2]: endpoints give -1 and -4
    res = qp_global_min(form([[-1]], [0], 0), hpoly([[1], [-1]], [2, 1]))
    assert res.minimizer == vec(2)
    assert res.value == Fraction(-4)


def test_qp_constant_form():
    res = qp_global_min(form([[0, 0], [0, 0]], [0, 0], 7), hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]))
    assert res.value == 7


def test_qp_refuses_unbounded_and_empty():
    with pytest.raises(Unbounded):
        qp_global_min(form([[1]], [0], 0), hpoly([[-1]], [0]))
    with pytest.raises(EmptyFeasibleSet):
        qp_global_min(form([[1]], [0], 0), hpoly([[1], [-1]], [0, -1]))


def test_qp_flat_stationary_set():
    # (x1 - x2)^2 over the square: the whole diagonal is optimal; pick a point
    res = qp_global_min(form([[1, -1], [-1, 1]], [0, 0], 0), hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]))
    assert res.value == 0
    assert res.minimizer[0] == res.minimizer[1]


def test_qp_flat_stationary_sets_exact_references():
    # rank-deficient forms whose stationary sets on most faces are flats;
    # the references come from h_to_v alone, not from the QP kernel.  Each
    # form is a function of the level g . x, so its optimal set is P cut at
    # the optimal levels, and the minimizer must be the least point of that
    # set: the least vertex of P ∩ {g . x = c} over the optimal levels c
    rng = random.Random(4242)
    flat_optima = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        poly = random_bounded_polytope(rng, n)
        g = [0] * n
        while not any(g):
            g = [rng.randint(-3, 3) for _ in range(n)]
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        gvec = QVector.of(g)
        gg = [[a * b for b in g] for a in g]
        square = form(gg, [-2 * t * a for a in g], t * t)
        negated = form([[-v for v in row] for row in gg], [2 * t * a for a in g], -t * t)
        linear = form([[0] * n for _ in range(n)], g, t)
        verts = h_to_v(poly).vertices
        on_plane = not h_to_v(poly.with_equality(gvec, t)).is_empty
        flat_optima += on_plane and n > 1
        levels = {gvec.dot(v) for v in verts} | ({t} if on_plane else set())
        for q, at_level in (
            (square, lambda c: (c - t) ** 2),
            (negated, lambda c: -((c - t) ** 2)),
            (linear, lambda c: c + t),
        ):
            least_vertex = min(eval_quadratic(q, v) for v in verts)
            expected = 0 if q is square and on_plane else least_vertex
            res = qp_global_min(q, poly)
            assert res.value == expected
            assert poly.contains(res.minimizer)
            assert eval_quadratic(q, res.minimizer) == res.value
            optimal_levels = [c for c in levels if at_level(c) == expected]
            least = min(min(h_to_v(poly.with_equality(gvec, c)).vertices) for c in optimal_levels)
            assert res.minimizer == least
    assert flat_optima >= 50


def _random_hessian(rng: random.Random, n: int, kind: str) -> list[list[int]]:
    if kind == "definite":  # G^T G + I
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        return [[sum(r[i] * r[j] for r in g) + (i == j) for j in range(n)] for i in range(n)]
    if kind == "indefinite":  # a positive and a negative diagonal entry
        while True:
            h = random_symmetric(rng, n, -3, 3)
            if min(h[i][i] for i in range(n)) < 0 < max(h[i][i] for i in range(n)):
                return h
    if kind == "rank-one":  # +-u u^T
        u = [0] * n
        while not any(u):
            u = [rng.randint(-2, 2) for _ in range(n)]
        sign = rng.choice((1, -1))
        return [[sign * a * b for b in u] for a in u]
    return [[0] * n for _ in range(n)]


def _random_cone_slab(rng: random.Random, n: int):
    """{x >= 0, r . x <= 0 for a few random r, f . x = 1} with f > 0, the
    shape of a cone slice; None when it is empty."""
    rows = [[-int(i == j) for j in range(n)] for i in range(n)]
    rows += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    f = vec(*[rng.randint(1, 3) for _ in range(n)])
    slab = hpoly(rows, [0] * len(rows)).with_equality(f, Fraction(1))
    return None if h_to_v(slab).is_empty else slab


def _rational_data(rng: random.Random, h, c, poly):
    """Rational H, c and rows with the same kinds: H congruent to D H D for
    a rational diagonal D (same inertia), c over denominators up to 6, each
    row of the polyhedron times its own positive rational, plus, half the
    time, one cut with rational entries and a non-negative right-hand side."""
    n = len(c)
    d = [Fraction(rng.randint(1, 3), rng.randint(1, 4)) for _ in range(n)]
    h = [[d[i] * h[i][j] * d[j] for j in range(n)] for i in range(n)]
    c = [Fraction(v, rng.randint(1, 6)) for v in c]
    scales = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(poly.num_rows)]
    rows = [[s * v for v in row] for s, row in zip(scales, poly.a.entries)]
    rhs = [s * v for s, v in zip(scales, poly.b)]
    if rng.random() < 0.5:
        rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)])
        rhs.append(Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    return h, c, hpoly(rows, rhs)


def _moved_rhs(rng: random.Random, poly, shape: str, rational: bool) -> list:
    """A new right-hand side for the rows of poly whose polyhedron is still
    nonempty: a polytope's rows loosened by up to 2 each, or a slab dilated
    by t > 0 (which keeps its equality), then translated by a random shift s
    (b + A s)."""
    n = poly.dim
    if shape == "polytope":
        b = [v + rng.randint(0, 2) for v in poly.b]
    else:
        t = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        b = [t * v for v in poly.b]
    s = vec(*[_rational(rng, 3) if rational else rng.randint(-2, 2) for _ in range(n)])
    return [v + w for v, w in zip(b, poly.a.matvec(s))]


def test_kkt_pool_matches_two_stage_reference():
    # the hull-coordinate pool against two references, both in Fractions:
    # one KKT solve per face hull, and hull-then-reduced-system.  The same candidates, on polytopes and on cone-slice slabs,
    # with integer data and with rational H, c and rows (which the pool
    # rescales to integers), 20 (c, b) pairs per (H, A).  Rank-one and zero
    # forms leave the reduced system of hulls of dimension >= 2 singular
    # (its rank is at most one).  In many cases some line of an independent
    # (n-1)-subset misses the moved polytope
    rng = random.Random(8080)
    for rational in (False, True):
        matrices = cases = flats = singular = misses = 0
        for kind in ("definite", "indefinite", "rank-one", "zero"):
            for shape in ("polytope", "slab"):
                for _ in range(6):
                    n = rng.randint(2 if kind == "indefinite" else 1, 3)
                    if shape == "polytope":
                        poly = random_bounded_polytope(rng, n)
                    else:
                        poly = _random_cone_slab(rng, n)
                    if poly is None:
                        continue
                    h = _random_hessian(rng, n, kind)
                    if rational:
                        h, _, poly = _rational_data(rng, h, [0] * n, poly)
                        if h_to_v(poly).is_empty:
                            continue
                    matrices += 1
                    for _ in range(20):
                        c = [0] * n if rng.random() < 0.3 else [rng.randint(-4, 4) for _ in range(n)]
                        if rational:
                            c = [Fraction(v, rng.randint(1, 6)) for v in c]
                        moved = HPolyhedron(poly.a, QVector.of(_moved_rhs(rng, poly, shape, rational)))
                        q = form(h, c, 0)
                        expected, flat = reference_stationary_candidates(q, moved)
                        kkt, singular_dims = reference_kkt_candidates(q, moved)
                        got = _points(_candidates(q, moved))
                        assert sorted(got) == sorted(expected) == sorted(kkt)
                        cases += 1
                        lines = _independent_extensions([row[:n] for row in moved.integer_rows], n - 1, n)
                        misses += len(h_to_v(moved)._lines) < len(list(lines))
                        flats += flat > 0
                        if kind in ("rank-one", "zero"):
                            singular += sum(k >= 2 for k in singular_dims)
        assert matrices >= 36
        assert cases >= 700
        assert flats >= 30
        assert singular >= 600
        assert misses >= 250  # the pool's lines come from h_to_v, which keeps only those that meet p


def _across_segment(rng: random.Random, vertices) -> tuple[QVector, QVector]:
    """(v, u) for two random vertices v and w and a u orthogonal to w - v:
    w - v turned a quarter in R^2, (w - v) x r for a random r in R^3 (which
    may be zero)."""
    v, w = rng.sample(vertices, 2)
    e = w - v
    if e.dim == 2:
        return v, vec(-e[1], e[0])
    r = vec(*[rng.randint(-2, 2) for _ in range(3)])
    return v, vec(e[1] * r[2] - e[2] * r[1], e[2] * r[0] - e[0] * r[2], e[0] * r[1] - e[1] * r[0])


def test_qp_global_min_matches_fraction_pool_reference():
    # the integer pool, valued and compared by cross-multiplication, against
    # min((value, x)) over the pool in Fractions: reference_h_to_v's vertices
    # and reference_stationary_candidates' points, valued by
    # reference_eval_quadratic.  Zero forms, linear forms orthogonal to an
    # edge and squares that vanish on a segment between two vertices tie at
    # several pool points, so the tie-break on x decides there
    rng = random.Random(7272)
    cases = ties = 0
    for rational in (False, True):
        for kind in ("definite", "indefinite", "rank-one", "zero", "edge-linear", "segment-flat"):
            for _ in range(25):
                n = rng.randint(1 if kind in ("definite", "rank-one", "zero") else 2, 3)
                poly = random_bounded_polytope(rng, n)
                h = _random_hessian(rng, n, "zero" if kind.startswith(("edge", "segment")) else kind)
                c = [rng.randint(-4, 4) for _ in range(n)] if kind in ("definite", "indefinite", "rank-one") else [0] * n
                if rational:
                    h, c, poly = _rational_data(rng, h, c, poly)
                vertices = list(h_to_v(poly).vertices)
                if len(vertices) < 2:
                    continue
                q = form(h, c, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                if kind in ("edge-linear", "segment-flat"):
                    v, u = _across_segment(rng, vertices)
                    if u.is_zero():
                        continue
                    if kind == "edge-linear":  # u . x, constant along the segment
                        q = QuadraticForm(q.h, u, q.d)
                    else:  # (u . x - u . v)^2, zero on the segment and nowhere negative
                        t = u.dot(v)
                        q = QuadraticForm(mat([[a * b for b in u] for a in u]), u.scale(-2 * t), t * t)
                pool = [*reference_h_to_v(poly).vertices, *reference_stationary_candidates(q, poly)[0]]
                value, x = min((reference_eval_quadratic(q, x), x) for x in pool)
                assert qp_global_min(q, poly) == qp.QpResult(x, value)
                ties += len({y for y in pool if reference_eval_quadratic(q, y) == value}) > 1
                cases += 1
    assert cases >= 280 and ties >= 100


def test_pool_min_matches_one_qp_per_linear_term():
    # one shared pool for several linear terms against one qp_global_min per
    # term: the least (value, minimizer) over the terms, value and point, on
    # random polytopes and on boxes cut by one positive row, the shape of the
    # window relaxation.  A term comes twice, and one comes reversed: on a
    # window symmetric in its coordinates, with a symmetric form, its least
    # point is the mirror of the original's at the same value, so the tie
    # across terms goes to the lexicographically least point
    rng = random.Random(6262)
    cases = ties = 0
    for kind in ("definite", "indefinite", "rank-one", "zero"):
        for shape in ("polytope", "window"):
            for _ in range(30):
                n = rng.randint(2 if kind == "indefinite" else 1, 3)
                width = 1 if shape == "window" and rng.random() < 0.5 else n  # 1: symmetric in the coordinates
                if shape == "polytope":
                    poly = random_bounded_polytope(rng, n)
                else:
                    lo = [rng.randint(0, 3) for _ in range(width)] * (n // width)
                    hi = [low + rng.randint(0, 3) for low in lo[:width]] * (n // width)
                    f = [rng.randint(1, 4) for _ in range(width)] * (n // width)
                    cap = sum(a * low for a, low in zip(f, lo)) + rng.randint(0, 8)
                    rows = [[sign * (i == j) for j in range(n)] for i in range(n) for sign in (1, -1)]
                    rhs = [end for low, high in zip(lo, hi) for end in (high, -low)]
                    poly = hpoly(rows + [f], rhs + [cap])
                h = _random_hessian(rng, n, kind)
                if width == 1 and kind != "zero":  # a on the diagonal, b off it
                    a, b = (rng.randint(-2, 3) for _ in range(2))
                    h = [[a if i == j else b for j in range(n)] for i in range(n)]
                terms = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 6))]
                terms += [rng.choice(terms), terms[0][::-1]]
                value, u, den = qp._pool_min(poly, h, terms)
                results = [qp_global_min(form(h, c, 0), poly) for c in terms]
                expected = min((r.value, r.minimizer) for r in results)
                assert (Fraction(value, den * den), QVector(tuple(Fraction(x, den) for x in u))) == expected
                ties += len({r.minimizer for r in results if r.value == expected[0]}) > 1
                cases += 1
    assert cases == 240 and ties >= 15


def test_qp_minimizer_deterministic_lex():
    # -x1^2 - x2^2 over the square: all four corners tie at -2... only (1,1); use a
    # symmetric concave form with ties: -(x1 - x2)^2 has value -1 at two corners
    res = qp_global_min(form([[-1, 1], [1, -1]], [0, 0], 0), hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]))
    assert res.value == -1
    assert res.minimizer == vec(0, 1)  # lexicographically before (1, 0)


def test_qp_value_below_feasible_samples():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 3)
        poly = random_bounded_polytope(rng, n)
        q = form(random_symmetric(rng, n), [rng.randint(-5, 5) for _ in range(n)], rng.randint(-5, 5))
        res = qp_global_min(q, poly)
        assert poly.contains(res.minimizer)
        assert eval_quadratic(q, res.minimizer) == res.value
        verts = h_to_v(poly).vertices
        for _ in range(70):
            x = sample_in_polytope(rng, verts)
            assert res.value <= eval_quadratic(q, x)


def test_qp_psd_nonnegative():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 3)
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        h = [[sum(g[k][i] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        poly = random_bounded_polytope(rng, n)
        res = qp_global_min(form(h, [0] * n, 0), poly)
        assert res.value >= 0


def test_qp_grid_agreement():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 3)
        poly = random_bounded_polytope(rng, n)
        q = form(random_symmetric(rng, n), [rng.randint(-5, 5) for _ in range(n)], rng.randint(-5, 5))
        res = qp_global_min(q, poly)
        verts = h_to_v(poly).vertices
        bounds = []
        for t in range(n):
            values = [v[t] for v in verts]
            bounds.append((int(min(values).__floor__()), int(max(values).__ceil__())))
        grid_min, count = grid_min_scaled(q, poly, bounds)
        assert count > 0
        assert res.value * 64 <= grid_min


def test_cone_slice_examples():
    quadrant = h_to_v(hpoly([[-1, 0], [0, -1]], [0, 0])).rays
    res = min_quadratic_on_cone_slice(QMatrix.identity(2), quadrant, vec(1, 1))
    assert res.minimizer == vec(Fraction(1, 2), Fraction(1, 2)) and res.value == Fraction(1, 2)
    res = min_quadratic_on_cone_slice(mat([[1, 0], [0, -1]]), quadrant, vec(1, 1))
    assert res.minimizer == vec(0, 1) and res.value == -1
    res = min_quadratic_on_cone_slice(QMatrix.zero(2, 2), quadrant, vec(1, 1))
    assert res.value == 0


def test_cone_slice_accepts_simple_cone():
    cone = SimpleCone((vec(1, 0), vec(1, 1)))
    res = min_quadratic_on_cone_slice(QMatrix.identity(2), cone.rays, vec(1, 0))
    assert res.value > 0


def _orthogonal(w: QVector, r: QVector) -> QVector:
    """w less its component along r, times r . r."""
    return w.scale(r.dot(r)) - r.scale(w.dot(r))


def test_simplex_slice_matches_h_form_reference():
    # a simple cone's slice minimized in its ray multipliers against the
    # slab of its H-form: the same value and the same minimizer, the least
    # optimal x.  Zero forms, and the PSD forms u u^T with u orthogonal to
    # the first two rays, are optimal on a whole face, where breaking ties on
    # the multipliers instead of on x would pick another point.  The
    # non-simple cones are the extreme rays of random pointed H-cones, k > n
    # of them in R^3, where many multipliers map to one x
    rng = random.Random(9090)
    cases = ties = non_simple = 0
    for kind in ("definite", "indefinite", "low-rank psd", "zero", "non-simple"):
        for _ in range(120):
            if kind == "non-simple":
                # rows a with a_n of one sign s, so (0, .., 0, s) is interior
                n, s = rng.randint(2, 3), rng.choice((1, -1))
                rows = [
                    [rng.randint(-3, 3) for _ in range(n - 1)] + [-s * rng.randint(1, 3)]
                    for _ in range(rng.randint(n + 1, 7))
                ]
                try:
                    rays = h_to_v(hpoly(rows, [0] * len(rows))).rays
                except NotPointed:
                    continue
                non_simple += len(rays) > n
            else:
                n = rng.randint(2 if kind == "indefinite" else 1, 4)
                k = rng.randint(1, n)
                rays = tuple(vec(*[rng.randint(-3, 3) for _ in range(n)]) for _ in range(k))
                if rank(QMatrix.from_rows([r.entries for r in rays], n)) < k:
                    continue
            if kind == "low-rank psd":  # u u^T, u orthogonal to the first ray or two
                u = _orthogonal(vec(*[rng.randint(-2, 2) for _ in range(n)]), rays[0])
                if k > 1:
                    u = _orthogonal(u, _orthogonal(rays[1], rays[0]))
                h = QMatrix.from_rows([[a * b for b in u] for a in u])
            elif kind == "non-simple":
                h = QMatrix.from_rows(_random_hessian(rng, n, rng.choice(("definite", "indefinite", "rank-one"))))
            else:
                h = QMatrix.from_rows(_random_hessian(rng, n, kind))
            f = normalizing_hyperplane(rays).f
            slab = cone_hull(rays).with_equality(f, Fraction(1))
            expected = qp_global_min(QuadraticForm.pure(h), slab)
            got = min_quadratic_on_cone_slice(h, rays, f)
            assert (got.value, got.minimizer) == (expected.value, expected.minimizer)
            q = QuadraticForm.pure(h)
            pool = [*h_to_v(slab)._ends, *_candidates(q, slab)]
            optimal = {x for x in _points(pool) if eval_quadratic(q, x) == expected.value}
            ties += len(optimal) > 1
            cases += 1
    assert cases >= 400 and ties >= 100 and non_simple >= 40


def test_cone_slice_matches_support_kkt_reference():
    # the hull-coordinate support pool against one KKT solve per support
    # in Fractions: the same value and minimizer.  Rays are random
    # integer vectors with f . r > 0, often more of them than n and often
    # dependent, and f is rational half the time; supports whose KKT system
    # is singular, which zero and rank-one forms give on larger supports,
    # are skipped by both
    rng = random.Random(7171)
    hits = Counter()
    for kind in ("definite", "indefinite", "rank-one", "zero"):
        for trial in range(120):
            n = rng.randint(2 if kind == "indefinite" else 1, 4)
            f = vec(*[rng.randint(-2, 4) for _ in range(n)])
            if trial % 2:
                f = vec(*[Fraction(v, rng.randint(1, 5)) for v in f])
            if f.is_zero():
                continue
            k, rays = rng.randint(1, n + 3), []
            while len(rays) < k:
                r = vec(*[rng.randint(-3, 3) for _ in range(n)])
                if f.dot(r) > 0:
                    rays.append(r)
            h = QMatrix.from_rows(_random_hessian(rng, n, kind))
            expected, singular = reference_cone_slice_min(h, rays, f)
            got = min_quadratic_on_cone_slice(h, rays, f)
            assert (got.value, got.minimizer) == (expected.value, expected.minimizer)
            hits[kind] += 1
            hits["k > n"] += len(rays) > n
            hits["rational f"] += not f.is_integral()
            hits[f"singular, {kind}"] += singular > 0
    assert all(hits[kind] >= 100 for kind in ("definite", "indefinite", "rank-one", "zero")), hits
    assert hits["k > n"] >= 200 and hits["rational f"] >= 150, hits
    assert hits["singular, zero"] >= 50 and hits["singular, rank-one"] >= 30, hits


def test_cone_slice_vertices_in_closed_form(monkeypatch):
    # the slice's vertices r_i / (f . r_i) are valued without a hull solve:
    # k independent rays make one _hull_stationary_point call per support of
    # two or more, 2^k - k - 1, and one ray makes none.  Where vertices tie
    # with each other or with a face's stationary point, the least x wins
    calls = Counter()
    solve = qp._hull_stationary_point

    def counted(*args):
        calls["hulls"] += 1
        return solve(*args)

    monkeypatch.setattr(qp, "_hull_stationary_point", counted)
    e1, e2, e3 = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    cases = [
        # (H, rays, f, least minimizer, value, hull solves)
        (mat([[-2, 1], [1, 3]]), [vec(2, 1)], vec(1, Fraction(1, 3)), vec(Fraction(6, 7), Fraction(3, 7)), Fraction(-9, 49), 0),
        (mat([[0, 0], [0, 0]]), [vec(3, 1), vec(1, 2)], vec(1, 1), vec(Fraction(1, 3), Fraction(2, 3)), 0, 1),
        # 0 on the slice but not on R^3: e3 e3^T on the cone of e1 and e2
        (mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]]), [e1, e2], vec(1, 1, 1), e2, 0, 1),
        # (x1 + x2)^2 is 1 along the whole edge: its hull is singular, the two vertices tie
        (mat([[1, 1], [1, 1]]), [vec(1, 0), vec(0, 1)], vec(1, 1), vec(0, 1), 1, 1),
        # (x1 - x2)^2 is 0 at the vertex e3 and at the edge point (1/2, 1/2, 0): the vertex is less
        (mat([[1, -1, 0], [-1, 1, 0], [0, 0, 0]]), [e1, e2, e3], vec(1, 1, 1), e3, 0, 4),
        # (x2 - x3)^2 is 0 at the vertex e1 and at the edge point (0, 1/2, 1/2): the edge point is less
        (mat([[0, 0, 0], [0, 1, -1], [0, -1, 1]]), [e1, e2, e3], vec(1, 1, 1), vec(0, Fraction(1, 2), Fraction(1, 2)), 0, 4),
        # (x1 + x2)^2 + 2 x3^2 is flat along the edge x3 = 0 and least at
        # x3 = 1/3 on the two edges through e3: a segment of minimizers
        (mat([[1, 1, 0], [1, 1, 0], [0, 0, 2]]), [e1, e2, e3], vec(1, 1, 1), vec(0, Fraction(2, 3), Fraction(1, 3)), Fraction(2, 3), 4),
        # four rays in R^3, one of them twice (the same vertex from two rays)
        (mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), [vec(1, 0, 1), vec(0, 1, 1), vec(0, 1, 1), vec(-1, 0, 1)], e3, vec(-1, 0, 1), 0, 7),
    ]
    for h, rays, f, minimizer, value, hulls in cases:
        calls.clear()
        got = min_quadratic_on_cone_slice(h, rays, f)
        expected, _ = reference_cone_slice_min(h, rays, f)
        assert (got.minimizer, got.value) == (expected.minimizer, expected.value) == (minimizer, value)
        assert calls["hulls"] == hulls, (rays, calls)


def test_cone_slice_rejects_bad_hyperplane():
    quadrant = h_to_v(hpoly([[-1, 0], [0, -1]], [0, 0])).rays
    with pytest.raises(Unbounded):
        min_quadratic_on_cone_slice(QMatrix.identity(2), quadrant, vec(1, -1))
    with pytest.raises(EmptyFeasibleSet):  # f . r <= 0 on every ray: the slice is empty
        min_quadratic_on_cone_slice(QMatrix.identity(2), quadrant, vec(-1, 0))


@pytest.mark.parametrize(
    "h_dim, ray_dim, f_dim",
    [
        (2, 3, 2),  # rays longer than H and f: once a 2-D "minimizer"
        (2, 2, 3),  # f longer than H and the rays: once an IndexError
        (3, 2, 2),  # H larger than the rays and f: once minimized on H's leading block
        (2, 2, 1),
    ],
)
def test_cone_slice_rejects_mismatched_dimensions(h_dim, ray_dim, f_dim):
    rays = [QVector.unit(i, ray_dim) for i in range(ray_dim)]
    f = vec(*[1] * f_dim)
    with pytest.raises(linalg.DimensionMismatch):
        min_quadratic_on_cone_slice(QMatrix.identity(h_dim), rays, f)
    mixed = rays[:1] + [QVector.unit(0, ray_dim + 1)]  # one ray in another space than the rest
    with pytest.raises(linalg.DimensionMismatch):
        min_quadratic_on_cone_slice(QMatrix.identity(ray_dim), mixed, vec(*[1] * ray_dim))


def test_restrict_quadratic_matches_eval():
    # q(y, z + offset) for prefixes of every length k < n, the empty one
    # included, with and without an offset; k = n leaves nothing to restrict.
    # Integer and rational H, c and d: the restricted form's values and
    # gradient are computed from q's integer form, and its own integer form
    # must be the one its Fractions give
    rng = random.Random(53)
    checked = {"empty": 0, "offset": 0, "rational": 0, "h scale falls": 0}
    for trial in range(160):
        n = rng.randint(1, 4)
        p = rng.randint(0, n - 1)
        h, c, d = random_symmetric(rng, n), [rng.randint(-4, 4) for _ in range(n)], rng.randint(-4, 4)
        if trial % 2:
            dens = [[rng.randint(1, 4) for _ in range(n)] for _ in range(n)]
            h = [[Fraction(h[i][j], dens[min(i, j)][max(i, j)]) for j in range(n)] for i in range(n)]
            c = [Fraction(v, rng.randint(1, 6)) for v in c]
            d = Fraction(d, rng.randint(1, 6))
        q = form(h, c, d)
        y = vec(*[rng.randint(-3, 3) for _ in range(p)])
        offset = vec(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n - p)])
        reduced = restrict_quadratic(q, y)
        moved = restrict_quadratic(q, y, offset)
        for r in (reduced, moved):
            assert r._integer_form == QuadraticForm(r.h, r.c, r.d)._integer_form
        for _ in range(3):
            z = vec(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n - p)])
            assert eval_quadratic(reduced, z) == reference_eval_quadratic(q, y.concat(z))
            assert eval_quadratic(moved, z) == reference_eval_quadratic(q, y.concat(z + offset))
        checked["empty"] += p == 0
        checked["offset"] += not offset.is_zero()
        checked["rational"] += not (q.c.is_integral() and q.d.denominator == 1)
        checked["h scale falls"] += reduced._integer_form[1] < q._integer_form[1]
        with pytest.raises(ValueError):
            restrict_quadratic(q, q.c)
    assert checked["empty"] >= 40 and checked["offset"] >= 120
    assert checked["rational"] >= 60 and checked["h scale falls"] >= 20


def test_qp_makes_no_solve_integer_calls(monkeypatch):
    # both pools solve in the hulls' own coordinates from the subset walk,
    # so the general solver never runs, through any module that binds it:
    # not in the QP kernel, and not in a boxed instance solved end to end
    # from a cold h_to_v cache
    def refuse(*_args):
        raise AssertionError("solve_linear_system called")

    monkeypatch.setattr(linalg, "solve_linear_system", refuse)
    assert not hasattr(qp, "solve_linear_system") and not hasattr(polyhedra, "solve_linear_system")
    rng = random.Random(6262)
    for _ in range(40):
        n = rng.randint(1, 3)
        q = form(random_symmetric(rng, n), [rng.randint(-5, 5) for _ in range(n)], 0)
        res = qp_global_min(q, random_bounded_polytope(rng, n))
        assert eval_quadratic(q, res.minimizer) == res.value
        f = vec(*[rng.randint(1, 3) for _ in range(n)])
        rays = [vec(*[rng.randint(0, 3) for _ in range(n)]) for _ in range(rng.randint(1, n + 2))]
        rays = [r for r in rays if not r.is_zero()] or [f]
        res = min_quadratic_on_cone_slice(mat(random_symmetric(rng, n)), rays, f)
        assert f.dot(res.minimizer) == 1
    solved = 0
    while solved < 3:
        inst, _ = random_boxed_instance(rng)
        if inst.dim - inst.integer_count < 2:
            continue
        h_to_v.cache_clear()
        cert = find_certificate(inst)
        assert cert is None or verify_certificate(inst, cert.point).ok
        solved += 1
