import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from miqpcert import polyhedra
from miqpcert.cones import normalizing_hyperplane
from miqpcert.linalg import (
    QMatrix,
    QVector,
    _affine_hull,
    _dot,
    _independent_extensions,
    _integer_row,
    rank,
    solve_linear_system,
)
from miqpcert.polyhedra import (
    HPolyhedron,
    NotInCone,
    NotPointed,
    SimpleCone,
    VPolyhedron,
    caratheodory_simple_cone,
    faces_of_simple_cone,
    h_to_v,
    independent_row_subsets,
    is_pointed,
    iter_orthant_parts,
    polytope_hull,
    primitivize,
    recession_cone,
)
from miqpcert.linalg import encoding_size

from helpers import (
    cone_hull,
    hpoly,
    line_key,
    mat,
    reference_h_to_v,
    reference_lines,
    reference_solve_rows,
    sample_in_cone,
    sample_in_polytope,
    vec,
)


def unit_square():
    return hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])


def wedge():
    # x1 >= 1, 0 <= x2 <= x1
    return hpoly([[-1, 0], [0, -1], [-1, 1]], [-1, 0, 0])


def test_recession_cone_zeroes_rhs():
    p = hpoly([[1]], [5])
    rec = recession_cone(p)
    assert rec.b == QVector.zero(1)
    assert rec.a == p.a
    assert recession_cone(unit_square()).b == QVector.zero(4)
    rec_w = recession_cone(wedge())
    assert rec_w.b == QVector.zero(3)


def test_is_pointed():
    assert is_pointed(hpoly([[-1, 0], [0, -1]], [0, 0]))  # R^2_+
    assert not is_pointed(hpoly([[1, 0]], [0]))  # halfplane
    # rank 2, lineality {0}: pointed (confirmed by the lineality computation)
    tilted = hpoly([[1, 1], [1, -1]], [0, 0])
    assert is_pointed(tilted)
    lineality = solve_linear_system(tilted.a, QVector.zero(2))
    assert lineality.is_unique and lineality.particular.is_zero()


def test_orthant_split_counts_and_cover():
    line = HPolyhedron(QMatrix.zero(0, 1), QVector.of([]))
    parts = [part for _, part in iter_orthant_parts(line)]
    assert len(parts) == 2
    assert parts[0].contains(vec(3)) and not parts[0].contains(vec(-3))
    assert parts[1].contains(vec(-3))
    assert len(list(iter_orthant_parts(unit_square()))) == 4


def test_orthant_split_added_rows_linear_size():
    # each added sign row encodes in O(n) bits
    for n in range(1, 7):
        whole = HPolyhedron(QMatrix.zero(0, n), QVector.of([]))
        _, part = next(iter_orthant_parts(whole))
        for i in range(part.num_rows):
            assert encoding_size(part.a.row(i)).bits <= 3 * n + 5


def test_orthant_split_parts_are_pointed():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        p = HPolyhedron(QMatrix.from_rows(rows, n), QVector.of([rng.randint(-2, 4) for _ in rows]))
        for _, part in iter_orthant_parts(p):
            assert is_pointed(part)


def test_h_to_v_unit_square():
    v = h_to_v(unit_square())
    assert len(v.vertices) == 4 and not v.rays
    assert set(v.vertices) == {vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)}


def test_h_to_v_wedge():
    v = h_to_v(wedge())
    assert set(v.vertices) == {vec(1, 0), vec(1, 1)}
    assert set(v.rays) == {vec(1, 0), vec(1, 1)}


def test_h_to_v_halfline():
    v = h_to_v(hpoly([[-1]], [Fraction(-2, 3)]))
    assert v.vertices == (vec(Fraction(2, 3)),)
    assert v.rays == (vec(1),)


def test_h_to_v_requires_pointed():
    with pytest.raises(NotPointed):
        h_to_v(hpoly([[1, 0]], [0]))
    with pytest.raises(NotPointed):  # empty as well: x1 <= 0 and x1 >= 1 in R^2
        h_to_v(hpoly([[1, 0], [-1, 0]], [0, -1]))
    with pytest.raises(NotPointed):  # no rows: all of R^2
        h_to_v(HPolyhedron(QMatrix.zero(0, 2), QVector.zero(0)))


def test_h_to_v_empty_polyhedron():
    v = h_to_v(hpoly([[1], [-1]], [0, -1]))  # x <= 0 and x >= 1
    assert v.is_empty and not v.rays


def test_h_to_v_roundtrip_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = []
        rhs = []
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            sign = rng.choice([1, -1])
            rows.append([sign * u for u in unit])
            rhs.append(rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            rows.append([rng.randint(-3, 3) for _ in range(n)])
            rhs.append(rng.randint(-1, 4))
        p = hpoly(rows, rhs)
        if not is_pointed(p):
            continue
        v = h_to_v(p)
        for vert in v.vertices:
            assert p.contains(vert)
        for ray in v.rays:
            assert all(p.a.row(i).dot(ray) <= 0 for i in range(p.num_rows))
        if v.vertices:
            x = sample_in_polytope(rng, v.vertices)
            if v.rays:
                x = x + sample_in_cone(rng, v.rays)
            assert p.contains(x)


def test_recession_membership_samplewise():
    p = wedge()
    v = h_to_v(p)
    rec = recession_cone(p)
    rng = random.Random(1)
    for ray in v.rays:
        assert rec.contains(ray)
        x = sample_in_polytope(rng, v.vertices)
        for t in (0, 1, 7, Fraction(5, 2)):
            assert p.contains(x + ray.scale(t))
    assert not rec.contains(vec(-1, 0))


def test_caratheodory_examples():
    e1, e2 = vec(1, 0), vec(0, 1)
    k, mu = caratheodory_simple_cone([e1, e2], vec(2, 3))
    assert k == (0, 1) and mu == (Fraction(2), Fraction(3))
    k, mu = caratheodory_simple_cone([e1, e2, vec(1, 1)], vec(1, 1))
    combo = vec(0, 0)
    rays = [e1, e2, vec(1, 1)]
    for j, i in enumerate(k):
        combo = combo + rays[i].scale(mu[j])
    assert combo == vec(1, 1)
    with pytest.raises(NotInCone):
        caratheodory_simple_cone([e1], vec(0, 1))


def test_caratheodory_random_substitution():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 3)
        count = rng.randint(1, 4)
        rays = [vec(*[rng.randint(-2, 3) for _ in range(n)]) for _ in range(count)]
        rays = [r for r in rays if not r.is_zero()]
        if not rays:
            continue
        target = vec(*([0] * n))
        for r in rays:
            target = target + r.scale(Fraction(rng.randint(0, 3), rng.randint(1, 2)))
        k, mu = caratheodory_simple_cone(rays, target)
        assert rank(QMatrix.from_rows([rays[i].entries for i in k], n)) == len(k)
        combo = vec(*([0] * n))
        for j, i in enumerate(k):
            combo = combo + rays[i].scale(mu[j])
        assert combo == target and all(m >= 0 for m in mu)


def test_faces_of_simple_cone_counts():
    e1, e2, e3 = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    assert len(faces_of_simple_cone(SimpleCone((e1,)))) == 2
    assert len(faces_of_simple_cone(SimpleCone((e1, e2)))) == 4
    faces = faces_of_simple_cone(SimpleCone((e1, e2, e3)))
    assert len(faces) == 8
    assert any(not f.rays for f in faces)
    assert any(len(f.rays) == 3 for f in faces)


def test_primitivize():
    assert primitivize(vec(Fraction(1, 2), Fraction(3, 2))) == vec(1, 3)
    assert primitivize(vec(-2, 4)) == vec(-1, 2)
    with pytest.raises(ValueError):
        primitivize(vec(0, 0))


def test_polytope_hull_square_and_degenerate():
    pts = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1), vec(Fraction(1, 2), Fraction(1, 2))]
    hull = polytope_hull(pts)
    assert hull.num_rows == 4
    assert hull.contains(vec(Fraction(1, 3), Fraction(2, 3)))
    assert not hull.contains(vec(2, 0))
    # segment: affine-hull equalities plus two endpoints
    seg = polytope_hull([vec(0, 0), vec(2, 2)])
    assert seg.contains(vec(1, 1))
    assert not seg.contains(vec(1, 0))
    assert not seg.contains(vec(3, 3))
    point = polytope_hull([vec(1, 2)])
    assert point.contains(vec(1, 2))
    assert not point.contains(vec(1, 1))


def test_polytope_hull_matches_h_to_v():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        pts = [vec(*[Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]) for _ in range(rng.randint(1, 6))]
        hull = polytope_hull(pts)
        back = h_to_v(hull)
        assert set(back.vertices) <= set(pts)
        assert not back.rays
        for p in pts:
            assert hull.contains(p)


def test_simple_cone_h_form():
    hp = cone_hull((vec(1, 0, 0), vec(1, 2, 0)))
    assert hp.contains(vec(2, 2, 0))
    assert not hp.contains(vec(0, 0, 1))
    assert not hp.contains(vec(-1, 0, 0))
    assert hp.contains(vec(0, 0, 0))
    # seeded simple cones: primitive integral rows through the origin, every
    # ray inside, and the normalized slice is the simplex of scaled rays
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        rays = tuple(vec(*[rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(1, n)))
        if rank(QMatrix.from_rows([r.entries for r in rays], n)) != len(rays):
            continue
        checked += 1
        hp = cone_hull(rays)
        assert hp.b.is_zero()
        for i in range(hp.num_rows):
            row = hp.a.row(i)
            assert row.is_integral() and primitivize(row) == row
        assert all(hp.contains(r) for r in rays)
        f = normalizing_hyperplane(rays).f
        slice_v = h_to_v(hp.with_equality(f, Fraction(1)))
        assert not slice_v.rays
        assert set(slice_v.vertices) == {r.scale(1 / f.dot(r)) for r in rays}


def test_orthant_split_covers_samples():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        rhs = [rng.randint(0, 4) for _ in rows]
        p = hpoly(rows, rhs)
        parts = [part for _, part in iter_orthant_parts(p)]
        for _ in range(30):
            x = vec(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            if not p.contains(x):
                continue
            hits = [part for part in parts if part.contains(x)]
            assert hits, f"point {x} of the polyhedron missed every orthant part"


def _random_pointed_system(rng: random.Random, n: int, boxed: bool) -> HPolyhedron:
    """Rational rows of rank n, either a box (radius 1..3) with cuts that keep
    the origin, or free rows: often unbounded, sometimes empty."""
    while True:
        rows, rhs = [], []
        if boxed:
            radius = rng.randint(1, 3)
            for i in range(n):
                for sign in (1, -1):
                    rows.append([sign if j == i else 0 for j in range(n)])
                    rhs.append(radius)
        for _ in range(rng.randint(0, 3) if boxed else rng.randint(n, n + 3)):
            rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
            low = 0 if boxed else -2
            rhs.append(Fraction(rng.randint(low, 4), rng.randint(1, 3)))
        p = hpoly(rows, rhs)
        if is_pointed(p):
            return p


def test_row_scaling_changes_nothing():
    """Each row and its rhs times a random positive rational is the same
    system: the same vertices, rays and independent row subsets, and the
    same violated rows on points exactly on a row's hyperplane (the vertices
    on it, and its point nearest the origin) and 1/k off it."""
    rng = random.Random(5150)
    unbounded = tight_vertices = 0
    for trial in range(120):
        n = rng.randint(1, 3)
        p = _random_pointed_system(rng, n, boxed=trial % 2 == 1)
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(p.num_rows)]
        scaled = hpoly(
            [[v * f for v in row] for row, f in zip(p.a.entries, scales)],
            [b * f for b, f in zip(p.b, scales)],
        )
        vrep = h_to_v(p)
        assert h_to_v(scaled) == vrep
        unbounded += bool(vrep.rays)
        rows = [p.a.row(i) for i in range(p.num_rows)]
        for size in range(n + 1):
            assert list(independent_row_subsets(scaled.integer_rows, size, n)) == list(
                independent_row_subsets(p.integer_rows, size, n)
            )
        points = []
        for i, row in enumerate(rows):
            if row.is_zero():
                continue
            step = row.scale(1 / (rng.randint(1, 7) * row.dot(row)))  # moves row . x by 1/k
            on_row = [row.scale(p.b[i] / row.dot(row))]
            on_row += [v for v in vrep.vertices if row.dot(v) == p.b[i]]
            tight_vertices += len(on_row) - 1
            for x in on_row:
                points += [x, x + step, x - step]
        for x in points:
            expected = tuple(i for i, row in enumerate(rows) if row.dot(x) > p.b[i])
            assert p.violated_rows(x) == expected
            assert scaled.violated_rows(x) == expected
            assert scaled.contains(x) == (not expected)
    assert unbounded >= 20 and tight_vertices >= 500


def test_integer_rows_stay_out_of_equality():
    p = hpoly([[Fraction(1, 2), 3]], [Fraction(5, 4)])
    twin = hpoly([[Fraction(1, 2), 3]], [Fraction(5, 4)])
    assert p.integer_rows == ((2, 12, 5),)
    assert p == twin and hash(p) == hash(twin)
    assert p.integer_rows is p.integer_rows  # computed once per object


def test_vertex_box_stays_out_of_equality():
    v = VPolyhedron((vec(Fraction(1, 2), 3), vec(-1, 4), vec(2, Fraction(-1, 3))), (vec(1, 0),))
    twin = VPolyhedron(v.vertices, v.rays)
    assert v.vertex_box == ((-1, 2), (Fraction(-1, 3), 4))
    assert v.vertex_box is v.vertex_box  # computed once per object
    assert v == twin and hash(v) == hash(twin)


def test_lines_stay_out_of_equality():
    p = hpoly([[-1, 0], [0, -1], [-1, 1], [1, 1]], [-1, 0, 0, 6])
    twin = hpoly([[-1, 0], [0, -1], [-1, 1], [1, 1]], [-1, 0, 0, 6])
    v = h_to_v(p)
    bare = VPolyhedron(v.vertices, v.rays)
    assert len(v._lines) == 4 and not bare._lines
    assert v == bare and hash(v) == hash(bare) and repr(v) == repr(bare)
    assert p == twin and p is not twin and hash(p) == hash(twin) == hash(p.integer_rows)
    assert h_to_v(twin) is v  # one cache entry for equal polyhedra


def _differential_system(rng: random.Random, n: int, max_rows: int | None = None) -> HPolyhedron:
    """Rational rows in n unknowns, mixed with duplicate, parallel (a
    rational multiple of either sign) and all-zero rows.  One system in
    four is a pointed cone over 3-6 directions, shifted and cut, which
    gives more than n extreme rays; contradictory rows make some empty.
    n to n + 4 rows follow the cone's, or up to ``max_rows`` in all."""
    rows, rhs = [], []
    if n >= 2 and rng.random() < 0.25:
        for _ in range(rng.randint(3, 6)):
            direction = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows.append([*direction, -rng.randint(1, 3)])  # direction . x' <= k x_n
            rhs.append(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    for _ in range(rng.randint(n, n + 4) if max_rows is None else rng.randint(n, max_rows - len(rows))):
        kind = rng.random()
        if rows and kind < 0.15:
            i = rng.randrange(len(rows))
            rows.append(list(rows[i]))
            rhs.append(rhs[i] if rng.random() < 0.5 else rhs[i] + rng.randint(-2, 2))
        elif rows and kind < 0.3:
            i = rng.randrange(len(rows))
            factor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            rows.append([v * factor for v in rows[i]])
            rhs.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        elif kind < 0.37:
            rows.append([0] * n)
            rhs.append(rng.randint(-1, 2))  # a negative right-hand side empties the system
        else:
            rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
            rhs.append(Fraction(rng.randint(-2, 4), rng.randint(1, 3)))
    return hpoly(rows, rhs)


def test_h_to_v_matches_reference():
    """The vertex and ray passes back-substitute from the walk's own
    elimination and sign-test in integers; the reference solves each
    subset's system or nullspace separately and tests it in Fractions.  Same
    V-description, or NotPointed from both, on seeded systems in R^1..R^4,
    among them degenerate vertices (more than n rows tight) and parallel
    row pairs with different right-hand sides."""
    rng = random.Random(1515)
    with_rays = many_rays = empty = not_pointed = degenerate = parallel = 0
    for trial in range(360):
        p = _differential_system(rng, 1 + trial % 4)
        try:
            expected = reference_h_to_v(p)
        except NotPointed:
            not_pointed += 1
            with pytest.raises(NotPointed):
                h_to_v(p)
            continue
        got = h_to_v(p)
        assert got == expected, p
        empty += got.is_empty
        with_rays += bool(got.rays)
        many_rays += len(got.rays) > p.dim
        rows = p.a.entries
        for v in got.vertices:  # more than n rows tight
            degenerate += sum(p.a.row(i).dot(v) == p.b[i] for i in range(p.num_rows)) > p.dim
        parallel += any(
            any(rows[i]) and any(rows[j]) and rank(mat([rows[i], rows[j]])) == 1
            and rank(mat([(*rows[i], p.b[i]), (*rows[j], p.b[j])])) == 2
            for i, j in combinations(range(p.num_rows), 2)
        )
    assert with_rays >= 60 and many_rays >= 10 and empty >= 10 and not_pointed >= 10
    assert degenerate >= 50 and parallel >= 60


def _kept_line_key(line) -> tuple[frozenset, frozenset, frozenset]:
    """``line_key`` of one of h_to_v's lines, (subset, w0, d, scale, lo, hi)
    with x = (w0 + t d) / scale for lo <= t <= hi."""
    _, w0, d, scale, lo, hi = line
    ends = [
        QVector(tuple(Fraction(w * den + num * x, scale * den) for w, x in zip(w0, d)))
        for num, den in filter(None, (lo, hi))
    ]
    direction = QVector.of(d)
    unbounded = [end for end, t in ((-direction, lo), (direction, hi)) if t is None]
    return line_key(direction, ends, unbounded)


def test_line_walk_matches_reference(monkeypatch):
    """h_to_v's one walk over the independent (n-1)-subsets against two
    references on Fractions: the same V-description as reference_h_to_v,
    or NotPointed from both, and as kept lines exactly the reference lines
    that meet p, each with the same interval.  Seeded systems in R^1..R^5
    with up to 3n + 3 rows, among them degenerate vertices, parallel rows,
    and empty and non-pointed systems.  One walk: a hull back-substituted
    per line, none for anything else."""
    hulls = []

    def counted_hull(basis, n):
        hulls.append(n)
        return _affine_hull(basis, n)

    monkeypatch.setattr(polyhedra, "_affine_hull", counted_hull)
    rng = random.Random(1818)
    counts = Counter()
    for n in [1, 2, 3] * 50 + [4] * 30 + [5] * 5:  # the Fraction references dominate, most of all in R^5
        p = _differential_system(rng, n, 3 * n + 3)
        subsets = len(list(independent_row_subsets([row[:n] for row in p.integer_rows], n - 1, n)))
        hulls.clear()
        try:
            expected = reference_h_to_v(p)
        except NotPointed:
            counts["not pointed"] += 1
            with pytest.raises(NotPointed):
                h_to_v.__wrapped__(p)
            assert len(hulls) == subsets
            continue
        got = h_to_v.__wrapped__(p)
        assert len(hulls) == subsets
        assert got == expected, p
        lines, missed = reference_lines(p)
        assert {line[0]: _kept_line_key(line) for line in got._lines} == lines
        assert len(got._lines) == len(lines)
        counts["empty"] += got.is_empty
        counts["n = 1"] += n == 1 and not got.is_empty
        counts["with rays"] += bool(got.rays)
        counts["some line misses"] += missed > 0 and not got.is_empty
        rows = p.integer_rows
        for v in got.vertices:  # more than n rows tight
            *u, den = _integer_row((*v.entries, 1))
            counts["degenerate"] += sum(_dot(row, u) == row[-1] * den for row in rows) > n
        counts["parallel"] += any(  # nonzero rows with every 2 x 2 minor zero
            any(a[:n]) and any(b[:n]) and all(a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(n), 2))
            for a, b in combinations(rows, 2)
        )
    assert counts["not pointed"] >= 15 and counts["empty"] >= 60 and counts["n = 1"] >= 15, counts
    assert counts["with rays"] >= 40 and counts["some line misses"] >= 40, counts
    assert counts["degenerate"] >= 80 and counts["parallel"] >= 100, counts


def test_affine_hull_back_substitution():
    """Seeded integer rows with the right-hand side last, one of them
    parallel to another with a different right-hand side.  Walked with
    pivots in the n coefficient columns, they yield exactly the subsets of
    the rows without their right-hand sides, so the parallel pair is never
    chosen together.  Walked once with ``every_depth``, they yield the
    subsets of every size up to n with the same bases, each after its
    prefix.  For every independent (n-1)-subset the back-substituted line
    (w0 + t d) / scale has scale > 0, lies on the subset's rows, and d is
    nonzero and ± a multiple of the primitive nullspace vector of a separate
    elimination; for n = 1 the only subset is the empty one.  For every
    independent n-subset the hull has no direction, and w0 / scale is the
    subset's unique solution by a separate elimination."""
    rng = random.Random(77)
    rays = vertices = 0
    for n in range(1, 6):
        for _ in range(15):
            rows = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(rng.randint(max(n - 1, 1), n + 3))]
            twin = rng.randrange(len(rows))
            factor = rng.choice((-2, -1, 2))
            rows.append([factor * v for v in rows[twin][:n]] + [factor * rows[twin][n] + rng.randint(1, 3)])
            coefficients = [row[:n] for row in rows]
            for size in (n - 1, n):
                walked = [idx for idx, _ in _independent_extensions(rows, size, n, 0, [], [])]
                assert walked == list(independent_row_subsets(coefficients, size, n))
                assert not any({twin, len(rows) - 1} <= set(idx) for idx in walked)
            if n == 1:
                assert [idx for idx, _ in _independent_extensions(rows, 0, 1, 0, [], [])] == [()]
            every = [(idx, list(basis)) for idx, basis in _independent_extensions(rows, n, n, 0, [], [], every_depth=True)]
            per_size = [(idx, list(basis)) for size in range(n + 1) for idx, basis in _independent_extensions(rows, size, n, 0, [], [])]
            assert sorted(every) == sorted(per_size)
            position = {idx: i for i, (idx, _) in enumerate(every)}
            assert all(position[idx[:-1]] < position[idx] for idx in position if idx)
            for idx, basis in _independent_extensions(rows, n - 1, n, 0, [], []):
                w0, (d,), scale = _affine_hull(basis, n)
                assert scale > 0 and any(d)
                assert all(_dot(rows[i], w0) == rows[i][n] * scale and _dot(rows[i], d) == 0 for i in idx)
                null = reference_solve_rows([(*coefficients[i], 0) for i in idx], n)[1]
                assert len(null) == 1
                assert primitivize(QVector.of(d)) in (primitivize(null[0]), -primitivize(null[0]))
                rays += 1
            for idx, basis in _independent_extensions(rows, n, n, 0, [], []):
                w0, dirs, scale = _affine_hull(basis, n)
                assert not dirs and scale > 0
                solution = reference_solve_rows([rows[i] for i in idx], n)
                assert not solution[1]
                assert QVector(tuple(Fraction(x, scale) for x in w0)) == solution[0]
                vertices += 1
    assert rays >= 500 and vertices >= 400
