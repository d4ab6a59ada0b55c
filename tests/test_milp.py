import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from miqpcert import milp
from miqpcert.cones import normalizing_hyperplane
from miqpcert.linalg import QMatrix, QVector, _integer_row, rank
from miqpcert.milp import (
    FiberLimit,
    MixedIntegerSet,
    _box,
    _window_polytope,
    decompose_mixed_integer_set,
    mip_point,
    ray_families,
    window_fibers,
)
from miqpcert.polyhedra import (
    HPolyhedron,
    NotPointed,
    VPolyhedron,
    caratheodory_simple_cone,
    h_to_v,
    iter_orthant_parts,
    restrict_prefix,
)
from miqpcert.qp import EmptyFeasibleSet, QuadraticForm, qp_global_min

from helpers import (
    decomposition_covers_point,
    enumerate_integer_box,
    family_index_by_rays,
    hpoly,
    random_symmetric,
    reference_box,
    reference_window_fibers,
    sample_in_polytope,
    vec,
    window_points,
)


def quadrant():
    return hpoly([[-1, 0], [0, -1]], [0, 0])


def test_quadrant_decomposition_families():
    dec = decompose_mixed_integer_set(MixedIntegerSet(quadrant(), 2))
    assert len(dec.ray_families) == 3
    sizes = sorted(len(f.rays) for f in dec.ray_families)
    assert sizes == [1, 1, 2]
    f = normalizing_hyperplane([vec(1, 0), vec(0, 1)]).f
    assert decomposition_covers_point(dec, f, vec(2, 3))
    assert decomposition_covers_point(dec, f, vec(0, 0))
    assert not decomposition_covers_point(dec, f, vec(-1, 0))
    # 4 rays in R^3 with one dependent triple (e1, e2, e1 + e2): the families
    # are the independent subsets in combinations order
    rays = (vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0), vec(0, 0, 1))
    expected = [
        subset
        for size in range(1, 4)
        for subset in combinations(rays, size)
        if rank(QMatrix.from_rows([r.entries for r in subset], 3)) == size
    ]
    families = ray_families(VPolyhedron((vec(0, 0, 0),), rays))
    assert [family.rays for family in families] == expected
    assert len(expected) == 4 + 6 + 3


def test_unit_square_fibers_are_integer_points():
    square = hpoly([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    dec = decompose_mixed_integer_set(MixedIntegerSet(square, 2))
    assert len(dec.ray_families) == 1 and not dec.ray_families[0].rays
    parts = sorted(f.integer_part for f in dec.fiber_records)
    assert parts == [vec(0, 0), vec(0, 1), vec(1, 0), vec(1, 1)]
    for fib in dec.fiber_records:
        assert fib.vertices == (fib.integer_part,)


def test_halfline_fibers():
    half = hpoly([[-1]], [Fraction(-2, 3)])
    dec = decompose_mixed_integer_set(MixedIntegerSet(half, 1))
    parts = {f.integer_part for f in dec.fiber_records}
    assert vec(1) in parts
    # 1 + intcone{1} covers every integer >= 1
    f = normalizing_hyperplane([vec(1)]).f
    for value in (1, 2, 3, 7):
        assert decomposition_covers_point(dec, f, vec(value))
    assert not decomposition_covers_point(dec, f, vec(0))


def test_decompose_requires_pointed():
    with pytest.raises(NotPointed):
        decompose_mixed_integer_set(MixedIntegerSet(hpoly([[1, 0]], [0]), 1))


def test_empty_polyhedron_decomposition():
    empty = hpoly([[1], [-1]], [0, -1])
    dec = decompose_mixed_integer_set(MixedIntegerSet(empty, 1))
    assert not dec.fiber_records and not dec.ray_families
    assert mip_point(MixedIntegerSet(empty, 1)) is None


def test_mip_point_examples():
    assert mip_point(MixedIntegerSet(hpoly([[1], [-1]], [Fraction(3, 2), Fraction(-1, 2)]), 1)) == vec(1)
    assert mip_point(MixedIntegerSet(hpoly([[1], [-1]], [Fraction(2, 3), Fraction(-1, 3)]), 1)) is None
    yz = hpoly([[1, -1], [-1, 1], [0, 1], [0, -1]], [0, 0, Fraction(7, 5), Fraction(-1, 2)])
    assert mip_point(MixedIntegerSet(yz, 1)) == vec(1, 1)


def test_mip_point_integrality_and_membership():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        rows = []
        rhs = []
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            rows.append(list(unit))
            rhs.append(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            rows.append([-u for u in unit])
            rhs.append(Fraction(rng.randint(0, 5), rng.randint(1, 3)))
        poly = hpoly(rows, rhs)
        s = MixedIntegerSet(poly, p)
        point = mip_point(s)
        if point is None:
            # independent check: no integer prefix in a generous box admits
            # a completion (the polytopes here live inside [-5, 5]^n)
            for combo in enumerate_integer_box(6, p):
                candidate = vec(*combo)
                if p == n:
                    assert not poly.contains(candidate)
                else:
                    reduced = restrict_prefix(poly, candidate)
                    assert h_to_v(reduced).is_empty
            continue
        assert poly.contains(point)
        assert point.take(p).is_integral()


def test_mip_point_unbounded_parts():
    # x >= 1/3 with x integral: the box of conv(V) alone is [1/3, 1/3] and
    # holds no integer; only the ray segment [0, 1] reaches x = 1
    assert mip_point(MixedIntegerSet(hpoly([[-1]], [Fraction(-1, 3)]), 1)) == vec(1)
    # orthant parts of few random unboxed rows: pointed and mostly unbounded
    rng = random.Random(113)
    unbounded = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        whole = hpoly(rows, [rng.randint(-3, 3) for _ in rows])
        for _, part in iter_orthant_parts(whole):
            vrep = h_to_v(part)
            unbounded += bool(vrep.rays)
            point = mip_point(MixedIntegerSet(part, p))
            if point is not None:
                assert part.contains(point)
                assert point.take(p).is_integral()
                continue
            for combo in enumerate_integer_box(3, p):
                prefix = vec(*combo)
                if p == n:
                    assert not part.contains(prefix)
                else:
                    assert h_to_v(restrict_prefix(part, prefix)).is_empty
    assert unbounded >= 40


def test_completeness_by_floor_splitting():
    # mirror of the membership argument: build x = v + r with known conic
    # part, select a simple subfamily, split multipliers, and land in a fiber
    rng = random.Random(83)
    wedge = hpoly([[-1, 0], [0, -1], [-1, 1]], [-1, 0, 0])
    s = MixedIntegerSet(wedge, 2)
    dec = decompose_mixed_integer_set(s)
    vrep = h_to_v(wedge)
    for _ in range(60):
        v = sample_in_polytope(rng, vrep.vertices)
        mu = [Fraction(rng.randint(0, 9), 3) for _ in vrep.rays]
        x = v
        r = vec(0, 0)
        for m, ray in zip(mu, vrep.rays):
            r = r + ray.scale(m)
        x = v + r
        if not x.take(2).is_integral():
            continue
        subset, weights = caratheodory_simple_cone(list(vrep.rays), r)
        rays = [vrep.rays[i] for i in subset]
        family_index = family_index_by_rays(dec, rays) if rays else None
        b = x
        shift_back = vec(0, 0)
        for w, ray in zip(weights, rays):
            whole = w.__floor__()
            shift_back = shift_back + ray.scale(whole)
        b = x - shift_back
        assert b.take(2).is_integral()
        matches = [
            f
            for f in dec.fiber_records
            if (family_index is None or f.family_index == family_index)
            and f.integer_part == b.take(2)
        ]
        assert any(f.polyhedron.contains(b) for f in matches)


def test_decomposition_soundness_sampling():
    rng = random.Random(97)
    wedge = hpoly([[-1, 0], [0, -1], [-1, 1]], [-1, 0, 0])
    s = MixedIntegerSet(wedge, 2)
    dec = decompose_mixed_integer_set(s)
    for family in dec.ray_families:
        for fib in dec.fiber_records:
            for _ in range(10):
                base = sample_in_polytope(rng, fib.vertices)
                shift = vec(0, 0)
                for ray in family.rays:
                    shift = shift + ray.scale(rng.randint(0, 2))
                x = base + shift
                assert wedge.contains(x)
                assert x.take(2).is_integral()


def test_window_lies_between_b_k_and_p():
    # W = P cap box(B^K) must contain B^K (the hull of the reference points),
    # be bounded, and lie in P: then every family's fibers stay complete and
    # sound.  Orthant parts of few random unboxed rows have rays of either
    # sign, so both sides of the box's ray terms are exercised.
    rng = random.Random(6161)
    parts = families = 0
    while parts < 40:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        whole = hpoly(rows, [rng.randint(-3, 3) for _ in rows])
        for _, part in iter_orthant_parts(whole):
            vrep = h_to_v(part)
            if not vrep.rays:
                continue
            parts += 1
            for family in ray_families(vrep):
                families += 1
                window = _window_polytope(part, family, _box(vrep, family.rays))
                assert all(window.contains(x) for x in window_points(vrep, family))
                wrep = h_to_v(window)
                assert not wrep.rays
                assert all(part.contains(v) for v in wrep.vertices)
    assert families >= 200


def test_box_matches_reference_scan():
    # the box from the V-description's cached vertex box equals a fresh scan
    # of every vertex, for each family's rays and for all extreme rays; the
    # orthant parts of random unboxed rows give rays with entries of both signs
    rng = random.Random(7171)
    families = 0
    signs = set()
    while families < 200:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        whole = hpoly(rows, [rng.randint(-3, 3) for _ in rows])
        for _, part in iter_orthant_parts(whole):
            vrep = h_to_v(part)
            if not vrep.rays:
                continue
            signs.update(x > 0 for r in vrep.rays for x in r if x != 0)
            assert _box(vrep, vrep.rays) == reference_box(vrep.vertices, vrep.rays)
            for family in ray_families(vrep):
                families += 1
                assert _box(vrep, family.rays) == reference_box(vrep.vertices, family.rays)
    assert signs == {True, False}


def _seeded_parts(rng, count):
    """(part, vrep) for count orthant parts with rays of random unboxed rows."""
    found = 0
    while found < count:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        whole = hpoly(rows, [rng.randint(-3, 3) for _ in rows])
        for _, part in iter_orthant_parts(whole):
            vrep = h_to_v(part)
            if vrep.rays and found < count:
                found += 1
                yield part, vrep


def test_window_fibers_match_reference_loop():
    # one stream over all families yields the fibers, in the order, of one
    # loop per family, on parts whose windows have rays of either sign
    rng = random.Random(1414)
    several = 0  # parts whose stream crosses from one family to the next
    for part, vrep in _seeded_parts(rng, 200):
        s = MixedIntegerSet(part, rng.randint(0, part.dim))
        stream = list(window_fibers(s, vrep, ray_families(vrep)))
        assert stream == reference_window_fibers(s, vrep)
        several += len({fiber.family_index for fiber in stream}) > 1
    assert several >= 100


def test_fiber_limit_counts_across_families(monkeypatch):
    # with the limit at the largest family's count, no family alone exceeds it
    # but the stream does: it yields exactly that many fibers, then raises
    rng = random.Random(1515)
    checked = 0
    for part, vrep in _seeded_parts(rng, 60):
        s = MixedIntegerSet(part, rng.randint(0, part.dim))
        per_family = Counter(fiber.family_index for fiber in window_fibers(s, vrep, ray_families(vrep)))
        if len(per_family) < 2:
            continue
        checked += 1
        monkeypatch.setattr(milp, "MAX_FIBERS", max(per_family.values()))
        stream = window_fibers(s, vrep, ray_families(vrep))
        yielded = []
        with pytest.raises(FiberLimit):
            for fiber in stream:
                yielded.append(fiber)
        assert len(yielded) == milp.MAX_FIBERS
        monkeypatch.setattr(milp, "MAX_FIBERS", sum(per_family.values()))
        assert len(list(window_fibers(s, vrep, ray_families(vrep)))) == milp.MAX_FIBERS
        monkeypatch.undo()
    assert checked >= 10


def test_restrict_prefix_drops_only_zero_rows_that_hold():
    # a window's box rows on the prefix coordinates reduce to zero rows: they
    # leave the reduced polytope when they hold, which changes neither its
    # vertices nor a QP minimum over it, and stay when they fail, so a prefix
    # outside the window keeps an empty fiber
    rng = random.Random(1616)
    dropped = failing = 0
    for part, vrep in _seeded_parts(rng, 20):
        if part.dim < 2:
            continue
        p = rng.randint(1, part.dim - 1)
        for family in ray_families(vrep):
            box = _box(vrep, family.rays)
            window = _window_polytope(part, family, box)
            quad = QuadraticForm(QMatrix.from_rows(random_symmetric(rng, part.dim - p, -3, 3)),
                                 QVector.of([rng.randint(-3, 3) for _ in range(part.dim - p)]), Fraction(0))
            for combo in enumerate_integer_box(2, p):
                y = vec(*combo)
                reduced = restrict_prefix(window, y)
                rows = [row[p:] for row in window.a.entries]
                rhs = [b - sum(a * v for a, v in zip(row, y)) for row, b in zip(window.a.entries, window.b)]
                full = HPolyhedron(QMatrix.from_rows(rows, part.dim - p), QVector.of(rhs))
                assert all(any(row) or b < 0 for row, b in zip(reduced.a.entries, reduced.b))
                dropped += full.num_rows - reduced.num_rows
                if any(not any(row) and b < 0 for row, b in zip(rows, rhs)):
                    failing += 1
                    assert h_to_v(reduced).is_empty
                assert h_to_v(reduced) == h_to_v(full)
                if h_to_v(full).is_empty:
                    with pytest.raises(EmptyFeasibleSet):
                        qp_global_min(quad, reduced)
                    continue
                assert qp_global_min(quad, reduced) == qp_global_min(quad, full)
    assert dropped >= 1000 and failing >= 200


def _fraction_restriction(p, y) -> tuple[HPolyhedron, int]:
    """restrict_prefix's polytope built in Fractions: p's rows with y
    substituted, less the zero rows that hold.  Also returns how many kept
    rows have a smaller lcm of denominators than their row of p."""
    k = y.dim
    rows, rhs, falls = [], [], 0
    for row, b in zip(p.a.entries, p.b):
        value = b - sum(a * v for a, v in zip(row, y))
        if any(row[k:]) or value < 0:
            rows.append(row[k:])
            rhs.append(value)
            scale = math.lcm(*(v.denominator for v in (*row, b)))
            falls += math.lcm(*(v.denominator for v in (*row[k:], value))) < scale
    return HPolyhedron(QMatrix.from_rows(rows, p.dim - k), QVector.of(rhs)), falls


def _vertices_or_error(p):
    try:
        return h_to_v.__wrapped__(p)  # uncached: equal polytopes would share a cache entry
    except NotPointed:
        return NotPointed


def test_restrict_prefix_integer_rows_match_fractions():
    # restrict_prefix computes its right-hand sides from p.integer_rows.  The
    # result must equal, and hash as, the restriction done in Fractions, and
    # its integer rows, which h_to_v's cache and walk read, must be
    # _integer_row of its own Fraction rows.  Rational coefficients and
    # right-hand sides, integer and rational prefixes, and windows with
    # Fraction box bounds
    rng = random.Random(1919)
    # the row (1/3, 1 | 1/3) at y = 1 reduces to (1 | 0): its scale falls from 3 to 1
    cases = [(hpoly([[Fraction(1, 3), 1], [0, -1]], [Fraction(1, 3), 2]), vec(1))]
    for _ in range(300):
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            if rng.random() < 0.2:
                row[k:] = [0] * (n - k)
            rows.append(row)
        rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in rows]
        y = [rng.randint(-2, 2) if rng.random() < 0.5 else Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        cases.append((hpoly(rows, rhs), vec(*y)))
    windows = 0
    for part, vrep in _seeded_parts(rng, 20):
        if part.dim < 2:
            continue
        p = rng.randint(1, part.dim - 1)
        for family in ray_families(vrep):
            window = _window_polytope(part, family, _box(vrep, family.rays))
            windows += any(b.denominator > 1 for b in window.b)
            cases.extend((window, vec(*combo)) for combo in enumerate_integer_box(2, p))
    falls = rational_prefixes = 0
    for p, y in cases:
        reduced = restrict_prefix(p, y)
        assert reduced.integer_rows == tuple(
            tuple(_integer_row((*row, b))) for row, b in zip(reduced.a.entries, reduced.b)
        )
        expected, fell = _fraction_restriction(p, y)
        assert reduced == expected and hash(reduced) == hash(expected)
        assert _vertices_or_error(reduced) == _vertices_or_error(expected)
        falls += fell
        rational_prefixes += not y.is_integral()
    assert restrict_prefix(*cases[0]).integer_rows[0] == (1, 0)
    assert len(cases) >= 2000 and falls >= 100 and rational_prefixes >= 50 and windows >= 20
