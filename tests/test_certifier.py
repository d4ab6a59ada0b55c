import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import groupby, islice, product

import pytest

from miqpcert import certifier, qp
from miqpcert.certifier import (
    MiqpInstance,
    SearchTrace,
    _box_bound,
    _ceil_root,
    _fiber_min,
    _norm_bound,
    _relaxed_bound,
    _window,
    _window_piece,
    bounded_window_search,
    find_certificate,
    linear_descent_step,
    verify_certificate,
)
from miqpcert.cones import normalizing_hyperplane, simple_cone_decomposition
from miqpcert.formats import parse_instance
from miqpcert.linalg import DimensionMismatch, QMatrix, QVector, encoding_size, rank
from miqpcert.milp import Fiber, FiberLimit, MixedIntegerSet, mip_point, ray_families, window_fibers
from miqpcert.oracle import brute_force_feasibility
from miqpcert.polyhedra import HPolyhedron, h_to_v, is_pointed, iter_orthant_parts, primitivize, recession_cone
from miqpcert.qp import eval_quadratic, min_quadratic_on_cone_slice

from helpers import (
    instance,
    random_boxed_instance,
    random_symmetric,
    reference_ceil_root,
    reference_fiber_min,
    reference_from_tag,
    reference_tag,
    reference_window_bounds,
    reference_window_search,
    shift_lower_bound,
    vec,
)
from test_certificate_digest import _workloads  # the benchmark's generators, only read


def descent_instance(d):
    # -x^2 + d <= 0 over x >= 0, x integral
    return instance([[-1]], [0], d, [[-1]], [0], 1)


def test_negative_ray_example():
    cert = find_certificate(descent_instance(1))
    assert cert.point == vec(1)
    assert cert.trace.branch == "negative-ray"
    assert eval_quadratic(descent_instance(1).quad, cert.point) == 0


def test_bounded_zero_quadratic():
    inst = instance([[1]], [0], 0, [[1], [-1]], [5, 0], 1)
    cert = find_certificate(inst)
    assert cert.point == vec(0)


def test_infeasible_positive_quadratic():
    inst = instance([[1]], [0], 1, [[1], [-1]], [5, 0], 1)
    assert find_certificate(inst) is None


def test_irrational_discriminant_root_ceiling():
    # v1 = -1, v2 = 0, v3 = 2: step = ceil(sqrt(2)) = 2
    cert = find_certificate(descent_instance(2))
    assert cert.trace.step == 2
    assert cert.point == vec(2)
    assert eval_quadratic(descent_instance(2).quad, cert.point) == -2


def test_negative_ray_step_zero_when_start_feasible():
    # d <= 0 makes the mixed-integer start itself feasible
    cert = find_certificate(descent_instance(0))
    assert cert.point == vec(0)
    assert cert.trace.step == 0


def test_negative_ray_step_minimality():
    # when the start is infeasible the chosen step is the least that works
    for d in (1, 2, 5, 16, 100):
        inst = descent_instance(d)
        cert = find_certificate(inst)
        step = cert.trace.step
        assert step >= 1
        r = vec(1)
        base = cert.point - r.scale(step)
        assert eval_quadratic(inst.quad, base) > 0
        assert eval_quadratic(inst.quad, base + r.scale(step - 1)) > 0
        assert eval_quadratic(inst.quad, cert.point) <= 0


def test_ceil_root_matches_bisection():
    # the closed form is the least k >= 0 with g k - e >= sqrt(disc), which
    # the bisection finds by search: large numerators, exact squares
    # disc = (g k - e)^2, disc = 0, disc < 0 (no root: 0) and negative e
    rng = random.Random(2202)

    def rational(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, rng.choice((1, 6, 10**6, 10**15))))

    kinds = {"square": 0, "zero": 0, "negative": 0, "other": 0, "negative e": 0, "positive k": 0}
    for trial in range(20000):
        top = 10 ** rng.choice((1, 3, 9, 30))
        e, g = rational(top), abs(rational(top)) or Fraction(1)
        kind = ("square", "zero", "negative", "other")[trial % 4]
        disc = {
            "square": (g * rng.randint(-50, 10**6) - e) ** 2,
            "zero": Fraction(0),
            "negative": -(abs(rational(top)) or Fraction(1)),
            "other": abs(rational(top)),
        }[kind]
        expected = 0 if disc < 0 else max(0, reference_ceil_root(e, disc, g))
        assert _ceil_root(e, disc, g) == expected, (e, disc, g)
        kinds[kind] += 1
        kinds["negative e"] += e < 0
        kinds["positive k"] += expected > 0
    assert min(kinds.values()) >= 4000


def test_ceil_root_exact_on_large_ints():
    # the integer step hands _ceil_root ints: a true division would round
    # (3 * 10^20 + 1) / 3 to the float 10^20, one below the ceiling
    cases = [
        (3 * 10**20 + 1, 0, 3),
        (-(10**30), 10**60 + 1, 7),  # sqrt just above 10^30: the root is 1 / 7 past 0
        (10**25 - 1, 4 * 10**50, 10**5 + 3),
        (2**80 + 1, (2**80) ** 2, 2),
    ]
    for e, disc, g in cases:
        expected = max(0, reference_ceil_root(Fraction(e), Fraction(disc), Fraction(g)))
        assert _ceil_root(e, disc, g) == expected, (e, disc, g)
        assert _ceil_root(Fraction(e), Fraction(disc), Fraction(g)) == expected
    assert _ceil_root(3 * 10**20 + 1, 0, 3) == 10**20 + 1 != math.ceil((3 * 10**20 + 1) / 3)


def test_negative_ray_step_on_rational_data():
    # seeded instances in R^1..R^3 with every entry p / q, |p| <= 3, q <= 4,
    # kept when they take the negative branch: the step, computed in
    # integers over hs cs D^2 den(d), is the reference ceiling of the
    # Fraction parabola lead k^2 + slope k + const along the primitive
    # slice minimizer from the part's mixed-integer start, and one step
    # less is not past the larger root.  That is "does not certify" unless
    # the start itself certifies while the parabola rises from it
    rng = random.Random(2727)

    def rational():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    hits = Counter()
    while hits["negative"] < 150:
        n = rng.randint(1, 3)
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = rational()
        m = rng.randint(1, 4)
        inst = instance(h, [rational() for _ in range(n)], rational(),
                        [[rational() for _ in range(n)] for _ in range(m)], [rational() for _ in range(m)],
                        rng.randint(0, n))
        try:
            cert = find_certificate(inst)
        except FiberLimit:
            continue
        if cert is None or cert.trace.branch != "negative-ray":
            continue
        parts = {None: inst.polyhedron, **dict(iter_orthant_parts(inst.polyhedron))}
        part = parts[cert.trace.orthant]
        rays = h_to_v(part).rays
        r = primitivize(min_quadratic_on_cone_slice(inst.quad.h, rays, normalizing_hyperplane(rays).f).minimizer)
        base = mip_point(MixedIntegerSet(part, inst.integer_count))
        hr = inst.quad.h.matvec(r)
        lead = r.dot(hr)
        slope = 2 * base.dot(hr) + inst.quad.c.dot(r)
        const = eval_quadratic(inst.quad, base)
        disc = slope * slope - 4 * lead * const
        expected = 0 if disc < 0 else max(0, reference_ceil_root(slope, disc, -2 * lead))
        step = cert.trace.step
        assert step == expected, inst
        assert cert.point == base + r.scale(step)
        assert eval_quadratic(inst.quad, cert.point) <= 0
        if step:  # one step less is not past the larger root: q > 0 there, or the parabola still rises
            before = eval_quadratic(inst.quad, base + r.scale(step - 1))
            assert before > 0 or 2 * lead * (step - 1) + slope > 0
            hits["feasible start, stepped"] += before <= 0
        _, hs, _, cs = inst.quad._integer_form
        hits["negative"] += 1
        hits["positive step"] += step > 0
        hits["fractional start"] += not base.is_integral()
        hits["hs, cs, den(d) > 1"] += hs > 1 and cs > 1 and inst.quad.d.denominator > 1
    assert hits["positive step"] >= 50 and hits["fractional start"] >= 40, hits
    assert hits["hs, cs, den(d) > 1"] >= 40 and hits["feasible start, stepped"] >= 3, hits


def test_linear_descent_step_least_negative_vertex():
    # along r = e1 the rate of x^T H x + c^T x is 2 x^T H r + c^T r = 2 x2 - 1:
    # the least (rate, vertex), when that rate is negative
    inst = instance([[0, 1], [1, 0]], [-1, 0], 0, [], [], 0)
    vertices = (vec(0, 1), vec(1, 0), vec(2, -1), vec(3, -1), vec(5, 3))
    fiber = Fiber(inst.polyhedron, QVector.zero(0), 0, vertices, None)
    assert linear_descent_step(inst.quad, fiber, vec(1, 0)) == (vec(2, -1), Fraction(-3))
    # along e2 the rate is 2 x1, negative at no vertex of these
    assert linear_descent_step(inst.quad, fiber, vec(0, 1)) is None
    fiber = Fiber(inst.polyhedron, QVector.zero(0), 0, (vec(0, 1), vec(4, 1)), None)
    assert linear_descent_step(inst.quad, fiber, vec(1, 0)) is None


def test_linear_descent_step_none_beside_other_rays():
    # 2 x1 x2 + x1 + x2 + 1 <= 0 over the orthant x >= 0: both rays are flat
    # and the family of both is one piece, so each flat ray has another ray
    # beside it, along which the rate only grows (2 s^T H r = 2 > 0).  No
    # fiber vertex has a negative rate, so no step descends, and the system
    # is infeasible
    inst = instance([[0, 1], [1, 0]], [1, 1], 1, [[-1, 0], [0, -1]], [0, 0], 0)
    vrep = h_to_v(inst.polyhedron)
    families = ray_families(vrep)
    paired = 0
    for fiber in window_fibers(MixedIntegerSet(inst.polyhedron, 0), vrep, families):
        for piece in simple_cone_decomposition(inst.quad.h, families[fiber.family_index]).pieces:
            for r in piece.rays:
                assert linear_descent_step(inst.quad, fiber, r) is None
                paired += len(piece.rays) - 1
    assert paired >= 2
    assert find_certificate(inst) is None


def test_flat_rays_see_no_descent_from_other_rays():
    # the fact linear_descent_step rests on: where the part's slice minimum
    # is >= 0, s^T H r >= 0 for every flat ray r and every other ray s of a
    # piece, as (r + t s)^T H (r + t s) = 2t s^T H r + t^2 s^T H s >= 0
    rng = random.Random(2203)
    products = []
    for _ in range(300):
        inst = _unbounded_style_system(rng, 3)
        h = inst.quad.h
        for part in _pointed_parts(inst.polyhedron):
            vrep = h_to_v(part)
            if vrep.is_empty or not vrep.rays:
                continue
            f = normalizing_hyperplane(vrep.rays).f
            if min_quadratic_on_cone_slice(h, vrep.rays, f).value < 0:
                continue
            for family in ray_families(vrep):
                for piece in simple_cone_decomposition(h, family).pieces:
                    for i, r in enumerate(piece.rays):
                        if r.dot(h.matvec(r)) == 0:
                            products += [s.dot(h.matvec(r)) for j, s in enumerate(piece.rays) if j != i]
    assert min(products) >= 0
    assert len(products) >= 20 and products.count(0) >= 1


def test_linear_ray_descent():
    # flat quadratic along the ray, negative linear rate
    inst = instance([[0]], [-1], 1, [[-1]], [0], 1)
    cert = find_certificate(inst)
    assert cert.point == vec(1)
    assert cert.trace.branch == "linear-ray"


def test_window_search_unbounded_case():
    # x^2 - 4 <= 0 over x >= 0: recession curvature positive, window scan
    inst = instance([[1]], [0], -4, [[-1]], [0], 1)
    cert = find_certificate(inst)
    assert cert.point == vec(0)
    assert cert.trace.branch == "window-qp"
    assert cert.trace.norm_bound is not None


def test_orthant_split_used_for_unpointed():
    # whole-line instance: x^2 - 9 <= 0, x in Z, no linear rows
    inst = instance([[1]], [0], -9, [], [], 1)
    cert = find_certificate(inst)
    assert cert is not None
    assert cert.trace.orthant is not None
    report = verify_certificate(inst, cert.point)
    assert report.ok


def test_mixed_continuous_instance():
    # p = 1 of n = 2: (x1 - x2)^2 - 1/2 <= 0 inside a box
    inst = instance(
        [[1, -1], [-1, 1]],
        [0, 0],
        Fraction(-1, 2),
        [[1, 0], [-1, 0], [0, 1], [0, -1]],
        [2, 2, 2, 2],
        1,
    )
    cert = find_certificate(inst)
    assert cert is not None
    assert cert.point.take(1).is_integral()
    assert verify_certificate(inst, cert.point).ok


def test_verify_reports():
    inst = descent_instance(1)
    good = verify_certificate(inst, vec(1))
    assert good.ok and good.q_value == 0 and good.size == encoding_size(vec(1))
    bad_integral = verify_certificate(inst, vec(Fraction(1, 2)))
    assert not bad_integral.integral
    bad_row = verify_certificate(inst, vec(-3))
    assert bad_row.violated_rows == (0,)
    with pytest.raises(DimensionMismatch):
        verify_certificate(inst, vec(1, 2))


def test_certificates_match_oracle_on_random_family():
    rng = random.Random(2024)
    agree = 0
    for _ in range(60):
        inst, box = random_boxed_instance(rng)
        cert = find_certificate(inst)
        verdict = brute_force_feasibility(inst, box)
        assert (cert is not None) == verdict.feasible
        if cert is not None:
            assert verify_certificate(inst, cert.point).ok
        agree += 1
    assert agree == 60


def test_determinism_byte_identical():
    rng = random.Random(515)
    for _ in range(20):
        inst, _ = random_boxed_instance(rng)
        first = find_certificate(inst)
        second = find_certificate(inst)
        if first is None:
            assert second is None
            continue
        assert first.point == second.point
        assert first.trace == second.trace
        assert first.size == second.size


def test_trace_tags_round_trip():
    tags = []
    rng = random.Random(99)
    for _ in range(25):
        inst, _ = random_boxed_instance(rng)
        cert = find_certificate(inst)
        if cert is not None:
            tags.append(cert.trace)
    assert tags
    for trace in tags:
        assert SearchTrace.from_tag(trace.tag()) == trace


def _random_trace(rng: random.Random) -> SearchTrace:
    def opt_int() -> int | None:
        return None if rng.random() < 0.4 else rng.randint(-3, 300)

    orthant = None if rng.random() < 0.3 else tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
    shift = rng.choice((None, (), tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 3)))))
    return SearchTrace(orthant, rng.choice(certifier._BRANCHES), *(opt_int() for _ in range(5)), shift, opt_int())


def _read_or_error(read, tag):
    try:
        return read(tag)
    except ValueError:
        return ValueError


def test_tag_reader_matches_reference():
    """The tag written and read off the dataclass fields against the
    spelled-out writer and reader they replaced (``reference_tag``,
    ``reference_from_tag``): 1,200 seeded traces of all three branches, each
    tag read back as itself, and four single-character mutations of each (a
    character replaced, inserted or deleted), on which both readers give the
    same trace or both raise ValueError."""
    rng = random.Random(2025)
    alphabet = "+-=;,()_0123456789abefhilnoprstuxy"
    counts = Counter()
    for _ in range(1200):
        trace = _random_trace(rng)
        tag = trace.tag()
        assert tag == reference_tag(trace)
        assert SearchTrace.from_tag(tag) == reference_from_tag(tag) == trace
        counts[trace.branch] += 1
        for _ in range(4):
            at = rng.randrange(len(tag) + 1)
            edit = rng.choice(("replace", "insert", "delete")) if at < len(tag) else "insert"
            keep = at + (edit != "insert")
            mutated = tag[:at] + ("" if edit == "delete" else rng.choice(alphabet)) + tag[keep:]
            expected = _read_or_error(reference_from_tag, mutated)
            assert _read_or_error(SearchTrace.from_tag, mutated) == expected, mutated
            counts["rejected" if expected is ValueError else "accepted"] += 1
    assert min(counts[branch] for branch in certifier._BRANCHES) >= 300, counts
    assert counts["rejected"] >= 4000 and counts["accepted"] >= 300, counts


def test_instance_bit_size():
    inst = descent_instance(1)
    assert inst.bit_size.bits == (
        encoding_size(inst.quad.h).bits
        + encoding_size(inst.quad.c).bits
        + encoding_size(inst.quad.d).bits
        + encoding_size(inst.polyhedron.a).bits
        + encoding_size(inst.polyhedron.b).bits
    )


def _unbounded_style_system(rng, max_dim):
    """Few random rows and no box, as in the unbounded benchmark corpus."""
    n = rng.randint(1, max_dim)
    p = rng.randint(0, n)
    h = random_symmetric(rng, n, -3, 3)
    c = [rng.randint(-3, 3) for _ in range(n)]
    d = rng.randint(-3, 3)
    m = rng.randint(1, n + 1)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-3, 3) for _ in range(m)]
    return instance(h, c, d, rows, rhs, p)


def _pointed_parts(poly):
    if is_pointed(poly):
        return [poly]
    return [part for _, part in iter_orthant_parts(poly)]


def test_part_rays_equal_recession_cone_rays():
    # certify_pointed_part reads the recession rays from h_to_v(part): both
    # enumerations use the rows of A alone
    rng = random.Random(4141)
    nonempty = 0
    for _ in range(40):
        inst = _unbounded_style_system(rng, 3)
        for part in _pointed_parts(inst.polyhedron):
            vrep = h_to_v(part)
            if vrep.is_empty:
                continue
            nonempty += 1
            assert vrep.rays == h_to_v(recession_cone(part)).rays
    assert nonempty >= 40


def _simple_cone_system(rng, n):
    """A pointed P whose recession cone is simple with n rays, so that its
    families have 1 to n rays.  Half of the systems are a positive-definite
    bowl about a point x0 of the shifted orthant P = {x >= x0 - slack},
    whose windows certify at shifts away from the vertex; the other half
    have n random rows and a random symmetric H."""
    if rng.random() < 0.5:
        x0 = [rng.randint(-2, 2) for _ in range(n)]
        rows = [[-int(i == j) for j in range(n)] for i in range(n)]
        rhs = [rng.randint(0, 2) - x for x in x0]
        m = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        h = [[sum(m[t][i] * m[t][j] for t in range(n)) + int(i == j) for j in range(n)] for i in range(n)]
        c = [-2 * sum(h[i][j] * x0[j] for j in range(n)) for i in range(n)]
        d = sum(x0[i] * h[i][j] * x0[j] for i in range(n) for j in range(n)) - rng.randint(0, 3)
        return instance(h, c, d, rows, rhs, rng.randint(0, n))
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if rank(QMatrix.from_rows(rows, n)) == n:
            break
    h = random_symmetric(rng, n, -3, 3)
    c = [rng.randint(-4, 4) for _ in range(n)]
    rhs = [rng.randint(-2, 2) for _ in range(n)]
    return instance(h, c, rng.randint(-6, 2), rows, rhs, rng.randint(0, n))


def _curving_windows(inst, max_fibers=4):
    """(fiber, piece, f, signs, indices) for the curving pieces the
    non-negative search of inst pairs with its first fibers, per family."""
    parts = [(None, inst.polyhedron)] if is_pointed(inst.polyhedron) else iter_orthant_parts(inst.polyhedron)
    for signs, part in parts:
        vrep = h_to_v(part)
        if vrep.is_empty or not vrep.rays:
            continue
        f = normalizing_hyperplane(vrep.rays).f
        if min_quadratic_on_cone_slice(inst.quad.h, vrep.rays, f).value < 0:
            continue
        families = ray_families(vrep)
        slices = {}  # the part's slice minima over f, as the search keeps them
        stream = window_fibers(MixedIntegerSet(part, inst.integer_count), vrep, families)
        for family_index, fibers in groupby(stream, key=lambda fiber: fiber.family_index):
            cones = simple_cone_decomposition(inst.quad.h, families[family_index]).pieces
            pieces = [_window_piece(inst.quad, cone, f, slices) for cone in cones]
            for fiber_index, fiber in enumerate(islice(fibers, max_fibers)):
                for piece_index, piece in enumerate(pieces):
                    if piece.curving:
                        yield fiber, piece, f, signs, (fiber_index, family_index, piece_index)


def _small_windows(seed, trials, max_cap):
    """Curving windows of k = 1, 2 and 3 rays whose multiplier caps are all
    at most max_cap, with their reference bounds."""
    rng = random.Random(seed)
    for trial in range(trials):
        inst = _simple_cone_system(rng, (1, 2, 3, 3)[trial % 4])
        for fiber, piece, f, signs, indices in _curving_windows(inst):
            bounds = reference_window_bounds(inst, fiber, piece, f)
            if max(bounds[3]) <= max_cap:
                yield inst, fiber, piece, f, signs, indices, bounds


def test_branch_and_bound_matches_reference_scan():
    # the first certifying tuple, and so the whole certificate, is the one
    # the full scan of the multiplier grid in product order finds
    found = {1: 0, 2: 0, 3: 0}
    shifted = {1: 0, 2: 0, 3: 0}
    for inst, fiber, piece, f, signs, indices, _ in _small_windows(6161, 40, 12):
        cert = bounded_window_search(inst, fiber, piece, signs, indices)
        assert cert == reference_window_search(inst, fiber, piece, f, signs, indices)
        found[len(piece.curving)] += 1
        shifted[len(piece.curving)] += cert is not None and any(cert.trace.shift)
    assert min(found.values()) >= 10 and min(shifted.values()) >= 3


def test_box_bound_is_a_relaxation():
    # both tiers bound the quadratic from below at every tuple of the box
    # with f . m <= lam_max; the closed form is the single-shift bound on a
    # single tuple, exact on a single-point fiber, and reports no tuple
    # exactly when f . lo > lam_max
    rng = random.Random(3131)
    checked = {"single": 0, "point": 0, "box": 0, "empty": 0}
    for inst, fiber, piece, f, _, _, bounds in _small_windows(7171, 60, 4):
        v3, lam_max, _, caps = bounds
        window = _window(inst.quad, fiber, piece, v3)
        for _ in range(4):
            lo = tuple(rng.randint(0, cap + 1) for cap in caps)
            hi = tuple(low + rng.randint(0, 2) for low in lo)
            closed = _box_bound(window, lo, hi)
            if sum(m * f.dot(r) for m, r in zip(lo, piece.curving)) > lam_max:
                assert closed is None
                checked["empty"] += 1
                continue
            closed = Fraction(closed, window.scale)
            relaxed = _relaxed_bound(window, lo, hi) / window.scale
            for counts in product(*(range(low, high + 1) for low, high in zip(lo, hi))):
                shift = QVector.zero(inst.dim)
                for m, ray in zip(counts, piece.curving):
                    shift = shift + ray.scale(m)
                if f.dot(shift) > lam_max:
                    continue
                exact, _ = _fiber_min(inst.quad, fiber, shift)
                assert closed <= relaxed and v3 + relaxed <= exact
                single = Fraction(_box_bound(window, counts, counts), window.scale)
                assert v3 + single == shift_lower_bound(inst.quad, fiber, v3, shift)
                if len(fiber.vertices) == 1:
                    assert v3 + single == exact
                    checked["point"] += 1
                checked["single"] += 1
            checked["box"] += lo != hi
    assert checked["single"] >= 300 and checked["point"] >= 150
    assert checked["box"] >= 150 and checked["empty"] >= 150


def test_integer_window_setup_matches_reference():
    # the window set-up in integers, scaled once per window, gives the
    # reference's v3, lam_max, norm_bound and caps; its rates are the
    # fiber-vertex rates times the scale, less the dominated ones, and
    # neither bound moves when every rate is put back, on any box
    rng = random.Random(4141)
    checked = {"windows": 0, "dropped": 0, "boxes": 0, "relaxed": 0}
    for inst, fiber, piece, _, _, _, bounds in _small_windows(7171, 60, 4):
        v3, _ = _fiber_min(inst.quad, fiber)
        window = _window(inst.quad, fiber, piece, v3)
        setup = (v3, window.lam_max, _norm_bound(fiber, piece, window.lam_max), list(window.caps))
        assert setup == bounds
        assert window.v3 == v3 * window.scale
        rates = []
        for v in fiber.vertices:
            rate = [window.scale * (2 * v.dot(inst.quad.h.matvec(r)) + inst.quad.c.dot(r)) for r in piece.curving]
            assert all(a.denominator == 1 for a in rate)
            rates.append(tuple(int(a) for a in rate))
        assert set(window.rates) <= set(rates)
        every = replace(window, rates=tuple(rates))
        boxes = [(tuple(0 for _ in window.caps), window.caps)]
        for _ in range(6):
            lo = tuple(rng.randint(0, cap + 1) for cap in window.caps)
            boxes.append((lo, tuple(low + rng.randint(0, 2) for low in lo)))
        for lo, hi in boxes:
            bound = _box_bound(window, lo, hi)
            assert bound == _box_bound(every, lo, hi)
            if bound is not None and lo != hi:
                assert _relaxed_bound(window, lo, hi) == _relaxed_bound(every, lo, hi)
                checked["relaxed"] += 1
            checked["boxes"] += 1
        checked["dropped"] += len(window.rates) < len(set(rates))
        checked["windows"] += 1
    assert checked["windows"] >= 150 and checked["dropped"] >= 50
    assert checked["boxes"] >= 1000 and checked["relaxed"] >= 350


def test_fiber_min_moves_the_quadratic_not_the_polytope():
    # the minimum over fiber + s taken over the fiber's own reduced polytope,
    # of z -> q(y + s_p, z + s_q), is the one over the moved polytope, value
    # and point, for p = 0, 0 < p < n and p = n alike; shifts are window
    # tuples up to the caps and arbitrary rational vectors
    rng = random.Random(9191)
    checked = {"p = 0": 0, "0 < p < n": 0, "p = n": 0}
    for inst, fiber, piece, _, _, _, bounds in _small_windows(8181, 80, 4):
        n, p = inst.dim, inst.integer_count
        kind = "p = 0" if p == 0 else "p = n" if p == n else "0 < p < n"
        assert _fiber_min(inst.quad, fiber) == reference_fiber_min(inst.quad, fiber, QVector.zero(n))
        for _ in range(3):
            counts = [rng.randint(0, cap) for cap in bounds[3]]
            shift = sum((ray.scale(m) for m, ray in zip(counts, piece.curving)), QVector.zero(n))
            assert _fiber_min(inst.quad, fiber, shift) == reference_fiber_min(inst.quad, fiber, shift)
            checked[kind] += 1
        shift = QVector.of(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        assert _fiber_min(inst.quad, fiber, shift) == reference_fiber_min(inst.quad, fiber, shift)
        checked[kind] += 1
    assert min(checked.values()) >= 100


# generator instance 29 of the unbounded benchmark corpus: n = 2, p = 0, a
# curving residual window that once sent about 900 shifted fibers to the QP
LONG_TAIL_29 = "2 0\n2 1\n1 2\n-1 -2\n0\n2\n-3 -1\n-2 -1\n3 3\n"


def test_long_tail_window_skips_ruled_out_shifts(monkeypatch):
    calls = []
    original = qp.qp_global_min

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qp, "qp_global_min", counting)
    monkeypatch.setattr(certifier, "qp_global_min", counting)
    h_to_v.cache_clear()
    inst = parse_instance(LONG_TAIL_29)
    cert = find_certificate(inst)
    assert cert is not None
    assert verify_certificate(inst, cert.point).ok
    assert len(calls) <= 20


def test_reused_slice_minima_match_fresh_solves(monkeypatch):
    # the non-negative search keeps one dict of slice minima per part; every
    # v1 a piece reads from it, with no new entry, must be the minimum a
    # fresh solve of that piece's curving slice gives, and reads must happen
    reads = solves = 0
    original = certifier._window_piece

    def checked(quad, piece, f, slices):
        nonlocal reads, solves
        before = len(slices)
        window_piece = original(quad, piece, f, slices)
        if window_piece.curving:
            if len(slices) == before:
                reads += 1
            else:
                solves += 1
            assert window_piece.v1 == min_quadratic_on_cone_slice(quad.h, window_piece.curving, f).value
        return window_piece

    monkeypatch.setattr(certifier, "_window_piece", checked)
    unbounded_corpus = _workloads()["unbounded_budget"].generator
    for seed in (1, 2, 3):
        for case in unbounded_corpus(random.Random(seed), 300):
            h_to_v.cache_clear()
            find_certificate(parse_instance(case.text))
    assert reads >= 100 and solves >= 100, (reads, solves)  # 199 and 365 when written


def test_own_family_pairing_against_oracle():
    # unboxed systems whose pointed parts have several ray families: a
    # feasible point in [-2, 2]^n must not be missed by dropping the pairs of
    # a fiber with another family's rays
    rng = random.Random(5151)
    kept = feasible = 0
    while kept < 40:
        inst = _unbounded_style_system(rng, 2)
        families = [
            len(ray_families(h_to_v(part)))
            for part in _pointed_parts(inst.polyhedron)
            if not h_to_v(part).is_empty
        ]
        if max(families, default=0) < 2:
            continue
        kept += 1
        n = inst.dim
        box_rows = [[(1 if j == i else 0) * sign for j in range(n)] for i in range(n) for sign in (1, -1)]
        boxed = MiqpInstance(
            inst.quad,
            HPolyhedron(
                QMatrix.from_rows(list(inst.polyhedron.a.entries) + box_rows, n),
                QVector.of(list(inst.polyhedron.b.entries) + [2] * len(box_rows)),
            ),
            inst.integer_count,
        )
        cert = find_certificate(inst)
        if cert is not None:
            assert verify_certificate(inst, cert.point).ok
        if brute_force_feasibility(boxed, 2).feasible:
            feasible += 1
            assert cert is not None
    assert feasible >= 15


def test_tuple_cap_small_integer_system():
    # 3x^2 + 3y^2 + x + 3y - 1 <= 0 is a disk of radius below 1 about
    # (-1/6, -1/2); no integer point of it satisfies 3x + 2y >= 1, so the
    # system is infeasible, though its residual window spans 14.6M tuples
    text = "2 2\n3 0\n0 3\n1 3\n-1\n2\n-2 -1\n-3 -2\n3 -1\n"
    inst = parse_instance(text)
    assert not brute_force_feasibility(inst, 2).feasible
    assert find_certificate(inst) is None
