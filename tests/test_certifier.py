import random
from fractions import Fraction

import pytest

from miqpcert import certifier, qp
from miqpcert.certifier import (
    CertifierError,
    MiqpInstance,
    SearchTrace,
    _fiber_min,
    _shift_lower_bound,
    find_certificate,
    verify_certificate,
)
from miqpcert.formats import parse_instance
from miqpcert.linalg import DimensionMismatch, QMatrix, QVector, encoding_size
from miqpcert.milp import MixedIntegerSet, ray_families, window_fibers
from miqpcert.oracle import brute_force_feasibility
from miqpcert.polyhedra import HPolyhedron, h_to_v, is_pointed, iter_orthant_parts, recession_cone
from miqpcert.qp import eval_quadratic

from helpers import instance, random_bounded_polytope, random_boxed_instance, random_symmetric, vec


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


def test_shift_lower_bound_is_a_relaxation():
    rng = random.Random(3131)
    checked = {"single": 0, "polytope": 0}
    for trial in range(40):
        n = rng.randint(1, 3)
        p = n if trial % 4 == 0 else rng.randint(0, n - 1)
        poly = random_bounded_polytope(rng, n)
        inst = instance(
            random_symmetric(rng, n), [rng.randint(-5, 5) for _ in range(n)], rng.randint(-5, 5),
            [list(row) for row in poly.a.entries], list(poly.b.entries), p,
        )
        s = MixedIntegerSet(inst.polyhedron, p)
        vrep = h_to_v(inst.polyhedron)
        fibers = list(window_fibers(s, vrep, ray_families(vrep)[0], 0))[:3]
        for fiber in fibers:
            v3, _ = _fiber_min(inst.quad, fiber, QVector.zero(n))
            for _ in range(3):
                shift = vec(*[rng.randint(-2, 2) for _ in range(n)])
                bound = _shift_lower_bound(inst.quad, fiber, v3, shift)
                exact, _ = _fiber_min(inst.quad, fiber, shift)
                assert bound <= exact
                if len(fiber.vertices) == 1:
                    assert bound == exact
                    checked["single"] += 1
                else:
                    checked["polytope"] += 1
    assert checked["single"] >= 20 and checked["polytope"] >= 20


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


@pytest.mark.xfail(strict=True, raises=CertifierError, reason="residual window exceeds the tuple cap")
def test_tuple_cap_small_integer_system():
    # 3x^2 + 3y^2 + x + 3y - 1 <= 0 is a disk of radius below 1 about
    # (-1/6, -1/2); no integer point of it satisfies 3x + 2y >= 1, so the
    # system is infeasible, but the residual window asks for 14.6M tuples
    text = "2 2\n3 0\n0 3\n1 3\n-1\n2\n-2 -1\n-3 -2\n3 -1\n"
    inst = parse_instance(text)
    assert not brute_force_feasibility(inst, 2).feasible
    assert find_certificate(inst) is None
