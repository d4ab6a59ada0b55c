"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is property-based or oracle-differential; all corpora are
seeded and deterministic.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from miqpcert import milp
from miqpcert.certifier import MiqpInstance, find_certificate, verify_certificate
from miqpcert.cli import main
from miqpcert.cones import ConeNotPointed, normalizing_hyperplane, simple_cone_decomposition
from miqpcert.formats import maxcut_instance, parse_instance, serialize_instance
from miqpcert.linalg import QMatrix, QVector
from miqpcert.milp import MixedIntegerSet, decompose_mixed_integer_set
from miqpcert.oracle import brute_force_feasibility
from miqpcert.polyhedra import (
    HPolyhedron,
    SimpleCone,
    caratheodory_simple_cone,
    faces_of_simple_cone,
    h_to_v,
    is_pointed,
    iter_orthant_parts,
    restrict_prefix,
)
from miqpcert.qp import QuadraticForm, eval_quadratic, min_quadratic_on_cone_slice, qp_global_min

from helpers import (
    all_graphs,
    cone_hull,
    grid_min_scaled,
    max_cut_value,
    random_boxed_instance,
    random_symmetric,
    sample_in_cone,
    vec,
)
from test_certificate_digest import _workloads  # the benchmark's generators, only read

SOLVE_CORPUS_SIZE = 500


def _corpus(tmp_path: Path):
    rng = random.Random(20240817)
    items = []
    for i in range(SOLVE_CORPUS_SIZE):
        inst, box = random_boxed_instance(rng)
        path = tmp_path / f"i{i:04d}.inst"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        items.append((str(path), box))
    return items


def test_criterion_1_oracle_equivalence(tmp_path):
    """500 random boxed instances: cmd_solve verdict == cmd_oracle verdict,
    and every emitted certificate passes cmd_verify."""
    agreements = 0
    feasible = 0
    for path, box in _corpus(tmp_path):
        cert_path = path + ".cert"
        solve_rc = main(["solve", "--instance", path, "--out", cert_path])
        oracle_rc = main(["oracle", "--instance", path, "--box", str(box)])
        assert solve_rc in (0, 1) and oracle_rc in (0, 1)
        assert solve_rc == oracle_rc, f"verdict mismatch on {path}"
        if solve_rc == 0:
            assert main(["verify", "--instance", path, "--cert", cert_path]) == 0
            feasible += 1
        agreements += 1
    assert agreements == SOLVE_CORPUS_SIZE
    print(
        f"\nACCEPTANCE 1 PASS: oracle equivalence on {agreements}/{SOLVE_CORPUS_SIZE} "
        f"boxed instances ({feasible} feasible, certificates all verified)"
    )


def test_criterion_2_maxcut_differential():
    """All graphs on <= 5 vertices, k in 0..10: solve verdict equals
    exhaustive-cut max-cut comparison."""
    checked = 0
    for v in range(1, 6):
        for edges in all_graphs(v):
            best = max_cut_value(edges, v)
            for k in range(0, 11):
                inst = maxcut_instance(edges, k, v)
                cert = find_certificate(inst)
                assert (cert is not None) == (best >= k), (v, edges, k, best)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: max-cut differential exact on {checked} (graph, k) pairs")


def test_criterion_3_normalizing_hyperplane_suite():
    """200 random pointed cones (<= 4 rays in R^3): generator products >= 1,
    bounded slices, and the norm-ratio floor on 100 samples per cone."""
    rng = random.Random(3033)
    accepted = 0
    while accepted < 200:
        count = rng.randint(1, 4)
        rays = [vec(*[rng.randint(-3, 3) for _ in range(3)]) for _ in range(count)]
        rays = [r for r in rays if not r.is_zero()]
        if not rays:
            continue
        try:
            nh = normalizing_hyperplane(rays)
        except ConeNotPointed:
            continue
        accepted += 1
        for r in rays:
            assert nh.f.dot(r) >= 1
        slice_poly = cone_hull(rays).with_equality(nh.f, Fraction(1))
        slice_v = h_to_v(slice_poly)
        assert slice_v.vertices and not slice_v.rays  # bounded nonempty slice
        r_sq = max(r.dot(r) for r in rays)
        samples = 0
        while samples < 100:
            x = sample_in_cone(rng, rays)
            if x.is_zero():
                continue
            samples += 1
            fx = nh.f.dot(x)
            # property 2 in squared form: f.x >= |x| / R on unit-normalized x
            assert fx > 0 and r_sq * fx * fx >= x.dot(x)
    print("\nACCEPTANCE 3 PASS: 200 pointed cones, zero hyperplane-property violations")


def _random_cone_and_form(rng):
    while True:
        count = rng.randint(1, 3)
        rays = []
        for _ in range(count):
            r = vec(*[rng.randint(-2, 3) for _ in range(3)])
            if not r.is_zero():
                rays.append(r)
        if not rays:
            continue
        try:
            cone = SimpleCone(tuple(rays))
        except ValueError:
            continue
        # mix positive-semidefinite forms with indefinite forms that happen
        # to stay non-negative on the cone
        if rng.random() < 0.5:
            g_rank = rng.randint(1, 3)
            g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(g_rank)]
            h_rows = [
                [sum(g[k][i] * g[k][j] for k in range(g_rank)) for j in range(3)]
                for i in range(3)
            ]
        else:
            h_rows = random_symmetric(rng, 3, -2, 3)
        h = QMatrix.from_rows(h_rows, 3)
        f = normalizing_hyperplane(cone.rays).f
        if min_quadratic_on_cone_slice(h, cone.rays, f).value < 0:
            continue
        return cone, h


def test_criterion_4_cone_splitting_suite():
    """Random simple cones with forms non-negative on them: union coverage by
    sampling both directions, simplicity of every piece, exhaustive zero-face
    audit."""
    rng = random.Random(4044)
    for _ in range(40):
        cone, h = _random_cone_and_form(rng)
        dec = simple_cone_decomposition(h, cone)
        for piece in dec.pieces:
            # SimpleCone construction re-checks integrality + independence
            assert len(piece.rays) == len(cone.rays)
            for face in faces_of_simple_cone(piece):
                if not face.rays:
                    continue
                f_face = normalizing_hyperplane(face.rays).f
                res = min_quadratic_on_cone_slice(h, face.rays, f_face)
                if res.value == 0:
                    assert any(r.dot(h.matvec(r)) == 0 for r in face.rays)
        for _ in range(500):
            x = sample_in_cone(rng, cone.rays)
            assert any(p.multipliers(x) is not None for p in dec.pieces)
        for piece in dec.pieces:
            for _ in range(500 // len(dec.pieces) + 1):
                x = sample_in_cone(rng, piece.rays)
                assert cone.multipliers(x) is not None
    print("\nACCEPTANCE 4 PASS: 40 cone splittings, zero union/simplicity/face violations")


def _random_pointed_r3(rng):
    while True:
        rows = []
        rhs = []
        bounded = rng.random() < 0.5
        for _ in range(rng.randint(3, 5)):
            row = [rng.randint(-2, 2) for _ in range(3)]
            if all(v == 0 for v in row):
                continue
            rows.append(row)
            rhs.append(rng.randint(0, 3))
        if bounded:
            for i in range(3):
                unit = [0] * 3
                unit[i] = 1
                rows.append(list(unit))
                rhs.append(rng.randint(1, 3))
                rows.append([-u for u in unit])
                rhs.append(rng.randint(1, 3))
        if not rows:
            continue
        p = HPolyhedron(QMatrix.from_rows(rows, 3), QVector.of(rhs))
        if not is_pointed(p):
            continue
        if h_to_v(p).is_empty:
            continue
        return p


def _hull_cone_split(vrep, x):
    """x = (convex combination of vertices) + (conic combination of rays) via
    Caratheodory on the homogenized generator cone."""
    one = QVector.of([1])
    zero = QVector.of([0])
    gens = [v.concat(one) for v in vrep.vertices] + [r.concat(zero) for r in vrep.rays]
    subset, weights = caratheodory_simple_cone(gens, x.concat(one))
    nv = len(vrep.vertices)
    ray_ids = [i - nv for i in subset if i >= nv]
    ray_weights = [weights[j] for j, i in enumerate(subset) if i >= nv]
    return ray_ids, ray_weights


def test_criterion_5_mixed_integer_decomposition_suite(monkeypatch):
    """50 random pointed polyhedra in R^3: integer-part grid (radius 4)
    occupancy agrees between P cap (Z^p x R^q) and the fiber/family union.
    Completeness is shown constructively per occupied grid point (split off
    the conic part, floor the multipliers, land in an emitted fiber);
    soundness by sampling shifted fibers back into P."""
    rng = random.Random(5055)
    monkeypatch.setattr(milp, "MAX_FIBERS", 4000)
    instances = 0
    while instances < 50:
        poly = _random_pointed_r3(rng)
        p = rng.randint(1, 3)
        s = MixedIntegerSet(poly, p)
        try:
            dec = decompose_mixed_integer_set(s)
        except ValueError:
            continue
        instances += 1
        vrep = h_to_v(poly)
        family_of_rayset = {frozenset(f.rays): i for i, f in enumerate(dec.ray_families)}
        q = 3 - p
        occupied = 0

        for combo in iter_product(range(-4, 5), repeat=p):
            y = QVector.of(combo)
            if q == 0:
                witness = y if poly.contains(y) else None
            else:
                reduced = restrict_prefix(poly, y)
                reduced_v = h_to_v(reduced)
                witness = y.concat(reduced_v.vertices[0]) if reduced_v.vertices else None
            if witness is None:
                continue
            occupied += 1
            ray_ids, ray_weights = _hull_cone_split(vrep, witness)
            used = [(i, w) for i, w in zip(ray_ids, ray_weights) if w > 0]
            back = QVector.zero(3)
            for i, w in used:
                back = back + vrep.rays[i].scale(math.floor(w))
            b = witness - back
            rayset = frozenset(vrep.rays[i] for i, _ in used)
            if rayset:
                family_index = family_of_rayset[rayset]
            else:
                family_index = 0  # mu = 0 membership holds in any window
            matches = [
                f
                for f in dec.fiber_records
                if f.family_index == family_index and f.integer_part == b.take(p)
            ]
            assert matches, "no fiber emitted for a decomposable point"
            assert any(f.polyhedron.contains(b) for f in matches)
        # soundness direction: shifted fibers stay inside the mixed set
        for family in dec.ray_families:
            for fib in dec.fiber_records[:10]:
                for _ in range(5):
                    base = fib.vertices[rng.randrange(len(fib.vertices))]
                    shift = QVector.zero(3)
                    for ray in family.rays:
                        shift = shift + ray.scale(rng.randint(0, 2))
                    point = base + shift
                    assert poly.contains(point)
                    assert point.take(p).is_integral()
    print("\nACCEPTANCE 5 PASS: 50 decompositions, exact grid-occupancy agreement")


def test_criterion_6_qp_kernel_vs_grid():
    """200 random quadratics over random polytopes (n <= 3): kernel value is
    a lower bound for every eighth-step grid value, minimizer feasible, value
    exact."""
    rng = random.Random(6066)
    from helpers import random_bounded_polytope

    for _ in range(200):
        n = rng.randint(1, 3)
        poly = random_bounded_polytope(rng, n)
        q = QuadraticForm(
            QMatrix.from_rows(random_symmetric(rng, n), n),
            QVector.of([rng.randint(-5, 5) for _ in range(n)]),
            Fraction(rng.randint(-5, 5)),
        )
        res = qp_global_min(q, poly)
        assert poly.contains(res.minimizer)
        assert eval_quadratic(q, res.minimizer) == res.value
        verts = h_to_v(poly).vertices
        bounds = []
        for t in range(n):
            values = [v[t] for v in verts]
            bounds.append((math.floor(min(values)), math.ceil(max(values))))
        grid_min, count = grid_min_scaled(q, poly, bounds)
        assert count > 0
        assert res.value * 64 <= grid_min
    print("\nACCEPTANCE 6 PASS: 200 kernel-vs-grid checks, zero violations")


def test_criterion_7_certificate_size_regression():
    """Descent family with constant 4^k: certificate size grows at most
    linearly in k (least-squares slope and residuals within a factor-2
    tolerance band)."""
    sizes = []
    for k in range(1, 11):
        inst_text = f"1 1\n-1\n0\n{4**k}\n1\n-1\n0\n"
        from miqpcert.formats import parse_instance

        inst = parse_instance(inst_text)
        cert = find_certificate(inst)
        assert cert is not None
        assert cert.point == vec(2**k)  # parabola root hit exactly
        sizes.append(cert.size.bits)
    ks = list(range(1, 11))
    mean_k = sum(ks) / len(ks)
    mean_s = sum(sizes) / len(sizes)
    slope = sum((k - mean_k) * (s - mean_s) for k, s in zip(ks, sizes)) / sum(
        (k - mean_k) ** 2 for k in ks
    )
    intercept = mean_s - slope * mean_k
    assert slope <= 2.0, f"certificate size slope {slope} exceeds linear tolerance"
    for k, s in zip(ks, sizes):
        assert abs(s - (intercept + slope * k)) <= 2.0
    print(
        f"\nACCEPTANCE 7 PASS: size regression linear (slope {slope:.2f}, sizes {sizes})"
    )


def test_criterion_8_determinism(tmp_path):
    """Repeated cmd_solve runs over the full corpus produce byte-identical
    certificates."""
    identical = 0
    for path, _ in _corpus(tmp_path):
        first = path + ".first.cert"
        second = path + ".second.cert"
        rc1 = main(["solve", "--instance", path, "--out", first])
        rc2 = main(["solve", "--instance", path, "--out", second])
        assert rc1 == rc2
        if rc1 == 0:
            assert Path(first).read_bytes() == Path(second).read_bytes()
            identical += 1
    print(f"\nACCEPTANCE 8 PASS: {identical} feasible instances, byte-identical reruns")


UNBOUNDED_SEEDS = (6, 8)  # together they hit every branch below at least 10 times


def test_criterion_9_unbounded_differential():
    """The benchmark's unboxed generator (``unbounded_corpus``, only read) at
    fixed seeds, 300 instances each, against its one-sided oracle: when the
    brute force finds a point of P cut to the oracle box, the certifier must
    find one too, and every certificate verifies.  Every branch is hit at
    least 10 times, including negative-ray certificates on recession cones
    with more extreme rays than dimensions and certificates after an
    orthant split."""
    unbounded_corpus = _workloads()["unbounded_budget"].generator
    hits = Counter()
    for seed in UNBOUNDED_SEEDS:
        for case in unbounded_corpus(random.Random(seed), 300):
            inst = parse_instance(case.text)
            cert = find_certificate(inst)
            if brute_force_feasibility(parse_instance(case.oracle_text), case.oracle_box).feasible:
                assert cert is not None, case.text
            if cert is None:
                continue
            assert verify_certificate(inst, cert.point).ok, case.text
            trace = cert.trace
            hits[trace.branch] += 1
            hits["orthant split"] += trace.orthant is not None
            if trace.branch == "negative-ray":
                parts = {None: inst.polyhedron, **dict(iter_orthant_parts(inst.polyhedron))}
                hits["negative-ray, k > n"] += len(h_to_v(parts[trace.orthant]).rays) > inst.dim
    branches = ("negative-ray, k > n", "linear-ray", "window-qp", "orthant split")
    assert all(hits[b] >= 10 for b in branches), hits
    print(f"\nACCEPTANCE 9 PASS: unbounded differential on seeds {UNBOUNDED_SEEDS}, {dict(hits)}")


CONTINUOUS_ORACLE_RADIUS = 10**6


def test_criterion_10_continuous_two_sided():
    """The p = 0 instances of criterion 9's seeds, both ways: the certifier
    finds a point exactly when the oracle does on P cut to
    [-10^6, 10^6]^n.  With no integer coordinates the oracle is one exact QP
    over that polytope, whatever its radius, so it can answer "infeasible"
    too.  This is the first independent check of infeasible verdicts on
    unbounded instances.  It is independent of the search, but not of the QP
    kernel, which criterion 6 checks against a grid."""
    unbounded_corpus = _workloads()["unbounded_budget"].generator
    verdicts = Counter()
    for seed in UNBOUNDED_SEEDS:
        for case in unbounded_corpus(random.Random(seed), 300):
            inst = parse_instance(case.text)
            if inst.integer_count:
                continue
            n = inst.dim
            box = [QVector.unit(t, n).scale(sign) for t in range(n) for sign in (1, -1)]
            cut = inst.polyhedron.with_rows(box, [CONTINUOUS_ORACLE_RADIUS] * len(box))
            oracle = brute_force_feasibility(MiqpInstance(inst.quad, cut, 0), 0)
            cert = find_certificate(inst)
            assert (cert is not None) == oracle.feasible, case.text
            verdicts["feasible" if oracle.feasible else "infeasible"] += 1
    assert verdicts["feasible"] >= 150 and verdicts["infeasible"] >= 40, verdicts
    print(f"\nACCEPTANCE 10 PASS: continuous two-sided on seeds {UNBOUNDED_SEEDS}, {dict(verdicts)}")
