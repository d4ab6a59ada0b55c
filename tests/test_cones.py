import gc
import random
from fractions import Fraction

import pytest

from miqpcert.cones import (
    ConeNotPointed,
    NegativeCurvature,
    normalizing_hyperplane,
    simple_cone_decomposition,
)
from miqpcert.linalg import DimensionMismatch, QMatrix
from miqpcert.polyhedra import SimpleCone, faces_of_simple_cone
from miqpcert.qp import min_quadratic_on_cone_slice

from helpers import mat, reference_normalizing_hyperplane, reference_rank, sample_in_cone, vec


def test_hyperplane_axis_cone():
    nh = normalizing_hyperplane([vec(1, 0), vec(0, 1)])
    assert nh.f == vec(1, 1)
    assert not nh.augmented


def test_hyperplane_skew_cone():
    nh = normalizing_hyperplane([vec(1, 0), vec(1, 1)])
    assert nh.f == vec(1, 0)
    assert nh.f.dot(vec(1, 1)) >= 1


def test_hyperplane_low_dimensional_cone():
    nh = normalizing_hyperplane([vec(1, 1)])
    assert nh.f == vec(1, 0)
    assert len(nh.augmented) == 1
    assert nh.f.dot(vec(1, 1)) == 1


def test_hyperplane_rejects_line():
    with pytest.raises(ConeNotPointed):
        normalizing_hyperplane([vec(1, 0), vec(-1, 0)])


def test_hyperplane_properties_random():
    rng = random.Random(13)
    accepted = 0
    while accepted < 60:
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
        # norm-ratio property in squared form: R^2 (f.x)^2 >= |x|^2 on the cone
        r_sq = max(r.dot(r) for r in rays)
        for _ in range(40):
            x = sample_in_cone(rng, rays)
            if x.is_zero():
                continue
            fx = nh.f.dot(x)
            assert fx > 0
            assert r_sq * fx * fx >= x.dot(x)


def _random_ray_set(rng: random.Random) -> list:
    """1 to n + 2 nonzero rays in R^1..R^4, each a combination of 1..n random
    rows; one set in ten gains a negated ray, which makes a line, and one in
    four has its entries over denominators 1..4."""
    n = rng.randint(1, 4)
    base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
    base[0][rng.randrange(n)] = rng.choice((-1, 1))  # some combination is nonzero
    count = rng.randint(1, n + 2)
    rays = []
    while len(rays) < count:
        entries = [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)]
        if any(entries):
            rays.append(entries)
    if rng.random() < 0.1:
        rays.append([-v for v in rng.choice(rays)])
    if rng.random() < 0.25:
        rays = [[Fraction(v, rng.randint(1, 4)) for v in r] for r in rays]
    return [vec(*r) for r in rays]


def test_hyperplane_matches_search_reference():
    # the greedy unit complement and its one polyhedron give what trying
    # every set of unit vectors, smallest first, gives: the same f and
    # augmentation, or ConeNotPointed for both
    rng = random.Random(2014)
    seen = {"deficient": 0, "many": 0, "not pointed": 0, "fractional": 0}
    for _ in range(2000):
        rays = _random_ray_set(rng)
        n = rays[0].dim
        try:
            expected = reference_normalizing_hyperplane(rays)
        except ConeNotPointed:
            expected = None
            seen["not pointed"] += 1
        if expected is None:
            with pytest.raises(ConeNotPointed):
                normalizing_hyperplane(rays)
        else:
            got = normalizing_hyperplane(rays)
            assert (got.f, got.augmented) == (expected.f, expected.augmented)
        seen["deficient"] += reference_rank(QMatrix.from_rows([r.entries for r in rays])) < n
        seen["many"] += len(rays) > n
        seen["fractional"] += not all(r.is_integral() for r in rays)
    assert seen["deficient"] >= 300 and seen["many"] >= 300
    assert seen["not pointed"] >= 100 and seen["fractional"] >= 100


@pytest.mark.parametrize(
    "rays",
    [
        [vec(1, 0), vec(1, 1, 0)],  # a longer second ray
        [vec(1, 0, 0), vec(1, 1)],  # a shorter second ray
        [vec(1, 0), vec(1, 1, 0), vec(0, 0, 1)],  # a shorter first ray
    ],
)
def test_hyperplane_rejects_mixed_dimensions(rays):
    with pytest.raises(DimensionMismatch):
        normalizing_hyperplane(rays)


def decompose(h_rows, rays):
    return simple_cone_decomposition(
        QMatrix.from_rows(h_rows), SimpleCone(tuple(vec(*r) for r in rays))
    )


def test_split_positive_definite_is_identity():
    dec = decompose([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert len(dec.pieces) == 1
    assert dec.pieces[0].rays == (vec(1, 0), vec(0, 1))


def test_split_axis_flat_direction():
    dec = decompose([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert len(dec.pieces) == 1
    assert set(dec.pieces[0].rays) == {vec(1, 0), vec(0, 1)}
    # the flat face exposes its zero ray
    h = mat([[1, 0], [0, 0]])
    assert vec(0, 1).dot(h.matvec(vec(0, 1))) == 0


def test_split_diagonal_zero_set():
    dec = decompose([[1, -1], [-1, 1]], [[1, 0], [0, 1]])
    assert len(dec.pieces) == 2
    ray_sets = {frozenset(p.rays) for p in dec.pieces}
    assert ray_sets == {
        frozenset({vec(1, 0), vec(1, 1)}),
        frozenset({vec(0, 1), vec(1, 1)}),
    }


def test_split_leaves_no_reference_cycle():
    # a recursive closure would leave a cycle per decomposition (the function,
    # its cells and a tuple) for the cyclic collector; DEBUG_SAVEALL keeps
    # whatever that collector frees in gc.garbage
    decompose([[1, -1], [-1, 1]], [[1, 0], [0, 1]])  # warm-up: caches and first-use objects
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        decompose([[1, -1], [-1, 1]], [[1, 0], [0, 1]])
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_split_rejects_negative_curvature():
    with pytest.raises(NegativeCurvature):
        decompose([[-1, 0], [0, -1]], [[1, 0], [0, 1]])


def _zero_min_faces_expose_zero_ray(h: QMatrix, piece: SimpleCone):
    for face in faces_of_simple_cone(piece):
        if not face.rays:
            continue
        f = normalizing_hyperplane(face.rays).f
        res = min_quadratic_on_cone_slice(h, face.rays, f)
        if res.value == 0:
            assert any(r.dot(h.matvec(r)) == 0 for r in face.rays)


def test_split_face_audit_and_union():
    rng = random.Random(37)
    cases = 0
    while cases < 12:
        n = 3
        count = rng.randint(1, 3)
        rays = []
        for _ in range(count):
            r = vec(*[rng.randint(-2, 3) for _ in range(n)])
            if not r.is_zero():
                rays.append(r)
        if not rays:
            continue
        try:
            cone = SimpleCone(tuple(rays))
        except ValueError:
            continue
        rank_g = rng.randint(1, 3)
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank_g)]
        h_rows = [[sum(g[k][i] * g[k][j] for k in range(rank_g)) for j in range(n)] for i in range(n)]
        h = QMatrix.from_rows(h_rows, n)
        dec = simple_cone_decomposition(h, cone)
        cases += 1
        for piece in dec.pieces:
            assert len(piece.rays) == len(cone.rays)  # same dimension
            _zero_min_faces_expose_zero_ray(h, piece)
            for _ in range(40):
                x = sample_in_cone(rng, piece.rays)
                assert cone.multipliers(x) is not None  # piece inside the cone
        for _ in range(60):
            x = sample_in_cone(rng, cone.rays)
            assert any(p.multipliers(x) is not None for p in dec.pieces)


def test_split_ray_sizes_bounded():
    # generous empirical regression bound on output ray encoding sizes
    from miqpcert.linalg import encoding_size

    h = mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    cone = SimpleCone((vec(1, 0, 0), vec(1, 1, 0), vec(1, 1, 1)))
    input_bits = encoding_size(h).bits + sum(encoding_size(r).bits for r in cone.rays)
    dec = simple_cone_decomposition(h, cone)
    for piece in dec.pieces:
        for r in piece.rays:
            assert encoding_size(r).bits <= 8 * input_bits + 64
