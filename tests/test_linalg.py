import random
from fractions import Fraction

import pytest

from miqpcert.linalg import (
    DimensionMismatch,
    QMatrix,
    QVector,
    _integer_row,
    _solve_integer,
    as_rational,
    encoding_size,
    isqrt_ceil,
    nullspace_basis,
    rank,
    solve_linear_system,
)

from helpers import mat, reference_rank, reference_solve, vec


def test_encoding_size_zero():
    assert encoding_size(0).bits == 2


def test_encoding_size_three_halves():
    # 1 + ceil(log2(3+1)) + ceil(log2(2+1)) = 1 + 2 + 2
    assert encoding_size(Fraction(3, 2)).bits == 5


def test_encoding_size_vector_additivity():
    # dim-2 header is 1 + bitlength(2) = 3; two zero entries add 4 bits
    assert encoding_size(vec(0, 0)).bits == 4 + 3
    # appending an entry adds exactly its own bits while the header matches
    base = encoding_size(vec(0, Fraction(3, 2))).bits
    assert base == 3 + 2 + 5


def test_encoding_size_subadditive_under_sum():
    rng = random.Random(7)
    for _ in range(500):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert encoding_size(a + b).bits <= encoding_size(a).bits + encoding_size(b).bits + 4


def test_rational_text_forms():
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational("-3") == Fraction(-3)
    assert as_rational("−5/7") == Fraction(-5, 7)
    assert str(Fraction(-5, 7)) == "-5/7"
    assert as_rational(" 12/8 ") == Fraction(3, 2)
    for bad in ("1_000", "1e3", "1.5", "+3", "٣", "3/-4", "- 3", "1/", "/2", "", "1 2"):
        with pytest.raises(ValueError):
            as_rational(bad)
    with pytest.raises(ZeroDivisionError):
        as_rational("1/0")


def test_solve_identity():
    sol = solve_linear_system(QMatrix.identity(2), vec(1, 2))
    assert sol.is_unique
    assert sol.particular == vec(1, 2)


def test_solve_underdetermined():
    m = mat([[1, 1]])
    sol = solve_linear_system(m, vec(1))
    assert not sol.is_unique
    assert m.matvec(sol.particular) == vec(1)
    assert len(sol.nullspace) == 1
    assert m.matvec(sol.nullspace[0]) == vec(0)


def test_solve_infeasible():
    assert solve_linear_system(mat([[1], [1]]), vec(0, 1)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear_system(mat([[1, 0]]), vec(1, 2))


def test_solve_random_substitution():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        rhs = vec(*[rng.randint(-4, 4) for _ in range(rows)])
        sol = solve_linear_system(m, rhs)
        if sol is None:
            continue
        assert m.matvec(sol.particular) == rhs
        for v in sol.nullspace:
            assert m.matvec(v).is_zero()


def test_rank_examples():
    assert rank(QMatrix.zero(2, 2)) == 0
    assert rank(QMatrix.identity(3)) == 3
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_transpose_agrees():
    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank(m.transpose())


def test_isqrt_ceil():
    assert isqrt_ceil(Fraction(0)) == 0
    assert isqrt_ceil(Fraction(2)) == 2
    assert isqrt_ceil(Fraction(4)) == 2
    assert isqrt_ceil(Fraction(5)) == 3
    assert isqrt_ceil(Fraction(1, 4)) == 1
    assert isqrt_ceil(Fraction(17, 4)) == 3
    for k in range(200):
        q = Fraction(k, 7)
        s = isqrt_ceil(q)
        assert s * s >= q and (s == 0 or (s - 1) * (s - 1) < q)


def test_matrix_symmetry_and_shape():
    m = mat([[1, 2], [2, 1]])
    assert m.is_symmetric()
    assert not mat([[1, 2], [3, 1]]).is_symmetric()
    assert m.shape == (2, 2)


def _random_system(rng: random.Random) -> tuple[QMatrix, QVector]:
    """Rational entries with denominators 1..6, up to 5x5, tall and wide,
    with zero rows, dependent rows and inconsistent right-hand sides."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    m = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15:
            m.append([Fraction(0)] * cols)
        elif kind < 0.45 and m:
            # a rational combination of earlier rows: rank deficiency
            row = [Fraction(0)] * cols
            for earlier in rng.sample(m, rng.randint(1, len(m))):
                f = entry()
                row = [a + f * b for a, b in zip(row, earlier)]
            m.append(row)
        else:
            m.append([entry() for _ in range(cols)])
    if rng.random() < 0.6:
        x = [entry() for _ in range(cols)]  # consistent by construction
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]
        if rng.random() < 0.3:
            rhs[rng.randrange(rows)] += Fraction(1, rng.randint(1, 6))  # often inconsistent
    else:
        rhs = [entry() for _ in range(rows)]
    return QMatrix.from_rows(m, cols), QVector.of(rhs)


def test_elimination_matches_rational_reference():
    rng = random.Random(20240501)
    inconsistent = deficient = rational = 0
    for _ in range(600):
        m, rhs = _random_system(rng)
        expected = reference_solve(m, rhs)
        got = solve_linear_system(m, rhs)
        assert (got is None) == (expected is None), (m, rhs)
        assert rank(m) == reference_rank(m)
        null = reference_solve(m, QVector.zero(m.rows))[1]
        assert nullspace_basis(m) == null
        rational += any(v.denominator != 1 for row in m.entries for v in row)
        deficient += reference_rank(m) < min(m.shape)
        if expected is None:
            inconsistent += 1
            continue
        assert (got.particular, got.nullspace) == expected
    # the corpus reaches every case the elimination distinguishes
    assert inconsistent >= 100 and deficient >= 100 and rational >= 400


def test_integer_core_ignores_row_scaling():
    # the rows callers hand the integer core (a polyhedron's integer rows, a
    # KKT system with rescaled multiplier columns) are multiples of the rows
    # solve_linear_system would build; every nonzero multiple gives the same
    # solution set, particular point and nullspace basis
    rng = random.Random(77)
    for _ in range(300):
        m, rhs = _random_system(rng)
        expected = solve_linear_system(m, rhs)
        rows = []
        for i, row in enumerate(m.entries):
            factor = rng.choice((1, -1)) * rng.randint(1, 9)
            rows.append([factor * v for v in _integer_row((*row, rhs[i]))])
        got = _solve_integer(rows, m.cols)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got.particular, got.nullspace) == (expected.particular, expected.nullspace)
