import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from miqpcert.linalg import (
    DimensionMismatch,
    QMatrix,
    QVector,
    _greedy_basis,
    _independent_extensions,
    as_rational,
    encoding_size,
    isqrt_ceil,
    nullspace_basis,
    rank,
    solve_linear_system,
)

from helpers import mat, reference_independent_subsets, reference_rank, reference_solve, vec

SRC = Path(__file__).resolve().parent.parent / "src"


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
    rng = random.Random(119)
    large = [Fraction(rng.randint(0, 10**30), rng.randint(1, 10**12)) for _ in range(2000)]
    for q in [Fraction(k, 7) for k in range(200)] + large:
        s = isqrt_ceil(q)
        assert s * s >= q and (s == 0 or (s - 1) * (s - 1) < q)
    for _ in range(2000):  # exact squares s^2 / d^2, whose root s / d is rational
        root, den = rng.randint(0, 10**15), rng.randint(1, rng.choice((1, 10**6)))
        assert isqrt_ceil(Fraction(root * root, den * den)) == -(-root // den)
    with pytest.raises(ValueError):
        isqrt_ceil(Fraction(-1, 10**20))


def test_matrix_symmetry_and_shape():
    m = mat([[1, 2], [2, 1]])
    assert m.is_symmetric()
    assert not mat([[1, 2], [3, 1]]).is_symmetric()
    assert m.shape == (2, 2)


def _random_system(rng: random.Random) -> tuple[QMatrix, QVector]:
    """Rational entries with denominators 1..6, up to 5x5, tall and wide,
    with zero rows, dependent rows and inconsistent right-hand sides, and
    now and then no rows or no columns."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    shape = rng.random()
    if shape < 0.04:
        rows = 0
    elif shape < 0.08:
        cols = 0

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
        if rows and rng.random() < 0.3:
            rhs[rng.randrange(rows)] += Fraction(1, rng.randint(1, 6))  # often inconsistent
    else:
        rhs = [entry() for _ in range(rows)]
    return QMatrix.from_rows(m, cols), QVector.of(rhs)


def test_elimination_matches_rational_reference():
    rng = random.Random(20240501)
    inconsistent = deficient = rational = empty = 0
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
        empty += not min(m.shape)
        if expected is None:
            inconsistent += 1
            continue
        assert (got.particular, got.nullspace) == expected
    # the corpus reaches every case the elimination distinguishes
    assert inconsistent >= 100 and deficient >= 100 and rational >= 400 and empty >= 30


def test_integer_core_ignores_row_scaling():
    # solve_linear_system scales each row, with its right-hand side, to
    # integers, so every nonzero rational multiple of a row gives the same
    # solution set, particular point and nullspace basis
    rng = random.Random(77)
    for _ in range(300):
        m, rhs = _random_system(rng)
        expected = solve_linear_system(m, rhs)
        factors = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m.rows)]
        scaled = QMatrix(tuple(tuple(f * v for v in row) for f, row in zip(factors, m.entries)), m.cols)
        got = solve_linear_system(scaled, QVector(tuple(f * v for f, v in zip(factors, rhs))))
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got.particular, got.nullspace) == (expected.particular, expected.nullspace)


# solves an inconsistent, a rank-deficient and two empty systems with asserts
# stripped and prints each result's particular point and nullspace basis, or
# None, as strings
NO_ASSERTS_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from miqpcert.linalg import QMatrix, QVector, solve_linear_system
assert False, "asserts are not stripped"
results = []
for rows, cols, rhs in json.loads(sys.argv[2]):
    got = solve_linear_system(QMatrix.from_rows(rows, cols), QVector.of(rhs))
    results.append(got and [str(got.particular), [str(v) for v in got.nullspace]])
print(json.dumps(results))
"""


def test_solve_with_asserts_stripped():
    # the consistency test is the substitution check, so it must hold under
    # python -O as well
    systems = [
        ([[1, 2], [2, 4]], 2, [1, 3]),  # inconsistent
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 3, [1, 2, 0]),  # rank-deficient
        ([[2, 4, 6], [1, 2, 3]], 3, ["1/2", 1]),  # rank-deficient, inconsistent
        ([], 2, []),  # no rows
        ([[], []], 0, [0, 1]),  # no columns, inconsistent
    ]
    done = subprocess.run(
        [sys.executable, "-O", "-B", "-I", "-c", NO_ASSERTS_PROBE, str(SRC), json.dumps(systems)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    expected = []
    for rows, cols, rhs in systems:
        solution = reference_solve(QMatrix.from_rows(rows, cols), QVector.of(rhs))
        expected.append(solution and [str(solution[0]), [str(v) for v in solution[1]]])
    assert [e is None for e in expected] == [True, False, True, False, True]
    assert json.loads(done.stdout) == expected


def _walk_matrix(rng: random.Random, cols: int) -> list[list[int]]:
    """Up to six seeded integer rows in ``cols`` columns: independent ones,
    combinations of a few of them (so the rank can fall short), zero rows
    and repeated rows, in a shuffled order."""
    base = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, cols + 1))]
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * cols)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.6:
            weights = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(w * row[j] for w, row in zip(weights, base)) for j in range(cols)])
        else:
            rows.append(rng.choice(base)[:])
    rng.shuffle(rows)
    return rows


def test_walk_matches_combinations_oracle():
    """The subset walk against ``itertools.combinations`` filtered by a
    Fraction rank, on 2,000 seeded integer matrices with up to six rows in
    one to four coefficient columns, half of them with a right-hand-side
    column last that makes no row independent: every size yields the
    independent subsets in lexicographic order, ``every_depth`` yields each
    of them once, and the greedy basis keeps the least subset of the largest
    size, the rank, with one reduced row and a distinct pivot column each."""
    rng = random.Random(2026)
    counts = {"deficient": 0, "zero row": 0, "right-hand side": 0, "empty": 0}
    for trial in range(2000):
        cols = rng.randint(1, 4)
        rows = _walk_matrix(rng, cols)
        if trial % 2:
            rows = [row + [rng.randint(-5, 5)] for row in rows]
            counts["right-hand side"] += 1
        oracle = {size: reference_independent_subsets(rows, size, cols) for size in range(min(len(rows), cols) + 2)}
        for size, expected in oracle.items():
            assert [idx for idx, _ in _independent_extensions(rows, size, cols)] == expected, (rows, size)
        every = [idx for idx, _ in _independent_extensions(rows, cols, cols, every_depth=True)]
        assert sorted(every) == sorted(idx for subsets in oracle.values() for idx in subsets)
        largest = max(size for size, subsets in oracle.items() if subsets)
        indices, basis = _greedy_basis(rows, cols)
        assert indices == oracle[largest][0]
        assert len(basis) == largest == reference_rank(QMatrix.from_rows([row[:cols] for row in rows], cols))
        assert len({pcol for _, pcol in basis}) == largest
        counts["deficient"] += largest < min(len(rows), cols)
        counts["zero row"] += any(not any(row[:cols]) for row in rows)
        counts["empty"] += not rows
    assert counts["deficient"] >= 600 and counts["zero row"] >= 600 and counts["empty"] >= 200, counts
