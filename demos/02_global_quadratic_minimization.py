#!/usr/bin/env python3
# The exact QP kernel: global minima of rational quadratics over polytopes,
# including indefinite and degenerate cases where float solvers guess.

from fractions import Fraction

from miqpcert import (
    HPolyhedron,
    QMatrix,
    QVector,
    QuadraticForm,
    eval_quadratic,
    h_to_v,
    min_quadratic_on_cone_slice,
    qp_global_min,
)

vec = lambda *a: QVector.of(a)
box = HPolyhedron(
    QMatrix.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]]),
    QVector.of([1, 0, 1, 0]),
)

# a strictly convex parabola: interior minimum at exactly 1/2
q1 = QuadraticForm(QMatrix.from_rows([[1]]), QVector.of([-1]), Fraction(0))
seg = HPolyhedron(QMatrix.from_rows([[1], [-1]]), QVector.of([1, 0]))
res = qp_global_min(q1, seg)
print(f"min of x^2 - x on [0,1]: value {res.value} at {res.minimizer}")

# concave: the optimum sits on a vertex
q2 = QuadraticForm(QMatrix.from_rows([[-1]]), QVector.of([0]), Fraction(0))
res = qp_global_min(q2, HPolyhedron(QMatrix.from_rows([[1], [-1]]), QVector.of([2, 1])))
print(f"min of -x^2 on [-1,2]: value {res.value} at {res.minimizer}")

# degenerate: (x1 - x2)^2 is zero on the whole diagonal of the square;
# the kernel returns a deterministic representative of the optimal flat
q3 = QuadraticForm(QMatrix.from_rows([[1, -1], [-1, 1]]), QVector.of([0, 0]), Fraction(0))
res = qp_global_min(q3, box)
print(f"min of (x1-x2)^2 on the square: value {res.value} at {res.minimizer}")
assert eval_quadratic(q3, res.minimizer) == res.value

# cone slices: minimize the pure quadratic on a normalized cross-section
quadrant = HPolyhedron(QMatrix.from_rows([[-1, 0], [0, -1]]), QVector.of([0, 0]))
res = min_quadratic_on_cone_slice(QMatrix.from_rows([[1, 0], [0, -1]]), h_to_v(quadrant).rays, vec(1, 1))
print(f"slice minimum of x1^2 - x2^2 over the quadrant: {res.value} at {res.minimizer}")
