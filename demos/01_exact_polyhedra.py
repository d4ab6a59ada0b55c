#!/usr/bin/env python3
# Exact rational polyhedra: H- and V-descriptions, recession cones, and
# Caratheodory selection.  Everything below is computed in exact fractions;
# run the script and check the printed values by hand.

from fractions import Fraction

from miqpcert import (
    HPolyhedron,
    QMatrix,
    QVector,
    caratheodory_simple_cone,
    encoding_size,
    h_to_v,
    is_pointed,
    iter_orthant_parts,
    recession_cone,
)

vec = lambda *a: QVector.of(a)

# --- encoding sizes -------------------------------------------------------
# the bit measure drives every "small certificate" statement in the library
for value in (0, Fraction(3, 2), Fraction(-1024, 7)):
    print(f"encoding_size({value}) = {encoding_size(value).bits} bits")

# --- a wedge with two rays ------------------------------------------------
# x1 >= 1, 0 <= x2 <= x1: two vertices, two extreme rays
wedge = HPolyhedron(
    QMatrix.from_rows([[-1, 0], [0, -1], [-1, 1]]),
    QVector.of([-1, 0, 0]),
)
v = h_to_v(wedge)
print("\nwedge vertices:", [str(x) for x in v.vertices])
print("wedge rays:    ", [str(r) for r in v.rays])

# the recession cone drops the right-hand sides
rec = recession_cone(wedge)
print("recession cone rows:", rec.num_rows, "pointed:", is_pointed(rec))

# --- splitting a line into sign-restricted parts --------------------------
line = HPolyhedron(QMatrix.zero(0, 1), QVector.of([]))
parts = [part for _, part in iter_orthant_parts(line)]
print("\nthe real line splits into", len(parts), "pointed parts")
print(" part 0 contains  3:", parts[0].contains(vec(3)))
print(" part 1 contains -3:", parts[1].contains(vec(-3)))

# --- Caratheodory: a conic combination through an independent subset ------
rays = [vec(1, 0), vec(0, 1), vec(1, 1)]
subset, weights = caratheodory_simple_cone(rays, vec(3, 2))
print("\n(3,2) uses rays", subset, "with weights", [str(w) for w in weights])
