#!/usr/bin/env python3
# Curvature-guided cone splitting: when a quadratic is non-negative on a
# simple cone, split the cone so that every face whose slice minimum is zero
# exposes a generator annihilated by the quadratic.

from miqpcert import (
    QMatrix,
    QVector,
    SimpleCone,
    faces_of_simple_cone,
    min_quadratic_on_cone_slice,
    normalizing_hyperplane,
    simple_cone_decomposition,
)

vec = lambda *a: QVector.of(a)
quadrant = SimpleCone((vec(1, 0), vec(0, 1)))

# --- normalizing hyperplanes ----------------------------------------------
nh = normalizing_hyperplane(quadrant.rays)
print("hyperplane for the quadrant: f =", nh.f)
nh_low = normalizing_hyperplane([vec(1, 1)])
print("a 1-dim cone needs augmentation:", nh_low.f, "augmented by", [str(a) for a in nh_low.augmented])

# --- splitting along the zero set of (x1 - x2)^2 --------------------------
h = QMatrix.from_rows([[1, -1], [-1, 1]])
dec = simple_cone_decomposition(h, quadrant)
print(f"\n(x1-x2)^2 splits the quadrant into {len(dec.pieces)} pieces:")
for piece in dec.pieces:
    print("  rays:", [str(r) for r in piece.rays])

# audit: every face with slice minimum zero exposes a ray with r^T H r = 0
for piece in dec.pieces:
    for face in faces_of_simple_cone(piece):
        if not face.rays:
            continue
        f = normalizing_hyperplane(face.rays).f
        res = min_quadratic_on_cone_slice(h, face.rays, f)
        zero_rays = [str(r) for r in face.rays if r.dot(h.matvec(r)) == 0]
        print(f"  face {[str(r) for r in face.rays]}: slice min {res.value}, zero rays {zero_rays}")
        if res.value == 0:
            assert zero_rays

# --- positive definite forms never split ----------------------------------
identity_split = simple_cone_decomposition(QMatrix.identity(2), quadrant)
print("\nidentity form keeps the cone whole:", len(identity_split.pieces) == 1)
