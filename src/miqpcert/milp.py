"""Mixed-integer linear sets: fiber/ray-family decomposition and points.

A pointed polyhedron P with integral leading coordinates decomposes as

    P cap (Z^p x R^q)  =  union over fibers P_i and families R_K of
                          P_i + intcone(R_K),

where each R_K is a linearly independent subset of the extreme rays of P and
each fiber is a polytope of continuous completions of one integer prefix
inside the family's window W = P cap box(B^K), with B^K = conv(vertices) +
sum over R_K of the segments [0, r].  Any W with B^K <= W <= P is sound,
because every point of F + intcone(R_K) lies in P, and complete, because
flooring the ray multipliers of a point of the set lands it in B^K <= W.
``window_fibers`` is the one lazy stream of a part's fibers, family by
family, so a search can stop before building the rest, and the one place
that counts them against MAX_FIBERS; ``decompose_mixed_integer_set``
materializes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .linalg import QVector, _dot, _independent_extensions, _integer_fraction, _integer_row
from .polyhedra import HPolyhedron, SimpleCone, VPolyhedron, h_to_v, restrict_prefix

MAX_FIBERS = 20000  # nonempty fibers one stream may build, over all its families


class FiberLimit(ValueError):
    """More than MAX_FIBERS fibers: a resource limit, so the verdict is
    unknown, not an input error."""


@dataclass(frozen=True)
class MixedIntegerSet:
    """P cap (Z^p x R^(n-p)): the first integer_count coordinates integral."""

    polyhedron: HPolyhedron
    integer_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.integer_count <= self.polyhedron.dim:
            raise ValueError("integer count must be between 0 and the dimension")


@dataclass(frozen=True)
class Fiber:
    """Continuous completions of one integer prefix inside one window W."""

    window: HPolyhedron
    integer_part: QVector
    family_index: int
    vertices: tuple[QVector, ...]  # full-space vertices, in lexicographic order
    reduced: HPolyhedron | None  # trailing-coordinate polyhedron; None when q = 0

    @property
    def polyhedron(self) -> HPolyhedron:
        """Full-space description: window rows plus prefix equalities."""
        poly = self.window
        for t, value in enumerate(self.integer_part):
            poly = poly.with_equality(QVector.unit(t, poly.dim), value)
        return poly


@dataclass(frozen=True)
class MisDecomposition:
    fiber_records: tuple[Fiber, ...]
    ray_families: tuple[SimpleCone, ...]


def ray_families(vrep: VPolyhedron) -> tuple[SimpleCone, ...]:
    """All simple families: the nonempty linearly independent ray subsets in
    lexicographic order by size, or the single empty family when the
    polyhedron is bounded."""
    if not vrep.rays:
        return (SimpleCone(()),)
    rows = [_integer_row(r.entries) for r in vrep.rays]
    return tuple(
        SimpleCone(tuple(vrep.rays[i] for i in idx))
        for size in range(1, min(len(rows), vrep.rays[0].dim) + 1)
        for idx, _ in _independent_extensions(rows, size, vrep.rays[0].dim)
    )


def _box(vrep: VPolyhedron, rays: tuple[QVector, ...]) -> list[tuple[Fraction, Fraction]]:
    """The bounding box of conv(vertices) + sum of segments [0, r] over the
    rays, one (lo, hi) pair per coordinate:
    min_v v_t + sum_r min(r_t, 0) <= x_t <= max_v v_t + sum_r max(r_t, 0).
    The vertex part is the V-description's own ``vertex_box``."""
    return [
        (lo + sum(min(r[t], 0) for r in rays), hi + sum(max(r[t], 0) for r in rays))
        for t, (lo, hi) in enumerate(vrep.vertex_box)
    ]


def _window_polytope(
    poly: HPolyhedron, family: SimpleCone, box: list[tuple[Fraction, Fraction]]
) -> HPolyhedron:
    """The window W = P cap box(B^K) of a family: P's rows plus the 2n rows
    of the box of B^K = conv(vertices) + sum over K of [0, r], so that
    B^K <= W <= P.  A family without rays arises only for a bounded P, whose
    B^K is P itself."""
    if not family.rays:
        return poly
    rows = [QVector.unit(t, poly.dim).scale(sign) for t in range(poly.dim) for sign in (1, -1)]
    return poly.with_rows(rows, [bound for lo, hi in box for bound in (hi, -lo)])


def _fibers(poly: HPolyhedron, box: list[tuple[Fraction, Fraction]], p: int, family_index: int) -> Iterator[Fiber]:
    """The nonempty fibers of poly over the integer prefixes y in the first p
    ranges of box, in product order: the completions of y inside poly.  With
    no continuous coordinates, y is tested against ``poly.integer_rows`` as
    it is, and only a kept one becomes Fractions."""
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box[:p]]
    rows = poly.integer_rows
    for combo in product(*ranges):
        if poly.dim == p:
            if all(_dot(row, combo) <= row[-1] for row in rows):
                y = QVector(tuple(map(_integer_fraction, combo)))
                yield Fiber(poly, y, family_index, (y,), None)
            continue
        y = QVector(tuple(map(_integer_fraction, combo)))
        reduced = restrict_prefix(poly, y)
        verts = h_to_v(reduced).vertices
        if verts:
            yield Fiber(poly, y, family_index, tuple(y.concat(z) for z in verts), reduced)


def window_fibers(s: MixedIntegerSet, vrep: VPolyhedron, families: tuple[SimpleCone, ...]) -> Iterator[Fiber]:
    """The nonempty fibers of a pointed part, built lazily: for each of the
    ``families`` (``ray_families(vrep)``, built once by the caller) in turn,
    the fibers of its window W = P cap box(B^K) in the product order of their
    integer prefixes; ``vrep`` is P's nonempty V-description.  Sound and
    complete as B^K <= W <= P: every point of F + intcone(R_K) lies in P, and
    flooring the ray multipliers of a point of the set lands it in B^K.
    Raises :class:`FiberLimit` instead of yielding fiber MAX_FIBERS + 1."""
    built = 0
    for family_index, family in enumerate(families):
        box = _box(vrep, family.rays)
        window = _window_polytope(s.polyhedron, family, box)
        for fiber in _fibers(window, box, s.integer_count, family_index):
            built += 1
            if built > MAX_FIBERS:
                raise FiberLimit(f"decomposition exceeds {MAX_FIBERS} fibers")
            yield fiber


def decompose_mixed_integer_set(s: MixedIntegerSet) -> MisDecomposition:
    """Materialize the fiber/ray-family decomposition of a pointed set.

    An empty polyhedron yields an empty decomposition.  Raises
    :class:`NotPointed` for non-pointed input and :class:`FiberLimit` as
    ``window_fibers`` does.
    """
    vrep = h_to_v(s.polyhedron)
    if vrep.is_empty:
        return MisDecomposition((), ())
    families = ray_families(vrep)
    return MisDecomposition(tuple(window_fibers(s, vrep, families)), families)


def mip_point(s: MixedIntegerSet) -> QVector | None:
    """A point of the mixed-integer set of small encoding size, or None when
    the set is empty.

    Every point x of the set is v + sum mu_r r with v in conv(vertices) and,
    by Caratheodory, r over a simple family K of extreme rays.  Moving back by
    the integral steps floor(mu_r) r keeps the point in P and its prefix
    integral, and lands it in B^K = conv(vertices) + sum over K of [0, r].
    Every B^K lies in conv(vertices) + sum over all extreme rays of [0, r],
    whose bounding box has a closed form (_box).  So the set is nonempty
    exactly when some integer prefix in that box has a nonempty fiber of P
    itself, and the least vertex of the first such fiber is the point
    returned.
    """
    vrep = h_to_v(s.polyhedron)
    if vrep.is_empty:
        return None
    fiber = next(_fibers(s.polyhedron, _box(vrep, vrep.rays), s.integer_count, 0), None)  # P's own: no family
    return None if fiber is None else fiber.vertices[0]
