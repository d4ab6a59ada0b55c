"""Normalizing hyperplanes and curvature-guided simple-cone splitting.

A pointed cone admits a hyperplane {x : f^T x = 1} meeting it in a bounded
slice with f^T r >= 1 on every generator.  The rays are completed to a
spanning set by the unit vectors a greedy basis finds independent of them,
and f is a vertex of the one polyhedron {w : w^T g >= 1} they give.  When a
quadratic x^T H x is non-negative on a simple cone, the cone can be split
into simple subcones so that every face whose slice minimum is zero exposes
a generator r with r^T H r = 0; the splitting is driven by exact slice
minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DimensionMismatch, QMatrix, QVector, _greedy_basis, _integer_row
from .polyhedra import HPolyhedron, SimpleCone, h_to_v, primitivize
from .qp import min_quadratic_on_cone_slice


class ConeNotPointed(ValueError):
    """The cone contains a line; no normalizing hyperplane exists."""


class NegativeCurvature(ValueError):
    """The quadratic takes a negative value on the cone, violating the
    splitting precondition."""


@dataclass(frozen=True)
class NormalizingHyperplane:
    """f with f^T r >= 1 on all generators (original and augmenting) and a
    bounded slice {x in cone : f^T x = 1}."""

    f: QVector
    augmented: tuple[QVector, ...]


@dataclass(frozen=True)
class ConeDecomposition:
    pieces: tuple[SimpleCone, ...]


def normalizing_hyperplane(rays: list[QVector] | tuple[QVector, ...]) -> NormalizingHyperplane:
    """Construct a normalizing hyperplane for the pointed cone spanned by
    the given nonzero rays.

    The rays are augmented with the standard basis vectors of their greedy
    complement: the units the greedy basis keeps of the rays' integer rows
    followed by e_0, ..., e_{n-1}, the lexicographically least independent
    n-subset as the units make the rank n, so each unit independent of the
    rays and of the units taken before it.  f is then the lexicographically
    smallest vertex of {w : w^T g >= 1 for every generator g}, built once.

    This is the least set of unit vectors, in size and then in
    ``combinations`` order, whose generators span R^n and give that
    polyhedron a vertex.  Let r be the rank of the rays.  With fewer than
    n - r units the generators do not span R^n, so the polyhedron holds a
    line.  With n - r units U that span, span(U) + span(rays) = R^n is a
    direct sum, so cone(rays + U) is pointed exactly when cone(rays) is: a
    non-negative combination summing to 0 splits along the sum.  A pointed
    cone spanning R^n has a dual cone with an interior, so the polyhedron is
    nonempty and, as the generators span, has a vertex.  The first spanning
    U in ``combinations`` order is the greedy one: the first index where an
    earlier spanning U' differs was skipped by the walk as dependent on the
    rays and the units taken before it, all of which U' holds.  When the
    rays' cone is not pointed, every spanning U leaves the polyhedron empty,
    and :class:`ConeNotPointed` is raised.
    """
    rays = tuple(rays)
    if not rays:
        raise ValueError("at least one ray is required")
    n = rays[0].dim
    if any(r.is_zero() for r in rays):
        raise ValueError("zero vector is not a ray")
    if any(r.dim != n for r in rays):
        raise DimensionMismatch(f"ray dimensions {[r.dim for r in rays]} differ")
    rows = [_integer_row(r.entries) for r in rays] + [[int(i == j) for j in range(n)] for i in range(n)]
    chosen, _ = _greedy_basis(rows, n)
    augmented = tuple(QVector.unit(i - len(rays), n) for i in chosen if i >= len(rays))
    generators = rays + augmented
    a = QMatrix.from_rows([(-g).entries for g in generators], n)
    vertices = h_to_v(HPolyhedron(a, QVector.of([-1] * len(generators)))).vertices
    if not vertices:
        raise ConeNotPointed("cone has no strictly separating functional")
    f = vertices[0]
    assert all(f.dot(g) >= 1 for g in generators)
    return NormalizingHyperplane(f, augmented)


def simple_cone_decomposition(h: QMatrix, cone: SimpleCone) -> ConeDecomposition:
    """Split a simple cone on which x^T H x >= 0 into simple pieces such that
    every zero-slice-minimum face of every piece exposes a ray r with
    r^T H r = 0.

    Raises :class:`NegativeCurvature` if a negative slice minimum shows up
    (the caller should have taken the descent branch instead).
    """
    ambient = cone.rays[0].dim if cone.rays else 1
    return ConeDecomposition(tuple(_split(h, cone, 0, ambient)))


def _split(h: QMatrix, c: SimpleCone, depth: int, ambient: int) -> list[SimpleCone]:
    """The pieces of c; a module function, as a recursive closure is a reference cycle."""
    assert depth <= ambient, "splitting recursed below dimension one"
    if len(c.rays) <= 1:
        return [c]
    hyper = normalizing_hyperplane(c.rays)
    best = min_quadratic_on_cone_slice(h, c.rays, hyper.f)
    if best.value > 0:
        return [c]
    if best.value < 0:
        raise NegativeCurvature(f"slice minimum {best.value} < 0 at {best.minimizer}")
    apex = primitivize(best.minimizer)
    mu = c.multipliers(best.minimizer)
    pieces = []
    for drop in range(len(c.rays)):
        if mu[drop] == 0:
            continue  # the facet without this ray holds the apex
        facet = SimpleCone(c.rays[:drop] + c.rays[drop + 1 :])
        for sub in _split(h, facet, depth + 1, ambient):
            pieces.append(SimpleCone(sub.rays + (apex,)))
    assert pieces, "slice minimizer cannot lie on every facet"
    return pieces
