"""Normalizing hyperplanes and curvature-guided simple-cone splitting.

A pointed cone admits a hyperplane {x : f^T x = 1} meeting it in a bounded
slice with f^T r >= 1 on every generator.  When a quadratic x^T H x is
non-negative on a simple cone, the cone can be split into simple subcones so
that every face whose slice minimum is zero exposes a generator r with
r^T H r = 0; the splitting is driven by exact slice minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import QMatrix, QVector
from .polyhedra import HPolyhedron, NotPointed, SimpleCone, h_to_v, primitivize
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

    The ray set is augmented with a minimal subset of standard basis vectors
    until it spans R^n while staying pointed; f is then the lexicographically
    smallest extreme point of {w : w^T r >= 1 for every generator}.
    """
    rays = tuple(rays)
    if not rays:
        raise ValueError("at least one ray is required")
    n = rays[0].dim
    if any(r.is_zero() for r in rays):
        raise ValueError("zero vector is not a ray")
    for count in range(0, n + 1):
        for aug_idx in combinations(range(n), count):
            augmented = tuple(QVector.unit(i, n) for i in aug_idx)
            generators = rays + augmented
            feasible = HPolyhedron(
                QMatrix.from_rows([(-g).entries for g in generators], n),
                QVector.of([-1] * len(generators)),
            )
            try:
                vertices = h_to_v(feasible).vertices
            except NotPointed:
                continue  # the generators do not span R^n
            if not vertices:
                continue  # this augmentation broke pointedness
            f = vertices[0]
            assert all(f.dot(g) >= 1 for g in generators)
            return NormalizingHyperplane(f, augmented)
    raise ConeNotPointed("cone has no strictly separating functional")


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
