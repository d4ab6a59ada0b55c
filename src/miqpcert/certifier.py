"""Feasibility certificates for one quadratic inequality over a mixed-integer
polyhedral set.

Decides whether { x : x^T H x + c^T x + d <= 0, Ax <= b, first p coords
integral } is nonempty and, when it is, constructs a rational witness of
small encoding size.  The search splits into sign-restricted pointed parts
when needed, then branches on the sign of the minimum of x^T H x over a
normalized slice of the recession cone:

* negative minimum: shoot from any mixed-integer point along the negative
  direction far enough that the concave parabola in the step length dips
  below zero;
* non-negative minimum: go family by family over the simple families of
  extreme rays.  Split each family once along zero-curvature structure into
  pieces, then build the fibers of that family's window lazily and pair each
  only with its own family's pieces: descend along a flat ray with negative
  linear rate if one exists, and otherwise scan the bounded residual window,
  sending to the exact QP kernel only the shifted fibers that an exact lower
  bound does not already rule out.  The search stops at the first
  certificate.

Every certificate is re-verified exactly before being returned.  Orthant
parts and (family, fiber, piece) branches are mutually independent; a
parallel driver may race them as long as wins resolve in the same
lexicographic order, which is why the sequential search is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cones import normalizing_hyperplane, simple_cone_decomposition
from .linalg import (
    DimensionMismatch,
    EncodingSize,
    QVector,
    encoding_size,
    isqrt_ceil,
)
from .milp import MAX_FIBERS, Fiber, MixedIntegerSet, mip_point, ray_families, window_fibers
from .polyhedra import (
    HPolyhedron,
    SimpleCone,
    h_to_v,
    is_pointed,
    iter_orthant_parts,
    primitivize,
    recession_cone,
)
from .qp import QuadraticForm, eval_quadratic, min_quadratic_on_cone_slice, qp_global_min, restrict_quadratic

_WINDOW_ENUM_CAP = 10**6


class CertifierError(RuntimeError):
    """Internal invariant violation.  Surfaces as a diagnostic instead of a
    wrong verdict."""


@dataclass(frozen=True)
class MiqpInstance:
    """The full feasibility system: quadratic row, linear rows, integrality."""

    quad: QuadraticForm
    polyhedron: HPolyhedron
    integer_count: int

    def __post_init__(self) -> None:
        if self.quad.dim != self.polyhedron.dim:
            raise DimensionMismatch("quadratic and polyhedron dimensions differ")
        if not 0 <= self.integer_count <= self.polyhedron.dim:
            raise ValueError("integer count out of range")

    @property
    def dim(self) -> int:
        return self.polyhedron.dim

    @property
    def bit_size(self) -> EncodingSize:
        """Encoding size of the instance data {H, c, d, A, b}."""
        return (
            encoding_size(self.quad.h)
            + encoding_size(self.quad.c)
            + encoding_size(self.quad.d)
            + encoding_size(self.polyhedron.a)
            + encoding_size(self.polyhedron.b)
        )


@dataclass(frozen=True)
class SearchTrace:
    """Which branch of the search produced a certificate."""

    orthant: tuple[int, ...] | None
    branch: str  # "negative-ray" | "linear-ray" | "window-qp"
    fiber_index: int | None = None
    family_index: int | None = None
    piece_index: int | None = None
    ray_index: int | None = None
    step: int | None = None  # descent scaling (lambda or mu)
    shift: tuple[int, ...] | None = None  # residual-window ray multipliers
    norm_bound: int | None = None  # derived certificate norm bound, window branch

    def tag(self) -> str:
        def fmt(v: int | None) -> str:
            return "-" if v is None else str(v)

        orthant = "all" if self.orthant is None else "".join("+" if s > 0 else "-" for s in self.orthant)
        shift = "-" if self.shift is None else (",".join(str(x) for x in self.shift) or "()")
        parts = [
            f"orthant={orthant}",
            f"branch={self.branch}",
            f"fiber={fmt(self.fiber_index)}",
            f"family={fmt(self.family_index)}",
            f"piece={fmt(self.piece_index)}",
            f"ray={fmt(self.ray_index)}",
            f"step={fmt(self.step)}",
            f"shift={shift}",
            f"bound={fmt(self.norm_bound)}",
        ]
        return ";".join(parts)

    @staticmethod
    def from_tag(tag: str) -> "SearchTrace":
        fields = dict(item.split("=", 1) for item in tag.split(";"))

        def opt_int(key: str) -> int | None:
            v = fields[key]
            return None if v == "-" else int(v)

        orthant = None
        if fields["orthant"] != "all":
            orthant = tuple(1 if ch == "+" else -1 for ch in fields["orthant"])
        shift = None
        if fields["shift"] != "-":
            raw = fields["shift"]
            shift = () if raw == "()" else tuple(int(x) for x in raw.split(","))
        return SearchTrace(
            orthant=orthant,
            branch=fields["branch"],
            fiber_index=opt_int("fiber"),
            family_index=opt_int("family"),
            piece_index=opt_int("piece"),
            ray_index=opt_int("ray"),
            step=opt_int("step"),
            shift=shift,
            norm_bound=opt_int("bound"),
        )


@dataclass(frozen=True)
class Certificate:
    point: QVector
    size: EncodingSize
    trace: SearchTrace


@dataclass(frozen=True)
class VerificationReport:
    violated_rows: tuple[int, ...]
    integral: bool
    q_value: Fraction
    size: EncodingSize

    @property
    def linear_ok(self) -> bool:
        return not self.violated_rows

    @property
    def feasible(self) -> bool:
        return self.linear_ok and self.q_value <= 0

    @property
    def ok(self) -> bool:
        return self.feasible and self.integral


def verify_certificate(inst: MiqpInstance, x: QVector) -> VerificationReport:
    """Exact membership checks for a claimed witness."""
    if x.dim != inst.dim:
        raise DimensionMismatch(f"certificate dim {x.dim} vs instance dim {inst.dim}")
    violated = inst.polyhedron.violated_rows(x)
    integral = x.take(inst.integer_count).is_integral()
    return VerificationReport(violated, integral, eval_quadratic(inst.quad, x), encoding_size(x))


# ---------------------------------------------------------------------------
# exact ceilings of quadratic roots


def _ceil_root(e: Fraction, disc: Fraction, g: Fraction) -> int:
    """ceil((e + sqrt(disc)) / g) computed exactly for disc >= 0, g > 0."""
    assert disc >= 0 and g > 0
    hi = math.ceil((e + isqrt_ceil(disc)) / g)
    lo = math.floor(e / g) - 1  # below (e + 0)/g <= true root

    def reaches(k: int) -> bool:
        lhs = g * k - e
        return lhs >= 0 and lhs * lhs >= disc

    assert reaches(hi)
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# driver


def find_certificate(inst: MiqpInstance) -> Certificate | None:
    """A verified feasibility certificate, or None when the system has no
    solution.  Deterministic: reruns reproduce the identical certificate."""
    if is_pointed(inst.polyhedron):
        parts = [(None, inst.polyhedron)]
    else:
        parts = list(iter_orthant_parts(inst.polyhedron))
    for signs, part in parts:
        if h_to_v(part).is_empty:
            continue
        cert = certify_pointed_part(inst, part, signs)
        if cert is not None:
            report = verify_certificate(inst, cert.point)
            if not report.ok:
                raise CertifierError(f"constructed point fails verification: {cert}")
            return cert
    return None


def certify_pointed_part(
    inst: MiqpInstance, part: HPolyhedron, signs: tuple[int, ...] | None
) -> Certificate | None:
    """Branch on the sign of min r^T H r over a normalized recession slice.

    ``part`` is nonempty, so h_to_v(part) lists the extreme rays of its
    recession cone: the rays come from the rows of A alone, whatever b is."""
    rays = h_to_v(part).rays
    if not rays:
        return nonnegative_recession_search(inst, part, None, signs)
    f = normalizing_hyperplane(rays).f
    slice_min = min_quadratic_on_cone_slice(inst.quad.h, recession_cone(part), f)
    if slice_min.value < 0:
        return negative_ray_certificate(inst, part, slice_min.minimizer, signs)
    return nonnegative_recession_search(inst, part, f, signs)


def negative_ray_certificate(
    inst: MiqpInstance, part: HPolyhedron, direction: QVector, signs: tuple[int, ...] | None
) -> Certificate | None:
    """Witness from a strictly negative recession direction: start at any
    mixed-integer point and step just past the larger parabola root."""
    r = primitivize(direction)
    base = mip_point(MixedIntegerSet(part, inst.integer_count))
    if base is None:
        return None  # the part holds no mixed-integer point at all
    hr = inst.quad.h.matvec(r)
    lead = r.dot(hr)
    if lead >= 0:
        raise CertifierError("descent direction lost its negative curvature")
    slope = 2 * base.dot(hr) + inst.quad.c.dot(r)
    const = eval_quadratic(inst.quad, base)
    disc = slope * slope - 4 * lead * const
    if disc < 0:
        step = 0  # parabola opens downward with no real roots: negative everywhere
    else:
        step = max(0, _ceil_root(slope, disc, 2 * (-lead)))
    point = base + r.scale(step)
    trace = SearchTrace(orthant=signs, branch="negative-ray", step=step)
    return Certificate(point, encoding_size(point), trace)


def nonnegative_recession_search(
    inst: MiqpInstance, part: HPolyhedron, f: QVector | None, signs: tuple[int, ...] | None
) -> Certificate | None:
    """Search family by family: the fibers of each family's window, built
    lazily, each paired with the pieces of its own family only, stopping at
    the first certificate.

    Own-family pairing is complete.  A point x of the mixed-integer set is
    v + sum mu_r r with v in conv(vertices) and, by Caratheodory, r over a
    linearly independent family K of extreme rays.  Stepping back by the
    integral multiples floor(mu_r) r keeps the prefix integral and lands in
    B^K <= W, where B^K = conv(vertices) + sum over K of [0, r] and W is K's
    window, so x lies in F + intcone(R_K) for a fiber F of K's own window,
    and the pieces of K cover cone(R_K).  A fiber paired with another
    family's rays reaches only points of the set, each already covered by
    its own family's pairs, so those pairs are never needed.  The piece data
    that does not depend on the fiber (flat and curving rays, the curving
    slice and its curvature minimum) is computed once per family, when its
    first fiber is reached.
    """
    s = MixedIntegerSet(part, inst.integer_count)
    vrep = h_to_v(part)
    if vrep.is_empty:
        return None
    built = 0
    for family_index, family in enumerate(ray_families(vrep)):
        pieces: list[WindowPiece] | None = None
        for fiber_index, fiber in enumerate(window_fibers(s, vrep, family, family_index)):
            built += 1
            if built > MAX_FIBERS:
                raise ValueError(f"decomposition exceeds {MAX_FIBERS} fibers")
            if pieces is None:
                pieces = [
                    _window_piece(inst.quad, piece, f)
                    for piece in simple_cone_decomposition(inst.quad.h, family).pieces
                ]
            for piece_index, piece in enumerate(pieces):
                for ray_index in piece.flat:
                    found = linear_descent_step(inst.quad, fiber, piece.rays, ray_index)
                    if found is None:
                        continue
                    start, rate = found
                    assert rate < 0
                    mu = max(0, math.ceil(eval_quadratic(inst.quad, start) / (-rate)))
                    point = start + piece.rays[ray_index].scale(mu)
                    trace = SearchTrace(
                        orthant=signs,
                        branch="linear-ray",
                        fiber_index=fiber_index,
                        family_index=family_index,
                        piece_index=piece_index,
                        ray_index=ray_index,
                        step=mu,
                    )
                    return Certificate(point, encoding_size(point), trace)
                cert = bounded_window_search(
                    inst, fiber, piece, signs, (fiber_index, family_index, piece_index)
                )
                if cert is not None:
                    return cert
    return None


@dataclass(frozen=True)
class WindowPiece:
    """The fiber-independent data of one simple piece of a family's cone."""

    rays: tuple[QVector, ...]
    flat: tuple[int, ...]  # indices of the rays with r^T H r = 0
    curving: tuple[QVector, ...]  # the other rays, in order
    f_values: tuple[Fraction, ...]  # f . r over the curving rays, all > 0
    slice_terms: tuple[tuple[QVector, Fraction], ...]  # (H u, c . u) per vertex u of the curving slice
    v1: Fraction | None  # min x^T H x over the curving slice, > 0
    slice_norm: int | None  # ceil of the largest slice-vertex norm


def _window_piece(quad: QuadraticForm, piece: SimpleCone, f: QVector | None) -> WindowPiece:
    """Split a piece's rays into flat and curving ones and, when some curve,
    bound the quadratic's growth along them over the slice f . x = 1 of their
    cone."""
    flat = tuple(i for i, ray in enumerate(piece.rays) if ray.dot(quad.h.matvec(ray)) == 0)
    curving = tuple(ray for i, ray in enumerate(piece.rays) if i not in flat)
    if not curving:
        return WindowPiece(piece.rays, flat, (), (), (), None, None)
    if f is None:
        raise CertifierError("curving rays exist but no normalizing hyperplane was built")
    slice_poly = SimpleCone(curving).to_hpolyhedron(f.dim).with_equality(f, Fraction(1))
    slice_v = h_to_v(slice_poly)
    if slice_v.rays or not slice_v.vertices:
        raise CertifierError("curving-ray slice is not a nonempty polytope")
    v1 = qp_global_min(QuadraticForm.pure(quad.h), slice_poly).value
    if v1 <= 0:
        raise CertifierError("curvature minimum on the residual cone must be positive")
    f_values = tuple(f.dot(r) for r in curving)
    if any(fv <= 0 for fv in f_values):
        raise CertifierError("hyperplane is not strictly positive on the residual rays")
    slice_terms = tuple((quad.h.matvec(u), quad.c.dot(u)) for u in slice_v.vertices)
    slice_norm = isqrt_ceil(max(u.dot(u) for u in slice_v.vertices))
    return WindowPiece(piece.rays, flat, curving, f_values, slice_terms, v1, slice_norm)


def linear_descent_step(
    quad: QuadraticForm, fiber: Fiber, rays: tuple[QVector, ...], ray_index: int
) -> tuple[QVector, Fraction] | None:
    """Along a flat ray the quadratic changes at the linear rate
    2 x^T H r + c^T r.  Find a point of the fiber plus the other rays'
    integer cone where that rate is negative, or None if its minimum there
    is non-negative."""
    r = rays[ray_index]
    hr = quad.h.matvec(r)
    const = quad.c.dot(r)
    best = min(fiber.vertices, key=lambda v: (2 * v.dot(hr) + const, v))
    value = 2 * best.dot(hr) + const
    if value < 0:
        return best, value
    for j, other in enumerate(rays):
        if j == ray_index:
            continue
        slope = 2 * other.dot(hr)
        if slope < 0:
            eta = max(0, math.ceil(Fraction(value + 1) / (-slope)))
            return best + other.scale(eta), value + eta * slope
    return None


def _fiber_min(quad: QuadraticForm, fiber: Fiber, shift: QVector) -> tuple[Fraction, QVector]:
    """Exact minimum of the quadratic over fiber + shift, and a point where
    it is attained."""
    if fiber.reduced is None:
        point = fiber.vertices[0] + shift
        return eval_quadratic(quad, point), point
    p = fiber.integer_part.dim
    prefix = fiber.integer_part + shift.take(p)
    inner = quad if p == 0 else restrict_quadratic(quad, prefix)
    res = qp_global_min(inner, fiber.reduced.translate(shift.drop(p)))
    point = prefix.concat(res.minimizer)
    return eval_quadratic(quad, point), point


def _shift_lower_bound(quad: QuadraticForm, fiber: Fiber, v3: Fraction, shift: QVector) -> Fraction:
    """A lower bound on the quadratic over fiber + shift, given its exact
    minimum v3 over the fiber itself.

    q(x + s) = q(x) + 2 x^T H s + c^T s + s^T H s, where q(x) >= v3 on the
    fiber and the linear term is least at one of the fiber's vertices.  The
    bound is exact when the fiber is a single point."""
    hs = quad.h.matvec(shift)
    return v3 + min(2 * v.dot(hs) for v in fiber.vertices) + quad.c.dot(shift) + shift.dot(hs)


def bounded_window_search(
    inst: MiqpInstance,
    fiber: Fiber,
    piece: WindowPiece,
    signs: tuple[int, ...] | None,
    indices: tuple[int, int, int],
) -> Certificate | None:
    """Residual search once no flat ray descends: curving-ray multipliers are
    bounded through the root of the minorizing parabola, and each shifted
    fiber goes to the exact QP kernel unless the lower bound of
    _shift_lower_bound already puts the quadratic above zero there.  Such a
    shift could not certify, so skipping its QP never changes which shift
    certifies first."""
    fiber_index, family_index, piece_index = indices

    def window_certificate(shift_counts: tuple[int, ...], shift: QVector, bound: int | None) -> Certificate | None:
        value, point = _fiber_min(inst.quad, fiber, shift)
        if value > 0:
            return None
        trace = SearchTrace(
            orthant=signs,
            branch="window-qp",
            fiber_index=fiber_index,
            family_index=family_index,
            piece_index=piece_index,
            shift=shift_counts,
            norm_bound=bound,
        )
        return Certificate(point, encoding_size(point), trace)

    if not piece.curving:
        return window_certificate((), QVector.zero(inst.dim), None)

    n = inst.dim
    v1 = piece.v1
    v2 = min(2 * pv.dot(hu) + cu for pv in fiber.vertices for hu, cu in piece.slice_terms)
    v3, _ = _fiber_min(inst.quad, fiber, QVector.zero(n))
    v4 = max(math.ceil(abs(coord)) for vert in fiber.vertices for coord in vert.entries)
    disc = v2 * v2 - 4 * v1 * v3
    lam_max = 0 if disc < 0 else max(0, _ceil_root(-v2, disc, 2 * v1))
    norm_bound = isqrt_ceil(Fraction(n)) * v4 + lam_max * piece.slice_norm
    caps = [math.floor(Fraction(lam_max) / fv) for fv in piece.f_values]
    total = 1
    for cap in caps:
        total *= cap + 1
    if total > _WINDOW_ENUM_CAP:
        raise CertifierError(f"residual window needs {total} multiplier tuples")
    for counts in product(*(range(cap + 1) for cap in caps)):
        if sum(m * fv for m, fv in zip(counts, piece.f_values)) > lam_max:
            continue
        shift = QVector.zero(n)
        for m, ray in zip(counts, piece.curving):
            shift = shift + ray.scale(m)
        if _shift_lower_bound(inst.quad, fiber, v3, shift) > 0:
            continue
        cert = window_certificate(counts, shift, norm_bound)
        if cert is not None:
            return cert
    return None
