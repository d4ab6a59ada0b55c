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
  linear rate if one exists, and otherwise search the bounded residual
  window by branch and bound over boxes of curving-ray multipliers, sending
  to the exact QP kernel only the shifts no box bound rules out.  The search
  stops at the first certificate.

The window's two box bounds run in integers scaled once per window by one
S > 0, which keeps each comparison with 0 exact, and over the fiber-vertex
rates no other rate dominates.  The relaxed bound shares one QP pool across
those rates: its walk and face hulls are built once per box.

Every certificate is re-verified exactly before being returned.  Orthant
parts and (family, fiber, piece) branches are mutually independent; a
parallel driver may race them as long as wins resolve in the same
lexicographic order, which is why the sequential search is the reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .cones import normalizing_hyperplane, simple_cone_decomposition
from .linalg import (
    DimensionMismatch,
    EncodingSize,
    QMatrix,
    QVector,
    _dot,
    _integer_row,
    encoding_size,
    isqrt_ceil,
)
from .milp import Fiber, FiberLimit, MixedIntegerSet, mip_point, ray_families, window_fibers
from .polyhedra import (
    HPolyhedron,
    NotPointed,
    SimpleCone,
    VPolyhedron,
    h_to_v,
    iter_orthant_parts,
    primitivize,
)
from .qp import (
    QuadraticForm,
    _pool_min,
    _quadratic_numerator,
    eval_quadratic,
    min_quadratic_on_cone_slice,
    qp_global_min,
    restrict_quadratic,
)


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


_BRANCHES = ("negative-ray", "linear-ray", "window-qp")
# the trace tag's key for each SearchTrace field, in field order: tag and from_tag pair them by position
_TAG_KEYS = ("orthant", "branch", "fiber", "family", "piece", "ray", "step", "shift", "bound")


@dataclass(frozen=True)
class SearchTrace:
    """Which branch of the search produced a certificate."""

    orthant: tuple[int, ...] | None
    branch: str  # one of _BRANCHES
    fiber_index: int | None = None
    family_index: int | None = None
    piece_index: int | None = None
    ray_index: int | None = None
    step: int | None = None  # descent scaling (lambda or mu)
    shift: tuple[int, ...] | None = None  # residual-window ray multipliers
    norm_bound: int | None = None  # derived certificate norm bound, window branch

    def tag(self) -> str:
        def write(v: object) -> str:
            if v is None:
                return "-"
            return (",".join(map(str, v)) or "()") if isinstance(v, tuple) else str(v)

        orthant = "all" if self.orthant is None else "".join("+" if s > 0 else "-" for s in self.orthant)
        _, *values = vars(self).values()  # the fields after orthant, in order, as __init__ set them
        return ";".join([f"{key}={write(v)}" for key, v in zip(_TAG_KEYS, (orthant, *values))])

    @staticmethod
    def from_tag(tag: str) -> "SearchTrace":
        """The trace that :meth:`tag` wrote; raises ValueError on any other text."""
        items = [item.split("=", 1) for item in tag.split(";")]
        if [item[0] for item in items] != list(_TAG_KEYS):
            raise ValueError(f"trace tag must have the fields {', '.join(_TAG_KEYS)} in this order")
        text = dict(items)
        if text["branch"] not in _BRANCHES:
            raise ValueError(f"unknown branch {text['branch']!r}")
        if text["orthant"] != "all" and not (text["orthant"] and set(text["orthant"]) <= {"+", "-"}):
            raise ValueError(f"orthant must be 'all' or a string of signs, got {text['orthant']!r}")

        def value(key: str, raw: str) -> int | tuple[int, ...] | None:
            if raw == "-":
                return None
            if key == "shift":
                return () if raw == "()" else tuple(int(x) for x in raw.split(","))
            return int(raw)

        orthant = None if text["orthant"] == "all" else tuple(1 if ch == "+" else -1 for ch in text["orthant"])
        trace = SearchTrace(orthant, text["branch"], *(value(key, raw) for key, raw in items[2:]))
        if trace.tag() != tag:  # integers such as "+3", "03" or "1_0"
            raise ValueError(f"trace tag would be written back as {trace.tag()!r}")
        return trace


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


def _ceil_root(e: Fraction | int, disc: Fraction | int, g: Fraction | int) -> int:
    """The least integer k >= 0 with g k - e >= sqrt(disc), for g > 0: so
    max(0, ceil((e + sqrt(disc)) / g)), and 0 when disc < 0, where no real
    root exists.  Takes ints or Fractions.  With L the lcm of the
    denominators of e and g, the condition reads gL k - eL >= sqrt(disc L^2),
    whose left side is an integer, so it holds exactly when
    gL k - eL >= ceil(sqrt(disc L^2)): k = ceil((eL + isqrt_ceil(disc L^2)) / gL),
    one integer square root.  The ceiling is a floor division, -(-a // b):
    a true division of two ints would round through a float."""
    if disc < 0:
        return 0
    lcm = math.lcm(e.denominator, g.denominator)
    return max(0, -(-(e * lcm + isqrt_ceil(disc * lcm * lcm)) // (g * lcm)))


# ---------------------------------------------------------------------------
# driver


def find_certificate(inst: MiqpInstance) -> Certificate | None:
    """A verified feasibility certificate, or None when the system has no
    solution.  Deterministic: reruns reproduce the identical certificate.

    The instance is valid once built, so a ValueError the search lets out is
    the library's own fault and is raised as a CertifierError chained to it;
    only FiberLimit, a resource limit, passes through as it is."""
    try:
        return _search(inst)
    except FiberLimit:
        raise
    except ValueError as exc:
        raise CertifierError(f"{type(exc).__name__}: {exc}") from exc


def _search(inst: MiqpInstance) -> Certificate | None:
    try:  # h_to_v's line walk decides pointedness: NotPointed when no line has a nonzero rate
        parts = [(None, inst.polyhedron, h_to_v(inst.polyhedron))]
    except NotPointed:
        parts = ((signs, part, h_to_v(part)) for signs, part in iter_orthant_parts(inst.polyhedron))
    for signs, part, vrep in parts:
        if vrep.is_empty:
            continue
        cert = certify_pointed_part(inst, part, vrep, signs)
        if cert is not None:
            report = verify_certificate(inst, cert.point)
            if not report.ok:
                raise CertifierError(f"constructed point fails verification: {cert}")
            return cert
    return None


def certify_pointed_part(
    inst: MiqpInstance, part: HPolyhedron, vrep: VPolyhedron, signs: tuple[int, ...] | None
) -> Certificate | None:
    """Branch on the sign of min r^T H r over a normalized recession slice.

    ``part`` is nonempty, so its V-description ``vrep`` lists the extreme
    rays of its recession cone: they come from the rows of A alone, and the
    slice is minimized over them, k > n of them when the cone is not simple.
    The non-negative search starts the part's slice minima from that one."""
    if not vrep.rays:
        return nonnegative_recession_search(inst, part, vrep, None, signs, None)
    f = normalizing_hyperplane(vrep.rays).f
    slice_min = min_quadratic_on_cone_slice(inst.quad.h, vrep.rays, f)
    if slice_min.value < 0:
        return negative_ray_certificate(inst, part, slice_min.minimizer, signs)
    return nonnegative_recession_search(inst, part, vrep, f, signs, slice_min.value)


def negative_ray_certificate(
    inst: MiqpInstance, part: HPolyhedron, direction: QVector, signs: tuple[int, ...] | None
) -> Certificate | None:
    """Witness from a strictly negative recession direction: start at any
    mixed-integer point and step just past the larger parabola root.

    Along the integral r, q(base + k r) = lead k^2 + slope k + const with
    lead = r^T H r < 0, slope = 2 base^T H r + c . r and const = q(base).
    With base = u / D, H = Ĥ / hs, c = ĉ / cs and d's denominator e, the
    three come in integers over one denominator, hs cs D^2 e: scaling the
    parabola by it moves no root, so the step is one integer ``_ceil_root``
    and only the certificate point becomes Fractions."""
    r = primitivize(direction)
    base = mip_point(MixedIntegerSet(part, inst.integer_count))
    if base is None:
        return None  # the part holds no mixed-integer point at all
    form = inst.quad._integer_form
    h, hs, c, cs = form
    d = inst.quad.d
    *u, den = _integer_row((*base.entries, 1))
    r_int = [x.numerator for x in r]
    hr = [_dot(row, r_int) for row in h]
    lead = _dot(r_int, hr) * cs * den * den * d.denominator
    if lead >= 0:
        raise CertifierError("descent direction lost its negative curvature")
    slope = (2 * cs * _dot(u, hr) + hs * den * _dot(c, r_int)) * den * d.denominator
    const = _quadratic_numerator(form, u, den) * d.denominator + d.numerator * hs * cs * den * den
    step = _ceil_root(slope, slope * slope - 4 * lead * const, -2 * lead)
    point = QVector(tuple(Fraction(x + step * y * den, den) for x, y in zip(u, r_int)))
    trace = SearchTrace(orthant=signs, branch="negative-ray", step=step)
    return Certificate(point, encoding_size(point), trace)


def nonnegative_recession_search(
    inst: MiqpInstance,
    part: HPolyhedron,
    vrep: VPolyhedron,
    f: QVector | None,
    signs: tuple[int, ...] | None,
    slice_min: Fraction | None,
) -> Certificate | None:
    """Search family by family: the fibers of each family's window, built
    lazily, each paired with the pieces of its own family only, stopping at
    the first certificate.  ``vrep`` is the V-description of ``part``.

    Own-family pairing is complete.  A point x of the mixed-integer set is
    v + sum mu_r r with v in conv(vertices) and, by Caratheodory, r over a
    linearly independent family K of extreme rays.  Stepping back by the
    integral multiples floor(mu_r) r keeps the prefix integral and lands in
    B^K <= W, where B^K = conv(vertices) + sum over K of [0, r] and W is K's
    window, so x lies in F + intcone(R_K) for a fiber F of K's own window,
    and the pieces of K cover cone(R_K).  A fiber paired with another
    family's rays reaches only points of the set, each already covered by
    its own family's pairs, so those pairs are never needed.  The piece data
    that does not depend on the fiber (flat and curving rays, their Gram
    matrix and the curvature minimum of the curving slice) is computed once
    per family, when its first fiber is reached.  ``window_fibers`` streams
    the fibers of all families and owns the fiber limit.

    The curvature minima are slices of one hyperplane f, so the part keeps
    them in one dict for all its pieces, keyed by the curving rays, and
    starts it with ``slice_min``, the minimum over ``vrep.rays`` when the
    caller has it: a piece whose curving rays the part has already minimized
    over reads the minimum instead of solving the slice again.  The dict
    lives for this one part.
    """
    slices = {} if slice_min is None else {vrep.rays: slice_min}
    families = ray_families(vrep)
    stream = window_fibers(MixedIntegerSet(part, inst.integer_count), vrep, families)
    for family_index, fibers in groupby(stream, key=lambda fiber: fiber.family_index):
        cone = simple_cone_decomposition(inst.quad.h, families[family_index])
        pieces = [_window_piece(inst.quad, piece, f, slices) for piece in cone.pieces]
        for fiber_index, fiber in enumerate(fibers):
            for piece_index, piece in enumerate(pieces):
                for ray_index in piece.flat:
                    found = linear_descent_step(inst.quad, fiber, piece.rays[ray_index])
                    if found is None:
                        continue
                    start, rate = found
                    mu = max(0, math.ceil(eval_quadratic(inst.quad, start) / (-rate)))
                    point = start + piece.rays[ray_index].scale(mu)
                    trace = SearchTrace(
                        signs, "linear-ray", fiber_index, family_index, piece_index, ray_index, step=mu
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
    """The fiber-independent data of one simple piece of a family's cone.
    The rays are integral, so the curving rays' data is integers over the
    form's ``_integer_form`` (Ĥ, hs, ĉ, cs), H = Ĥ / hs and c = ĉ / cs, and
    over f_den for the hyperplane."""

    rays: tuple[QVector, ...]
    flat: tuple[int, ...]  # indices of the rays with r^T H r = 0
    curving: tuple[QVector, ...]  # the other rays, in order
    f_values: tuple[int, ...]  # f . r times f_den over the curving rays, all > 0
    f_den: int  # the lcm of the denominators of the f . r
    ray_terms: tuple[tuple[tuple[int, ...], int], ...]  # (Ĥ r, ĉ . r) per curving ray r
    gram: tuple[tuple[int, ...], ...]  # Ĝ = R^T Ĥ R over the curving rays R, so G = Ĝ / hs
    v1: Fraction | None  # min x^T H x over the curving slice, > 0
    slice_norm: int | None  # ceil of the largest slice-vertex norm


def _window_piece(
    quad: QuadraticForm, piece: SimpleCone, f: QVector | None, slices: dict[tuple[QVector, ...], Fraction]
) -> WindowPiece:
    """Split a piece's rays into flat and curving ones and, when some curve,
    bound the quadratic's growth along them over the slice f . x = 1 of their
    cone: the simplex with vertices r / (f . r), as f . r > 0 on these
    linearly independent rays.  The slice's minimum v1 is read from
    ``slices``, the part's minima over f by rays, or solved and added
    there."""
    h, _, c, _ = quad._integer_form
    ints = [[x.numerator for x in ray] for ray in piece.rays]  # a simple cone's rays are integral
    terms = [(tuple(_dot(row, r) for row in h), _dot(c, r)) for r in ints]
    flat = tuple(i for i, (r, (hr, _)) in enumerate(zip(ints, terms)) if _dot(r, hr) == 0)
    kept = [i for i in range(len(ints)) if i not in flat]
    curving = tuple(piece.rays[i] for i in kept)
    if not curving:
        return WindowPiece(piece.rays, flat, (), (), 1, (), (), None, None)
    if f is None:
        raise CertifierError("curving rays exist but no normalizing hyperplane was built")
    f_dots = [f.dot(r) for r in curving]
    if any(fv <= 0 for fv in f_dots):
        raise CertifierError("hyperplane is not strictly positive on the residual rays")
    v1 = slices.get(curving)
    if v1 is None:
        v1 = slices[curving] = min_quadratic_on_cone_slice(quad.h, curving, f).value
    if v1 <= 0:
        raise CertifierError("curvature minimum on the residual cone must be positive")
    f_den = math.lcm(*(fv.denominator for fv in f_dots))
    f_values = tuple(fv.numerator * (f_den // fv.denominator) for fv in f_dots)
    ray_terms = tuple(terms[i] for i in kept)
    gram = tuple(tuple(_dot(ints[i], hr) for hr, _ in ray_terms) for i in kept)
    # |r / (f . r)|^2 = (r . r) f_den^2 / (f_den f . r)^2
    slice_norm = isqrt_ceil(max(Fraction(_dot(ints[i], ints[i]) * f_den**2, fv * fv) for i, fv in zip(kept, f_values)))
    return WindowPiece(piece.rays, flat, curving, f_values, f_den, ray_terms, gram, v1, slice_norm)


def linear_descent_step(quad: QuadraticForm, fiber: Fiber, r: QVector) -> tuple[QVector, Fraction] | None:
    """Along a flat ray r the quadratic changes at the linear rate
    a(x) = 2 x^T H r + c^T r.  The least fiber vertex where that rate is
    negative, with the rate, or None when it is non-negative at every vertex.

    The piece's other rays cannot make it negative.  The part's slice
    minimum is >= 0, so q(y) = y^T H y >= 0 on its recession cone, which
    holds the piece.  For a ray s of the piece and t > 0,
    q(r + t s) = 2t s^T H r + t^2 s^T H s >= 0 as r^T H r = 0; dividing by t
    and letting t -> 0 gives s^T H r >= 0.  So a(x + s) = a(x) + 2 s^T H r
    >= a(x), and over the fiber plus the integer cone of the piece's rays the
    rate is least at a fiber vertex, as a is affine."""
    hr = quad.h.matvec(r)
    const = quad.c.dot(r)
    best = min(fiber.vertices, key=lambda v: (2 * v.dot(hr) + const, v))
    value = 2 * best.dot(hr) + const
    return (best, value) if value < 0 else None


def _fiber_min(quad: QuadraticForm, fiber: Fiber, shift: QVector | None = None) -> tuple[Fraction, QVector]:
    """Exact minimum of the quadratic over fiber + shift (the fiber itself
    when no shift is given) and the point qp_global_min reports there.

    With s = (s_p, s_q) and prefix y, the completions of y + s_p are the
    reduced polytope Az <= b moved by s_q, {w : Aw <= b + A s_q}: the same
    rows, so the same independent row subsets.  Its vertices are the reduced
    ones plus s_q, and with w = z + s_q its KKT systems are the reduced
    polytope's for c + 2H s_q, the linear term of z -> q(y + s_p, z + s_q).
    So the pools match one to one by the move, with equal values, and a move
    keeps lexicographic order: the least (value, z), moved, is the least (value, w)."""
    prefix, reduced, offset = fiber.integer_part, fiber.reduced, None
    if shift is not None:
        prefix, offset = prefix + shift.take(prefix.dim), shift.drop(prefix.dim)
    if reduced is None:  # no continuous coordinates: the fiber is its prefix
        return eval_quadratic(quad, prefix), prefix
    best = qp_global_min(restrict_quadratic(quad, prefix, offset), reduced)
    return best.value, prefix.concat(best.minimizer if offset is None else best.minimizer + offset)


@dataclass(frozen=True)
class _Window:
    """A curving window's bounds on one fiber: lam_max and the multiplier
    caps, and the data of both box bounds as integers, each the value times
    one scale S > 0 per window: the lcm of v3's denominator, the rates' one
    denominator hs cs D (a multiple of G's hs) and v1 / f_den^2's.  Scaling
    by S > 0 keeps every comparison with 0, so the bounds decide exactly as
    their Fraction values would."""

    lam_max: int
    caps: tuple[int, ...]  # floor(lam_max / (f . r)) per curving ray r
    scale: int  # S
    v3: int  # S v3
    rates: tuple[tuple[int, ...], ...]  # S a(v) over the fiber vertices v, dominated ones dropped
    gram: tuple[tuple[int, ...], ...]  # S G
    v1: int  # S v1 / f_den^2
    f_values: tuple[int, ...]  # the piece's f . r times f_den
    f_cap: int  # lam_max f_den


def _window(quad: QuadraticForm, fiber: Fiber, piece: WindowPiece, v3: Fraction) -> _Window:
    """The window of a piece with curving rays on a fiber whose minimum is v3.

    The rates a(v)_i = 2 v^T H r_i + c^T r_i at the fiber vertices v come
    over one denominator: with v = u / D for the lcm D of the vertices'
    denominators, a(v)_i = (2 cs u . Ĥ r_i + hs D ĉ . r_i) / (hs cs D).
    Every multiplier tuple m of the window is >= 0, so a rate that is
    componentwise >= another has a . m no less at every m and never
    attains either bound's minimum, nor v2's: such rates are dropped, and
    equal ones kept once.  v2 is the least a(v)_i / (f . r_i), and
    lam_max the least lambda >= 0 beyond which v1 lambda^2 + v2 lambda + v3
    stays positive."""
    _, hs, _, cs = quad._integer_form
    den = math.lcm(*(x.denominator for v in fiber.vertices for x in v))
    rate_den = hs * cs * den
    rates: dict[tuple[int, ...], None] = {}  # each rate once, in vertex order
    for v in fiber.vertices:
        u = [x.numerator * (den // x.denominator) for x in v]
        rates[tuple(2 * cs * _dot(u, hr) + hs * den * cr for hr, cr in piece.ray_terms)] = None
    kept = [a for a in rates if not any(b != a and all(map(operator.le, b, a)) for b in rates)]
    lows = [min(column) for column in zip(*kept)]  # a dropped rate lowers no column
    v2 = min(Fraction(low * piece.f_den, rate_den * fv) for low, fv in zip(lows, piece.f_values))
    lam_max = _ceil_root(-v2, v2 * v2 - 4 * piece.v1 * v3, 2 * piece.v1)
    v1 = piece.v1 / (piece.f_den * piece.f_den)
    scale = math.lcm(v3.denominator, rate_den, v1.denominator)  # hs divides rate_den: G = Ĝ / hs
    return _Window(
        lam_max,
        tuple(lam_max * piece.f_den // fv for fv in piece.f_values),
        scale,
        v3.numerator * (scale // v3.denominator),
        tuple(tuple(a * (scale // rate_den) for a in rate) for rate in kept),
        tuple(tuple(g * (scale // hs) for g in row) for row in piece.gram),
        v1.numerator * (scale // v1.denominator),
        piece.f_values,
        lam_max * piece.f_den,
    )


def _norm_bound(fiber: Fiber, piece: WindowPiece, lam_max: int) -> int:
    """sqrt(n) v4 + lam_max slice_norm, rounded up, with v4 the largest
    fiber-vertex coordinate in absolute value: a bound on the norm of a
    window certificate's point."""
    v4 = max(math.ceil(abs(coord)) for vert in fiber.vertices for coord in vert.entries)
    return isqrt_ceil(Fraction(fiber.vertices[0].dim)) * v4 + lam_max * piece.slice_norm


def _box_bound(window: _Window, lo: tuple[int, ...], hi: tuple[int, ...]) -> int | None:
    """S times a lower bound on q(x + R m) - v3 over the fiber's points x
    and the tuples m in [lo, hi] with f . m <= lam_max (None when there are
    none), v3 being the fiber's minimum.  The change is a(x) . m + m^T G m
    with a(x)_i = 2 x^T H r_i + c^T r_i, and a(x) . m is least at a vertex
    (the window's rates).  As m >= 0, a_i m_i is least at lo_i or hi_i,
    G_ij m_i m_j at lo_i lo_j or, if G_ij < 0, at hi_i hi_j; and
    m^T G m >= v1 (f . lo)^2 by the slice."""
    f_lo = _dot(window.f_values, lo)  # f . lo times f_den
    if f_lo > window.f_cap:
        return None
    quadratic = 0
    for i, row in enumerate(window.gram):
        quadratic += sum(g * (lo[i] * lo[j] if g >= 0 else hi[i] * hi[j]) for j, g in enumerate(row))
    linear = min(sum(min(a * low, a * high) for a, low, high in zip(rate, lo, hi)) for rate in window.rates)
    return linear + max(quadratic, window.v1 * f_lo * f_lo)


def _relaxed_bound(window: _Window, lo: tuple[int, ...], hi: tuple[int, ...]) -> Fraction:
    """S times the exact minimum of a . m + m^T G m over the window's rates
    and the real m of {lo <= m <= hi, f . m <= lam_max}, a polytope that
    holds lo when _box_bound is not None: one pool for every rate."""
    k = len(lo)
    rows = [[sign if j == i else 0 for j in range(k)] for i in range(k) for sign in (1, -1)]
    rhs = [end for low, high in zip(lo, hi) for end in (high, -low)]
    poly = HPolyhedron(QMatrix.from_rows(rows + [window.f_values], k), QVector.of(rhs + [window.f_cap]))
    value, _, den = _pool_min(poly, window.gram, window.rates)
    return Fraction(value, den * den)


def bounded_window_search(
    inst: MiqpInstance,
    fiber: Fiber,
    piece: WindowPiece,
    signs: tuple[int, ...] | None,
    indices: tuple[int, int, int],
) -> Certificate | None:
    """Residual search once no flat ray descends.  Over fiber + R m the
    quadratic is at least v1 lambda^2 + v2 lambda + v3, lambda = f . m, so
    only integer m >= 0 with f . m <= lam_max can certify.  A depth-first
    branch and bound over boxes [lo, hi] of them splits the first varying
    coordinate at its midpoint, lower half first, so single tuples come in
    product order; a box whose bound puts the quadratic above 0 is dropped."""
    fiber_index, family_index, piece_index = indices
    n = inst.dim
    v3, v3_point = _fiber_min(inst.quad, fiber)

    def window_certificate(counts: tuple[int, ...], lam_max: int | None) -> Certificate | None:
        value, point = v3, v3_point  # the zero tuple: the fiber itself
        if any(counts):
            shift = sum((ray.scale(m) for m, ray in zip(counts, piece.curving)), QVector.zero(n))
            value, point = _fiber_min(inst.quad, fiber, shift)
        if value > 0:
            return None
        bound = None if lam_max is None else _norm_bound(fiber, piece, lam_max)
        trace = SearchTrace(
            signs, "window-qp", fiber_index, family_index, piece_index, shift=counts, norm_bound=bound
        )
        return Certificate(point, encoding_size(point), trace)

    if not piece.curving:
        return window_certificate((), None)

    window = _window(inst.quad, fiber, piece, v3)
    boxes = [(tuple(0 for _ in window.caps), window.caps)]
    while boxes:
        lo, hi = boxes.pop()
        bound = _box_bound(window, lo, hi)
        if bound is None or window.v3 + bound > 0:
            continue
        varying = [i for i in range(len(lo)) if lo[i] < hi[i]]
        if not varying:
            cert = window_certificate(lo, window.lam_max)
            if cert is not None:
                return cert
        elif len(varying) == 1 or window.v3 + _relaxed_bound(window, lo, hi) <= 0:
            i = varying[0]
            mid = (lo[i] + hi[i]) // 2
            boxes.append((lo[:i] + (mid + 1,) + lo[i + 1 :], hi))  # the upper half, searched second
            boxes.append((lo, hi[:i] + (mid,) + hi[i + 1 :]))
    return None
