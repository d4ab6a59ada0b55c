"""Brute-force feasibility oracle for cross-validation.

Independent of the certifier's search machinery: it enumerates every integer
prefix in a caller-supplied box and asks the exact QP kernel whether the
quadratic dips to zero on that fiber of the original polyhedron.  Intended
for small boxed instances only.  Fiber checks are independent and
or-reducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .certifier import MiqpInstance, verify_certificate
from .linalg import QVector
from .polyhedra import NotPointed, h_to_v, restrict_prefix
from .qp import eval_quadratic, qp_global_min, restrict_quadratic


class UnboundedFiber(ValueError):
    """A fiber over some integer prefix is unbounded; the oracle only handles
    instances whose continuous variables are explicitly bounded."""


@dataclass(frozen=True)
class OracleVerdict:
    feasible: bool
    witness: QVector | None
    box_radius: int


def brute_force_feasibility(inst: MiqpInstance, box: int) -> OracleVerdict:
    """Feasibility by exhaustive integer-prefix enumeration over [-box, box]^p.

    The caller must guarantee that any feasible point has its integer part
    inside the box; the verdict is only meaningful under that promise.
    A negative radius raises ``ValueError``.
    """
    if box < 0:
        raise ValueError(f"box radius must be non-negative, got {box}")
    p = inst.integer_count
    q = inst.dim - p
    for combo in product(range(-box, box + 1), repeat=p):
        y = QVector.of(combo)
        if q == 0:
            if inst.polyhedron.contains(y) and eval_quadratic(inst.quad, y) <= 0:
                report = verify_certificate(inst, y)
                assert report.ok
                return OracleVerdict(True, y, box)
            continue
        fiber = restrict_prefix(inst.polyhedron, y)
        try:
            vrep = h_to_v(fiber)
        except NotPointed as exc:
            raise UnboundedFiber(f"fiber at integer part {y} contains a line") from exc
        if vrep.rays:
            raise UnboundedFiber(f"fiber at integer part {y} is unbounded")
        if not vrep.vertices:
            continue
        res = qp_global_min(restrict_quadratic(inst.quad, y), fiber)
        if res.value <= 0:
            witness = y.concat(res.minimizer)
            report = verify_certificate(inst, witness)
            assert report.ok
            return OracleVerdict(True, witness, box)
    return OracleVerdict(False, None, box)
