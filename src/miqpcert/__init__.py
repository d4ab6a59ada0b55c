"""Exact rational feasibility certificates for mixed-integer quadratic systems."""

from .certifier import (
    Certificate,
    CertifierError,
    MiqpInstance,
    SearchTrace,
    VerificationReport,
    find_certificate,
    verify_certificate,
)
from .cones import (
    ConeDecomposition,
    ConeNotPointed,
    NegativeCurvature,
    NormalizingHyperplane,
    normalizing_hyperplane,
    simple_cone_decomposition,
)
from .formats import (
    InstanceFormatError,
    maxcut_instance,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from .linalg import (
    DimensionMismatch,
    EncodingSize,
    LinearSolution,
    QMatrix,
    QVector,
    as_rational,
    encoding_size,
    isqrt_ceil,
    rank,
    solve_linear_system,
)
from .milp import (
    Fiber,
    FiberLimit,
    MisDecomposition,
    MixedIntegerSet,
    decompose_mixed_integer_set,
    mip_point,
    ray_families,
    window_fibers,
)
from .oracle import OracleVerdict, UnboundedFiber, brute_force_feasibility
from .polyhedra import (
    HPolyhedron,
    NotInCone,
    NotPointed,
    SimpleCone,
    VPolyhedron,
    caratheodory_simple_cone,
    faces_of_simple_cone,
    h_to_v,
    is_pointed,
    iter_orthant_parts,
    primitivize,
    recession_cone,
)
from .qp import (
    EmptyFeasibleSet,
    QpResult,
    QuadraticForm,
    Unbounded,
    eval_quadratic,
    min_quadratic_on_cone_slice,
    qp_global_min,
    restrict_quadratic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
