"""Command-line entry point.

Exit codes are part of the contract: 0 feasible / verified, 1 infeasible /
rejected, 2 input error, 3 unknown (a resource limit was reached), 4
internal error (a fault of the library, not of the input).  All output is
UTF-8 text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certifier import CertifierError, find_certificate, verify_certificate
from .formats import (
    maxcut_instance,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from .milp import FiberLimit, MixedIntegerSet, decompose_mixed_integer_set
from .oracle import brute_force_feasibility


def _load_instance(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_instance(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    cert = find_certificate(inst)
    if cert is None:
        print("INFEASIBLE")
        return 1
    Path(args.out).write_text(serialize_certificate(cert), encoding="utf-8")
    print(f"FEASIBLE size={cert.size.bits} trace={cert.trace.tag()}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    cert = parse_certificate(Path(args.cert).read_text(encoding="utf-8"))
    report = verify_certificate(inst, cert.point)
    print(f"q_value={report.q_value} size={report.size.bits}")
    size_ok = cert.size == report.size
    if report.ok and size_ok:
        print("VALID")
        return 0
    if not size_ok:
        print(f"INVALID: declared size {cert.size.bits} != encoding size {report.size.bits}")
    if report.violated_rows:
        rows = ",".join(str(i) for i in report.violated_rows)
        print(f"INVALID: linear rows violated: {rows}")
    if report.q_value > 0:
        print(f"INVALID: quadratic value {report.q_value} > 0")
    if not report.integral:
        print("INVALID: integer coordinates are not integral")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    verdict = brute_force_feasibility(inst, args.box)
    if verdict.feasible:
        witness = " ".join(str(v) for v in verdict.witness)
        print(f"FEASIBLE witness {witness}")
        return 0
    print(f"INFEASIBLE within box {args.box}")
    return 1


def _cmd_gen_maxcut(args: argparse.Namespace) -> int:
    edges: list[tuple[int, int]] = []
    names: dict[str, int] = {}

    def vertex(token: str) -> int:
        if token not in names:
            names[token] = len(names)
        return names[token]

    spec = args.edges.strip()
    if spec:
        for item in spec.split(","):
            ends = item.strip().split("-")
            if len(ends) != 2 or not ends[0] or not ends[1]:
                raise ValueError(f"malformed edge {item!r}; expected 'u-v'")
            edges.append((vertex(ends[0]), vertex(ends[1])))
    count = max(len(names), args.vertices)
    inst = maxcut_instance(edges, args.k, count)
    Path(args.out).write_text(serialize_instance(inst), encoding="utf-8")
    print(f"wrote instance with {count} binary variables and {len(edges)} edges")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    dec = decompose_mixed_integer_set(MixedIntegerSet(inst.polyhedron, inst.integer_count))
    print(f"ray-families {len(dec.ray_families)}")
    for i, family in enumerate(dec.ray_families):
        print(f"family {i} rays {len(family.rays)}")
        for ray in family.rays:
            print("ray " + " ".join(str(v) for v in ray))
    print(f"fibers {len(dec.fiber_records)}")
    for i, fiber in enumerate(dec.fiber_records):
        part = " ".join(str(v) for v in fiber.integer_part)
        print(f"fiber {i} family {fiber.family_index} integer-part [{part}] rows {fiber.polyhedron.num_rows}")
        for r in range(fiber.polyhedron.num_rows):
            coeffs = " ".join(str(v) for v in fiber.polyhedron.a.entries[r])
            print(f"row {coeffs} <= {fiber.polyhedron.b[r]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miqpcert",
        description="Exact feasibility certificates for one quadratic inequality "
        "over a mixed-integer polyhedral set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide feasibility and write a certificate")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a certificate bit-exactly")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--cert", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force verdict over a boxed integer grid")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--box", required=True, type=int)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen-maxcut", help="emit the binary instance for 'cut of size >= k'")
    p_gen.add_argument("--edges", required=True, help="comma list like a-b,b-c (empty for no edges)")
    p_gen.add_argument("--k", required=True, type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--vertices", type=int, default=0, help="pad isolated vertices up to this count")
    p_gen.set_defaults(func=_cmd_gen_maxcut)

    p_dec = sub.add_parser("decompose", help="print the fiber / ray-family decomposition")
    p_dec.add_argument("--instance", required=True)
    p_dec.set_defaults(func=_cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        return args.func(args)
    except FiberLimit as exc:  # a ValueError, but no fault of the input
        print(f"UNKNOWN: {exc}")
        return 3
    except (ValueError, OSError) as exc:  # the input's own errors are ValueError subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertifierError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
