"""Text formats for instances and certificates, plus the max-cut encoder.

Instance files (``#`` starts a comment anywhere):

    n p
    n rows of n rationals        the symmetric quadratic matrix H
    one row of n rationals       the linear term c
    one rational                 the constant d
    m
    m rows of n rationals        the constraint matrix A
    one row of m rationals       the right-hand side b

Certificate files, each key exactly once and no other keys:

    x    <n rationals>
    trace <branch tag>
    size <bits>

Rationals are written exactly as "p/q" or "p": ASCII digits with an optional
leading minus, ``-?[0-9]+(/[0-9]+)?``, the typeset minus sign read as "-".
The counts n, p and m are ASCII integers ``-?[0-9]+``.  Any other token is an
:class:`InstanceFormatError` naming its line.  Both formats round-trip
bit-exactly through parse/serialize.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .certifier import Certificate, MiqpInstance, SearchTrace
from .linalg import EncodingSize, QMatrix, QVector, _integer_fraction, as_rational
from .qp import QuadraticForm
from .polyhedra import HPolyhedron


_INTEGER_TOKEN = re.compile(r"-?[0-9]+")


class InstanceFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) for every line that carries data."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((i, body.split()))
    return out


def _parse_rationals(line_no: int, tokens: list[str], count: int, what: str) -> list[Fraction]:
    if len(tokens) != count:
        raise InstanceFormatError(line_no, f"expected {count} rationals for {what}, got {len(tokens)}")
    values = []
    for tok in tokens:
        # an ASCII integer, most tokens, goes straight to its shared Fraction
        if tok.isascii() and (tok.isdigit() or (tok[0] == "-" and tok[1:].isdigit())):
            values.append(_integer_fraction(int(tok)))
            continue
        try:
            values.append(as_rational(tok))
        except (ValueError, ZeroDivisionError):
            raise InstanceFormatError(line_no, f"bad rational {tok!r} in {what}") from None
    return values


def parse_instance(text: str) -> MiqpInstance:
    lines = _content_lines(text)
    cursor = 0

    def next_line(what: str) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 0
            raise InstanceFormatError(last + 1, f"unexpected end of file, expected {what}")
        item = lines[cursor]
        cursor += 1
        return item

    line_no, tokens = next_line("header 'n p'")
    if len(tokens) != 2 or not all(_INTEGER_TOKEN.fullmatch(tok) for tok in tokens):
        raise InstanceFormatError(line_no, "header must be two integers 'n p'")
    n, p = int(tokens[0]), int(tokens[1])
    if n < 1:
        raise InstanceFormatError(line_no, f"dimension n must be positive, got {n}")
    if not 0 <= p <= n:
        raise InstanceFormatError(line_no, f"integer count p={p} must lie in [0, {n}]")

    h_rows = []
    h_lines = []
    for i in range(n):
        line_no, tokens = next_line(f"row {i} of H")
        h_lines.append(line_no)
        h_rows.append(_parse_rationals(line_no, tokens, n, f"row {i} of H"))
    for i in range(n):
        for j in range(i + 1, n):
            if h_rows[i][j] != h_rows[j][i]:
                raise InstanceFormatError(
                    h_lines[j],
                    f"H is not symmetric: H[{i}][{j}]={h_rows[i][j]} but H[{j}][{i}]={h_rows[j][i]}",
                )

    line_no, tokens = next_line("row c")
    c = _parse_rationals(line_no, tokens, n, "c")
    line_no, tokens = next_line("constant d")
    d = _parse_rationals(line_no, tokens, 1, "d")[0]

    line_no, tokens = next_line("row count m")
    if len(tokens) != 1 or not _INTEGER_TOKEN.fullmatch(tokens[0]):
        raise InstanceFormatError(line_no, "expected a single integer m")
    m = int(tokens[0])
    if m < 0:
        raise InstanceFormatError(line_no, f"m must be non-negative, got {m}")

    a_rows = []
    for i in range(m):
        line_no, tokens = next_line(f"row {i} of A")
        a_rows.append(_parse_rationals(line_no, tokens, n, f"row {i} of A"))
    if m > 0:
        line_no, tokens = next_line("row b")
        b = _parse_rationals(line_no, tokens, m, "b")
    else:
        b = []
    if cursor < len(lines):
        raise InstanceFormatError(lines[cursor][0], "trailing content after instance data")

    # the parsed values are Fractions already: no second coercion pass
    quad = QuadraticForm(QMatrix(tuple(map(tuple, h_rows)), n), QVector(tuple(c)), d)
    poly = HPolyhedron(QMatrix(tuple(map(tuple, a_rows)), n), QVector(tuple(b)))
    return MiqpInstance(quad, poly, p)


def serialize_instance(inst: MiqpInstance) -> str:
    n = inst.dim
    lines = [f"{n} {inst.integer_count}"]
    for row in inst.quad.h.entries:
        lines.append(" ".join(str(v) for v in row))
    lines.append(" ".join(str(v) for v in inst.quad.c))
    lines.append(str(inst.quad.d))
    lines.append(str(inst.polyhedron.num_rows))
    for row in inst.polyhedron.a.entries:
        lines.append(" ".join(str(v) for v in row))
    if inst.polyhedron.num_rows > 0:
        lines.append(" ".join(str(v) for v in inst.polyhedron.b))
    return "\n".join(lines) + "\n"


_CERTIFICATE_KEYS = ("x", "trace", "size")


def parse_certificate(text: str) -> Certificate:
    lines = _content_lines(text)
    fields: dict[str, tuple[int, list[str]]] = {}
    for line_no, tokens in lines:
        key = tokens[0]
        if key not in _CERTIFICATE_KEYS:
            raise InstanceFormatError(line_no, f"unknown certificate line {key!r}")
        if key in fields:
            raise InstanceFormatError(line_no, f"duplicate '{key}' line (first on line {fields[key][0]})")
        fields[key] = (line_no, tokens[1:])
    for key in _CERTIFICATE_KEYS:
        if key not in fields:
            last = lines[-1][0] if lines else 0
            raise InstanceFormatError(last + 1, f"certificate is missing the '{key}' line")
    line_no, tokens = fields["x"]
    point = QVector.of(_parse_rationals(line_no, tokens, len(tokens), "x"))
    if point.dim == 0:
        raise InstanceFormatError(line_no, "certificate vector is empty")
    line_no, tokens = fields["trace"]
    if len(tokens) != 1:
        raise InstanceFormatError(line_no, "trace must be a single token")
    try:
        trace = SearchTrace.from_tag(tokens[0])
    except ValueError as exc:
        raise InstanceFormatError(line_no, f"malformed trace tag {tokens[0]!r}: {exc}") from None
    line_no, tokens = fields["size"]
    if len(tokens) != 1 or not (tokens[0].isascii() and tokens[0].isdigit()):
        raise InstanceFormatError(line_no, "size must be a single non-negative integer")
    return Certificate(point, EncodingSize(int(tokens[0])), trace)


def serialize_certificate(cert: Certificate) -> str:
    return (
        "x " + " ".join(str(v) for v in cert.point) + "\n"
        f"trace {cert.trace.tag()}\n"
        f"size {cert.size.bits}\n"
    )


# ---------------------------------------------------------------------------
# max-cut encoder


def maxcut_instance(edges: list[tuple[int, int]], k: int, num_vertices: int) -> MiqpInstance:
    """Binary instance whose feasibility says the graph has a cut of at least
    k edges: k - sum over edges of (x_i + x_j - 2 x_i x_j) <= 0 with every
    x_i in {0, 1}."""
    if num_vertices < 1:
        raise ValueError("at least one vertex is required")
    if k < 0:
        raise ValueError("cut target k must be non-negative")
    n = num_vertices
    h = [[Fraction(0)] * n for _ in range(n)]
    c = [Fraction(0)] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        h[u][v] += 1
        h[v][u] += 1
        c[u] -= 1
        c[v] -= 1
    rows = []
    rhs = []
    for i in range(n):
        unit = QVector.unit(i, n)
        rows.append(unit.entries)
        rhs.append(Fraction(1))
        rows.append((-unit).entries)
        rhs.append(Fraction(0))
    quad = QuadraticForm(QMatrix.from_rows(h, n), QVector.of(c), Fraction(k))
    poly = HPolyhedron(QMatrix.from_rows(rows, n), QVector.of(rhs))
    return MiqpInstance(quad, poly, n)
