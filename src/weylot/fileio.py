"""Text formats for polytopes, measures, and reports.

Polytope files: optional ``#`` comment lines, a header of two positive
integers ``r c``, then an ``r x c`` integer matrix.  When ``r <= 6`` and
``r < c`` the rows are coordinates (columns are vertices); otherwise the
rows are vertices.  Canonical serialization always writes vertices as rows,
which round-trips byte-identically.

Measure files carry a rational point cloud: header ``p d``, then ``p`` rows
of ``d`` rational coordinates followed by one non-negative rational mass.

Reports are canonical JSON: fixed key order, every rational rendered as a
``"p/q"`` string, never a float, plus the tool version and an input hash.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .errors import MalformedHeader, NonIntegerEntry
from . import linalg as la
from .polytope import Polytope, convex_hull

TOOL_VERSION = "weylot 0.1.0"


def _content_lines(text):
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(stripped)
    return out


def parse_polytope(text) -> Polytope:
    """Parse a vertex-matrix file into a polytope (see module docstring)."""
    lines = _content_lines(text)
    if not lines:
        raise MalformedHeader("empty polytope file")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeader(f"header needs two integers: {lines[0]!r}")
    try:
        r, c = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"header needs two integers: {lines[0]!r}") from exc
    if r <= 0 or c <= 0:
        raise MalformedHeader("header integers must be positive")
    if len(lines) - 1 < r:
        raise MalformedHeader(f"expected {r} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:1 + r]:
        toks = line.split()
        if len(toks) != c:
            raise NonIntegerEntry(f"expected {c} entries per row: {line!r}")
        row = []
        for tok in toks:
            try:
                row.append(int(tok))
            except ValueError as exc:
                raise NonIntegerEntry(f"non-integer entry {tok!r}") from exc
        rows.append(tuple(row))
    if r <= 6 and r < c:
        points = list(zip(*rows))     # columns are vertices
    else:
        points = rows
    return convex_hull(points)


def serialize_polytope(p: Polytope) -> str:
    """Canonical text: vertices as rows, lex sorted."""
    if not p.is_lattice:
        raise ValueError("only lattice polytopes serialize to integer files")
    lines = [f"{len(p.vertices)} {p.dim}"]
    for v in p.vertices:
        lines.append(" ".join(str(int(x)) for x in v))
    return "\n".join(lines) + "\n"


def _parse_rational(tok):
    try:
        return Fraction(tok)
    except ValueError as exc:
        raise NonIntegerEntry(f"cannot parse rational {tok!r}") from exc


def parse_measure(text):
    """Parse a measure file into (points, masses)."""
    lines = _content_lines(text)
    if not lines:
        raise MalformedHeader("empty measure file")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeader(f"header needs two integers: {lines[0]!r}")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"header needs two integers: {lines[0]!r}") from exc
    if count <= 0 or dim <= 0:
        raise MalformedHeader("header integers must be positive")
    if len(lines) - 1 < count:
        raise MalformedHeader(f"expected {count} rows, found {len(lines) - 1}")
    points = []
    masses = []
    for line in lines[1:1 + count]:
        toks = line.split()
        if len(toks) != dim + 1:
            raise NonIntegerEntry(
                f"expected {dim} coordinates and a mass: {line!r}")
        points.append(tuple(la.norm_scalar(_parse_rational(t))
                            for t in toks[:dim]))
        mass = la.norm_scalar(_parse_rational(toks[dim]))
        if mass < 0:
            raise ValueError(f"negative mass {toks[dim]!r}: {line!r}")
        masses.append(mass)
    return tuple(points), tuple(masses)


def serialize_measure(points, masses) -> str:
    lines = [f"{len(points)} {len(points[0])}"]
    for pt, mass in zip(points, masses):
        toks = [rational_str(x) for x in pt] + [rational_str(mass)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def input_hash(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rational_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _vector_json(v):
    out = []
    for x in v:
        x = la.norm_scalar(x)
        out.append(x if isinstance(x, int) else rational_str(x))
    return out


def classification_json(record, source_hash=""):
    def detection(d):
        if d is None:
            return None
        label, vertex = d
        return {"type": label, "dominant_vertex": _vector_json(vertex)}

    doc = {
        "tool": TOOL_VERSION,
        "input_hash": source_hash,
        "aut_order": record.aut_order,
        "barycenter_zero": record.barycenter_zero,
        "reflexive": record.reflexive,
        "weyl": detection(record.weyl),
        "dual_weyl": detection(record.dual_weyl),
        "vertex_condition": record.vertex_condition,
        "vertex_condition_witness": (
            None if record.vertex_condition_witness is None
            else [_vector_json(v) for v in record.vertex_condition_witness]),
        "delzant": record.delzant,
    }
    return doc


def _witness_json(w):
    """A witness is (x, y) or ((x, y), root); both become flat JSON."""
    if len(w) == 2 and w and isinstance(w[0][0], tuple):
        (x, y), root = w
        return {"pair": [_vector_json(x), _vector_json(y)],
                "root": _vector_json(root)}
    x, y = w
    return {"pair": [_vector_json(x), _vector_json(y)]}


def certification_json(report, source_hash="", type_label="", weight=()):
    def verdict(v):
        return {
            "pass": v.passed,
            "offending_mass": rational_str(v.offending_mass),
            "witnesses": [_witness_json(w) for w in v.witnesses],
        }

    doc = {
        "tool": TOOL_VERSION,
        "input_hash": source_hash,
        "type": type_label,
        "weight": _vector_json(weight),
        "refinement": report.refinement,
        "source_points": report.source_size,
        "target_points": report.target_size,
        "cost": rational_str(report.cost),
        "duality_gap": rational_str(report.duality_gap),
        "stability": verdict(report.stability),
        "chamber_support": verdict(report.chamber_support),
        "reflection_sign": verdict(report.reflection_sign),
        "cyclical_monotonicity": {
            "pass": report.cyclical_monotonicity.passed,
            "max_cycle_length": report.cyclical_monotonicity.max_cycle_length,
            "violations": len(report.cyclical_monotonicity.violations),
        },
        "pass": report.passed,
    }
    return doc


def write_report(doc) -> str:
    """Canonical JSON text for a report document (fixed key order)."""
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
