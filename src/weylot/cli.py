"""Command-line driver.

Subcommands: gen, family, dual, check, classify, certify, ot.
Exit codes: 0 pass/success, 1 certified failure (with witnesses),
2 input error, 3 resource cap exceeded, 4 internal self-check failed.
WEYLOT_ORBIT_CAP in the environment overrides the orbit/group size cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import (InternalCheckFailed, OrbitCapExceeded, PivotCapExceeded,
                     WeylotError)
from . import fileio
from . import linalg as la
from .measures import WeightedPointCloud
from .rootsystems import build_from_label, weight_to_coords
from .transport import certify, solve_ot
from .weyl import (FAMILY_ROWS, classify, is_weyl_polytope, mr_family,
                   star_containment_check, vertex_condition, weyl_polytope,
                   WeylPolytopeRecord)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_weight(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise WeylotError(f"cannot parse weight {text!r}; expected comma ints")


def _build_record(type_label, weight, lattice):
    system = build_from_label(type_label, lattice)
    m = weight_to_coords(system, weight)
    return weyl_polytope(system, m)


def cmd_gen(args):
    rec = _build_record(args.type, _parse_weight(args.weight), args.lattice)
    sys.stdout.write(fileio.serialize_polytope(rec.polytope))
    return 0


def cmd_family(args):
    rec = mr_family(args.row, args.rank)
    sys.stdout.write(fileio.serialize_polytope(rec.polytope))
    return 0


def cmd_dual(args):
    text = _read(args.file)
    p = fileio.parse_polytope(text)
    if not p.is_reflexive:
        # the dual vertex n / c of a facet is integral iff c = 1, n primitive
        bad = min(tuple(la.norm_scalar(Fraction(x, c)) for x in n)
                  for n, c in p.facets if c != 1)
        sys.stderr.write(
            f"dual is not a lattice polytope (vertex {bad}); "
            "the input is not reflexive\n")
        return 1
    sys.stdout.write(fileio.serialize_polytope(p.dual()))
    return 0


def cmd_check(args):
    text = _read(args.file)
    p = fileio.parse_polytope(text)
    doc = {"tool": fileio.TOOL_VERSION, "input_hash": fileio.input_hash(text)}
    ok = True
    if args.reflexive:
        doc["reflexive"] = p.is_reflexive
        ok &= p.is_reflexive
    if args.delzant:
        doc["delzant"] = p.is_delzant
        ok &= p.is_delzant
    det = is_weyl_polytope(p) if args.weyl or args.star else None
    if args.weyl:
        doc["weyl"] = (None if det is None else
                       {"type": det.type_label,
                        "dominant_vertex": fileio.vector_json(
                            det.dominant_vertex)})
        ok &= det is not None
    if args.vertex_condition:
        # defined for reflexive polytopes only; null otherwise, as in classify
        verdict, witness = (vertex_condition(p) if p.is_reflexive
                            else (None, None))
        doc["vertex_condition"] = verdict
        doc["vertex_condition_witness"] = (
            None if witness is None
            else [fileio.vector_json(v) for v in witness])
        ok &= bool(verdict)
    if args.star:
        if det is None:
            doc["star_containment"] = None
            ok = False
        else:
            verdict = star_containment_check(WeylPolytopeRecord(
                p, det.system, det.dominant_vertex, "custom"))
            doc["star_containment"] = {"pass": verdict.passed,
                                       "mode": verdict.mode}
            ok &= verdict.passed
    sys.stdout.write(fileio.write_report(doc))
    return 0 if ok else 1


def cmd_classify(args):
    for path in args.files:
        text = _read(path)
        record = classify(fileio.parse_polytope(text))
        doc = fileio.classification_json(record, fileio.input_hash(text))
        doc["input"] = path
        sys.stdout.write(fileio.write_report(doc))
    return 0


def cmd_certify(args):
    text = _read(args.file)
    p = fileio.parse_polytope(text)
    weight = _parse_weight(args.weight)
    rec = _build_record(args.type, weight, args.lattice)
    if set(rec.polytope.vertices) != set(p.vertices):
        sys.stderr.write(
            "input polytope differs from the orbit hull of the given "
            "type and weight\n")
        return 2
    report = certify(rec, args.refine, args.cycles)
    doc = fileio.certification_json(report, fileio.input_hash(text),
                                    args.type, weight)
    sys.stdout.write(fileio.write_report(doc))
    return 0 if report.passed else 1


def cmd_ot(args):
    mu_text = _read(args.mu)
    nu_text = _read(args.nu)
    mp, mm = fileio.parse_measure(mu_text)
    np_, nm = fileio.parse_measure(nu_text)
    mu = WeightedPointCloud(mp, mm, (None,) * len(mp), "M")
    nu = WeightedPointCloud(np_, nm, (None,) * len(np_), "N")
    plan, pots = solve_ot(mu, nu)
    doc = {
        "tool": fileio.TOOL_VERSION,
        "input_hash": fileio.input_hash(mu_text + nu_text),
        "cost": fileio.rational_str(plan.cost_value),
        "plan": [[i, j, fileio.rational_str(mass)]
                 for i, j, mass in plan.triples],
        "phi": [fileio.rational_str(x) for x in pots.phi],
        "psi": [fileio.rational_str(x) for x in pots.psi],
    }
    sys.stdout.write(fileio.write_report(doc))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="weylot",
        description="Reflexive Weyl polytopes and exact optimal-transport "
                    "stability certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="orbit hull of a weight")
    g.add_argument("--type", required=True, help="root system, e.g. B3 or A1xA2")
    g.add_argument("--weight", required=True,
                   help="comma-separated fundamental-weight coefficients")
    g.add_argument("--lattice", choices=("root", "weight"), default="root")
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("family", help="classified reflexive family member")
    f.add_argument("--row", required=True,
                   help=f"one of: {', '.join(sorted(FAMILY_ROWS))}")
    f.add_argument("--rank", required=True, type=int)
    f.set_defaults(func=cmd_family)

    d = sub.add_parser("dual", help="dual polytope file")
    d.add_argument("file")
    d.set_defaults(func=cmd_dual)

    c = sub.add_parser("check", help="predicates on one polytope")
    c.add_argument("file")
    c.add_argument("--reflexive", action="store_true")
    c.add_argument("--delzant", action="store_true")
    c.add_argument("--weyl", action="store_true")
    c.add_argument("--vertex-condition", action="store_true")
    c.add_argument("--star", action="store_true")
    c.set_defaults(func=cmd_check)

    cl = sub.add_parser("classify", help="classification record per input")
    cl.add_argument("files", nargs="+")
    cl.set_defaults(func=cmd_classify)

    ce = sub.add_parser("certify", help="transport stability certification")
    ce.add_argument("file")
    ce.add_argument("--type", required=True)
    ce.add_argument("--weight", required=True)
    ce.add_argument("--lattice", choices=("root", "weight"), default="root")
    ce.add_argument("--refine", type=int, default=0)
    ce.add_argument("--cycles", type=int, default=3,
                    help="echoed in the report (at least 2); the cycle "
                         "check covers every length")
    ce.set_defaults(func=cmd_certify)

    o = sub.add_parser("ot", help="transport plan between two measure files")
    o.add_argument("mu")
    o.add_argument("nu")
    o.set_defaults(func=cmd_ot)
    return ap


@functools.cache
def _parser():
    """The parser, built on first use and reused: a parser's objects form
    reference cycles, so one per call leaves garbage for the collector."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrbitCapExceeded, PivotCapExceeded) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except InternalCheckFailed as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except (WeylotError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
