"""The benchmark's workloads and the operations they time.

Each workload runs in passes.  A pass is one `weylot certify` or
`weylot ot` call for the certify and ot workloads, and one sweep of the
42-entry database (42 operations plus the end-of-pass dedupe) for
classify-gl.  ``run_pass`` runs one pass untraced; ``run_pass(tracer)``
runs the same pass, through the same code, with weylot's public functions
wrapped in spans (``tracer.instrument``), and checks that it reproduces the
untraced result exactly.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from weylot import cli, polytope, symmetry, weyl
from weylot.polytope import Polytope
from weylot.weyl import WeylPolytopeRecord, mr_family

from . import checks, inputs
from .tracer import instrument


@dataclass
class PassResult:
    op_s: list = field(default_factory=list)       # one time per operation
    busy_s: float = 0.0                            # ops plus pass overhead
    problems: list = field(default_factory=list)   # one list per checked result


def run_cli(argv):
    """`weylot <argv>` in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def guarded(fn):
    """Run ``fn``; an exception becomes a problem instead of ending the run."""
    try:
        return fn(), []
    except Exception as exc:  # any failure of the program counts as failed
        traceback.print_exc(file=sys.stderr)
        return None, [f"raised {exc!r}"]


def traced_or_not(tracer):
    """The context a pass runs in: plain, or with every layer wrapped."""
    return contextlib.nullcontext() if tracer is None else instrument(tracer)


def op_span(tracer, op_id):
    return contextlib.nullcontext() if tracer is None else tracer.op(op_id)


class OneCall:
    """A workload whose pass is one CLI call; subclasses set ``argv`` and
    define ``check(code, text)``."""

    cli_text = None
    min_passes = 3

    def run_pass(self, index, tracer=None):
        res = PassResult()
        with traced_or_not(tracer):
            t0 = perf_counter()
            with op_span(tracer, (index, 0)):
                out, problems = guarded(lambda: run_cli(self.argv))
            res.op_s.append(perf_counter() - t0)
        res.busy_s = res.op_s[0]
        if out is not None:
            code, text = out
            problems = self.check(code, text)
            if tracer is None:
                self.cli_text = text
            elif text != self.cli_text:
                problems.append("traced report differs from the untraced one")
        res.problems.append(problems)
        return res


class Certify(OneCall):
    """`weylot certify` on a pinned orbit hull whose file rows the seed shuffles."""

    def __init__(self, name, type_label, weight, refine, cycles):
        self.name = name
        self.type_label = type_label
        self.weight = weight
        self.refine = refine
        self.cycles = cycles
        self.expect = checks.CERTIFY_EXPECT[name]

    def setup(self, seed, workdir):
        path = workdir / f"{self.type_label}.poly"
        inputs.write_polytope_file(path, self.type_label, seed)
        self.argv = ["certify", str(path), "--type", self.type_label,
                     "--weight", ",".join(map(str, self.weight)),
                     "--refine", str(self.refine),
                     "--cycles", str(self.cycles)]

    def check(self, code, text):
        return checks.check_certify(code, text, self.expect)


class Ot(OneCall):
    """`weylot ot` on the committed refine-1 cube clouds.  Every seed gets
    the same files: the solve time depends on the row order."""

    name = "ot-direct"

    def setup(self, seed, workdir):
        paths = [inputs.DATA / name for name in inputs.OT_FILES]
        self.rows = [inputs.measure_rows_exact(p.read_text(encoding="utf-8"))
                     for p in paths]
        self.argv = ["ot"] + [str(p) for p in paths]

    def check(self, code, text):
        return checks.check_ot(code, text, *self.rows)


def _fresh(rec):
    """The record over a new Polytope, so no cached property carries over."""
    p = rec.polytope
    return WeylPolytopeRecord(Polytope(p.vertices, p.facets, p.dim),
                              rec.system, rec.weight, rec.lattice_choice)


class ClassifyGL:
    """A database sweep: hull, classify and star-check every entry, then
    dedupe the pass's polytopes up to unimodular equivalence."""

    name = "classify-gl"
    min_passes = 3              # 126 operations

    def setup(self, seed, workdir):
        self.members = inputs.load_members()
        self.records = []
        for member in self.members:
            rec = mr_family(member["row"], member["rank"])
            pinned = {tuple(v) for v in member["vertices"]}
            if set(rec.polytope.vertices) != pinned:
                raise ValueError(f"{member['row']} rank {member['rank']}: "
                                 "family table differs from the pinned vertices")
            self.records.append(rec)
        self.entries = inputs.classify_entries(self.members, seed)
        self.untraced_records = {}

    def run_pass(self, index, tracer=None):
        res = PassResult()
        polys = []
        with traced_or_not(tracer):
            for k, (member, _, raw) in enumerate(self.entries):
                star_rec = _fresh(self.records[member])
                t0 = perf_counter()
                with op_span(tracer, (index, k)):
                    out, problems = guarded(lambda: self._op(raw, star_rec))
                res.op_s.append(perf_counter() - t0)
                if out is not None:
                    p, record, star = out
                    polys.append(p)
                    problems = checks.check_classify(record, star,
                                                     self.members[member])
                    if tracer is None:
                        self.untraced_records[k] = record
                    elif record != self.untraced_records.get(k):
                        problems.append("traced record differs from the "
                                        "untraced one")
                res.problems.append(problems)
            t0 = perf_counter()
            with op_span(tracer, (index, "dedupe")):
                classes, problems = guarded(lambda: self._dedupe(polys))
            dedupe_s = perf_counter() - t0
        res.busy_s = sum(res.op_s) + dedupe_s
        res.problems.append(problems or checks.check_dedupe(classes))
        return res

    @staticmethod
    def _op(raw, star_rec):
        p = polytope.convex_hull(raw)
        return p, weyl.classify(p), weyl.star_containment_check(star_rec)

    @staticmethod
    def _dedupe(polys):
        """Greedy classes up to unimodular equivalence; their count."""
        reps = []
        for p in polys:
            if not any(symmetry.unimodular_equivalent(p, q) is not None
                       for q in reps):
                reps.append(p)
        return len(reps)


WORKLOADS = {
    "certify-refined": lambda: Certify("certify-refined", "B3", (0, 0, 2),
                                       refine=1, cycles=3),
    "classify-gl": ClassifyGL,
    "ot-direct": Ot,
}
