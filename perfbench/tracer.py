"""In-memory spans recorded around calls into weylot's modules.

A span has a name, start, end, parent span and operation id.  Spans stay in
memory until the run ends; self times are derived from them afterwards.

``instrument(tracer)`` wraps weylot's public functions, for as long as it is
active, in spans named after their layer.  The program itself then runs
unchanged: the CLI and ``certify`` or ``classify`` look these functions up
at call time and so call the wrappers.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter


def _pairs(out):
    return len(out[0].triples)          # (plan, potentials)


# (module, attribute, span name, (count name, count of the result) or None).
# An attribute with a dot is a method or cached property of a class.
LAYERS = (
    ("weylot.fileio", "parse_polytope", "fileio.parse", None),
    ("weylot.fileio", "parse_measure", "fileio.parse", None),
    ("weylot.fileio", "certification_json", "fileio.report", None),
    ("weylot.fileio", "write_report", "fileio.report", None),
    ("weylot.polytope", "convex_hull", "polytope.hull", None),
    ("weylot.polytope", "Polytope.dual", "polytope.dual", None),
    ("weylot.polytope", "Polytope.is_reflexive", "polytope.dual", None),
    ("weylot.polytope", "Polytope.barycenter", "polytope.barycenter", None),
    ("weylot.polytope", "Polytope.is_delzant", "polytope.is_delzant", None),
    ("weylot.rootsystems", "RootSystem.weyl_group", "rootsystems.weyl_group",
     ("rootsystems.group_order", len)),
    ("weylot.symmetry", "automorphism_group", "symmetry.automorphism_group",
     ("symmetry.aut_order", len)),
    ("weylot.symmetry", "unimodular_equivalent",
     "symmetry.unimodular_equivalent", None),
    ("weylot.weyl", "weyl_polytope", "weyl.weyl_polytope", None),
    ("weylot.weyl", "is_weyl_polytope", "weyl.is_weyl_polytope", None),
    ("weylot.weyl", "vertex_condition", "weyl.vertex_condition", None),
    ("weylot.weyl", "star_containment_check", "weyl.star_containment_check",
     None),
    ("weylot.measures", "discretize", "measures.discretize",
     ("measures.cloud_points", len)),
    ("weylot.transport", "solve_invariant_ot", "transport.solve_invariant_ot",
     ("transport.support_pairs", _pairs)),
    ("weylot.transport", "solve_ot", "transport.solve_ot",
     ("transport.support_pairs", _pairs)),
    ("weylot.transport", "check_stability_support",
     "transport.check_stability_support", None),
    ("weylot.transport", "check_chamber_support",
     "transport.check_chamber_support", None),
    ("weylot.transport", "check_reflection_sign",
     "transport.check_reflection_sign", None),
    ("weylot.transport", "check_cyclical_monotonicity",
     "transport.check_cyclical_monotonicity", None),
)


class Tracer:
    OP = "harness.op"            # the span of one whole operation

    def __init__(self):
        self.spans = []          # [name, start, end, parent id, op id]
        self.counts = {}         # name -> summed count
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = perf_counter()

    @contextmanager
    def op(self, op_id):
        """The span of one whole operation; layer spans nest inside it."""
        self._op = op_id
        try:
            with self.span(self.OP):
                yield
        finally:
            self._op = None

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name, count):
        """``fn`` with a span around each call, counting its result."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                self.count(count[0], count[1](out))
            return out
        return traced

    def self_times(self):
        """Per span name, the summed duration not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def op_durations(self):
        return {op_id: end - start
                for name, start, end, _, op_id in self.spans if name == self.OP}

    def dump(self, path):
        doc = {"fields": ["name", "start", "end", "parent", "op"],
               "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


@contextmanager
def instrument(tracer):
    """Replace every function in LAYERS by its traced wrapper, and put the
    originals back on exit.

    A module function is replaced wherever a weylot module binds it, so
    that names imported with ``from .x import f`` are wrapped as well.
    """
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module, attr, name, count in LAYERS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, cached_property):
                    new = cached_property(tracer.wrap(orig.func, name, count))
                    new.__set_name__(cls, attr)
                else:
                    new = tracer.wrap(orig, name, count)
                replace(cls, attr, new)
                continue
            orig = getattr(mod, attr)
            new = tracer.wrap(orig, name, count)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("weylot")
                        and other.__dict__.get(attr) is orig):
                    replace(other, attr, new)
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
