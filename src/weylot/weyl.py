"""Weyl polytopes: construction, family table, detection, classification.

A Weyl polytope is the convex hull of one Weyl group orbit.  This module
builds them from root-system data, generates the classified reflexive
families over the root lattice, decides whether a given lattice polytope is
a Weyl polytope (or the dual of one) from its reflection symmetries, and
assembles classification records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import (InternalTableViolation, NotDominant, NotLatticePoint,
                     NotReflexive, OutOfTableRange)
from . import linalg as la
from .measures import _exact_matmul, _int_array
from .polytope import Polytope, convex_hull, h_polytope_vertices, tight_matrix
from .rootsystems import RootSystem, build_root_system
from .symmetry import reflections, reflection_data


@dataclass(frozen=True)
class WeylPolytopeRecord:
    """A Weyl polytope together with the data that generated it."""

    polytope: Polytope
    system: RootSystem
    weight: tuple
    lattice_choice: str


def weyl_polytope(system: RootSystem, m) -> WeylPolytopeRecord:
    """Hull of the orbit of a nonzero dominant lattice weight.

    Verifies that every orbit point is a vertex and that the origin is
    interior (both hold by vertex transitivity).
    """
    m = tuple(la.norm_scalar(x) for x in m)
    if not la.is_integer_vector(m):
        raise NotLatticePoint(f"{m} is not a lattice point")
    if all(x == 0 for x in m):
        raise NotLatticePoint("the zero weight gives no polytope")
    if not system.is_dominant(m):
        raise NotDominant(f"{m} is not in the positive chamber")
    orbit = system.orbit(m)
    poly = convex_hull(orbit)
    if set(poly.vertices) != set(orbit):
        raise InternalTableViolation(
            "orbit points failed to all be vertices")
    return WeylPolytopeRecord(poly, system, m, system.lattice_choice)


# -- the classified families over the root lattice ---------------------------

def _odd_rank_weight(rank):
    if rank < 3 or rank % 2 == 0:
        raise OutOfTableRange("row needs odd rank >= 3")
    k = (rank - 1) // 2
    w = [0] * rank
    w[k] = 2
    return tuple(w)


def _even_rank_weight(rank):
    # The printed source carries a factor (rank+1) here, which dilates every
    # facet to lattice distance rank+1; the reflexive member of the family is
    # the hull of the orbit of w_k + w_{k+1} itself.
    if rank < 4 or rank % 2 == 1:
        raise OutOfTableRange("row needs even rank >= 4")
    k = rank // 2
    w = [0] * rank
    w[k - 1] = 1
    w[k] = 1
    return tuple(w)


FAMILY_ROWS = {
    "An-projective": ("A", lambda n: n >= 1,
                      lambda n: tuple([n + 1] + [0] * (n - 1)), True),
    "An-roots": ("A", lambda n: n >= 2,
                 lambda n: tuple([1] + [0] * (n - 2) + [1]), False),
    "Aodd-v": ("A", lambda n: n >= 3 and n % 2 == 1, _odd_rank_weight, False),
    "Aeven-v": ("A", lambda n: n >= 4 and n % 2 == 0, _even_rank_weight, True),
    "Bn-w1": ("B", lambda n: n >= 2,
              lambda n: tuple([1] + [0] * (n - 1)), False),
    "Bn-cube": ("B", lambda n: n >= 2,
                lambda n: tuple([0] * (n - 1) + [2]), True),
    "Cn-2w1": ("C", lambda n: n >= 3,
               lambda n: tuple([2] + [0] * (n - 1)), False),
    "Cn-w2": ("C", lambda n: n >= 3,
              lambda n: tuple([0, 1] + [0] * (n - 2)), False),
    "Dn-2w1": ("D", lambda n: n >= 4,
               lambda n: tuple([2] + [0] * (n - 1)), False),
    "Dn-w2": ("D", lambda n: n >= 4,
              lambda n: tuple([0, 1] + [0] * (n - 2)), False),
    "E6-w2": ("E", lambda n: n == 6,
              lambda n: (0, 1, 0, 0, 0, 0), False),
    "F4-w4": ("F", lambda n: n == 4, lambda n: (0, 0, 0, 1), False),
    # The hexagon is the orbit of the highest short root; with alpha_1 short
    # (the numbering used here) that weight is w1.
    "G2-v2": ("G", lambda n: n == 2, lambda n: (1, 0), True),
}


def family_smallest_ranks(row, count=3):
    """The ``count`` smallest admissible ranks of a family row."""
    family, admits, _, _ = FAMILY_ROWS[row]
    if family in ("E", "F", "G"):
        fixed = {"E": 6, "F": 4, "G": 2}[family]
        return (fixed,)
    out = []
    n = 1
    while len(out) < count:
        if admits(n):
            out.append(n)
        n += 1
        if n > 64:
            break
    return tuple(out)


def mr_family(row, rank) -> WeylPolytopeRecord:
    """One member of the classified reflexive families over the root lattice.

    Raises OutOfTableRange for an inadmissible rank and
    InternalTableViolation if the result fails the reflexivity check.
    """
    if row not in FAMILY_ROWS:
        raise OutOfTableRange(
            f"unknown row {row!r}; rows: {', '.join(sorted(FAMILY_ROWS))}")
    family, admits, weight_fn, _ = FAMILY_ROWS[row]
    if not admits(rank):
        raise OutOfTableRange(f"row {row!r} does not admit rank {rank}")
    system = build_root_system(family, rank, "root")
    from .rootsystems import weight_to_coords
    m = weight_to_coords(system, weight_fn(rank))
    rec = weyl_polytope(system, m)
    if not rec.polytope.is_reflexive:
        raise InternalTableViolation(
            f"family member {row} rank {rank} is not reflexive")
    return rec


def family_is_smooth(row) -> bool:
    return FAMILY_ROWS[row][3]


# -- the vertex pairing condition --------------------------------------------

def vertex_condition(p: Polytope):
    """True iff no vertex of p pairs to zero with a vertex of the dual.

    Returns (verdict, witness); the witness is one offending pair or None,
    the first zero of the pairing matrix (vertices of p by vertices of the
    dual) in row-major order.
    """
    if not p.is_reflexive:
        raise NotReflexive("vertex condition is defined for reflexive polytopes")
    dual = p.dual()
    zeros = np.argwhere(_exact_matmul(p.scaled_vertices[0],
                                      dual.scaled_vertices[0].T) == 0)
    if len(zeros):
        i, j = zeros[0].tolist()
        return False, (p.vertices[i], dual.vertices[j])
    return True, None


# -- recognizing the reflection group type -----------------------------------

def _reference_cartans(rank):
    from .rootsystems import _cartan_matrix
    out = [(f"A{rank}", _cartan_matrix("A", rank))]
    if rank == 2:
        out.append(("B2", _cartan_matrix("B", 2)))
        out.append(("G2", _cartan_matrix("G", 2)))
    if rank >= 3:
        out.append((f"B{rank}", _cartan_matrix("B", rank)))
        out.append((f"C{rank}", _cartan_matrix("C", rank)))
    if rank >= 4:
        out.append((f"D{rank}", _cartan_matrix("D", rank)))
    if rank == 4:
        out.append(("F4", _cartan_matrix("F", 4)))
    if rank in (6, 7, 8):
        out.append((f"E{rank}", _cartan_matrix("E", rank)))
    return out


def _match_cartan(label_cartans, C):
    n = len(C)
    rows_profile = sorted(sorted(row) for row in C)
    for label, ref in label_cartans:
        if sorted(sorted(row) for row in ref) != rows_profile:
            continue
        for perm in permutations(range(n)):
            if all(ref[perm[i]][perm[j]] == C[i][j]
                   for i in range(n) for j in range(n)):
                return label
    return None


def identify_reflection_group(refs):
    """Root system and type label of a set of lattice reflections.

    The reflections must generate a finite lattice group whose roots span.
    Returns (label, system): the system of the reflections' roots +-a and
    coroots in the lattice's own coordinates, type ("detected", rank).
    """
    data = [reflection_data(m) for m in refs]
    roots = []
    seen = set()
    for rd in data:
        for sign in (1, -1):
            a = tuple(sign * x for x in rd.root)
            if a not in seen:
                seen.add(a)
                roots.append((a, tuple(sign * x for x in rd.coroot)))
    d = len(data[0].root)
    t = 1
    while True:
        f = tuple(t ** i for i in range(d))
        if all(la.vdot(a, f) != 0 for a, _ in roots):
            break
        t += 1
    positive = [(a, av) for a, av in roots if la.vdot(a, f) > 0]
    pos_set = {a for a, _ in positive}
    simples = []
    for a, av in positive:
        is_sum = False
        for b in pos_set:
            c = tuple(x - y for x, y in zip(a, b))
            if any(x != 0 for x in c) and c in pos_set:
                is_sum = True
                break
        if not is_sum:
            simples.append((a, av))
    simples.sort()
    sreal = [a for a, _ in simples]
    scov = [av for _, av in simples]
    C = tuple(tuple(la.vdot(sreal[j], scov[i]) for j in range(len(simples)))
              for i in range(len(simples)))
    roots.sort()
    all_roots = [a for a, _ in roots]
    system = RootSystem([("detected", len(simples))], all_roots,
                        [av for _, av in roots],
                        [all_roots.index(a) for a in sreal], C, "custom")
    # split into irreducible components along the Dynkin graph
    n = len(simples)
    comp = list(range(n))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for i in range(n):
        for j in range(n):
            if i != j and C[i][j] != 0:
                comp[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    labels = []
    for members in groups.values():
        sub = tuple(tuple(C[i][j] for j in members) for i in members)
        label = _match_cartan(_reference_cartans(len(members)), sub)
        if label is None:
            label = f"?{len(members)}"
        labels.append(label)
    labels.sort()
    return "x".join(labels), system


@dataclass(frozen=True)
class WeylDetection:
    """Evidence that a polytope is a Weyl polytope."""

    type_label: str
    reflections: tuple          # reflection matrices generating the group
    system: RootSystem          # the reflections' roots, in p's lattice
    dominant_vertex: tuple


def is_weyl_polytope(p: Polytope):
    """Detect vertex transitivity under the reflection subgroup of Aut(p).

    Returns a :class:`WeylDetection` when the group generated by all lattice
    reflections preserving ``p`` acts transitively on the vertices (then
    ``p`` is the hull of one orbit), else None.
    """
    refs = reflections(p)
    if not refs:
        return None
    start = p.vertices[0]
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for s in refs:
            w = la.mat_vec(s, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(p.vertices):
        return None
    label, system = identify_reflection_group(refs)
    vertex, _ = system.dominant_representative(p.vertices[0])
    return WeylDetection(label, refs, system, vertex)


def is_dual_weyl_polytope(p: Polytope):
    """Detection applied to the dual; requires ``p`` reflexive."""
    if not p.is_reflexive:
        raise NotReflexive("dual detection requires a reflexive polytope")
    return is_weyl_polytope(p.dual())


# -- the chamber-star containment check --------------------------------------

@dataclass(frozen=True)
class StarContainmentVerdict:
    passed: bool
    mode: str                   # always "certified": each verdict is a proof
    witness: tuple | None       # (side, point) for a failure


def star_containment_check(rec: WeylPolytopeRecord) -> StarContainmentVerdict:
    """Certify the two chamber containments of a Weyl polytope.

    Primal side: the boundary part inside the positive chamber lies in the
    closed star of the generating vertex m.  Dual side: the dual boundary
    part inside the positive dual chamber lies in the facet tau_m on which
    the bracket with m is 1.  Each side is cut once, P by its chamber
    walls and P* by the dual walls.  A facet's part in the chamber is a
    face of the cut, the hull of the cut vertices tight on that facet
    (Ziegler, *Lectures on Polytopes*, 2.3), so every test reads one tight
    matrix per side.  A part is convex, so it lies in the union of the star
    facets iff it lies in one of them: the star facet through one of its
    relative-interior points holds all of it, and so all its vertices.  On
    a primal failure the witness is the first failing part's vertex
    average, a relative-interior point on no star facet.  A dual part lies
    in tau_m iff all its vertices pair to 1 with m; the witness of a dual
    failure is the first vertex of the first dual part that does not.
    """
    p, system, m = rec.polytope, rec.system, rec.weight
    star = list(p.vertex_facets[p.vertex_index(m)])
    dual = p.dual()
    cut = h_polytope_vertices(list(p.facets) + [
        (tuple(-x for x in system.coroots[i]), 0)
        for i in system.simple_indices], p.dim)
    dual_cut = h_polytope_vertices(list(dual.facets) + [
        (tuple(-x for x in system.roots[i]), 0)
        for i in system.simple_indices], p.dim)

    tight = tight_matrix(*_int_array(cut), p)           # cut vertex x facet
    # [f, g]: a vertex of facet f's piece is off the star facet g
    escapes = tight.T @ ~tight[:, star]
    failing = np.flatnonzero(tight.any(axis=0) & escapes.all(axis=1))
    if len(failing):
        region = [cut[i] for i in np.flatnonzero(tight[:, failing[0]])]
        x = tuple(la.norm_scalar(sum(Fraction(v[k]) for v in region)
                                 / len(region)) for k in range(p.dim))
        return StarContainmentVerdict(False, "certified", ("primal", x))

    pts, scale = _int_array(dual_cut)
    off_tau = _exact_matmul(pts, np.array([m], dtype=object).T)[:, 0] != scale
    bad = np.argwhere((tight_matrix(pts, scale, dual) & off_tau[:, None]).T)
    if len(bad):
        return StarContainmentVerdict(False, "certified",
                                      ("dual", dual_cut[bad[0][1]]))
    return StarContainmentVerdict(True, "certified", None)


# -- classification records ---------------------------------------------------

@dataclass(frozen=True)
class ClassificationRecord:
    aut_order: int
    barycenter_zero: bool
    reflexive: bool
    weyl: tuple | None          # (type label, dominant vertex)
    dual_weyl: tuple | None
    vertex_condition: bool | None
    vertex_condition_witness: tuple | None
    delzant: bool


def classify(p: Polytope, cap=None) -> ClassificationRecord:
    """Assemble the per-polytope classification data."""
    from .symmetry import automorphism_group
    aut = automorphism_group(p, cap)
    bary_zero = all(x == 0 for x in p.barycenter)
    reflexive = p.is_reflexive
    det = is_weyl_polytope(p)
    weyl = (det.type_label, det.dominant_vertex) if det else None
    dual_weyl = None
    if reflexive:
        ddet = is_weyl_polytope(p.dual())
        dual_weyl = (ddet.type_label, ddet.dominant_vertex) if ddet else None
    vc, witness = (None, None)
    if reflexive:
        vc, witness = vertex_condition(p)
    return ClassificationRecord(
        aut_order=len(aut),
        barycenter_zero=bary_zero,
        reflexive=reflexive,
        weyl=weyl,
        dual_weyl=dual_weyl,
        vertex_condition=vc,
        vertex_condition_witness=witness,
        delzant=p.is_delzant,
    )
