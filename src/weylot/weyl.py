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
from math import lcm

import numpy as np

from .errors import (InternalTableViolation, NotDominant, NotLatticePoint,
                     OutOfTableRange)
from . import linalg as la
from .polytope import Polytope, convex_hull
from .rootsystems import (RootSystem, build_root_system, components,
                          dynkin_type, weight_to_coords)
from .symmetry import automorphism_group, reflection_search


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
    """The ``count`` smallest admissible ranks of a family row, up to 64."""
    _, admits, _, _ = FAMILY_ROWS[row]
    return tuple(n for n in range(1, 65) if admits(n))[:count]


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
    dual) in row-major order.  Raises NotReflexive unless p is reflexive.
    """
    dual = p.dual()
    zeros = np.argwhere(
        la.exact_matmul(p.vertex_array, dual.vertex_array.T) == 0)
    if len(zeros):
        i, j = zeros[0].tolist()
        return False, (p.vertices[i], dual.vertices[j])
    return True, None


# -- recognizing the reflection group type -----------------------------------

def identify_reflection_group(roots, coroots):
    """Root system and type label of lattice reflections, given by their
    roots and index-aligned coroots (one of each +-pair per reflection).

    The reflections must generate a finite lattice group whose roots span.
    Positive means positive on the functional (1, t, t^2, ...) for the
    least t >= 1 on which no root vanishes.  A positive root is simple iff
    no difference of it with another positive root is a positive root;
    all differences are tested in one pass on exact row keys.  Returns
    (label, system): the system of the roots +-a and coroots in the
    lattice's own coordinates, type ("detected", rank), whose Cartan
    matrix is split into :func:`rootsystems.components`, each named by
    :func:`rootsystems.dynkin_type`.
    """
    pairs = {}
    for a, av in zip(roots, coroots):
        for sign in (1, -1):
            pairs[tuple(sign * x for x in a)] = tuple(sign * x for x in av)
    arr, _ = la.int_array(list(pairs))
    t = 1
    while True:
        height = la.exact_matmul(arr, [t ** i for i in range(arr.shape[1])])
        if (height != 0).all():
            break
        t += 1
    positive = [a for a, h in zip(pairs, height > 0) if h]
    pos = arr[height > 0]
    pos = pos.astype(la.bounded_dtype(2 * int(np.abs(pos).max())))
    hit = la.row_index(pos[:, None, :] - pos[None, :, :], pos) >= 0
    sreal = sorted(a for a, sums in zip(positive, hit.any(axis=1))
                   if not sums)
    scov = [pairs[a] for a in sreal]
    C = tuple(tuple(la.vdot(sreal[j], scov[i]) for j in range(len(sreal)))
              for i in range(len(sreal)))
    all_roots = sorted(pairs)
    system = RootSystem([("detected", len(sreal))], all_roots,
                        [pairs[a] for a in all_roots],
                        [all_roots.index(a) for a in sreal], C, "custom")
    labels = sorted("{}{}".format(*dynkin_type([[C[i][j] for j in members]
                                                for i in members]))
                    for members in components(C))
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

    One batched search (:func:`symmetry.reflection_search`) gives every
    lattice reflection preserving ``p`` with its vertex permutation, root
    and coroot.  The group they generate is transitive iff a frontier walk
    over the permutations from vertex 0 reaches every vertex; then ``p``
    is the hull of one orbit and the roots and coroots give its root
    system.  Returns a :class:`WeylDetection`, or None if ``p`` has no
    reflection or is not one orbit.
    """
    refs, roots, coroots, perms = reflection_search(p)
    if not refs:
        return None
    seen = np.zeros(len(p.vertices), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        reached = np.unique(perms[:, frontier])
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    if not seen.all():
        return None
    label, system = identify_reflection_group(roots, coroots)
    # the one vertex of the orbit in the closed dominant chamber
    pairing = la.exact_matmul(p.vertex_array,
                              la.transpose(system.simple_coroots))
    vertex = p.vertices[np.flatnonzero((pairing >= 0).all(axis=1))[0]]
    return WeylDetection(label, refs, system, vertex)


def is_dual_weyl_polytope(p: Polytope):
    """Detection applied to the dual; raises NotReflexive unless ``p`` is
    reflexive."""
    return is_weyl_polytope(p.dual())


# -- the chamber-star containment check --------------------------------------

@dataclass(frozen=True)
class StarContainmentVerdict:
    passed: bool
    mode: str                   # always "certified": each verdict is a proof
    witness: tuple | None       # (side, point) for a failure


def star_containment_check(rec: WeylPolytopeRecord) -> StarContainmentVerdict:
    """Certify the two chamber containments of a Weyl polytope P.

    Primal: the boundary of P in the positive chamber C+ lies in the star
    of m (the facets through m).  Dual: the boundary of P* in the dual
    chamber lies in the facet tau_m of P* on which the bracket with m is 1.
    Precondition: P is invariant under the Weyl group of ``rec.system``,
    as an orbit hull is, and a polytope under its detected system.

    A facet F's vertex average b_F lies on F alone, and F & C+ has interior
    in F iff b_F is dominant: F's flag cells share the vertex b_F and each
    lies in one closed chamber; conversely the stabilizer of b_F is a
    parabolic W_J (Humphreys, *Reflection Groups and Coxeter Groups*,
    1.12), which fixes F (wF has barycenter w b_F = b_F), and the sets
    w(F & C+), w in W_J, cover F near b_F.  A boundary point x in C+ lies
    in a flag cell in some chamber w C+; w^-1 fixes x (an orbit meets C+
    once), so the cell moved by w^-1 lies in C+ on a facet with dominant
    barycenter.  So a side holds iff every facet with a dominant
    barycenter is a star facet, or is tau_m.

    P* is read off P, so P need not be reflexive: the facets of P* are the
    vertices v of P, in P's order (tau_m is m's row), and the facet at v
    has the vertices n_f / c_f over the facets f of P through v.  With L
    the lcm of the offsets, its barycenter is the sum of the rows
    n_f (L / c_f) over count L.  Per side this is one integer product of
    P's tight matrix, integer rows and the walls.  A failure's witness is
    the first failing facet's barycenter: exact, dominant, and on that
    facet only, so off the star or off tau_m.
    """
    p, system, m = rec.polytope, rec.system, rec.weight
    at = p.vertex_index(m)
    tight = p.tight.astype(np.int64)                 # vertex x facet
    big = lcm(*(c for _, c in p.facets))
    scaled = [[x * (big // c) for x in n] for n, c in p.facets]
    sides = (("primal", tight.T, p.vertex_array, 1, system.simple_coroots,
              p.vertex_facets[at]),
             ("dual", tight, scaled, big, system.simple_roots, (at,)))
    for side, inc, rows, scale, walls, allowed in sides:
        sums = la.exact_matmul(inc, rows)            # facet x coordinate
        dominant = (la.exact_matmul(sums, la.transpose(walls)) >= 0).all(1)
        dominant[list(allowed)] = False
        if dominant.any():
            f = int(np.argmax(dominant))
            count = int(inc[f].sum()) * scale
            x = tuple(la.norm_scalar(Fraction(int(s), count)) for s in sums[f])
            return StarContainmentVerdict(False, "certified", (side, x))
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


def classify(p: Polytope) -> ClassificationRecord:
    """Assemble the per-polytope classification data.

    A Weyl polytope's barycenter is 0, so only other inputs triangulate
    their boundary for it.  Each reflection of the detected group W maps
    ``p`` onto itself linearly, so W fixes the barycenter x.  In an inner
    product averaged over the finite group W, <x, v> = <x, w v> is then one
    constant c over the vertices, as W is transitive on them.  0 is
    interior, so 0 = sum of l_v v with every l_v > 0, and 0 = c sum l_v
    gives c = 0; the vertices span, so x = 0.  The automorphism count
    takes no determinant either: a map that sends the vertices one to one
    onto themselves is unimodular (:func:`symmetry.automorphism_group`).
    """
    aut = automorphism_group(p)
    det = is_weyl_polytope(p)
    bary_zero = det is not None or all(x == 0 for x in p.barycenter)
    reflexive = p.is_reflexive
    weyl = (det.type_label, det.dominant_vertex) if det else None
    dual_weyl, vc, witness = None, None, None
    if reflexive:
        ddet = is_dual_weyl_polytope(p)
        dual_weyl = (ddet.type_label, ddet.dominant_vertex) if ddet else None
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
