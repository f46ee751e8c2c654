"""Integral surface measures on polytope boundaries and their discretizations.

The integral surface measure gives each facet its lattice-normalized volume
(a unimodular d-simplex weighs 1/d!).  ``discretize`` turns the measure into
a weighted rational point cloud: facets are cut into their flag simplices
(one barycentric subdivision), optionally refined by further subdivision
rounds, and every cell contributes its centroid weighted by the cell's
exact volume.  Flag cells are built from face barycenters, so every lattice
automorphism, and every unimodular change of coordinates, carries the cloud
of P to the cloud of its image.  Masses are normalized to total 1, so two
boundary measures can enter a transport problem directly.

A facet's cells are one integer array of vertex rows over one common
denominator, from the face walk through refinement to the measurement; the
cloud's points and masses become Fractions once, at the end.  A cell of the
facet <x, n> = c, n primitive, is the base of a cone from 0 of lattice
height c, so its volume is |det| of its vertex rows over (d - 1)! c: one
batched integer determinant per facet (:func:`measure_cells`), with no
lattice frame.

``dominant_cloud`` measures only the flag cells inside the closed dominant
Weyl chamber: a fundamental domain of the invariant cloud, one
representative per orbit, carrying the orbit masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import factorial, lcm

import numpy as np

from .errors import InternalCheckFailed
from . import linalg as la
from .polytope import Polytope, tight_matrix


@dataclass(frozen=True)
class SurfaceMeasure:
    facet_masses: tuple     # (facet index, mass) pairs
    total: Fraction


def surface_measure(p: Polytope) -> SurfaceMeasure:
    """Per-facet lattice-normalized volumes and their sum."""
    masses = []
    total = Fraction(0)
    for f, face in enumerate(p.facet_faces()):
        v = p.face_lattice_volume(face)
        masses.append((f, la.norm_scalar(v)))
        total += v
    return SurfaceMeasure(tuple(masses), la.norm_scalar(total))


@dataclass(frozen=True)
class WeightedPointCloud:
    """Rational points on a polytope boundary with positive rational masses."""

    points: tuple
    masses: tuple
    chamber_tags: tuple
    side: str

    def __len__(self):
        return len(self.points)

    @cached_property
    def scaled(self):
        """``(array, scale)``: integer coordinates, points = array / scale."""
        return la.int_array(self.points)


def _barycentric_subdivide(cells, denom):
    """One barycentric subdivision of cells over ``denom``: the subcell of
    a vertex permutation has the average of the first j permuted vertices as
    its j-th vertex, over ``denom * lcm(1, ..., d)`` the sum of the first j
    permuted rows times lcm / j, so entries grow by at most the lcm."""
    d = cells.shape[1]
    big = lcm(*range(1, d + 1))
    dtype = la.bounded_dtype(big * int(np.abs(cells).max(initial=0)))
    weights = np.tril(np.ones((d, d), dtype=dtype)) * np.array(
        [[big // j] for j in range(1, d + 1)], dtype=dtype)
    perms = np.array(list(permutations(range(d))))
    subs = weights @ cells.astype(dtype)[:, perms]
    return subs.reshape(-1, d, cells.shape[2]), denom * big


def _flag_cells(p, face, walls=None):
    """Barycentric-subdivision simplices of a face: one cell per face flag.

    Cell vertices are vertex-average barycenters of a chain of faces, which
    every lattice automorphism of the polytope maps to cells of the image
    face; the resulting set of cells is canonical.  A barycenter is a
    vertex-row sum over a positive count, so ``walls``, covectors, prune
    the walk on the sum alone: a chain enters only faces whose barycenter
    pairs nonnegatively with every wall.  Returns ``(cells, denominator)``:
    an integer array (cell, vertex, coordinate) over one denominator, or
    None, before any array is built, when the walls keep no chain.
    """
    verts = p.vertex_array
    rows = verts.tolist()
    sums, chains, stack = [], [], [(face, ())]
    seen = {}           # vertex indices -> (kept face's index, children)
    while stack:
        f, chain = stack.pop()
        key = f.vertex_indices
        if key not in seen:
            s = [sum(col) for col in zip(*(rows[i] for i in key))]
            seen[key] = (None, ())
            if walls is None or all(sum(x * y for x, y in zip(s, w)) >= 0
                                    for w in walls):
                seen[key] = (len(sums),
                             p.face_children(f) if f.dimension else ())
                sums.append((s, len(key)))
        at, children = seen[key]
        if at is not None:
            chain = (at,) + chain
            if f.dimension == 0:
                chains.append(chain)
            stack += [(child, chain) for child in reversed(children)]
    if not chains:
        return None
    # over lcm(counts), a face row is its sum times lcm / count: |x| <= lcm top
    big = lcm(*(c for _, c in sums))
    faces = np.array([[x * (big // c) for x in s] for s, c in sums],
                     dtype=la.bounded_dtype(big * int(np.abs(verts).max())))
    return faces.reshape(-1, p.dim)[np.array(chains, dtype=np.intp).reshape(
        -1, face.dimension + 1)], big


def measure_cells(p, face, cells, denom):
    """Centroids and lattice volumes of one facet's cells, exactly.

    The facet lies on <x, n> = c with n primitive, so the cone from 0 over
    a cell has lattice height c, and the cell's lattice volume is
    |det(v_1, ..., v_d)| / ((d - 1)! c): one batched determinant of the
    cells' integer vertex rows over ``denom``.  Returns the centroids'
    vertex-row sums and |det|s, each as ``(array, denominator)``.
    """
    d = p.dim
    sums = cells.astype(la.bounded_dtype(d * int(np.abs(cells).max()))).sum(1)
    c = p.facets[face.facet_indices[0]][1]
    return ((sums, d * denom),
            (abs(la.batched_det(cells)), factorial(d - 1) * c * denom ** d))


def _common_denominator(blocks):
    """``(array, denominator)`` blocks as one integer list over the lcm."""
    scale = lcm(*(s for _, s in blocks))
    dtype = la.bounded_dtype(max(int(np.abs(a).max()) * (scale // s)
                                 for a, s in blocks))
    return np.concatenate([a.astype(dtype) * (scale // s)
                           for a, s in blocks]).tolist(), scale


def discretize(p: Polytope, refinement: int = 0, group=None, side: str = "M",
               system=None, walls=None) -> WeightedPointCloud:
    """Weighted point cloud approximating the boundary surface measure.

    Every facet is cut into its flag cells (:func:`_flag_cells`), and
    ``refinement`` counts further barycentric subdivision rounds.  The
    cells are canonical, so a lattice automorphism, or a unimodular map,
    carries the cloud of ``p`` to the cloud of its image; under a Weyl
    group the cloud is exactly invariant.  ``group``, ``side`` ("M" for the
    polytope, "N" for its dual) and ``system`` only set the chamber tags:
    each point's first incident chamber (see :func:`chamber_incidence`),
    else None.  ``walls``, covectors, measure only the flag cells of the
    faces whose barycenters pair nonnegatively with every wall; the kept
    masses are normalized to total 1.
    """
    if refinement < 0:
        raise ValueError("refinement must be >= 0")

    centroids, volumes = [], []
    for face in p.facet_faces():
        kept = _flag_cells(p, face, walls)
        if kept is None:
            continue                    # the walls prune the whole facet
        cells, denom = kept
        for _ in range(refinement):
            cells, denom = _barycentric_subdivide(cells, denom)
        centroid, volume = measure_cells(p, face, cells, denom)
        centroids.append(centroid)
        volumes.append(volume)
    if not centroids:
        raise InternalCheckFailed("no boundary cell was kept")

    rows, scale = _common_denominator(centroids)
    vols, total = _common_denominator(volumes)[0], 0
    accum = {}
    for row, vol in zip(map(tuple, rows), vols):
        accum[row] = accum.get(row, 0) + vol
        total += vol
    keys = sorted(accum)
    points = tuple(tuple(la.norm_scalar(Fraction(x, scale)) for x in key)
                   for key in keys)
    masses = tuple(la.norm_scalar(Fraction(accum[key], total)) for key in keys)
    scaled = la.int_array(points)
    tight = tight_matrix(*scaled, p.facets)
    if (tight.sum(axis=1) != 1).any():
        # a full-dimensional cell's centroid is interior to its facet
        raise InternalCheckFailed(
            "cell centroid not in a unique facet interior")

    chamber_tags = (None,) * len(points)
    if system is not None and group is not None:
        inc = chamber_incidence(scaled[0], system, group, side)
        chamber_tags = tuple(int(w) for w in inc.argmax(axis=0))
    cloud = WeightedPointCloud(points, masses, chamber_tags, side)
    cloud.__dict__["scaled"] = scaled       # fills the cached property
    return cloud


def dominant_cloud(p: Polytope, refinement: int, system,
                   side: str) -> WeightedPointCloud:
    """One representative per Weyl orbit of the invariant cloud.

    ``discretize(p, refinement)`` is the W-orbit of this cloud, each
    point carrying 1/|W| of its representative's mass.  W acts freely on
    the flag cells: an element fixing a cell fixes its vertices, which span
    M linearly, since the facet misses 0.  Each cell lies in one closed
    chamber, and barycentric subdivision keeps that true.  So the cells
    inside the closed dominant chamber form a fundamental domain, and the
    walk keeps exactly them: it enters only faces whose barycenter is
    dominant (against the simple coroots on the M side, the simple roots on
    the N side).  They are refined and measured by :func:`discretize` with
    those ``walls``, and their masses, normalized to total 1, are the orbit
    masses.  Every centroid must be strictly dominant, so every orbit has
    exactly |W| points; a centroid on a wall raises InternalCheckFailed.
    """
    walls = _walls(system, side)
    cloud = discretize(p, refinement, side=side, walls=walls)
    if not (la.exact_matmul(cloud.scaled[0], la.transpose(walls)) > 0).all():
        raise InternalCheckFailed(
            "a kept cell centroid is not strictly dominant")
    return cloud


def _walls(system, side):
    """The simple chamber walls as covectors: coroots on M, roots on N."""
    if side == "M":
        return system.simple_coroots
    if side == "N":
        return system.simple_roots
    raise ValueError("side must be 'M' or 'N'")


def chamber_incidence(pts, system, group, side):
    """Boolean |W| x n matrix: entry [w, i] says point i lies in w(C+).

    ``pts`` are integer rows, the points times one positive common
    denominator (``WeightedPointCloud.scaled``, :func:`linalg.int_array`).
    x is in w(C+) iff w^-1 x is dominant (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1.12); wall points lie in several chambers.
    """
    mats = group.dual_matrices if side == "M" else group.matrices
    # w^-1 is the transposed dual matrix on M and transposed matrix on N
    proj = la.exact_matmul(mats, la.transpose(_walls(system, side)))
    dtype = la.matmul_dtype(pts, proj)
    pts, proj = pts.astype(dtype), proj.astype(dtype)
    out = np.empty((len(proj), len(pts)), dtype=bool)
    step = max(1, (1 << 22) // max(1, pts.size))    # products per block
    for lo in range(0, len(proj), step):
        out[lo:lo + step] = ((pts @ proj[lo:lo + step]) >= 0).all(axis=2)
    return out


def chamber_mass(cloud: WeightedPointCloud, system, group):
    """Mass per Weyl chamber of the cloud's side; wall points split equally
    among their chambers.

    For a cloud invariant under the group, every chamber carries exactly
    1/|W| of the total.
    """
    inc = chamber_incidence(cloud.scaled[0], system, group, cloud.side)
    out = {i: Fraction(0) for i in range(len(inc))}
    for mass, column in zip(cloud.masses, inc.T):
        share = Fraction(mass) / int(column.sum())
        for i in np.flatnonzero(column):
            out[int(i)] += share
    return {i: la.norm_scalar(v) for i, v in out.items()}
