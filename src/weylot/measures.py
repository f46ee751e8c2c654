"""Integral surface measures on polytope boundaries and their discretizations.

The integral surface measure gives each facet its lattice-normalized volume
(a unimodular d-simplex weighs 1/d!).  ``discretize`` turns the measure into
a weighted rational point cloud: facets are cut into their flag cells
(:meth:`Polytope.flag_cells`, the one triangulation of the boundary, which
also gives the polytope its volumes and barycenter), optionally refined by
further barycentric subdivision rounds, and every cell contributes its
centroid weighted by the cell's exact volume.  Flag cells are built from
face barycenters, so every lattice automorphism, and every unimodular change
of coordinates, carries the cloud of P to the cloud of its image.  Masses
are normalized to total 1, so two boundary measures can enter a transport
problem directly.

A facet's cells are one integer array of vertex rows over one common
denominator, from the face walk through refinement to the measurement
(:meth:`Polytope.measure_cells`); the cloud's points and masses become
Fractions once, at the end.

``dominant_cloud`` measures only the flag cells inside the closed dominant
Weyl chamber: a fundamental domain of the invariant cloud, one
representative per orbit, carrying the orbit masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import lcm

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

    Every facet is cut into its flag cells (:meth:`Polytope.flag_cells`),
    and ``refinement`` counts further barycentric subdivision rounds.  The
    cells are canonical, so a lattice automorphism, or a unimodular map,
    carries the cloud of ``p`` to the cloud of its image; under a Weyl
    group the cloud is exactly invariant.  ``side`` is "M" for the
    polytope, "N" for its dual.  ``walls``, covectors, measure only the
    flag cells of the faces whose barycenters pair nonnegatively with every
    wall; the kept masses are normalized to total 1.  ``group`` and
    ``system`` are ignored: they set per-point chamber tags that no caller
    read, and ``perfbench/tests`` still passes them.
    """
    if refinement < 0:
        raise ValueError("refinement must be >= 0")

    centroids, volumes = [], []
    for face in p.facet_faces():
        kept = p.flag_cells(face, walls)
        if kept is None:
            continue                    # the walls prune the whole facet
        cells, denom = kept
        for _ in range(refinement):
            cells, denom = _barycentric_subdivide(cells, denom)
        centroid, volume = p.measure_cells(face, cells, denom)
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

    cloud = WeightedPointCloud(points, masses, side)
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
