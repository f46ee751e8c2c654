"""Integral surface measures on polytope boundaries and their discretizations.

The integral surface measure gives each facet its lattice-normalized volume
(a unimodular d-simplex weighs 1/d!).  ``discretize`` turns the measure into
a weighted rational point cloud: facets are cut into lattice simplices by a
deterministic triangulation through all their lattice points, optionally
refined by barycentric subdivision, and every cell contributes its centroid
weighted by the cell's exact volume.  Masses are normalized to total 1, so
two boundary measures can enter a transport problem directly.

A facet's cells are one integer array of vertex rows over one common
denominator, from the face walk or the stellar split through refinement to
the measurement; the cloud's points and masses become Fractions once, at
the end.  A cell of the facet <x, n> = c, n primitive, is the base of a
cone from 0 of lattice height c, so its volume is |det| of its vertex rows
over (d - 1)! c: one batched integer determinant per facet
(:func:`measure_cells`), with no lattice frame.

``dominant_cloud`` measures only the facet flag cells inside the closed
dominant Weyl chamber: a fundamental domain of the invariant cloud, one
representative per orbit, carrying the orbit masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iproduct
from math import factorial, lcm

import numpy as np

from .errors import InternalCheckFailed
from . import linalg as la
from .polytope import Polytope, tight_matrix

_BOX_CAP = 200_000
_INT64_GUARD = 1 << 60


@dataclass(frozen=True)
class SurfaceMeasure:
    facet_masses: tuple     # (facet index, mass) pairs
    total: Fraction


def surface_measure(p: Polytope) -> SurfaceMeasure:
    """Per-facet lattice-normalized volumes and their sum."""
    if not p.is_lattice:
        raise ValueError("surface measure needs a lattice polytope")
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
    facet_tags: tuple
    chamber_tags: tuple
    polytope: Polytope
    side: str

    def __len__(self):
        return len(self.points)

    def total_mass(self):
        return la.norm_scalar(sum(self.masses, Fraction(0)))

    @cached_property
    def scaled(self):
        """``(array, scale)``: integer coordinates, points = array / scale."""
        return _int_array(self.points)


def _facet_lattice_points(p, face):
    """All lattice points of a facet, by box enumeration plus exact filters."""
    verts = [p.vertices[i] for i in face.vertex_indices]
    d = p.dim
    lo = [min(v[c] for v in verts) for c in range(d)]
    hi = [max(v[c] for v in verts) for c in range(d)]
    size = 1
    for a, b in zip(lo, hi):
        size *= (b - a + 1)
        if size > _BOX_CAP:
            raise ValueError("facet bounding box too large to enumerate")
    normals = [p.facets[f] for f in face.facet_indices]
    pts = []
    for q in iproduct(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if any(la.vdot(q, n) != c for n, c in normals):
            continue
        if p.contains(q):
            pts.append(q)
    return sorted(pts)


def _stellar_triangulation(cells, extra_points):
    """Insert lattice points, in lex order, into integer cells of one facet
    by stellar splits.

    A cell's vertex rows are independent, since the facet misses 0, so by
    Cramer's rule the point's i-th barycentric coordinate has the sign of
    the determinant with row i replaced by the point, against the cell's
    own: one batched determinant per point.
    """
    d = cells.shape[1]
    for q in sorted(extra_points):
        swapped = np.repeat(cells[:, None], d + 1, axis=1)
        swapped[:, np.arange(1, d + 1), np.arange(d)] = q
        dets = _batched_det(swapped.reshape(-1, d, d)).reshape(-1, d + 1)
        signed = dets[:, 1:] != 0
        pos = signed & ((dets[:, 1:] > 0) == (dets[:, :1] > 0))
        # a cell holding q at two or more positive coordinates splits there
        whole = (signed & ~pos).any(axis=1) | (pos.sum(axis=1) < 2)
        cells = np.concatenate(
            [cells[whole], swapped[:, 1:][pos & ~whole[:, None]]])
    return cells


def _barycentric_subdivide(cells, denom):
    """One barycentric subdivision of cells over ``denom``: the subcell of
    a vertex permutation has the average of the first j permuted vertices as
    its j-th vertex, over ``denom * lcm(1, ..., d)`` the sum of the first j
    permuted rows times lcm / j, so entries grow by at most the lcm."""
    d = cells.shape[1]
    big = lcm(*range(1, d + 1))
    dtype = _bounded_dtype(big * int(np.abs(cells).max(initial=0)))
    weights = np.tril(np.ones((d, d), dtype=dtype)) * np.array(
        [[big // j] for j in range(1, d + 1)], dtype=dtype)
    perms = np.array(list(permutations(range(d))))
    subs = weights @ cells.astype(dtype)[:, perms]
    return subs.reshape(-1, d, cells.shape[2]), denom * big


def _facet_cells(p, face):
    """Lattice-simplex cells of one facet through all its lattice points.

    The facet's pulling triangulation (:meth:`Polytope._triangulate_face`)
    is split at every other lattice point of the facet by
    :func:`_stellar_triangulation`; returns ``(cells, 1)`` as
    :func:`_flag_cells` does.
    """
    verts, _ = p.scaled_vertices
    cells = verts[np.array(p._triangulate_face(face))]
    corners = {p.vertices[i] for i in face.vertex_indices}
    extra = [q for q in _facet_lattice_points(p, face) if q not in corners]
    return _stellar_triangulation(cells, extra), 1


def _flag_cells(p, face, walls=None):
    """Barycentric-subdivision simplices of a face: one cell per face flag.

    Cell vertices are vertex-average barycenters of a chain of faces, which
    every lattice automorphism of the polytope maps to cells of the image
    face; the resulting set of cells is canonical.  A barycenter is a
    vertex-row sum over a positive count, so ``walls``, covectors, prune
    the walk on the sum alone: a chain enters only faces whose barycenter
    pairs nonnegatively with every wall.  Returns ``(cells, denominator)``:
    an integer array (cell, vertex, coordinate) over one denominator.
    """
    verts, scale = p.scaled_vertices
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
    # over lcm(counts), a face row is its sum times lcm / count: |x| <= lcm top
    big = lcm(*(c for _, c in sums))
    faces = np.array([[x * (big // c) for x in s] for s, c in sums],
                     dtype=_bounded_dtype(big * int(np.abs(verts).max())))
    return faces.reshape(-1, p.dim)[np.array(chains, dtype=np.intp).reshape(
        -1, face.dimension + 1)], big * scale


def measure_cells(p, face, cells, denom):
    """Centroids and lattice volumes of one facet's cells, exactly.

    The facet lies on <x, n> = c with n primitive, so the cone from 0 over
    a cell has lattice height c, and the cell's lattice volume is
    |det(v_1, ..., v_d)| / ((d - 1)! c): one batched determinant of the
    cells' integer vertex rows over ``denom``.  Returns the centroids'
    vertex-row sums and |det|s, each as ``(array, denominator)``.
    """
    d = p.dim
    sums = cells.astype(_bounded_dtype(d * int(np.abs(cells).max()))).sum(1)
    c = p.facets[face.facet_indices[0]][1]
    return ((sums, d * denom),
            (abs(_batched_det(cells)), factorial(d - 1) * c * denom ** d))


def _common_denominator(blocks):
    """``(array, denominator)`` blocks as one integer list over the lcm."""
    scale = lcm(*(s for _, s in blocks))
    dtype = _bounded_dtype(max(int(np.abs(a).max()) * (scale // s)
                               for a, s in blocks))
    return np.concatenate([a.astype(dtype) * (scale // s)
                           for a, s in blocks]).tolist(), scale


def discretize(p: Polytope, refinement: int = 0, group=None, side: str = "M",
               system=None, walls=None) -> WeightedPointCloud:
    """Weighted point cloud approximating the boundary surface measure.

    ``refinement`` counts barycentric subdivision rounds applied to every
    cell.  Without a group, facets are cut into lattice simplices through
    all their lattice points: the pulling triangulation is split at the
    other lattice points in lex order of their global coordinates
    (deterministic stellar triangulation).  With a
    group, cells are the facet flag simplices (barycentric subdivision),
    which are canonical under every automorphism, so the cloud is exactly
    invariant; ``side`` selects the action ("M" for the polytope, "N" for
    its dual).  ``system`` is only for chamber tags: each point's first
    incident chamber (see :func:`chamber_incidence`), else None.
    ``walls``, covectors, measure only the flag cells of the faces whose
    barycenters pair nonnegatively with every wall (see
    :func:`_flag_cells`), with or without a group; the kept masses are
    normalized to total 1.
    """
    if not p.is_lattice:
        raise ValueError("discretization needs a lattice polytope")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")

    centroids, volumes = [], []
    for face in p.facet_faces():
        if group is not None or walls is not None:
            cells, denom = _flag_cells(p, face, walls)
        else:
            cells, denom = _facet_cells(p, face)
        for _ in range(refinement):
            cells, denom = _barycentric_subdivide(cells, denom)
        if len(cells):
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
    scaled = _int_array(points)
    tight = tight_matrix(*scaled, p)
    if (tight.sum(axis=1) != 1).any():
        raise ValueError("cell centroid not in a unique facet interior")
    facet_tags = tuple(int(f) for f in tight.argmax(axis=1))

    chamber_tags = (None,) * len(points)
    if system is not None and group is not None:
        inc = _incidence(scaled[0], system, group, side)
        chamber_tags = tuple(int(w) for w in inc.argmax(axis=0))
    cloud = WeightedPointCloud(points, masses, facet_tags, chamber_tags, p,
                               side)
    cloud.__dict__["scaled"] = scaled       # fills the cached property
    return cloud


def dominant_cloud(p: Polytope, refinement: int, system,
                   side: str) -> WeightedPointCloud:
    """One representative per Weyl orbit of the invariant cloud.

    ``discretize(p, refinement, group=W, side=side)`` is the W-orbit of
    this cloud, each point carrying 1/|W| of its representative's mass.
    W acts freely on the facet flag cells: an element fixing a cell fixes
    its vertices, which span M linearly, since the facet misses 0.  Each
    cell lies in one closed chamber, and barycentric subdivision keeps
    that true.  So the cells inside the closed dominant chamber form a
    fundamental domain, and the walk keeps exactly them: it enters only
    faces whose barycenter is dominant (against the simple coroots on the
    M side, the simple roots on the N side).  They are refined and measured
    by :func:`discretize` with those ``walls``, and their masses,
    normalized to total 1, are the orbit masses.  Every centroid must be
    strictly dominant, so every orbit has exactly |W| points; a centroid on
    a wall raises InternalCheckFailed.
    """
    walls = _walls(system, side)
    cloud = discretize(p, refinement, side=side, walls=walls)
    if not (_exact_matmul(cloud.scaled[0], np.array(walls).T) > 0).all():
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


def _int_array(points):
    """Least-common-denominator integer coordinates of rational points, as an
    int64 array when every entry fits, else as object ints; products of it
    go through :func:`_matmul_dtype`.  Returns ``(array, scale)``."""
    flat, scale = la.clear_denominators([x for p in points for x in p])
    return np.array(flat, dtype=_bounded_dtype(max(map(abs, flat), default=0))
                    ).reshape(len(points), -1), scale


def _matmul_dtype(x, y, factor=1):
    """int64 if each entry of ``factor * (x @ y)`` provably fits, else object.

    An entry of x @ y is a sum of ``x.shape[-1]`` products of an entry of x
    and an entry of y.
    """
    return _bounded_dtype(int(np.abs(x).max(initial=0))
                          * int(np.abs(y).max(initial=0))
                          * x.shape[-1] * factor)


def _bounded_dtype(bound):
    """int64 if ``bound`` provably caps every magnitude computed, else object.

    The one place the int64 guard is read: every integer array whose
    values are proven below a bound states that bound here.
    """
    return np.int64 if bound < _INT64_GUARD else object


def _exact_matmul(x, y):
    """x @ y of integer arrays, in the dtype :func:`_matmul_dtype` picks."""
    dtype = _matmul_dtype(x, y)
    return x.astype(dtype) @ y.astype(dtype)


def _batched_det(a):
    """Exact determinants of a stack of integer matrices: fraction-free
    Bareiss elimination with row pivoting, on every matrix at once.

    Every entry Bareiss computes is a minor, below H = max(1, |row|)^d by
    Hadamard's inequality, and every product it forms is below H^2; the
    dtype is picked from 2 H^2.
    """
    d = a.shape[-1]
    top = int(np.abs(a).max(initial=0))
    rows = a.astype(_bounded_dtype(d * top * top))
    norm2 = max(1, int((rows * rows).sum(axis=-1).max(initial=0)))
    a, at = a.astype(_bounded_dtype(2 * norm2 ** d)), np.arange(len(a))
    sign, prev = 1, 1
    for k in range(d - 1):
        piv = k + np.argmax(a[:, k:, k] != 0, axis=1)
        a[at, k], a[at, piv] = a[at, piv], a[at, k]
        sign = np.where(piv == k, sign, -sign)
        pk = a[:, k, k]
        # a zero pivot column leaves zeros below and right of it
        a[:, k + 1:, k + 1:] = (a[:, k + 1:, k + 1:] * pk[:, None, None]
                                - a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
                                ) // np.where(prev == 0, 1, prev)[..., None, None]
        prev = pk
    return sign * a[:, -1, -1]


def chamber_incidence(points, system, group, side):
    """Boolean |W| x n matrix: entry [w, i] says points[i] lies in w(C+).

    x is in w(C+) iff w^-1 x is dominant (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1.12); wall points lie in several chambers.  The
    test runs on common-denominator integer points, so it is exact.
    """
    return _incidence(_int_array(points)[0], system, group, side)


def _incidence(pts, system, group, side):
    """:func:`chamber_incidence` of common-denominator integer points."""
    mats = group.dual_matrices if side == "M" else group.matrices
    # w^-1 is the transposed dual matrix on M and transposed matrix on N
    proj = _exact_matmul(mats, np.array(_walls(system, side)).T)
    dtype = _matmul_dtype(pts, proj)
    pts, proj = pts.astype(dtype), proj.astype(dtype)
    out = np.empty((len(proj), len(pts)), dtype=bool)
    step = max(1, (1 << 22) // max(1, pts.size))    # products per block
    for lo in range(0, len(proj), step):
        out[lo:lo + step] = ((pts @ proj[lo:lo + step]) >= 0).all(axis=2)
    return out


def chamber_mass(cloud: WeightedPointCloud, system, group, side=None):
    """Mass per Weyl chamber; wall points split equally among their chambers.

    For a cloud invariant under the group, every chamber carries exactly
    1/|W| of the total.
    """
    side = cloud.side if side is None else side
    inc = _incidence(cloud.scaled[0], system, group, side)
    out = {i: Fraction(0) for i in range(len(inc))}
    for mass, column in zip(cloud.masses, inc.T):
        share = Fraction(mass) / int(column.sum())
        for i in np.flatnonzero(column):
            out[int(i)] += share
    return {i: la.norm_scalar(v) for i, v in out.items()}
