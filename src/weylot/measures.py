"""Integral surface measures on polytope boundaries and their discretizations.

The integral surface measure gives each facet its lattice-normalized volume
(a unimodular d-simplex weighs 1/d!).  ``discretize`` turns the measure into
a weighted rational point cloud: facets are cut into lattice simplices by a
deterministic triangulation through all their lattice points, optionally
refined by barycentric subdivision, and every cell contributes its centroid
weighted by the cell's exact volume.  Masses are normalized to total 1, so
two boundary measures can enter a transport problem directly.

Cells stay in global coordinates.  A cell of the facet <x, n> = c, n
primitive, is the base of a cone from 0 of lattice height c, so its volume
is |det| of its vertex rows over (d - 1)! c: one batched integer
determinant per facet (:func:`measure_cells`), with no lattice frame.

``dominant_cloud`` measures only the facet flag cells inside the closed
dominant Weyl chamber: a fundamental domain of the invariant cloud, one
representative per orbit, carrying the orbit masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iproduct
from math import factorial, gcd

import numpy as np

from .errors import InternalCheckFailed
from . import linalg as la
from .polytope import Polytope

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
    """Insert points into the cells of one facet by stellar splits.

    Cells and points are in global coordinates, and the points are inserted
    in lex order of those coordinates.  A point's barycentric coordinates
    in a cell solve one square system on the cell's vertex rows, which is
    nonsingular because the facet misses 0.
    """
    cells = [tuple(c) for c in cells]
    for q in sorted(extra_points):
        new_cells = []
        for cell in cells:
            lam = la.solve(la.transpose(cell), q)
            if any(x < 0 for x in lam):
                new_cells.append(cell)
                continue
            split = [i for i, x in enumerate(lam) if x > 0]
            if len(split) <= 1:
                new_cells.append(cell)
                continue
            for i in split:
                new_cells.append(tuple(v for j, v in enumerate(cell) if j != i)
                                 + (tuple(q),))
        cells = new_cells
    return cells


def _barycentric_subdivide(cell):
    s = len(cell) - 1
    if s == 0:
        return [cell]
    out = []
    for perm in permutations(range(s + 1)):
        pts = []
        acc = tuple(Fraction(0) for _ in cell[0])
        for step, idx in enumerate(perm, start=1):
            acc = tuple(a + Fraction(x) for a, x in zip(acc, cell[idx]))
            pts.append(tuple(la.norm_scalar(a / step) for a in acc))
        out.append(tuple(pts))
    return out


def _facet_cells(p, face):
    """Lattice-simplex cells of one facet through all its lattice points.

    The facet's pulling triangulation (:meth:`Polytope._triangulate_face`)
    is split at every other lattice point of the facet by
    :func:`_stellar_triangulation`; cells are tuples of global vertices.
    """
    verts = set(p.vertices[i] for i in face.vertex_indices)
    base_cells = [tuple(p.vertices[i] for i in cell)
                  for cell in p._triangulate_face(face)]
    extra = [q for q in _facet_lattice_points(p, face) if q not in verts]
    return _stellar_triangulation(base_cells, extra)


def _flag_cells(p, face, keep=None):
    """Barycentric-subdivision simplices of a face: one cell per face flag.

    Cell vertices are vertex-average barycenters of a chain of faces, which
    every lattice automorphism of the polytope maps to cells of the image
    face; the resulting set of cells is canonical.  ``keep``, a predicate
    on barycenters, prunes the walk: a chain enters only faces whose
    barycenter it accepts.
    """
    def bcenter(f):
        vs = f.vertex_indices
        return tuple(
            la.norm_scalar(sum(Fraction(p.vertices[i][c]) for i in vs)
                           / len(vs))
            for c in range(p.dim))

    cells = []

    def walk(f, chain):
        b = bcenter(f)
        if keep is not None and not keep(b):
            return
        chain = chain + [b]
        if f.dimension == 0:
            cells.append(tuple(reversed(chain)))
            return
        for child in p.face_children(f):
            walk(child, chain)

    walk(face, [])
    return cells


def measure_cells(p, face, cells):
    """``(centroid, lattice volume)`` of each cell of one facet, exactly.

    The facet lies on <x, n> = c with n primitive, so the cone from 0 over
    a cell has lattice height c, and the cell's lattice volume is
    |det(v_1, ..., v_d)| / ((d - 1)! c): one batched determinant of the
    cells' vertex rows, scaled by one common denominator.
    """
    d = p.dim
    pts, scale = _int_array([v for cell in cells for v in cell])
    pts = pts.reshape(len(cells), d, d)
    dets = abs(_batched_det(pts)).tolist()
    sums = pts.astype(object).sum(axis=1).tolist()
    denom = factorial(d - 1) * p.facets[face.facet_indices[0]][1] * scale ** d
    return [(tuple(la.norm_scalar(Fraction(x, d * scale)) for x in s),
             la.norm_scalar(Fraction(det) / denom))
            for s, det in zip(sums, dets)]


def discretize(p: Polytope, refinement: int = 0, group=None, side: str = "M",
               system=None, keep=None) -> WeightedPointCloud:
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
    ``keep``, a predicate on face barycenters, measures only the flag cells
    of the faces it accepts (see :func:`_flag_cells`), with or without a
    group; the kept masses are normalized to total 1.
    """
    if not p.is_lattice:
        raise ValueError("discretization needs a lattice polytope")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")

    accum = {}
    for face in p.facet_faces():
        if group is not None or keep is not None:
            cells = _flag_cells(p, face, keep)
        else:
            cells = _facet_cells(p, face)
        for _ in range(refinement):
            cells = [sub for cell in cells
                     for sub in _barycentric_subdivide(cell)]
        if not cells:
            continue
        for centroid, vol in measure_cells(p, face, cells):
            accum[centroid] = accum.get(centroid, Fraction(0)) + vol
    if not accum:
        raise InternalCheckFailed("no boundary cell was kept")

    total = sum(accum.values(), Fraction(0))
    points = tuple(sorted(accum))
    masses = tuple(la.norm_scalar(accum[pt] / total) for pt in points)
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
    by :func:`discretize` with that ``keep`` predicate, and their masses,
    normalized to total 1, are the orbit masses.  Every centroid must be
    strictly dominant, so every orbit has exactly |W| points; a centroid on
    a wall raises InternalCheckFailed.
    """
    cloud = discretize(p, refinement, side=side,
                       keep=lambda x: system.is_dominant(x, side))
    walls = np.array(_walls(system, side))
    if not (_exact_matmul(cloud.scaled[0], walls.T) > 0).all():
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


def _scaled_points(points):
    """Common-denominator integer coordinates for a list of rational points."""
    mult = 1
    for p in points:
        for x in p:
            d = Fraction(x).denominator
            mult = mult * d // gcd(mult, d)
    return [tuple(int(x * mult) for x in p) for p in points], mult


def _int_array(points):
    """:func:`_scaled_points` as an int64 array when every entry fits, else
    as object ints; products of it go through :func:`_matmul_dtype`."""
    pts, scale = _scaled_points(points)
    bound = max((max(abs(x) for x in p) for p in pts), default=0)
    dtype = np.int64 if bound < (1 << 63) else object
    return np.array(pts, dtype=dtype), scale


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


def tight_matrix(pts, scale, p: Polytope):
    """Exact incidence [i, f]: facet f is tight at ``pts[i] / scale``."""
    normals = np.array([n for n, _ in p.facets])
    offsets = [Fraction(c) * scale for _, c in p.facets]
    if any(f.denominator != 1 for f in offsets):
        raise ValueError("facet offsets did not scale to integers")
    # object offsets: c * scale need not fit int64 when the points do
    return _exact_matmul(pts, normals.T) == np.array(
        [int(f) for f in offsets], dtype=object)


def chamber_incidence(points, system, group, side):
    """Boolean |W| x n matrix: entry [w, i] says points[i] lies in w(C+).

    x is in w(C+) iff w^-1 x is dominant (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1.12); wall points lie in several chambers.  The
    test runs on common-denominator integer points, so it is exact.
    """
    return _incidence(_int_array(points)[0], system, group, side)


def _incidence(pts, system, group, side):
    """:func:`chamber_incidence` of common-denominator integer points."""
    mats = np.array([e.dual_matrix if side == "M" else e.matrix
                     for e in group])
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
