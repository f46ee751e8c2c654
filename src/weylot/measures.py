"""Integral surface measures on polytope boundaries and their discretizations.

The integral surface measure gives each facet its lattice-normalized volume
(a unimodular d-simplex weighs 1/d!).  ``discretize`` turns the measure into
a weighted rational point cloud: facets are cut into lattice simplices by a
deterministic triangulation through all their lattice points, optionally
refined by barycentric subdivision, and every cell contributes its centroid
weighted by the cell's exact volume.  Masses are normalized to total 1, so
two boundary measures can enter a transport problem directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iproduct
from math import gcd

import numpy as np

from . import linalg as la
from .polytope import Polytope, face_coordinates

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
    """Insert points into a simplicial complex, lex order, by stellar splits."""
    cells = [tuple(c) for c in cells]
    for q in sorted(extra_points):
        new_cells = []
        for cell in cells:
            mat = [tuple(v) + (1,) for v in cell]
            lam = la.solve(la.transpose(mat), tuple(q) + (1,))
            if lam is None or any(x < 0 for x in lam):
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
    """Lattice-simplex cells of one facet, in local lattice coordinates.

    Returns (origin vertex, basis, cells); cells are tuples of integer local
    coordinate tuples.
    """
    verts = [p.vertices[i] for i in face.vertex_indices]
    v0 = verts[0]
    diffs = [la.vsub(v, v0) for v in verts[1:]]
    basis = la.saturation_basis(diffs)
    if len(basis) != face.dimension:
        raise ValueError("facet basis extraction failed")

    def to_local(x):
        return face_coordinates(basis, la.vsub(x, v0))

    local = {p.vertices[i]: to_local(p.vertices[i]) for i in face.vertex_indices}
    base_cells = []
    for cell in p._triangulate_face(face):
        base_cells.append(tuple(local[p.vertices[i]] for i in cell))
    lattice_pts = _facet_lattice_points(p, face)
    extra = [to_local(q) for q in lattice_pts if q not in local]
    cells = _stellar_triangulation(base_cells, extra)
    return v0, basis, cells


def _cell_volume(cell):
    s = len(cell) - 1
    if s == 0:
        return Fraction(1)
    mat = [la.vsub(v, cell[0]) for v in cell[1:]]
    fact = 1
    for j in range(1, s + 1):
        fact *= j
    return abs(Fraction(la.det(mat))) / fact


def _flag_cells(p, face):
    """Barycentric-subdivision simplices of a face: one cell per face flag.

    Cell vertices are vertex-average barycenters of a chain of faces, which
    every lattice automorphism of the polytope maps to cells of the image
    face; the resulting set of cells is canonical.
    """
    def bcenter(f):
        vs = f.vertex_indices
        return tuple(
            la.norm_scalar(sum(Fraction(p.vertices[i][c]) for i in vs)
                           / len(vs))
            for c in range(p.dim))

    cells = []

    def walk(f, chain):
        chain = chain + [bcenter(f)]
        if f.dimension == 0:
            cells.append(tuple(reversed(chain)))
            return
        for child in p.face_children(f):
            walk(child, chain)

    walk(face, [])
    return cells


def discretize(p: Polytope, refinement: int = 0, group=None, side: str = "M",
               system=None) -> WeightedPointCloud:
    """Weighted point cloud approximating the boundary surface measure.

    ``refinement`` counts barycentric subdivision rounds applied to every
    cell.  Without a group, facets are cut into lattice simplices through
    all their lattice points (deterministic stellar triangulation).  With a
    group, cells are the facet flag simplices (barycentric subdivision),
    which are canonical under every automorphism, so the cloud is exactly
    invariant; ``side`` selects the action ("M" for the polytope, "N" for
    its dual).  ``system`` is only for chamber tags: each point's first
    incident chamber (see :func:`chamber_incidence`), else None.
    """
    if not p.is_lattice:
        raise ValueError("discretization needs a lattice polytope")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    faces = p.facet_faces()

    def local_frame(face):
        verts = [p.vertices[i] for i in face.vertex_indices]
        v0 = verts[0]
        diffs = [la.vsub(v, v0) for v in verts[1:]]
        basis = la.saturation_basis(diffs)
        if not basis:
            return v0, basis, lambda dvec: ()
        # pick an invertible square subsystem once; reuse for every cell vertex
        cols = list(zip(*basis))
        rows, idx = [], []
        for r in range(len(cols)):
            if la.rank(rows + [list(cols[r])]) > len(rows):
                rows.append(list(cols[r]))
                idx.append(r)
                if len(rows) == len(basis):
                    break
        inv = la.inverse(rows)

        def to_local(dvec):
            return la.mat_vec(inv, [dvec[r] for r in idx])

        return v0, basis, to_local

    def measure_cells(face, ambient_cells):
        v0, basis, to_local = local_frame(face)
        out = []
        for cell in ambient_cells:
            local = tuple(to_local(la.vsub(v, v0)) for v in cell)
            vol = _cell_volume(local)
            centroid = tuple(
                la.norm_scalar(sum(Fraction(v[c]) for v in cell) / len(cell))
                for c in range(p.dim))
            out.append((centroid, vol))
        return out

    accum = {}
    for face in faces:
        if group is None:
            v0, basis, cells = _facet_cells(p, face)
            ambient = []
            for cell in cells:
                ambient.append(tuple(
                    tuple(la.norm_scalar(Fraction(v0[c]) + sum(
                        Fraction(v[j]) * basis[j][c] for j in range(len(basis))))
                        for c in range(p.dim))
                    for v in cell))
        else:
            ambient = _flag_cells(p, face)
        for _ in range(refinement):
            ambient = [sub for cell in ambient
                       for sub in _barycentric_subdivide(cell)]
        for centroid, vol in measure_cells(face, ambient):
            accum[centroid] = accum.get(centroid, Fraction(0)) + vol

    total = sum(accum.values(), Fraction(0))
    points = sorted(accum)
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
    cloud = WeightedPointCloud(tuple(points), masses, facet_tags,
                               chamber_tags, p, side)
    cloud.__dict__["scaled"] = scaled       # fills the cached property
    return cloud


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
    bound = (int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0))
             * x.shape[-1] * factor)
    return np.int64 if bound < _INT64_GUARD else object


def _exact_matmul(x, y):
    """x @ y of integer arrays, in the dtype :func:`_matmul_dtype` picks."""
    dtype = _matmul_dtype(x, y)
    return x.astype(dtype) @ y.astype(dtype)


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
    if side == "M":
        mats, simple = [e.dual_matrix for e in group], system.simple_coroots
    elif side == "N":
        mats, simple = [e.matrix for e in group], system.simple_roots
    else:
        raise ValueError("side must be 'M' or 'N'")
    # w^-1 is the transposed dual matrix on M and transposed matrix on N
    proj = np.array([la.mat_mul(m, la.transpose(simple)) for m in mats])
    dtype = _matmul_dtype(pts, proj)
    pts, proj = pts.astype(dtype), proj.astype(dtype)
    return np.array([((pts @ m) >= 0).all(axis=1) for m in proj], dtype=bool)


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
