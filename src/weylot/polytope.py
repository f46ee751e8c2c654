"""Exact lattice polytope geometry.

A :class:`Polytope` is a full-dimensional lattice polytope with the origin
in its interior, carried in both representations at once: an irredundant
list of integer vertices and an irredundant list of facet inequalities
``<x, n> <= c`` with primitive integer normals ``n`` and positive integer
offsets ``c``.  Its polar dual is a lattice polytope exactly when every
offset is 1 (reflexive; Batyrev, *J. Algebraic Geom.* 3, 1994), so
:meth:`Polytope.dual` exists for reflexive polytopes only.

All arithmetic is exact, on ints and integer arrays in a dtype proven wide
enough; only ``volume``, ``barycenter`` and ``face_lattice_volume`` return
``Fraction`` values.  Facet enumeration runs an
incremental double-description pass over the homogenized polar cone, which
keeps the working set proportional to the facet count rather than the
vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

import numpy as np

from .errors import (NotFullDimensional, NotReflexive, OriginNotInterior,
                     VertexNotFound)
from . import linalg as la


@dataclass(frozen=True)
class Face:
    """A proper face, recorded by vertex indices into the owning polytope.

    ``facet_indices`` lists every facet whose hyperplane contains the face;
    the face equals the intersection of those facets.
    """

    vertex_indices: tuple
    dimension: int
    facet_indices: tuple


def _dd_cone(rows):
    """Extreme rays of the pointed cone {z : a . z <= 0 for a in rows}.

    ``rows`` are integer tuples.  The first ``dim`` linearly independent
    rows act as a simplicial seed; the rest are inserted one at a time.
    Raises ValueError if the rows do not span (non-pointed cone).
    """
    dim = len(rows[0])
    seed_idx = la.independent_rows(rows, dim)
    if len(seed_idx) < dim:
        raise ValueError("constraint rows do not span; cone is not pointed")
    adj, d = la.adjugate([rows[i] for i in seed_idx])
    sign = 1 if d > 0 else -1
    rays = [la.primitivize([-sign * x for x in col])[0]
            for col in la.transpose(adj)]

    seed_set = set(seed_idx)
    # bit b of a zero set: the ray is tight on the b-th row inserted, seed
    # rows first; seed ray j is tight on every seed row but row j, since
    # seed . adj(seed) = det I
    zsets = [((1 << dim) - 1) & ~(1 << j) for j in range(dim)]
    bit = 1 << (dim - 1)

    for ci, a in enumerate(rows):
        if ci in seed_set:
            continue
        vals = [la.vdot(a, r) for r in rays]
        bit <<= 1
        if all(v <= 0 for v in vals):
            zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals)]
            continue
        keep_i = [i for i, v in enumerate(vals) if v <= 0]
        neg_i = [i for i, v in enumerate(vals) if v < 0]
        pos_i = [i for i, v in enumerate(vals) if v > 0]
        min_tight = dim - 2
        new_rays, new_zsets = [], []
        for p in neg_i:
            zp = zsets[p]
            for q in pos_i:
                z = zp & zsets[q]
                if z.bit_count() < min_tight:
                    continue
                adjacent = True
                for r in range(len(rays)):
                    if r != p and r != q and (z & zsets[r]) == z:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(-vals[p] * rays[q][k] + vals[q] * rays[p][k]
                              for k in range(dim))
                prim, _ = la.primitivize(combo)
                new_rays.append(prim)
                # a positive combination of p and q, tight on the new row
                new_zsets.append(z | bit)
        rays = [rays[i] for i in keep_i] + new_rays
        zsets = [zsets[i] | (bit if vals[i] == 0 else 0) for i in keep_i]
        zsets += new_zsets
    return rays


def convex_hull(points):
    """Exact convex hull of lattice points with 0 in the interior.

    Returns a :class:`Polytope`.  Raises :class:`NotFullDimensional` if the
    affine span is proper and :class:`OriginNotInterior` if 0 is not
    strictly inside the hull.
    """
    pts = set()
    for p in points:
        t = tuple(la.norm_scalar(x) for x in p)
        if any(not isinstance(x, int) for x in t):
            raise ValueError(f"non-integer point {t}")
        pts.add(t)
    pts = sorted(pts)
    if not pts:
        raise NotFullDimensional("no points given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points of mixed dimension")
    if len(pts) < d + 1:
        raise NotFullDimensional(f"{len(pts)} points cannot span dimension {d}")
    if la.rank([la.vsub(p, pts[0]) for p in pts[1:]]) < d:
        raise NotFullDimensional(
            f"affine span of the points has dimension < {d}")

    rows = [(0,) * d + (-1,)] + [p + (-1,) for p in pts]
    rays = _dd_cone(rows)
    facets = []
    for ray in rays:
        y, t = ray[:-1], ray[-1]
        if t == 0:
            raise OriginNotInterior(
                "origin is on the boundary of or outside the hull")
        # t = g <v, n> for a vertex v on the facet, so g divides t
        n, g = la.primitivize(y)
        facets.append((n, t // g))
    facets.sort()

    # p is a vertex iff no other point lies on every facet through p: the
    # facets through a vertex meet in it alone, and a point that is not a
    # vertex shares every facet through it with the vertices of the face it
    # is relatively interior to (Ziegler, *Lectures on Polytopes*, 2.3)
    tight = tight_matrix(*la.int_array(pts), facets)
    keep, step = [], max(1, (1 << 22) // len(pts))      # products per block
    for lo in range(0, len(pts), step):
        # [i, j]: some facet through point lo + i misses point j; a bool
        # product is an "any", which cannot wrap
        misses = tight[lo:lo + step] @ ~tight.T
        keep += ((~misses).sum(axis=1) == 1).tolist()
    vertices = tuple(p for p, k in zip(pts, keep) if k)
    return Polytope(vertices, tuple(facets), d)


def tight_matrix(pts, scale, facets):
    """Exact incidence [i, f]: facet f, <x, n> = c, is tight at
    ``pts[i] / scale`` iff <pts[i], n> = c scale: one integer product for
    every point and facet."""
    # a scale need not fit int64 when the points do
    return la.exact_matmul(pts, la.transpose([n for n, _ in facets])) == \
        la.int_array([[c * scale for _, c in facets]])[0]


class Polytope:
    """Full-dimensional lattice polytope with 0 interior, both lists kept as
    given: :func:`convex_hull` builds and validates them."""

    def __init__(self, vertices, facets, dim):
        self.vertices = vertices
        self.facets = facets
        self.dim = dim
        self._vertex_index = {v: i for i, v in enumerate(vertices)}

    # -- basic structure ---------------------------------------------------

    @cached_property
    def vertex_array(self):
        """The vertices as an integer array, one row each."""
        return la.int_array(self.vertices)[0]

    @cached_property
    def moment_adjugate(self):
        """Adjugate and determinant of the moment form G = sum over the
        vertices v of v v^T, which every lattice automorphism preserves."""
        return la.adjugate(la.exact_matmul(self.vertex_array.T,
                                           self.vertex_array).tolist())

    @cached_property
    def tight(self):
        """The vertex x facet incidence matrix, from :func:`tight_matrix`."""
        return tight_matrix(self.vertex_array, 1, self.facets)

    @cached_property
    def incidence(self):
        """Per facet, the frozenset of indices of vertices lying on it."""
        return tuple(frozenset(col.nonzero()[0].tolist())
                     for col in self.tight.T)

    @cached_property
    def vertex_facets(self):
        """Per vertex, the sorted tuple of indices of facets containing it."""
        return tuple(tuple(row.nonzero()[0].tolist()) for row in self.tight)

    def vertex_index(self, v):
        t = tuple(v)
        if t not in self._vertex_index:
            raise VertexNotFound(f"{t} is not a vertex")
        return self._vertex_index[t]

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return (f"Polytope({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets, dim {self.dim})")

    # -- duality -----------------------------------------------------------

    def dual(self):
        """Polar dual {y : <v, y> <= 1 for all vertices v}, built once;
        raises NotReflexive unless ``self`` is reflexive.

        Its vertices are the facet normals n (every c is 1), and its facets
        are (v, 1) over the vertices v, which are primitive as the dual's
        vertices are lattice points: a swap, so dual(dual(p)) == p.  The
        dual keeps no reference back to p, so no reference cycle forms.
        """
        return self._dual

    @cached_property
    def _dual(self):
        if not self.is_reflexive:
            raise NotReflexive("not reflexive: the dual is not a lattice "
                               "polytope")
        return Polytope(tuple(sorted(n for n, _ in self.facets)),
                        tuple(sorted((v, 1) for v in self.vertices)),
                        self.dim)

    @cached_property
    def is_reflexive(self):
        """True iff every facet has lattice distance 1 (dual is a lattice polytope)."""
        return all(c == 1 for _, c in self.facets)

    # -- face lattice --------------------------------------------------------
    #
    # A polytope's face lattice is atomic and coatomic: every face is an
    # intersection of facets, and the facets of a face F are the maximal
    # proper nonempty sets F & G over the facets G (Ziegler, *Lectures on
    # Polytopes*, 2.2).  So every face is derived from ``incidence`` on
    # demand, with no closure over the whole lattice.

    def face_children(self, face):
        """Faces of one dimension lower contained in the given face.

        They are the maximal sets among the nonempty proper intersections of
        the face with the facets, sorted by vertex indices.  A child lies on
        the facets through the face and on the facets cutting it out.
        """
        vset = frozenset(face.vertex_indices)
        cuts = {}
        for g, members in enumerate(self.incidence):
            inter = vset & members
            if inter and inter != vset:
                cuts.setdefault(inter, []).append(g)
        children = [
            Face(tuple(sorted(s)), face.dimension - 1,
                 tuple(sorted(face.facet_indices + tuple(gs))))
            for s, gs in cuts.items() if not any(s < t for t in cuts)]
        return tuple(sorted(children, key=lambda f: f.vertex_indices))

    def facet_faces(self):
        """The faces corresponding to facets, indexed like ``self.facets``."""
        return tuple(Face(tuple(sorted(members)), self.dim - 1, (f,))
                     for f, members in enumerate(self.incidence))

    # -- triangulation and volume -------------------------------------------

    def _triangulate_face(self, face):
        """Vertex-index simplices of a pulling triangulation of ``face``.

        Anchored at the lexicographically smallest vertex of every face,
        recursively; uses only vertices, so the cells partition the face.
        """
        if face.dimension == 0:
            return ((face.vertex_indices[0],),)
        anchor = face.vertex_indices[0]
        cells = []
        for child in self.face_children(face):
            if anchor in child.vertex_indices:
                continue
            for cell in self._triangulate_face(child):
                cells.append((anchor,) + cell)
        return tuple(cells)

    def boundary_triangulation(self):
        """Per facet, vertex-index simplices triangulating it."""
        return tuple(self._triangulate_face(f) for f in self.facet_faces())

    @cached_property
    def _cones(self):
        """The cones from 0 over the cells of ``boundary_triangulation``:
        per facet its cells and |det| of each cell's vertex rows."""
        tri = self.boundary_triangulation()
        flat = abs(la.batched_det(self.vertex_array[np.array(
            [cell for cells in tri for cell in cells])])).tolist()
        dets, at = [], 0
        for cells in tri:
            dets.append(flat[at:at + len(cells)])
            at += len(cells)
        return tri, dets

    @cached_property
    def volume(self):
        """Lebesgue volume (normalized so the lattice fundamental cell is 1)."""
        _, dets = self._cones
        return la.norm_scalar(Fraction(sum(map(sum, dets)),
                                       factorial(self.dim)))

    @cached_property
    def barycenter(self):
        """Exact centroid of the solid polytope, via the cone triangulation from 0.

        A cone's centroid is the sum of its cell's vertices over dim + 1.
        """
        tri, dets = self._cones
        weight = [0] * len(self.vertices)
        for cells, ws in zip(tri, dets):
            for cell, w in zip(cells, ws):
                for i in cell:
                    weight[i] += w
        total = (self.dim + 1) * sum(map(sum, dets))
        return tuple(
            la.norm_scalar(Fraction(sum(w * v[k] for w, v in
                                        zip(weight, self.vertices)), total))
            for k in range(self.dim))

    def face_lattice_volume(self, face):
        """Volume of a facet, normalized to the lattice induced on its span.

        A point counts 1; a segment of lattice length L counts L; a
        unimodular k-simplex counts 1/k!.  The facet lies on <x, n> = c
        with n primitive, so the cone from 0 over a cell of its pulling
        triangulation has lattice height c, and the cell's volume is
        |det(v_1, ..., v_d)| / ((d - 1)! c).  Raises ValueError for a face
        that is not a facet.
        """
        if face.dimension != self.dim - 1:
            raise ValueError("lattice volume is defined here for facets only")
        f = face.facet_indices[0]
        _, dets = self._cones
        return la.norm_scalar(Fraction(
            sum(dets[f]), factorial(self.dim - 1) * self.facets[f][1]))

    # -- local smoothness ----------------------------------------------------

    @cached_property
    def is_delzant(self):
        """True iff every vertex cone is unimodular (smooth toric fan).

        A vertex cone is unimodular iff the vertex lies on exactly ``dim``
        facets and their primitive normals form a lattice basis: one
        batched determinant over the stacked normals of every vertex.
        """
        if any(len(fs) != self.dim for fs in self.vertex_facets):
            return False
        normals = np.array([[self.facets[f][0] for f in fs]
                            for fs in self.vertex_facets], dtype=object)
        return bool((np.abs(la.batched_det(normals)) == 1).all())
