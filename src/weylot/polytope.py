"""Exact lattice polytope geometry.

A :class:`Polytope` is a full-dimensional convex polytope with the origin in
its interior, carried in both representations at once: an irredundant list
of vertices and an irredundant list of facet inequalities ``<x, n> <= c``
with primitive integer normals ``n`` and positive rational offsets ``c``.

All arithmetic is exact (ints, ``fractions.Fraction`` and integer arrays
in a dtype proven wide enough); there is no floating point anywhere in this
module.  Facet enumeration runs an
incremental double-description pass over the homogenized polar cone, which
keeps the working set proportional to the facet count rather than the
vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .errors import NotFullDimensional, OriginNotInterior, VertexNotFound
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
    seed_rows = [list(rows[i]) for i in seed_idx]

    d = la.det(seed_rows)
    adj = la.adjugate_int(tuple(map(tuple, seed_rows)))
    sign = 1 if d > 0 else -1
    rays = []
    for j in range(dim):
        col = tuple(-sign * adj[i][j] for i in range(dim))
        prim, _ = la.primitivize(col)
        rays.append(prim)

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


def _check_full_dimensional(points, dim):
    base = points[0]
    diffs = [la.vsub(p, base) for p in points[1:]]
    if la.rank(diffs) < dim:
        raise NotFullDimensional(
            f"affine span of the points has dimension < {dim}")


def convex_hull(points, dim=None):
    """Exact convex hull of lattice points with 0 in the interior.

    Returns a :class:`Polytope`.  Raises :class:`NotFullDimensional` if the
    affine span is proper and :class:`OriginNotInterior` if 0 is not
    strictly inside the hull.
    """
    pts = []
    seen = set()
    for p in points:
        t = tuple(la.norm_scalar(x) for x in p)
        if any(not isinstance(x, int) for x in t):
            raise ValueError(f"non-integer point {t}")
        if t not in seen:
            seen.add(t)
            pts.append(t)
    if not pts:
        raise NotFullDimensional("no points given")
    d = dim if dim is not None else len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points of mixed dimension")
    if len(pts) < d + 1:
        raise NotFullDimensional(f"{len(pts)} points cannot span dimension {d}")
    _check_full_dimensional(pts, d)

    pts.sort()
    rows = [(0,) * d + (-1,)] + [p + (-1,) for p in pts]
    rays = _dd_cone(rows)
    facets = []
    for ray in rays:
        y, t = ray[:-1], ray[-1]
        if t == 0:
            raise OriginNotInterior(
                "origin is on the boundary of or outside the hull")
        n, g = la.primitivize(y)
        facets.append((n, la.norm_scalar(Fraction(t, g))))
    facets.sort()

    vertices = []
    for p in pts:
        tight = [f for f, (n, c) in enumerate(facets) if la.vdot(p, n) == c]
        if tight and la.rank([facets[f][0] for f in tight]) == d:
            vertices.append(p)
    return Polytope(tuple(vertices), tuple(facets), d)


def h_polytope_vertices(inequalities, dim):
    """Vertices of {x : <x, n> <= c for every (n, c) in ``inequalities``}.

    Integer normals n and rational offsets c; an equality is two opposite
    inequalities.  The region must be bounded and the normals must span.
    Returns a sorted list of rational points (possibly empty).
    """
    rows = []
    for n, c in inequalities:
        scaled, _ = la.clear_denominators(tuple(n) + (c,))
        rows.append(tuple(scaled[:-1]) + (-scaled[-1],))
    rows.append((0,) * dim + (-1,))
    rays = _dd_cone(rows)
    verts = set()
    for ray in rays:
        y, t = ray[:-1], ray[-1]
        if t == 0:
            if any(x != 0 for x in y):
                raise ValueError("region is unbounded")
            continue
        verts.add(tuple(la.norm_scalar(Fraction(x, t)) for x in y))
    return sorted(verts)


def tight_matrix(pts, scale, p):
    """Exact incidence [i, f]: facet f is tight at ``pts[i] / scale``.

    Facet f, <x, n> = c with c = a / b, is tight at x / scale iff
    <x, b n> = a scale: one integer product for every point and facet.
    """
    import numpy as np
    from .measures import _exact_matmul
    offsets = [Fraction(c) for _, c in p.facets]
    normals = np.array([[x * c.denominator for x in n]
                        for (n, _), c in zip(p.facets, offsets)], dtype=object)
    # object offsets: a * scale need not fit int64 when the points do
    return _exact_matmul(pts, normals.T) == np.array(
        [c.numerator * scale for c in offsets], dtype=object)


class Polytope:
    """Full-dimensional polytope with 0 interior, exact dual representations."""

    def __init__(self, vertices, facets, dim):
        self.vertices = tuple(tuple(la.norm_scalar(x) for x in v) for v in vertices)
        self.facets = tuple((tuple(n), la.norm_scalar(c)) for n, c in facets)
        self.dim = dim
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}

    # -- basic structure ---------------------------------------------------

    @cached_property
    def is_lattice(self):
        return all(isinstance(x, int) for v in self.vertices for x in v)

    @cached_property
    def incidence(self):
        """Per facet, the frozenset of indices of vertices lying on it."""
        tight = tight_matrix(*self.scaled_vertices, self)
        return tuple(frozenset(col.nonzero()[0].tolist()) for col in tight.T)

    @cached_property
    def vertex_facets(self):
        """Per vertex, the sorted tuple of indices of facets containing it."""
        tight = tight_matrix(*self.scaled_vertices, self)
        return tuple(tuple(row.nonzero()[0].tolist()) for row in tight)

    def vertex_index(self, v):
        t = tuple(la.norm_scalar(x) for x in v)
        if t not in self._vertex_index:
            raise VertexNotFound(f"{t} is not a vertex")
        return self._vertex_index[t]

    def contains(self, x):
        return all(la.vdot(x, n) <= c for n, c in self.facets)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        kind = "lattice " if self.is_lattice else "rational "
        return (f"Polytope({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets, {kind}dim {self.dim})")

    # -- duality -----------------------------------------------------------

    def dual(self):
        """Polar dual {n : <m,n> <= 1 for all vertices m}.

        Vertices of the dual are facet normals divided by offsets; facets of
        the dual come from the vertices with offset 1 (scaled primitive).
        The construction is combinatorial, so dual(dual(p)) == p exactly.
        """
        dverts = sorted(
            tuple(la.norm_scalar(Fraction(x, 1) / c) for x in n)
            for n, c in self.facets)
        dfacets = []
        for v in self.vertices:
            ints, mult = la.clear_denominators(v)
            n, g = la.primitivize(ints)
            dfacets.append((n, la.norm_scalar(Fraction(mult, g))))
        dfacets.sort()
        return Polytope(tuple(dverts), tuple(dfacets), self.dim)

    @cached_property
    def is_reflexive(self):
        """True iff every facet has lattice distance 1 (dual is a lattice polytope)."""
        return self.is_lattice and all(c == 1 for _, c in self.facets)

    # -- face lattice --------------------------------------------------------
    #
    # A polytope's face lattice is atomic and coatomic: every face is an
    # intersection of facets, and the facets of a face F are the maximal
    # proper nonempty sets F & G over the facets G (Ziegler, *Lectures on
    # Polytopes*, 2.2).  So every face is derived from ``incidence`` on
    # demand, with no closure over the whole lattice.

    @cached_property
    def faces(self):
        """All proper faces, in increasing dimension, each deterministic.

        Walked down from the facets through :meth:`face_children`; the
        order is (dimension, sorted vertex index tuple).
        """
        return self._faces_below(self.facet_faces())

    def _faces_below(self, roots):
        """The faces ``roots`` and every face below them, sorted as ``faces``."""
        found = {}
        stack = list(roots)
        while stack:
            face = stack.pop()
            if face.vertex_indices not in found:
                found[face.vertex_indices] = face
                stack.extend(self.face_children(face))
        return tuple(sorted(found.values(),
                            key=lambda f: (f.dimension, f.vertex_indices)))

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

    def closed_star(self, m):
        """All faces containing the vertex ``m`` (the closed star of m)."""
        i = self.vertex_index(m)
        facets = self.facet_faces()
        below = self._faces_below(facets[f] for f in self.vertex_facets[i])
        return tuple(f for f in below if i in f.vertex_indices)

    def dual_facet(self, m):
        """The facet of the dual polytope on which the bracket with ``m`` is 1."""
        self.vertex_index(m)
        dual = self.dual()
        members = frozenset(
            j for j, n in enumerate(dual.vertices) if la.vdot(m, n) == 1)
        for face, incident in zip(dual.facet_faces(), dual.incidence):
            if incident == members:
                return dual, face
        raise VertexNotFound(f"no dual facet found for {m}")

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
    def scaled_vertices(self):
        """``(array, scale)``: integer vertex rows, vertices = array / scale."""
        from .measures import _int_array
        return _int_array(self.vertices)

    @cached_property
    def _cones(self):
        """The cones from 0 over the cells of ``boundary_triangulation``:
        per facet its cells and |det| of each cell's vertex rows, all
        vertices scaled by one common denominator; and that denominator."""
        import numpy as np
        from .measures import _batched_det
        tri = self.boundary_triangulation()
        verts, scale = self.scaled_vertices
        flat = abs(_batched_det(verts[np.array(
            [cell for cells in tri for cell in cells])])).tolist()
        dets, at = [], 0
        for cells in tri:
            dets.append(flat[at:at + len(cells)])
            at += len(cells)
        return tri, dets, scale

    @cached_property
    def volume(self):
        """Lebesgue volume (normalized so the lattice fundamental cell is 1)."""
        _, dets, scale = self._cones
        return la.norm_scalar(Fraction(sum(map(sum, dets)),
                                       factorial(self.dim) * scale ** self.dim))

    @cached_property
    def barycenter(self):
        """Exact centroid of the solid polytope, via the cone triangulation from 0.

        A cone's centroid is the sum of its cell's vertices over dim + 1.
        """
        tri, dets, _ = self._cones
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
        _, dets, scale = self._cones
        return la.norm_scalar(
            Fraction(sum(dets[f]), factorial(self.dim - 1) * scale ** self.dim)
            / self.facets[f][1])

    # -- local smoothness ----------------------------------------------------

    def vertex_edge_directions(self, i):
        """Primitive directions of the edges leaving vertex ``i``.

        Vertices i and j span an edge iff the normals of the facets through
        both of them have rank ``dim - 1``.
        """
        v = self.vertices[i]
        mine = set(self.vertex_facets[i])
        dirs = []
        for j, fs in enumerate(self.vertex_facets):
            common = [self.facets[f][0] for f in fs if f in mine]
            if j != i and len(common) >= self.dim - 1 \
                    and la.rank(common) == self.dim - 1:
                cleared, _ = la.clear_denominators(la.vsub(self.vertices[j], v))
                dirs.append(la.primitivize(cleared)[0])
        return tuple(sorted(dirs))

    @cached_property
    def is_delzant(self):
        """True iff every vertex cone is unimodular (smooth toric fan).

        A vertex cone is unimodular iff the vertex lies on exactly ``dim``
        facets and their primitive normals form a lattice basis.
        """
        for fs in self.vertex_facets:
            if len(fs) != self.dim:
                return False
            if abs(la.det([self.facets[f][0] for f in fs])) != 1:
                return False
        return True

