import dataclasses
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from weylot.errors import (NotFullDimensional, NotReflexive, OriginNotInterior,
                           VertexNotFound)
from weylot.polytope import Face, Polytope, convex_hull
from weylot import linalg as la
from weylot.weyl import (FAMILY_ROWS, classify, family_smallest_ranks,
                         mr_family, star_containment_check)

from dominance_oracle import (det, dilated_polar, fraction_solve, mat_vec,
                              polar)
from test_fixture_files import HERE, load
from test_properties import all_faces, random_polytope


def edge_normal_oracle(a, b):
    """Facet data of the edge through a, b by solving the 2x2 system."""
    sol = fraction_solve([list(a), list(b)], [1, 1])
    ints, mult = la.clear_denominators(sol)
    n, g = la.primitivize(ints)
    return n, Fraction(mult, g)


def rank_test_vertices(points, facets):
    """The vertex test ``convex_hull`` ran point by point, kept as an
    oracle: a distinct point is a vertex iff the normals of the facets
    through it have full rank."""
    d = len(facets[0][0])
    out = []
    for p in sorted(set(points)):
        tight = [n for n, c in facets if la.vdot(p, n) == c]
        if tight and la.rank(tight) == d:
            out.append(p)
    return tuple(out)


def padded_points(p, rng, extra):
    """Integer points whose hull is 6 p: its vertices, then the origin,
    half of one vertex, up to ``extra`` averages of 2 or 3 vertices of a
    face (an edge midpoint or a point on a facet) and repeated rows, all
    shuffled."""
    verts = [tuple(6 * x for x in v) for v in p.vertices]
    faces = [f for f in all_faces(p) if f.dimension >= 1]
    pts = verts + [(0,) * p.dim, tuple(x // 2 for x in verts[0])]
    for face in rng.sample(faces, min(extra, len(faces))):
        k = 2 if face.dimension == 1 else rng.choice((2, 3))
        chosen = rng.sample(face.vertex_indices, k)
        pts.append(tuple(sum(verts[i][j] for i in chosen) // k
                         for j in range(p.dim)))
    pts += rng.sample(pts, 3)
    rng.shuffle(pts)
    return pts


class TestHullVertices:
    """``convex_hull`` keeps the points the per-point rank test keeps."""

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_points(self, seed):
        rng = random.Random(seed)
        d = 2 + seed % 3
        # the cross-polytope points keep the origin interior
        base = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(rng.randint(d + 1, 3 * d))]
        base += [tuple(2 * (i == j) * s for j in range(d))
                 for i in range(d) for s in (1, -1)]
        p = convex_hull(base)
        pts = padded_points(p, rng, 12)
        hull = convex_hull(pts)
        assert hull.vertices == tuple(sorted(
            tuple(6 * x for x in v) for v in p.vertices))
        assert hull.vertices == rank_test_vertices(pts, hull.facets)

    def test_fixtures_and_family_members(self):
        rng = random.Random(5)
        polys = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        polys += [mr_family(row, rank).polytope for row in sorted(FAMILY_ROWS)
                  for rank in family_smallest_ranks(row, 2)]
        for p in polys:
            pts = padded_points(p, rng, 8)
            hull = convex_hull(pts)
            assert hull.vertices == rank_test_vertices(pts, hull.facets), p
            assert len(hull.vertices) == len(p.vertices), p


class TestConvexHull:
    def test_square(self, square):
        assert set(square.facets) == {((1, 0), 1), ((-1, 0), 1),
                                      ((0, 1), 1), ((0, -1), 1)}
        assert len(square.vertices) == 4

    def test_triangle_normals_match_solved_systems(self, p2_dual_triangle):
        verts = [(1, 0), (0, 1), (-1, -1)]
        expected = set()
        for a, b in combinations(verts, 2):
            expected.add(edge_normal_oracle(a, b))
        assert set(p2_dual_triangle.facets) == expected
        assert {n for n, _ in p2_dual_triangle.facets} == \
            {(1, 1), (-2, 1), (1, -2)}
        assert all(c == 1 for _, c in p2_dual_triangle.facets)

    def test_degenerate_input(self):
        with pytest.raises(NotFullDimensional):
            convex_hull([(0, 0), (1, 0), (2, 0)])

    def test_origin_must_be_interior(self):
        with pytest.raises(OriginNotInterior):
            convex_hull([(0, 1), (1, 0), (1, 1), (2, 1)])
        # origin on the boundary is rejected too
        with pytest.raises(OriginNotInterior):
            convex_hull([(1, 0), (-1, 0), (0, 1), (1, 1)])

    def test_redundant_points_dropped(self):
        p = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0), (1, 0)])
        assert len(p.vertices) == 4

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([(Fraction(1, 2), 0), (0, 1), (-1, -1)])


class TestDual:
    def test_square_diamond(self, square, diamond):
        assert square.dual() == diamond

    def test_triangle(self, p2_dual_triangle):
        d = p2_dual_triangle.dual()
        assert set(d.vertices) == {(1, 1), (-2, 1), (1, -2)}

    def test_involution(self, cube, square, hexagon):
        for p in (cube, square, hexagon):
            assert p.dual().dual() == p

    def test_non_lattice_dual_flagged(self, b2_octagon):
        with pytest.raises(NotReflexive):
            b2_octagon.dual()
        verts, facets = polar(b2_octagon.vertices, b2_octagon.facets)
        assert not all(la.is_integer_vector(v) for v in verts)
        assert polar(verts, facets) == (b2_octagon.vertices, b2_octagon.facets)

    def test_built_once_without_back_reference(self, cube):
        d = cube.dual()
        assert cube.dual() is d
        # the dual holds nothing of the cube, so the two form no cycle
        assert "_dual" not in vars(d)
        assert d.dual() == cube and d.dual() is not cube

    def test_matches_the_rational_polar(self):
        """On every reflexive fixture, every family member of rank <= 5
        and their duals: the swap is the polar dual, vertices and facets."""
        polys = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        polys += [mr_family(row, rank).polytope for row in sorted(FAMILY_ROWS)
                  for rank in range(1, 6) if FAMILY_ROWS[row][1](rank)]
        polys = [p for p in polys if p.is_reflexive]
        polys += [p.dual() for p in polys]
        assert len(polys) == 84
        for p in polys:
            d = p.dual()
            assert (d.vertices, d.facets) == polar(p.vertices, p.facets), p
            assert d.dim == p.dim

    def test_not_reflexive_raises(self, b2_octagon):
        rng = random.Random(17)
        polys = [b2_octagon] + [random_polytope(rng) for _ in range(12)]
        polys = [p for p in polys if not p.is_reflexive]
        assert len(polys) >= 10
        for p in polys:
            with pytest.raises(NotReflexive):
                p.dual()

    def test_classify_then_star_check_builds_one_dual(self, monkeypatch):
        rec = mr_family("Dn-w2", 4)
        built = []
        init = Polytope.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Polytope, "__init__", counting)
        classify(rec.polytope)
        star_containment_check(rec)
        assert len(built) == 1 and built[0] is rec.polytope.dual()


class TestReflexive:
    def test_segment(self, segment):
        assert segment.is_reflexive

    def test_octagon_not_reflexive(self, b2_octagon):
        # the edge through (1,2) and (2,1) lies on x + y = 3
        assert ((1, 1), 3) in b2_octagon.facets
        assert not b2_octagon.is_reflexive

    def test_cube(self, cube):
        assert cube.is_reflexive

    def test_reflexive_iff_dual_reflexive(self, cube, square, hexagon):
        for p in (cube, square, hexagon):
            assert p.is_reflexive == p.dual().is_reflexive


def brute_force_faces(p):
    """Oracle: all faces as intersections of facet subsets."""
    nf = len(p.facets)
    found = set()
    for r in range(1, nf + 1):
        for subset in combinations(range(nf), r):
            members = frozenset.intersection(
                *[p.incidence[f] for f in subset])
            if members:
                found.add(members)
    for i in range(len(p.vertices)):
        found.add(frozenset([i]))
    return found


def closure_faces(p):
    """Oracle: the faces by closing the facet list under pairwise
    intersection, in the order (dimension, vertex indices)."""
    found = set(p.incidence)
    queue = list(found)
    while queue:
        cur = queue.pop()
        for members in p.incidence:
            inter = cur & members
            if inter and inter not in found:
                found.add(inter)
                queue.append(inter)
    found |= {frozenset([i]) for i in range(len(p.vertices))}
    faces = []
    for vset in found:
        vs = tuple(sorted(vset))
        base = p.vertices[vs[0]]
        fdim = la.rank([la.vsub(p.vertices[i], base) for i in vs[1:]])
        fset = tuple(f for f, members in enumerate(p.incidence)
                     if vset <= members)
        faces.append(Face(vs, fdim, fset))
    return sorted(faces, key=lambda f: (f.dimension, f.vertex_indices))


class TestFaces:
    def test_square_counts(self, square):
        dims = [f.dimension for f in all_faces(square)]
        assert dims.count(0) == 4 and dims.count(1) == 4

    def test_cube_counts(self, cube):
        dims = [f.dimension for f in all_faces(cube)]
        assert (dims.count(0), dims.count(1), dims.count(2)) == (8, 12, 6)

    def test_octahedron_counts_against_oracle(self, octahedron):
        faces = all_faces(octahedron)
        dims = [f.dimension for f in faces]
        assert (dims.count(0), dims.count(1), dims.count(2)) == (6, 12, 8)
        oracle = brute_force_faces(octahedron)
        assert {frozenset(f.vertex_indices) for f in faces} == oracle

    def test_deterministic_order(self, cube):
        for face in all_faces(cube):
            keys = [f.vertex_indices for f in cube.face_children(face)]
            assert keys == sorted(keys)

    def test_facet_local_lattice_matches_the_closure(self):
        polys = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        for row in sorted(FAMILY_ROWS):
            for rank in family_smallest_ranks(row):
                if rank <= 5:
                    p = mr_family(row, rank).polytope
                    polys += [p, p.dual()]
        assert len(polys) == 65
        for p in polys:
            oracle = closure_faces(p)
            assert all_faces(p) == oracle, p
            by_vertices = {frozenset(f.vertex_indices): f for f in oracle}
            assert p.facet_faces() == tuple(
                by_vertices[members] for members in p.incidence), p
            for face in oracle:
                vset = set(face.vertex_indices)
                assert list(p.face_children(face)) == [
                    f for f in oracle if f.dimension == face.dimension - 1
                    and set(f.vertex_indices) <= vset], (p, face)


def tau(p, m):
    """The vertices of the facet tau_m of the dual, on which the bracket
    with m is 1: the dual's facet at m's index."""
    dual = p.dual()
    members = dual.incidence[p.vertex_index(m)]
    return {dual.vertices[i] for i in members}


class TestStarAndDualFacet:
    """The dual's facet list is the vertex list, so tau_m is m's row."""

    def test_figure_triangle_star_and_tau(self):
        tri = convex_hull([(1, -1), (1, 2), (-2, -1)])
        assert tau(tri, (1, 2)) == {(-1, 1), (1, 0)}

    def test_cube_dual_facet(self, cube):
        assert tau(cube, (1, 1, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_square_dual_facet(self, square):
        assert tau(square, (1, 1)) == {(1, 0), (0, 1)}

    def test_vertex_not_found(self):
        rec = mr_family("Bn-cube", 3)
        with pytest.raises(VertexNotFound):
            star_containment_check(dataclasses.replace(rec, weight=(2, 0, 0)))

    def test_matches_the_bracket_scan(self):
        # the dual facet on which <m, n> = 1, found by scanning every vertex
        # of the rational polar, is the facets of p through m, each read as
        # its dual vertex n / c: on lattice polytopes, their duals and
        # polytopes that are not reflexive
        rng = random.Random(9)
        polys = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        polys += [mr_family(row, rank).polytope for row in sorted(FAMILY_ROWS)
                  for rank in family_smallest_ranks(row) if rank <= 6]
        polys += [p.dual() for p in polys if p.is_reflexive]
        polys += [random_polytope(rng) for _ in range(4)]
        assert sum(not p.is_reflexive for p in polys) >= 5
        for p in polys:
            verts, _ = polar(p.vertices, p.facets)
            for i, m in enumerate(p.vertices):
                members = {y for y in verts if la.vdot(m, y) == 1}
                assert members == {
                    tuple(la.norm_scalar(Fraction(x, c)) for x in n)
                    for n, c in (p.facets[f] for f in p.vertex_facets[i])}
                if p.is_reflexive:
                    assert tau(p, m) == members


class TestVolumes:
    def test_unit_segment_face(self, square):
        edge = square.facet_faces()[0]
        assert square.face_lattice_volume(edge) == 2  # edges have length 2

    def test_cube_facet(self, cube):
        facet = cube.facet_faces()[0]
        assert cube.face_lattice_volume(facet) == 4

    def test_octahedron_facet(self, octahedron):
        facet = octahedron.facet_faces()[0]
        assert octahedron.face_lattice_volume(facet) == Fraction(1, 2)

    def test_solid_volumes(self, cube, square, segment):
        assert cube.volume == 8
        assert square.volume == 4
        assert segment.volume == 2

    def test_surface_equals_dim_times_volume(self, cube, square, hexagon,
                                             diamond, b2_octagon):
        # offsets above 1: the octagon, random hulls and the least lattice
        # dilations of their rational duals
        rng = random.Random(3)
        polys = [b2_octagon] + [random_polytope(rng) for _ in range(4)]
        polys += [dilated_polar(p) for p in polys]
        assert not any(p.is_reflexive for p in polys)
        for p in [cube, square, hexagon, diamond, cube.dual()] + polys:
            total = sum(Fraction(c) * p.face_lattice_volume(f)
                        for (_, c), f in zip(p.facets, p.facet_faces()))
            assert total == p.dim * p.volume

    def test_volume_unimodular_invariance(self, hexagon):
        shear = ((1, 1), (0, 1))
        moved = convex_hull([mat_vec(shear, v) for v in hexagon.vertices])
        assert moved.volume == hexagon.volume
        f0 = hexagon.facet_faces()[0]
        vols = sorted(hexagon.face_lattice_volume(f)
                      for f in hexagon.facet_faces())
        vols2 = sorted(moved.face_lattice_volume(f)
                       for f in moved.facet_faces())
        assert vols == vols2


class TestBarycenter:
    def test_cube(self, cube):
        assert cube.barycenter == (0, 0, 0)

    def test_p2_dual(self, p2_dual_triangle):
        assert p2_dual_triangle.barycenter == (0, 0)

    def test_asymmetric_p2_triangle(self):
        tri = convex_hull([(-1, -1), (2, -1), (-1, 2)])
        # oracle: split along the vertical at x = -1 .. 2 into two triangles
        # T1 = ((-1,-1),(2,-1),(-1,2)) is the whole thing; integrate directly:
        # centroid of a triangle is the vertex average.
        cx = Fraction(-1 + 2 - 1, 3)
        cy = Fraction(-1 - 1 + 2, 3)
        assert (cx, cy) == (0, 0)
        assert tri.barycenter == (0, 0)

    def test_off_center(self):
        p = convex_hull([(2, 0), (-1, 1), (-1, -1)])
        assert p.barycenter == (0, 0)
        q = convex_hull([(3, 0), (-1, 1), (-1, -1)])
        assert q.barycenter != (0, 0)


def vertex_edge_directions(p, i):
    """Primitive directions of the edges leaving vertex ``i`` of ``p``.

    Vertices i and j span an edge iff the normals of the facets through
    both of them have rank ``dim - 1``.
    """
    v = p.vertices[i]
    mine = set(p.vertex_facets[i])
    dirs = []
    for j, fs in enumerate(p.vertex_facets):
        common = [p.facets[f][0] for f in fs if f in mine]
        if j != i and len(common) >= p.dim - 1 \
                and la.rank(common) == p.dim - 1:
            cleared, _ = la.clear_denominators(la.vsub(p.vertices[j], v))
            dirs.append(la.primitivize(cleared)[0])
    return tuple(sorted(dirs))


def delzant_by_edges(p):
    """Oracle: at every vertex, ``dim`` primitive edge directions of |det| 1."""
    for i in range(len(p.vertices)):
        dirs = vertex_edge_directions(p, i)
        if len(dirs) != p.dim or abs(det(dirs)) != 1:
            return False
    return True


class TestDelzant:
    def test_cube(self, cube):
        assert cube.is_delzant

    def test_octahedron(self, octahedron):
        # four edges meet at each vertex in dimension 3
        v = octahedron.vertex_index((0, 0, 1))
        assert len(vertex_edge_directions(octahedron, v)) == 4
        assert not octahedron.is_delzant

    def test_hexagon(self, hexagon):
        assert hexagon.is_delzant

    def test_matches_edge_directions(self):
        polys = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        for row in sorted(FAMILY_ROWS):
            for rank in family_smallest_ranks(row):
                p = mr_family(row, rank).polytope
                polys += [p, p.dual()]
        assert len(polys) == 77
        for p in polys:
            assert p.is_delzant == delzant_by_edges(p), p


class TestReflexivePairing:
    def test_facet_normals_are_dual_vertices_with_tau_incidence(
            self, cube, square, hexagon):
        for p in (cube, square, hexagon):
            dual = p.dual()
            dual_vertices = set(dual.vertices)
            for f, (n, c) in enumerate(p.facets):
                assert c == 1
                assert n in dual_vertices
                for i, m in enumerate(p.vertices):
                    b = la.vdot(m, n)
                    assert b <= 1
                    assert (b == 1) == (i in p.incidence[f])
