import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from weylot.errors import NotFullDimensional, OriginNotInterior, VertexNotFound
from weylot.polytope import (Face, Polytope, convex_hull,
                             h_polytope_vertices)
from weylot import linalg as la
from weylot.weyl import FAMILY_ROWS, family_smallest_ranks, mr_family

from test_fixture_files import HERE, load
from test_properties import random_polytope


def edge_normal_oracle(a, b):
    """Facet data of the edge through a, b by solving the 2x2 system."""
    sol = la.solve([list(a), list(b)], [1, 1])
    ints, mult = la.clear_denominators(sol)
    n, g = la.primitivize(ints)
    return n, Fraction(mult, g)


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
            convex_hull([(0, 0), (1, 0), (2, 0)], dim=2)

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

    def test_involution(self, cube, square, hexagon, b2_octagon):
        for p in (cube, square, hexagon, b2_octagon):
            assert p.dual().dual() == p

    def test_non_lattice_dual_flagged(self, b2_octagon):
        d = b2_octagon.dual()
        assert not d.is_lattice
        assert d.dual() == b2_octagon


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
        dims = [f.dimension for f in square.faces]
        assert dims.count(0) == 4 and dims.count(1) == 4

    def test_cube_counts(self, cube):
        dims = [f.dimension for f in cube.faces]
        assert (dims.count(0), dims.count(1), dims.count(2)) == (8, 12, 6)

    def test_octahedron_counts_against_oracle(self, octahedron):
        dims = [f.dimension for f in octahedron.faces]
        assert (dims.count(0), dims.count(1), dims.count(2)) == (6, 12, 8)
        oracle = brute_force_faces(octahedron)
        assert {frozenset(f.vertex_indices) for f in octahedron.faces} == oracle

    def test_deterministic_order(self, cube):
        faces = cube.faces
        keys = [(f.dimension, f.vertex_indices) for f in faces]
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
            assert list(p.faces) == oracle, p
            by_vertices = {frozenset(f.vertex_indices): f for f in oracle}
            assert p.facet_faces() == tuple(
                by_vertices[members] for members in p.incidence), p
            for face in oracle:
                vset = set(face.vertex_indices)
                assert list(p.face_children(face)) == [
                    f for f in oracle if f.dimension == face.dimension - 1
                    and set(f.vertex_indices) <= vset], (p, face)


class TestStarAndDualFacet:
    def test_cube_star(self, cube):
        star = cube.closed_star((1, 1, 1))
        facets = [f for f in star if f.dimension == 2]
        assert len(facets) == 3
        # as a point set the star is the union of the facets through m
        union_members = set()
        for f in facets:
            union_members |= set(f.vertex_indices)
        for f in star:
            assert set(f.vertex_indices) <= union_members

    def test_figure_triangle_star_and_tau(self):
        tri = convex_hull([(1, -1), (1, 2), (-2, -1)])
        star = tri.closed_star((1, 2))
        assert len([f for f in star if f.dimension == 1]) == 2
        dual, tau = tri.dual_facet((1, 2))
        tau_verts = {dual.vertices[i] for i in tau.vertex_indices}
        assert tau_verts == {(-1, 1), (1, 0)}

    def test_octahedron_star(self, octahedron):
        star = octahedron.closed_star((0, 0, 1))
        assert len([f for f in star if f.dimension == 2]) == 4

    def test_cube_dual_facet(self, cube):
        dual, tau = cube.dual_facet((1, 1, 1))
        assert {dual.vertices[i] for i in tau.vertex_indices} == \
            {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_square_dual_facet(self, square):
        dual, tau = square.dual_facet((1, 1))
        assert {dual.vertices[i] for i in tau.vertex_indices} == \
            {(1, 0), (0, 1)}

    def test_vertex_not_found(self, cube):
        with pytest.raises(VertexNotFound):
            cube.closed_star((2, 0, 0))

    def test_every_boundary_vertex_in_some_star(self, cube):
        for v in cube.vertices:
            assert cube.closed_star(v)


class TestVolumes:
    def test_unit_segment_face(self, square):
        edge = next(f for f in square.faces if f.dimension == 1)
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
        # rational duals reach the common-denominator scaling of the vertices
        rng = random.Random(3)
        rational = [b2_octagon.dual()] + [random_polytope(rng).dual()
                                          for _ in range(4)]
        assert not any(p.is_lattice for p in rational)
        for p in [cube, square, hexagon, diamond, cube.dual()] + rational:
            total = sum(Fraction(c) * p.face_lattice_volume(f)
                        for (_, c), f in zip(p.facets, p.facet_faces()))
            assert total == p.dim * p.volume

    def test_volume_unimodular_invariance(self, hexagon):
        shear = ((1, 1), (0, 1))
        moved = convex_hull([la.mat_vec(shear, v) for v in hexagon.vertices])
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


def delzant_by_edges(p):
    """Oracle: at every vertex, ``dim`` primitive edge directions of |det| 1."""
    for i in range(len(p.vertices)):
        dirs = p.vertex_edge_directions(i)
        if len(dirs) != p.dim or abs(la.det(dirs)) != 1:
            return False
    return True


class TestDelzant:
    def test_cube(self, cube):
        assert cube.is_delzant

    def test_octahedron(self, octahedron):
        # four edges meet at each vertex in dimension 3
        v = octahedron.vertex_index((0, 0, 1))
        assert len(octahedron.vertex_edge_directions(v)) == 4
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


class TestRegionEnumeration:
    def test_cube_facet_chamber(self, cube):
        ineqs = list(cube.facets) + [((-1, 1, 0), 0), ((0, -1, 1), 0),
                                     ((0, 0, -1), 0)]
        # the equality <x, e1> = 1 as two inequalities
        ineqs += [((1, 0, 0), 1), ((-1, 0, 0), -1)]
        verts = h_polytope_vertices(ineqs, 3)
        assert verts == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_empty_region(self, square):
        verts = h_polytope_vertices(
            list(square.facets) + [((1, 0), 5), ((-1, 0), -5)], 2)
        assert verts == []


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
