import dataclasses
from fractions import Fraction

import pytest

from weylot.errors import (InternalTableViolation, NotDominant,
                           NotLatticePoint, NotReflexive, OutOfTableRange)
from weylot import linalg as la
from weylot.polytope import Polytope, convex_hull
from weylot.rootsystems import (build_root_system, group_closure,
                                weight_to_coords)
from weylot.symmetry import unimodular_equivalent, automorphism_group
from weylot.weyl import (classify, is_dual_weyl_polytope, is_weyl_polytope,
                         mr_family, star_containment_check, vertex_condition,
                         weyl_polytope)

from dominance_oracle import mat_vec
from test_symmetry import ALL_CASES, case, image, member_cases, seeded_images


class TestWeylPolytope:
    def test_a1_segment(self):
        a1 = build_root_system("A", 1)
        rec = weyl_polytope(a1, weight_to_coords(a1, (2,)))
        assert set(rec.polytope.vertices) == {(-1,), (1,)}

    def test_b2_square(self, square):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        assert len(rec.polytope.vertices) == 4
        assert unimodular_equivalent(rec.polytope, square) is not None

    def test_a2_weight_lattice_triangle(self):
        a2w = build_root_system("A", 2, "weight")
        rec = weyl_polytope(a2w, (1, 0))
        assert set(rec.polytope.vertices) == {(1, 0), (-1, 1), (0, -1)}

    def test_orbit_points_all_vertices(self):
        g2 = build_root_system("G", 2)
        rec = weyl_polytope(g2, (2, 1))
        assert set(rec.polytope.vertices) == set(g2.orbit((2, 1)))

    def test_vertex_set_invariant_under_group(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, (2, 3))
        vset = set(rec.polytope.vertices)
        for w in b2.weyl_group().matrices.tolist():
            assert {mat_vec(w, v) for v in vset} == vset

    def test_errors(self):
        b2 = build_root_system("B", 2)
        with pytest.raises(NotDominant):
            weyl_polytope(b2, (-1, 0))
        with pytest.raises(NotLatticePoint):
            weyl_polytope(b2, (0, 0))
        with pytest.raises(NotLatticePoint):
            weyl_polytope(b2, (Fraction(1, 2), 1))


class TestFamilies:
    def test_p2_row(self):
        rec = mr_family("An-projective", 2)
        assert set(rec.polytope.vertices) == {(2, 1), (-1, 1), (-1, -2)}
        dual = rec.polytope.dual()
        assert set(dual.vertices) == {(0, 1), (1, -1), (-1, 0)}

    def test_v3_row(self):
        rec = mr_family("Aodd-v", 3)
        assert len(rec.polytope.vertices) == 6
        assert rec.polytope.is_reflexive
        assert not rec.polytope.is_delzant

    def test_g2_hexagon(self, hexagon):
        rec = mr_family("G2-v2", 2)
        assert rec.polytope.is_reflexive
        assert rec.polytope.is_delzant
        assert unimodular_equivalent(rec.polytope, hexagon) is not None

    def test_cube_row(self, cube):
        rec = mr_family("Bn-cube", 3)
        assert unimodular_equivalent(rec.polytope, cube) is not None

    def test_cross_polytope_row(self, octahedron):
        rec = mr_family("Bn-w1", 3)
        assert unimodular_equivalent(rec.polytope, octahedron) is not None

    def test_rank_bounds(self):
        with pytest.raises(OutOfTableRange):
            mr_family("Aodd-v", 4)
        with pytest.raises(OutOfTableRange):
            mr_family("Aeven-v", 3)
        with pytest.raises(OutOfTableRange):
            mr_family("Cn-2w1", 2)
        with pytest.raises(OutOfTableRange):
            mr_family("no-such-row", 2)


class TestVertexCondition:
    def test_hexagon_fails_with_zero_bracket(self, hexagon):
        verdict, witness = vertex_condition(hexagon)
        assert verdict is False
        m, n = witness
        assert la.vdot(m, n) == 0

    def test_cube_passes(self, cube):
        verdict, witness = vertex_condition(cube)
        assert verdict is True and witness is None
        # all brackets against the octahedron are +-1
        dual = cube.dual()
        assert {abs(la.vdot(m, n)) for m in cube.vertices
                for n in dual.vertices} == {1}

    def test_segment(self, segment):
        assert vertex_condition(segment)[0] is True

    def test_symmetric_under_duality(self, cube, square, hexagon, diamond):
        for p in (cube, square, hexagon, diamond, cube.dual()):
            assert vertex_condition(p)[0] == vertex_condition(p.dual())[0]

    def test_needs_reflexive(self, b2_octagon):
        with pytest.raises(NotReflexive):
            vertex_condition(b2_octagon)


class TestDetection:
    def test_square_is_b2(self, square):
        det = is_weyl_polytope(square)
        assert det is not None
        assert det.type_label == "B2"
        assert len(group_closure(det.reflections)) == 8
        assert det.dominant_vertex in set(square.vertices)

    def test_hexagon_is_g2(self, hexagon):
        det = is_weyl_polytope(hexagon)
        assert det is not None and det.type_label == "G2"

    def test_cube_is_b3(self, cube):
        det = is_weyl_polytope(cube)
        assert det is not None and det.type_label == "B3"
        assert det.dominant_vertex == (1, 1, 1)

    def test_triangle_is_a2(self, p2_dual_triangle):
        det = is_weyl_polytope(p2_dual_triangle)
        assert det is not None and det.type_label == "A2"

    @pytest.mark.parametrize("name", ["square", "hexagon", "cube",
                                      "octahedron", "p2_dual_triangle"])
    def test_dominant_vertex_from_its_pairings(self, name, request):
        # the detected system lives in the polytope's own lattice, neither
        # the root nor the weight lattice of its type
        det = is_weyl_polytope(request.getfixturevalue(name))
        v = det.dominant_vertex
        assert weight_to_coords(det.system,
                                det.system.simple_pairings(v)) == v

    def test_not_vertex_transitive(self):
        p = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -2)])
        assert is_weyl_polytope(p) is None

    def test_detection_implies_barycenter_zero_and_order_chain(self, square):
        det = is_weyl_polytope(square)
        assert square.barycenter == (0, 0)
        aut_order = len(automorphism_group(square))
        w_order = len(group_closure(det.reflections))
        assert aut_order >= w_order >= len(square.vertices)

    def test_dual_weyl(self, diamond, hexagon):
        assert is_dual_weyl_polytope(diamond) is not None
        assert is_dual_weyl_polytope(hexagon) is not None

    def test_dual_weyl_needs_reflexive(self, b2_octagon):
        with pytest.raises(NotReflexive):
            is_dual_weyl_polytope(b2_octagon)

    def test_product_label(self):
        # prism over the P2-dual triangle: A1 x A2 Weyl polytope
        tri = [(1, 0), (0, 1), (-1, -1)]
        prism = convex_hull([(x, y, z) for (x, y) in tri for z in (1, -1)])
        det = is_weyl_polytope(prism)
        assert det is not None
        assert det.type_label == "A1xA2"


class TestStarContainment:
    def fixture_record(self, family, rank, omega):
        system = build_root_system(family, rank)
        return weyl_polytope(system, weight_to_coords(system, omega))

    def test_square(self):
        verdict = star_containment_check(self.fixture_record("B", 2, (0, 2)))
        assert verdict.passed and verdict.mode == "certified"

    def test_non_reflexive_octagon(self):
        b2 = build_root_system("B", 2)
        verdict = star_containment_check(weyl_polytope(b2, (2, 3)))
        assert verdict.passed

    def test_cube_and_cross(self):
        assert star_containment_check(
            self.fixture_record("B", 3, (0, 0, 2))).passed
        assert star_containment_check(
            self.fixture_record("B", 3, (1, 0, 0))).passed

    def test_failure_carries_an_exact_witness(self):
        # the square with the non-dominant vertex (-1, -2) in place of its
        # weight: the chamber part of the boundary leaves that vertex's star
        rec = self.fixture_record("B", 2, (0, 2))
        rec = dataclasses.replace(rec, weight=(-1, -2))
        verdict = star_containment_check(rec)
        assert not verdict.passed and verdict.mode == "certified"
        side, x = verdict.witness
        assert side == "primal"
        p = rec.polytope
        assert rec.system.is_dominant(x)
        assert any(la.vdot(x, n) == c for n, c in p.facets)
        m_idx = p.vertex_index((-1, -2))
        assert not any(la.vdot(x, p.facets[f][0]) == p.facets[f][1]
                       for f in p.vertex_facets[m_idx])

    def test_dual_failure_carries_an_exact_witness(self):
        # P2 with the non-dominant vertex (-1, 1) in place of its weight:
        # the chamber part of the dual boundary leaves that vertex's facet
        rec = dataclasses.replace(mr_family("An-projective", 2),
                                  weight=(-1, 1))
        verdict = star_containment_check(rec)
        assert not verdict.passed and verdict.mode == "certified"
        side, y = verdict.witness
        assert side == "dual"
        dual = rec.polytope.dual()
        assert all(la.vdot(y, n) <= c for n, c in dual.facets)
        assert any(la.vdot(y, n) == c for n, c in dual.facets)
        assert all(la.vdot(a, y) >= 0 for a in rec.system.simple_roots)
        assert la.vdot((-1, 1), y) != 1

    def test_p3_and_v3(self):
        assert star_containment_check(
            self.fixture_record("A", 3, (4, 0, 0))).passed
        assert star_containment_check(
            self.fixture_record("A", 3, (0, 2, 0))).passed


class TestClassify:
    def test_cube_record(self, cube):
        rec = classify(cube)
        assert rec.aut_order == 48
        assert rec.barycenter_zero is True
        assert rec.reflexive is True
        assert rec.weyl is not None and rec.weyl[0] == "B3"
        assert rec.dual_weyl is not None
        assert rec.vertex_condition is True
        assert rec.delzant is True

    def test_hexagon_record(self, hexagon):
        rec = classify(hexagon)
        assert rec.aut_order == 12
        assert rec.barycenter_zero and rec.reflexive
        assert rec.weyl is not None
        assert rec.vertex_condition is False
        assert rec.vertex_condition_witness is not None
        assert rec.delzant is True

    def test_p2_dual_record(self, p2_dual_triangle):
        rec = classify(p2_dual_triangle)
        assert rec.aut_order == 6
        assert rec.barycenter_zero
        assert rec.weyl is not None and rec.weyl[0] == "A2"


class TestRecordConsistency:
    def test_weyl_presence_implies_barycenter_zero(self, square, hexagon,
                                                   cube, p2_dual_triangle):
        for p in (square, hexagon, cube, p2_dual_triangle):
            rec = classify(p)
            if rec.weyl is not None:
                assert rec.barycenter_zero

    def test_detection_in_own_lattice_can_exceed_generating_group(self):
        # the 12-vertex orbit polytope of A3 is also vertex transitive under
        # the bigger reflection group of its lattice
        rec = mr_family("An-roots", 3)
        det = is_weyl_polytope(rec.polytope)
        assert det is not None


# One polygon of each of the 16 reflexive classes; the five Weyl ones are
# the two A2 triangles, the two B2 quadrilaterals and the G2 hexagon.
REFLEXIVE_POLYGONS = [
    [(-1, -1), (-1, 1), (1, 0)],
    [(-1, -1), (0, 1), (1, 0)],
    [(-2, -1), (0, -1), (1, 2)],
    [(-2, -1), (0, 1), (2, -1)],
    [(-2, -1), (1, -1), (1, 2)],
    [(-1, -1), (-1, 0), (0, -1), (1, 1)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1)],
    [(-1, -1), (-1, 0), (1, -1), (1, 1)],
    [(-1, -1), (-1, 0), (1, 0), (1, 1)],
    [(-1, -1), (-1, 1), (1, -1), (1, 1)],
    [(-2, -1), (-1, -1), (1, 0), (1, 2)],
    [(-2, -1), (0, -1), (1, 0), (1, 2)],
    [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1), (1, 0)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1), (1, 1)],
    [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)],
]

# not Weyl: an off-center triangle (barycenter (1/3, 0)) and a centrally
# symmetric parallelogram (barycenter 0) with no transitive reflections
NON_WEYL = [
    [(3, 0), (-1, 1), (-1, -1)],
    [(-1, -3), (0, -3), (0, 3), (1, 3)],
]


def fresh(p):
    """``p`` with no cached property, so no volume or barycenter computed
    by an earlier test carries over."""
    return Polytope(p.vertices, p.facets, p.dim)


class TestBarycenterShortcut:
    """``classify`` reads barycenter_zero off the Weyl detection; the exact
    barycenter is its oracle."""

    @pytest.mark.parametrize("name", ALL_CASES)
    def test_members_duals_and_fixtures(self, name):
        p = case(name)
        assert classify(p).barycenter_zero == all(x == 0 for x in p.barycenter)

    @pytest.mark.parametrize("verts", REFLEXIVE_POLYGONS + NON_WEYL)
    def test_polygons(self, verts):
        p = convex_hull(verts)
        assert classify(p).barycenter_zero == all(x == 0 for x in p.barycenter)

    def test_census_and_fallback(self):
        polys = [convex_hull(v) for v in REFLEXIVE_POLYGONS]
        assert sum(1 for p in polys if is_weyl_polytope(p)) == 5
        assert all(unimodular_equivalent(p, q) is None
                   for i, p in enumerate(polys) for q in polys[:i])
        off, sym = (classify(convex_hull(v)) for v in NON_WEYL)
        assert off.weyl is None and off.barycenter_zero is False
        assert sym.weyl is None and sym.barycenter_zero is True


class TestNoTriangulationOnTheClassifyPath:
    """``classify`` and ``unimodular_equivalent`` on Weyl polytopes never
    triangulate the boundary."""

    @pytest.fixture(autouse=True)
    def no_cones(self, monkeypatch):
        def refuse(self):
            raise AssertionError("boundary triangulation on the classify path")
        monkeypatch.setattr(Polytope, "_cones", property(refuse))

    @pytest.mark.parametrize("name", [n for n in member_cases()
                                      if not n.endswith("-dual")])
    def test_members(self, name):
        p = fresh(case(name))
        assert classify(p).barycenter_zero is True
        (_, moved), = seeded_images(name, 1)
        t = unimodular_equivalent(p, moved)
        assert t is not None and image(t, p) == moved
