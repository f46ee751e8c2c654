import os
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from weylot import linalg as la
from weylot.errors import InternalCheckFailed, NotReflexive
from weylot.measures import (WeightedPointCloud, chamber_incidence,
                             chamber_mass, discretize, dominant_cloud,
                             surface_measure)
from weylot.polytope import Polytope, convex_hull
from weylot.rootsystems import build_root_system, weight_to_coords
from weylot.transport import TransportPlan, check_chamber_support
from weylot.weyl import weyl_polytope

from dominance_oracle import mat_vec
from test_fixture_files import HERE, load


def incident_chambers_oracle(system, group, x, side):
    """Per-point exact scan: indices of the w with w^-1 x dominant."""
    out = []
    for i, (w, w_dual) in enumerate(zip(group.matrices.tolist(),
                                        group.dual_matrices.tolist())):
        inv = la.transpose(w_dual if side == "M" else w)
        if system.is_dominant(mat_vec(inv, x), side):
            out.append(i)
    return out


class TestSurfaceMeasure:
    def test_square(self, square):
        sm = surface_measure(square)
        assert all(mass == 2 for _, mass in sm.facet_masses)
        assert sm.total == 8

    def test_cube(self, cube):
        sm = surface_measure(cube)
        assert all(mass == 4 for _, mass in sm.facet_masses)
        assert sm.total == 24

    def test_octahedron(self, octahedron):
        sm = surface_measure(octahedron)
        assert all(mass == Fraction(1, 2) for _, mass in sm.facet_masses)
        assert sm.total == 4

    def test_total_relation(self, cube, square, hexagon, diamond):
        for p in (cube, square, hexagon, diamond):
            assert surface_measure(p).total == p.dim * p.volume

    def test_rational_polytope_rejected(self, b2_octagon):
        # the octagon's dual is rational, so it is never built
        with pytest.raises(NotReflexive):
            surface_measure(b2_octagon.dual())


class TestDiscretize:
    def test_segment_any_refinement(self, segment):
        for k in (0, 1, 3):
            cl = discretize(segment, k)
            assert dict(zip(cl.points, cl.masses)) == \
                {(-1,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_square_k0_unit_segment_midpoints(self, square):
        cl = discretize(square, 0)
        h = Fraction(1, 2)
        assert set(cl.points) == {
            (1, h), (1, -h), (-1, h), (-1, -h),
            (h, 1), (-h, 1), (h, -1), (-h, -1)}
        assert set(cl.masses) == {Fraction(1, 8)}

    def test_octahedron_k0_centroids(self, octahedron):
        # a flag cell of the facet conv(e1, e2, e3) runs from e1 through
        # (e1 + e2) / 2 to (e1 + e2 + e3) / 3
        cl = discretize(octahedron, 0)
        corner = (Fraction(11, 18), Fraction(5, 18), Fraction(1, 9))
        assert len(cl) == 48
        assert set(cl.points) == {
            tuple(s * corner[i] for s, i in zip(signs, perm))
            for perm in permutations(range(3))
            for signs in product((1, -1), repeat=3)}
        assert set(cl.masses) == {Fraction(1, 48)}

    def test_masses_sum_to_one_exactly(self, cube, hexagon):
        for p in (cube, hexagon):
            for k in (0, 1, 2):
                assert sum(discretize(p, k).masses) == 1

    def test_per_facet_mass_constant_in_k(self, cube):
        sm = surface_measure(cube)
        for k in (0, 1, 2):
            cl = discretize(cube, k)
            for f, mass in sm.facet_masses:
                n, c = cube.facets[f]
                got = sum(m for m, pt in zip(cl.masses, cl.points)
                          if la.vdot(pt, n) == c)
                assert got == Fraction(mass) / sm.total

    def test_points_on_tagged_facets(self, cube):
        cl = discretize(cube, 1)
        for pt in cl.points:
            values = [la.vdot(pt, n) - c for n, c in cube.facets]
            assert all(v <= 0 for v in values)
            assert values.count(0) == 1


# Unimodular maps per dimension; the first 3-d one is (x, y, z) -> (y, x, -z).
UNIMODULAR_MAPS = {
    2: [((0, 1), (1, 0)), ((0, -1), (1, 0)), ((1, 1), (0, 1))],
    3: [((0, 1, 0), (1, 0, 0), (0, 0, -1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (0, 1, 0), (0, 0, 1))],
}


class TestEquivariance:
    """A discretization that does not depend on coordinates: the cloud of
    T P is T applied to the cloud of P, for unimodular T."""

    @pytest.mark.parametrize("name", sorted(
        name[:-5] for name in os.listdir(HERE)))
    def test_cloud_of_the_image_is_the_image_of_the_cloud(self, name):
        p = load(name)
        for t in UNIMODULAR_MAPS[p.dim]:
            image = convex_hull([mat_vec(t, v) for v in p.vertices])
            for k in (0, 1):
                cl, moved = discretize(p, k), discretize(image, k)
                assert dict(zip(moved.points, moved.masses)) == {
                    mat_vec(t, x): mass
                    for x, mass in zip(cl.points, cl.masses)}


class TestGroupInvariance:
    def test_cloud_invariant_exactly(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        for k in (0, 1):
            cl = discretize(rec.polytope, k, side="M")
            weighted = dict(zip(cl.points, cl.masses))
            for w in W.matrices.tolist():
                moved = {tuple(mat_vec(w, p)): m
                         for p, m in weighted.items()}
                assert moved == weighted

    def test_dual_side_invariance(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        dual = rec.polytope.dual()
        cl = discretize(dual, 0, side="N")
        weighted = dict(zip(cl.points, cl.masses))
        for w_dual in W.dual_matrices.tolist():
            moved = {tuple(mat_vec(w_dual, p)): m
                     for p, m in weighted.items()}
            assert moved == weighted


class TestChamberMass:
    def test_square_b2(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        cl = discretize(rec.polytope, 0, side="M")
        cm = chamber_mass(cl, b2, W)
        assert set(cm.values()) == {Fraction(1, 8)}
        assert sum(cm.values()) == 1

    def test_cube_and_cross_b3_match(self):
        b3 = build_root_system("B", 3)
        W = b3.weyl_group()
        cube_rec = weyl_polytope(b3, weight_to_coords(b3, (0, 0, 2)))
        mu = discretize(cube_rec.polytope, 0, side="M")
        nu = discretize(cube_rec.polytope.dual(), 0, side="N")
        cm_mu = chamber_mass(mu, b3, W)
        cm_nu = chamber_mass(nu, b3, W)
        assert set(cm_mu.values()) == {Fraction(1, 48)}
        assert cm_mu == cm_nu

    def test_wall_points_split_equally(self):
        b2 = build_root_system("B", 2)
        # orbit of a wall point: every point sits on one chamber wall
        wall_orbit = b2.orbit((1, 2))
        assert len(wall_orbit) == 4
        cloud = WeightedPointCloud(
            tuple(wall_orbit), (Fraction(1, 4),) * 4, "M")
        cm = chamber_mass(cloud, b2, b2.weyl_group())
        assert set(cm.values()) == {Fraction(1, 8)}


class TestChamberIncidence:
    @pytest.mark.parametrize("side", ["M", "N"])
    @pytest.mark.parametrize("family,rank,omega,k", [
        ("B", 2, (0, 2), 1),
        ("B", 3, (0, 0, 2), 0),
        ("G", 2, (1, 0), 0),
        ("A", 3, (0, 2, 0), 0),
    ])
    def test_matches_per_point_scan(self, family, rank, omega, k, side):
        system = build_root_system(family, rank)
        W = system.weyl_group()
        poly = weyl_polytope(system, weight_to_coords(system, omega)).polytope
        cl = discretize(poly if side == "M" else poly.dual(), k, side=side)
        expected = [incident_chambers_oracle(system, W, x, side)
                    for x in cl.points]
        inc = chamber_incidence(cl.scaled[0], system, W, side)
        assert inc.shape == (len(W), len(cl))
        assert [list(np.flatnonzero(col)) for col in inc.T] == expected
        masses = {i: Fraction(0) for i in range(len(W))}
        for mass, chambers in zip(cl.masses, expected):
            for i in chambers:
                masses[i] += Fraction(mass, len(chambers))
        assert chamber_mass(cl, system, W) == masses

    def test_wall_orbit(self):
        b2 = build_root_system("B", 2)
        W = b2.weyl_group()
        wall_orbit = b2.orbit((1, 2))
        expected = [incident_chambers_oracle(b2, W, x, "M")
                    for x in wall_orbit]
        assert {len(chambers) for chambers in expected} == {2}
        inc = chamber_incidence(la.int_array(wall_orbit)[0], b2, W, "M")
        assert [list(np.flatnonzero(col)) for col in inc.T] == expected

    def test_chamber_support_verdict_matches_scan(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        mu = discretize(rec.polytope, 1, side="M")
        nu = discretize(rec.polytope.dual(), 1, side="N")
        # the product plan pairs every source with every target
        plan = TransportPlan(tuple(
            (i, j, Fraction(a) * Fraction(b))
            for i, a in enumerate(mu.masses)
            for j, b in enumerate(nu.masses)), Fraction(0))
        bad = [(i, j, mass) for i, j, mass in plan.triples
               if not set(incident_chambers_oracle(b2, W, mu.points[i], "M"))
               & set(incident_chambers_oracle(b2, W, nu.points[j], "N"))]
        verdict = check_chamber_support(plan, rec, W, mu, nu)
        assert bad and not verdict.passed
        assert verdict.offending_mass == sum(mass for _, _, mass in bad)
        assert verdict.witnesses == tuple(
            (mu.points[i], nu.points[j]) for i, j, _ in bad[:8])


# The criterion-4 fixtures, the A2 weight-lattice triangle and D4 = Dn-2w1.
ORBIT_CASES = [
    ("B", 2, (0, 2), "root", 1), ("B", 2, (1, 0), "root", 1),
    ("A", 2, (1, 1), "root", 1), ("A", 2, (3, 0), "root", 1),
    ("B", 3, (0, 0, 2), "root", 1), ("B", 3, (1, 0, 0), "root", 1),
    ("A", 3, (4, 0, 0), "root", 1), ("A", 3, (0, 2, 0), "root", 1),
    ("A", 2, (1, 0), "weight", 1), ("D", 4, (2, 0, 0, 0), "root", 0),
]


def orbit_expansion(cloud, group):
    """Every group element applied to every representative, mass / |W|."""
    out = {}
    for pt, mass in zip(cloud.points, cloud.masses):
        for w in (group.matrices if cloud.side == "M"
                  else group.dual_matrices).tolist():
            image = mat_vec(w, pt)
            image = tuple(la.norm_scalar(x) for x in image)
            assert image not in out
            out[image] = Fraction(mass, len(group))
    return out


class TestDominantCloud:
    @pytest.mark.parametrize("family,rank,omega,lattice,kmax", ORBIT_CASES)
    def test_orbit_expansion_is_the_invariant_cloud(self, family, rank, omega,
                                                    lattice, kmax):
        system = build_root_system(family, rank, lattice)
        if lattice == "root":
            omega = weight_to_coords(system, omega)
        rec = weyl_polytope(system, omega)
        W = system.weyl_group()
        assert system.order == len(W)
        for k in range(kmax + 1):
            for p, side in ((rec.polytope, "M"), (rec.polytope.dual(), "N")):
                reps = dominant_cloud(p, k, system, side)
                full = discretize(p, k, side=side)
                assert sum(reps.masses) == 1
                assert orbit_expansion(reps, W) == dict(
                    zip(full.points, full.masses))
                assert len(full) == system.order * len(reps)

    def test_centroid_off_the_open_chamber_raises(self, monkeypatch):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        every_cell = Polytope.flag_cells
        monkeypatch.setattr(Polytope, "flag_cells",
                            lambda p, face, walls=None: every_cell(p, face))
        with pytest.raises(InternalCheckFailed, match="strictly dominant"):
            dominant_cloud(rec.polytope, 0, b2, "M")
