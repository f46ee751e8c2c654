"""Acceptance suite: one test per criterion, one printed pass line each.

Everything here is exact arithmetic, so assertions are equalities (no
tolerances anywhere).  The dimension-2 census and the transport oracle are
independent implementations kept inside this file.
"""

import os
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from weylot import fileio
from weylot import linalg as la
from weylot.measures import chamber_mass, discretize, surface_measure
from weylot.polytope import convex_hull
from weylot.rootsystems import build_root_system, weight_to_coords
from weylot.symmetry import automorphism_group, unimodular_equivalent
from weylot.transport import certify, solve_ot
from weylot.weyl import (FAMILY_ROWS, classify, family_is_smooth,
                         family_smallest_ranks, is_dual_weyl_polytope,
                         is_weyl_polytope, mr_family, star_containment_check,
                         vertex_condition, weyl_polytope)

from test_transport import cloud, oracle_min_cost


# -- fixtures used by several criteria ----------------------------------------

FIXTURE_RECORDS = [
    ("square", "B", 2, (0, 2)),
    ("diamond", "B", 2, (1, 0)),
    ("hexagon", "A", 2, (1, 1)),
    ("P2", "A", 2, (3, 0)),
    ("cube", "B", 3, (0, 0, 2)),
    ("octahedron", "B", 3, (1, 0, 0)),
    ("P3", "A", 3, (4, 0, 0)),
    ("V3", "A", 3, (0, 2, 0)),
]


def fixture_record(family, rank, omega):
    system = build_root_system(family, rank)
    return weyl_polytope(system, weight_to_coords(system, omega))


# -- criterion 1: the dimension-2 census --------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull2d(points):
    """Counterclockwise hull, integer monotone chain."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _area2(hull):
    out = 0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        out += a[0] * b[1] - a[1] * b[0]
    return out


def _strictly_inside(q, hull):
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], q) > 0
               for i in range(len(hull)))


def _weakly_inside(q, hull):
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], q) >= 0
               for i in range(len(hull)))


def _fano(hull, box):
    if len(hull) < 3 or not _strictly_inside((0, 0), hull):
        return False
    for q in box:
        if q != (0, 0) and _strictly_inside(q, hull):
            return False
    return True


def _reflexive_2d(hull):
    from math import gcd
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        d = (b[0] - a[0], b[1] - a[1])
        n = (d[1], -d[0])
        g = gcd(abs(n[0]), abs(n[1]))
        if a[0] * n[0] + a[1] * n[1] != g:   # lattice distance must be 1
            return False
    return True


def census_reflexive_polygons():
    """Every reflexive polygon with vertices in [-3,3]^2, by exhaustion.

    States are polygons whose unique interior lattice point is the origin;
    they are grown one vertex at a time from triangles and from quadrilaterals
    whose two diagonals both pass through the origin (the one quadrilateral
    family with no removable vertex).
    """
    rng = range(-3, 4)
    box_all = [(x, y) for x in rng for y in rng]
    box = [p for p in box_all if p != (0, 0)]

    seeds = set()
    for tri in combinations(box, 3):
        hull = _hull2d(tri)
        if len(hull) == 3 and 0 < _area2(hull) <= 9 and _fano(hull, box_all):
            seeds.add(hull)
    through0 = [(p, q) for p, q in combinations(box, 2)
                if p[0] * q[1] - p[1] * q[0] == 0
                and p[0] * q[0] + p[1] * q[1] < 0]
    for (p1, q1), (p2, q2) in combinations(through0, 2):
        quad = _hull2d([p1, q1, p2, q2])
        if len(quad) == 4 and _area2(quad) <= 9 and _fano(quad, box_all):
            seeds.add(quad)

    states = set(seeds)
    frontier = list(seeds)
    while frontier:
        hull = frontier.pop()
        for v in box:
            if _weakly_inside(v, hull):
                continue
            new = _hull2d(hull + (v,))
            if new in states or _area2(new) > 9:
                continue
            if _fano(new, box_all):
                states.add(new)
                frontier.append(new)
    return [h for h in states if _reflexive_2d(h)]


class TestCriterion1Census:
    def test_sixteen_classes_five_weyl(self):
        start = time.time()
        polygons = census_reflexive_polygons()
        assert polygons
        polys = [convex_hull(h) for h in polygons]
        classes = []
        for p in polys:
            for rep in classes:
                if unimodular_equivalent(rep, p) is not None:
                    break
            else:
                classes.append(p)
        weyl_count = sum(1 for rep in classes
                         if is_weyl_polytope(rep) is not None)
        elapsed = time.time() - start
        assert len(classes) == 16
        assert weyl_count == 5
        assert elapsed < 300
        print(f"\nACCEPTANCE 1 PASS: 16 reflexive polygon classes, "
              f"5 Weyl ({elapsed:.1f}s, {len(polygons)} embedded polygons)")


# -- criterion 2: family table validation --------------------------------------

class TestCriterion2FamilyTable:
    def test_all_rows_reflexive_weyl_and_smoothness(self):
        start = time.time()
        checked = 0
        for row in sorted(FAMILY_ROWS):
            for rank in family_smallest_ranks(row):
                rec = mr_family(row, rank)   # raises if not reflexive
                assert rec.polytope.is_reflexive
                det = is_weyl_polytope(rec.polytope)
                assert det is not None, f"{row} rank {rank} not Weyl"
                if family_is_smooth(row):
                    assert rec.polytope.is_delzant, \
                        f"{row} rank {rank} should be smooth"
                checked += 1
        elapsed = time.time() - start
        assert elapsed < 600
        print(f"\nACCEPTANCE 2 PASS: {checked} family members reflexive, "
              f"Weyl, smoothness matched ({elapsed:.1f}s)")


# -- criterion 3: the vertex condition ------------------------------------------

class TestCriterion3VertexCondition:
    def test_hexagon_fails_cube_passes_duality_symmetric(self):
        hexagon = mr_family("G2-v2", 2).polytope
        verdict, witness = vertex_condition(hexagon)
        assert verdict is False
        assert la.vdot(witness[0], witness[1]) == 0

        cube = convex_hull([(x, y, z) for x in (1, -1) for y in (1, -1)
                            for z in (1, -1)])
        assert vertex_condition(cube)[0] is True
        segment = convex_hull([(-1,), (1,)])
        assert vertex_condition(segment)[0] is True

        fixtures = [hexagon, cube, segment]
        fixtures += [fixture_record(f, r, w).polytope
                     for _, f, r, w in FIXTURE_RECORDS]
        for p in fixtures:
            assert vertex_condition(p)[0] == vertex_condition(p.dual())[0]
        print("\nACCEPTANCE 3 PASS: vertex condition verdicts and "
              "duality symmetry")


# -- criterion 4: certification of the stability theorems -----------------------

class TestCriterion4Certification:
    def test_all_fixtures_all_refinements(self):
        start = time.time()
        for name, family, rank, omega in FIXTURE_RECORDS:
            rec = fixture_record(family, rank, omega)
            for k in (0, 1, 2):
                report = certify(rec, k, 3)
                assert report.duality_gap == 0, (name, k)
                assert report.stability.passed and \
                    report.stability.offending_mass == 0, (name, k)
                assert report.chamber_support.passed and \
                    report.chamber_support.offending_mass == 0, (name, k)
                assert report.reflection_sign.passed, (name, k)
                assert report.cyclical_monotonicity.passed, (name, k)
                assert report.cyclical_monotonicity.max_cycle_length == 3
        elapsed = time.time() - start
        assert elapsed < 900
        print(f"\nACCEPTANCE 4 PASS: {len(FIXTURE_RECORDS)} fixtures x "
              f"k in 0..2 certified ({elapsed:.1f}s)")


# -- criterion 5: chamber balance ------------------------------------------------

class TestCriterion5ChamberBalance:
    def test_normalized_chamber_masses(self):
        for name, family, rank, omega in FIXTURE_RECORDS:
            system = build_root_system(family, rank)
            rec = weyl_polytope(system, weight_to_coords(system, omega))
            group = system.weyl_group()
            order = len(group)
            mu = discretize(rec.polytope, 0, side="M")
            nu = discretize(rec.polytope.dual(), 0, side="N")
            cm_mu = chamber_mass(mu, system, group)
            cm_nu = chamber_mass(nu, system, group)
            assert set(cm_mu.values()) == {Fraction(1, order)}, name
            assert set(cm_nu.values()) == {Fraction(1, order)}, name
        print("\nACCEPTANCE 5 PASS: chamber masses exactly 1/|W| on "
              "both sides of every fixture")


# -- criterion 6: surface measure numbers ----------------------------------------

class TestCriterion6SurfaceMeasure:
    def test_numbers(self):
        cube = convex_hull([(x, y, z) for x in (1, -1) for y in (1, -1)
                            for z in (1, -1)])
        sm = surface_measure(cube)
        assert sm.total == 24
        assert all(m == 4 for _, m in sm.facet_masses)
        octa = cube.dual()
        sm = surface_measure(octa)
        assert sm.total == 4
        assert all(m == Fraction(1, 2) for _, m in sm.facet_masses)
        for name, family, rank, omega in FIXTURE_RECORDS:
            p = fixture_record(family, rank, omega).polytope
            assert surface_measure(p).total == p.dim * p.volume, name
        print("\nACCEPTANCE 6 PASS: surface measure totals and facet masses")


# -- criterion 7: solver against exhaustive vertex enumeration -------------------

class TestCriterion7SolverOracle:
    def test_hundred_random_instances(self):
        start = time.time()
        rng = random.Random(20240809)
        shapes = [(n, m) for n in range(2, 7) for m in range(2, 7)
                  if n ** (m - 1) * m ** (n - 1) <= 60000]
        assert max(max(n, m) for n, m in shapes) == 6
        for trial in range(100):
            n, m = shapes[rng.randrange(len(shapes))]
            a = [Fraction(rng.randint(1, 12)) for _ in range(n)]
            b = [Fraction(rng.randint(1, 12)) for _ in range(m)]
            b = [x * (sum(a) / sum(b)) for x in b]
            total = sum(a)
            dim = rng.choice((2, 3))
            pts_a = _distinct_points(rng, n, dim)
            pts_b = _distinct_points(rng, m, dim)
            mu = cloud(pts_a, [x / total for x in a])
            nu = cloud(pts_b, [x / total for x in b])
            plan, pots = solve_ot(mu, nu)
            cost = [[-Fraction(la.vdot(x, y)) for y in pts_b] for x in pts_a]
            expected = oracle_min_cost([x / total for x in a],
                                       [x / total for x in b], cost)
            assert plan.cost_value == expected, (trial, n, m)
        elapsed = time.time() - start
        print(f"\nACCEPTANCE 7 PASS: 100 random instances match the "
              f"vertex-enumeration oracle ({elapsed:.1f}s)")


def _distinct_points(rng, count, dim):
    out = set()
    while len(out) < count:
        out.add(tuple(rng.randint(-5, 5) for _ in range(dim)))
    return sorted(out)


# -- criterion 8: star containment regression ------------------------------------

class TestCriterion8StarContainment:
    def test_all_fixtures_and_octagon(self):
        records = [fixture_record(f, r, w) for _, f, r, w in FIXTURE_RECORDS]
        b2 = build_root_system("B", 2)
        records.append(weyl_polytope(b2, (2, 3)))   # non-reflexive octagon
        for rec in records:
            verdict = star_containment_check(rec)
            assert verdict.passed
            assert verdict.mode == "certified"
        print(f"\nACCEPTANCE 8 PASS: star containment on "
              f"{len(records)} Weyl fixtures (octagon included)")


# -- criterion 9: automorphism and classification spot checks --------------------

class TestCriterion9SpotChecks:
    def test_orders_and_cube_record(self):
        square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        hexagon = convex_hull([(1, 0), (0, 1), (1, 1),
                               (-1, 0), (0, -1), (-1, -1)])
        cube = convex_hull([(x, y, z) for x in (1, -1) for y in (1, -1)
                            for z in (1, -1)])
        assert len(automorphism_group(square)) == 8
        assert len(automorphism_group(hexagon)) == 12
        assert len(automorphism_group(cube)) == 48

        rec = classify(cube)
        assert rec.aut_order == 48
        assert rec.barycenter_zero is True
        assert rec.reflexive is True
        assert rec.weyl is not None
        assert rec.dual_weyl is not None
        assert rec.vertex_condition is True
        assert rec.vertex_condition_witness is None
        assert rec.delzant is True
        print("\nACCEPTANCE 9 PASS: automorphism orders 8/12/48 and the "
              "cube classification record")


# -- criterion 10: the dimension-3 sweep (data gated) -----------------------------

class TestCriterion10Grdb:
    def test_grdb_sweep(self):
        path = os.environ.get("WEYLOT_GRDB_DIR")
        if not path or not os.path.isdir(path):
            pytest.skip("no 3d reflexive polytope dump provided "
                        "(set WEYLOT_GRDB_DIR)")
        files = sorted(os.listdir(path))
        exceptional = []
        for name in files:
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                p = fileio.parse_polytope(fh.read())
            rec = classify(p)
            if rec.aut_order > 8 and rec.weyl is None and rec.dual_weyl is None:
                exceptional.append((name, rec))
        assert len(exceptional) == 5
        vc = sum(1 for _, rec in exceptional if rec.vertex_condition)
        assert vc == 2
        print(f"\nACCEPTANCE 10 PASS: {len(files)} polytopes swept, "
              "5 exceptional, 2 with the vertex condition")
