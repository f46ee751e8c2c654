"""Structural property tests: randomized inputs against independent oracles."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylot import linalg as la
from weylot.errors import OriginNotInterior, NotFullDimensional
from weylot.polytope import convex_hull
from weylot.rootsystems import build_root_system, weight_to_coords
from weylot.transport import certify, solve_invariant_ot, solve_ot
from weylot.measures import discretize
from weylot.weyl import weyl_polytope

from test_rootsystems import CLOSURE_LABELS, closure_system


def hull2d_oracle(points):
    """Monotone-chain hull; counterclockwise vertex cycle."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def edges_oracle(hull):
    out = set()
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        d = (b[0] - a[0], b[1] - a[1])
        n = (d[1], -d[0])
        g = gcd(abs(n[0]), abs(n[1]))
        n = (n[0] // g, n[1] // g)
        c = a[0] * n[0] + a[1] * n[1]
        out.add((n, c))
    return out


@st.composite
def point_sets_2d(draw):
    count = draw(st.integers(4, 10))
    pts = draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=count, max_size=count))
    return pts


class TestHullAgainst2dOracle:
    @given(point_sets_2d())
    @settings(max_examples=150, deadline=None)
    def test_vertices_and_facets_match(self, pts):
        oracle = hull2d_oracle(pts)
        if len(oracle) < 3:
            return
        # oracle-side check that 0 is strictly inside
        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        inside = all(cross(oracle[i], oracle[(i + 1) % len(oracle)], (0, 0)) > 0
                     for i in range(len(oracle)))
        if not inside:
            with pytest.raises((OriginNotInterior, NotFullDimensional)):
                convex_hull(pts)
            return
        p = convex_hull(pts)
        assert set(p.vertices) == set(oracle)
        assert set(p.facets) == edges_oracle(oracle)
        for q in pts:
            assert p.contains(q)

    def test_determinism_under_input_order(self):
        rng = random.Random(3)
        pts = [(2, 1), (-1, 1), (-1, -2), (0, 1), (1, 1), (0, -1), (1, 0)]
        reference = convex_hull(pts)
        for _ in range(10):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            p = convex_hull(shuffled)
            assert p.vertices == reference.vertices
            assert p.facets == reference.facets


class TestEulerAndDuality3d:
    def random_polytope(self, rng):
        while True:
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                   for _ in range(rng.randint(6, 12))}
            pts |= {(1, 1, 1), (-1, -1, -1)}
            try:
                return convex_hull(sorted(pts))
            except (OriginNotInterior, NotFullDimensional):
                continue

    def test_euler_characteristic_and_facet_validity(self):
        rng = random.Random(11)
        for _ in range(25):
            p = self.random_polytope(rng)
            dims = [f.dimension for f in p.faces]
            v, e, f = dims.count(0), dims.count(1), dims.count(2)
            assert v - e + f == 2
            for n, c in p.facets:
                assert c > 0
                members = [vv for vv in p.vertices if la.vdot(vv, n) == c]
                assert la.rank([list(x) for x in members]) == 3
                assert all(la.vdot(vv, n) <= c for vv in p.vertices)

    def test_dual_involution_random(self):
        rng = random.Random(23)
        for _ in range(15):
            p = self.random_polytope(rng)
            assert p.dual().dual() == p

    def test_barycentric_cone_volume_matches_facet_measure(self):
        rng = random.Random(5)
        for _ in range(10):
            p = self.random_polytope(rng)
            if not p.is_lattice:
                continue
            total = sum(Fraction(c) * p.face_lattice_volume(face)
                        for (n, c), face in zip(p.facets, p.facet_faces()))
            assert total == p.dim * p.volume


class TestWeylGroupWords:
    def test_words_reproduce_matrices(self):
        for system in map(closure_system, CLOSURE_LABELS):
            n = system.rank
            gens = [system._simple_matrices(j) for j in range(n)]
            for e in system.weyl_group():
                mat = la.identity(n)
                dual = la.identity(n)
                for j in e.word:
                    mat = la.mat_mul(gens[j][0], mat)
                    dual = la.mat_mul(gens[j][1], dual)
                assert mat == e.matrix
                assert dual == e.dual_matrix

    def test_dual_matrix_is_inverse_transpose(self):
        g2 = build_root_system("G", 2)
        for e in g2.weyl_group():
            inv = la.inverse(e.matrix)
            inv = tuple(tuple(la.norm_scalar(x) for x in row) for row in inv)
            assert la.transpose(inv) == e.dual_matrix


class TestWeightLatticeCertification:
    def test_a2_weight_lattice_triangle_certifies(self):
        a2w = build_root_system("A", 2, "weight")
        rec = weyl_polytope(a2w, (1, 0))
        report = certify(rec, 1, 3)
        assert report.passed
        assert report.duality_gap == 0

    def test_quotient_matches_direct_on_weight_lattice(self):
        a2w = build_root_system("A", 2, "weight")
        rec = weyl_polytope(a2w, (1, 0))
        W = a2w.weyl_group()
        mu = discretize(rec.polytope, 0, group=W, side="M", system=a2w)
        nu = discretize(rec.polytope.dual(), 0, group=W, side="N", system=a2w)
        direct, _ = solve_ot(mu, nu)
        invariant, _ = solve_invariant_ot(mu, nu, W)
        assert direct.cost_value == invariant.cost_value


class TestMoreQuotientCrossChecks:
    @pytest.mark.parametrize("family,rank,omega,k", [
        ("A", 3, (0, 2, 0), 1),   # the six-vertex threefold polytope
        ("B", 2, (1, 0), 1),      # diamond
        ("G", 2, (1, 0), 1),      # hexagon over the G2 lattice
    ])
    def test_invariant_cost_equals_direct(self, family, rank, omega, k):
        system = build_root_system(family, rank)
        rec = weyl_polytope(system, weight_to_coords(system, omega))
        W = system.weyl_group()
        mu = discretize(rec.polytope, k, group=W, side="M", system=system)
        nu = discretize(rec.polytope.dual(), k, group=W, side="N",
                        system=system)
        direct, _ = solve_ot(mu, nu)
        invariant, _ = solve_invariant_ot(mu, nu, W)
        assert direct.cost_value == invariant.cost_value
