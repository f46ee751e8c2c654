"""Structural property tests: randomized inputs against independent oracles."""

import os
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylot import linalg as la
from weylot.errors import NotFullDimensional, NotReflexive, OriginNotInterior
from weylot.polytope import convex_hull, tight_matrix
from weylot.rootsystems import (build_from_label, build_root_system,
                                weight_to_coords)
from weylot.transport import (TransportPlan, certify, check_reflection_sign,
                              check_stability_support, solve_ot)
from weylot.measures import WeightedPointCloud, chamber_incidence, discretize
from weylot.weyl import weyl_polytope

from invariant_oracle import solve_invariant_ot
from dominance_oracle import dominant_representative, inverse, mat_vec
from test_measures import incident_chambers_oracle
from test_fixture_files import HERE, load
from test_rootsystems import CLOSURE_LABELS, closure_system
from test_symmetry import random_unimodular


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


def all_faces(p):
    """Every proper face of ``p``, sorted by (dimension, vertex indices):
    the facets and, recursively, their ``face_children``."""
    found, stack = {}, list(p.facet_faces())
    while stack:
        face = stack.pop()
        if face.vertex_indices not in found:
            found[face.vertex_indices] = face
            stack.extend(p.face_children(face))
    return sorted(found.values(),
                  key=lambda f: (f.dimension, f.vertex_indices))


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
            assert all(la.vdot(q, n) <= c for n, c in p.facets)

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


def random_polytope(rng):
    """A random lattice 3-polytope with 0 in its interior."""
    while True:
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(6, 12))}
        pts |= {(1, 1, 1), (-1, -1, -1)}
        try:
            return convex_hull(sorted(pts))
        except (OriginNotInterior, NotFullDimensional):
            continue


@st.composite
def lattice_point_sets(draw):
    """2 to 20 points in dimension 2 to 4, entries in [-6, 6], with the
    cross-polytope's vertices mostly added so that 0 is often interior."""
    d = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d),
                        min_size=2, max_size=20))
    if draw(st.booleans()):
        pts += [tuple(s * (i == j) for j in range(d))
                for i in range(d) for s in (1, -1)]
    return pts


class TestIntegralHull:
    @given(lattice_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_vertices_normals_and_offsets_are_integers(self, pts):
        try:
            p = convex_hull(pts)
        except (OriginNotInterior, NotFullDimensional):
            return
        assert all(type(x) is int for v in p.vertices for x in v)
        for n, c in p.facets:
            assert all(type(x) is int for x in n) and type(c) is int
            assert la.primitivize(n) == (n, 1) and c > 0
            assert max(la.vdot(v, n) for v in p.vertices) == c


class TestEulerAndDuality3d:
    def test_euler_characteristic_and_facet_validity(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_polytope(rng)
            dims = [f.dimension for f in all_faces(p)]
            v, e, f = dims.count(0), dims.count(1), dims.count(2)
            assert v - e + f == 2
            for n, c in p.facets:
                assert c > 0
                members = [vv for vv in p.vertices if la.vdot(vv, n) == c]
                assert la.rank([list(x) for x in members]) == 3
                assert all(la.vdot(vv, n) <= c for vv in p.vertices)

    def test_dual_involution_random(self):
        # random hulls have a dual iff reflexive; random unimodular images
        # of the reflexive 3-polytopes among the fixtures always have one
        rng = random.Random(23)
        polys = [random_polytope(rng) for _ in range(15)]
        for p in polys:
            if not p.is_reflexive:
                with pytest.raises(NotReflexive):
                    p.dual()
        reflexive = [load(name[:-5]) for name in sorted(os.listdir(HERE))]
        reflexive = [p for p in reflexive if p.dim == 3 and p.is_reflexive]
        assert len(reflexive) == 5
        for p in reflexive:
            for _ in range(3):
                u = random_unimodular(rng, 3)
                polys.append(convex_hull([mat_vec(u, v) for v in p.vertices]))
        for p in polys:
            if p.is_reflexive:
                assert p.dual().dual() == p

    def test_barycentric_cone_volume_matches_facet_measure(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_polytope(rng)
            total = sum(Fraction(c) * p.face_lattice_volume(face)
                        for (n, c), face in zip(p.facets, p.facet_faces()))
            assert total == p.dim * p.volume


class TestWeylGroupWords:
    def test_dual_matrix_is_inverse_transpose(self):
        g2 = build_root_system("G", 2)
        W = g2.weyl_group()
        for w, w_dual in zip(W.matrices.tolist(), W.dual_matrices.tolist()):
            inv = inverse(w)
            inv = [[la.norm_scalar(x) for x in row] for row in inv]
            assert la.transpose(inv) == tuple(map(tuple, w_dual))


LEMMA_LABELS = ("A2", "B2", "G2", "B3", "A1xA2")
_GROUPS = {}


def lemma_system(label):
    if label not in _GROUPS:
        system = build_from_label(label)
        _GROUPS[label] = (system, system.weyl_group())
    return _GROUPS[label]


@st.composite
def dominant_pairs(draw):
    """A system, a dominant x in M and a dominant y in N (integer points)."""
    system, group = lemma_system(draw(st.sampled_from(LEMMA_LABELS)))
    coords = st.lists(st.integers(-6, 6), min_size=system.rank,
                      max_size=system.rank)
    x, _ = dominant_representative(system, draw(coords), "M")
    y, _ = dominant_representative(system, draw(coords), "N")
    return system, group, x, y


class TestDominantPairingLemma:
    @given(dominant_pairs())
    @settings(max_examples=200, deadline=None)
    def test_max_over_w_is_the_dominant_pairing(self, case):
        # max_w <x, w y> = <x, y> for x, y dominant (Humphreys 1.12): the
        # quotient cost of certify is one matmul
        system, group, x, y = case
        assert system.is_dominant(x, "M") and system.is_dominant(y, "N")
        best = max(la.vdot(x, mat_vec(w_dual, y))
                   for w_dual in group.dual_matrices.tolist())
        assert best == la.vdot(x, y)


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
        mu = discretize(rec.polytope, 0, side="M")
        nu = discretize(rec.polytope.dual(), 0, side="N")
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
        mu = discretize(rec.polytope, k, side="M")
        nu = discretize(rec.polytope.dual(), k, side="N")
        direct, _ = solve_ot(mu, nu)
        invariant, _ = solve_invariant_ot(mu, nu, W)
        assert direct.cost_value == invariant.cost_value


B2 = build_root_system("B", 2)
B2_SQUARE = weyl_polytope(B2, weight_to_coords(B2, (0, 2))).polytope


@st.composite
def rational_points(draw, polytope, off_boundary):
    """Up to 4 points over one denominator just below 2^30, 2^45 or 2^61,
    with coordinates up to 3 in size, so the scaled ones reach 2^62: points
    on the polygon's edges and, if ``off_boundary``, anywhere in the box
    [-3, 3]^2."""
    den = (1 << draw(st.sampled_from((30, 45, 61)))) - draw(
        st.integers(1, 1 << 20))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        if off_boundary and draw(st.booleans()):
            # an integer part keeps the scaled coordinate large even when
            # the drawn numerator is small
            points.append(tuple(
                Fraction(den * draw(st.integers(-2, 2))
                         + draw(st.integers(-den, den)), den)
                for _ in range(2)))
            continue
        f = draw(st.integers(0, len(polytope.facets) - 1))
        v0, v1 = (polytope.vertices[i] for i in sorted(polytope.incidence[f]))
        t = Fraction(draw(st.integers(0, den)), den)
        points.append(tuple(a + t * (b - a) for a, b in zip(v0, v1)))
    return [tuple(map(la.norm_scalar, p)) for p in points]


def sign(x):
    return (x > 0) - (x < 0)


class TestIntegerBounds:
    """Scaled coordinates up to 2^62 against exact Fraction oracles."""

    @settings(max_examples=60, deadline=None)
    @given(rational_points(B2_SQUARE, True),
           rational_points(B2_SQUARE.dual(), False))
    def test_incidences_and_verdicts(self, xs, ys):
        delta = B2_SQUARE
        W = B2.weyl_group()
        mu = WeightedPointCloud(tuple(xs), (Fraction(1, len(xs)),) * len(xs),
                                "M")
        nu = WeightedPointCloud(tuple(ys), (Fraction(1, len(ys)),) * len(ys),
                                "N")
        assert tight_matrix(*mu.scaled, delta.facets).tolist() == [
            [la.vdot(x, n) == c for n, c in delta.facets] for x in xs]
        for side, pts in (("M", xs), ("N", ys)):
            inc = chamber_incidence(la.int_array(pts)[0], B2, W, side)
            assert [[int(w) for w in np.flatnonzero(col)] for col in inc.T] \
                == [incident_chambers_oracle(B2, W, x, side) for x in pts]

        plan = TransportPlan(tuple((i, j, mu.masses[i] * nu.masses[j])
                                   for i in range(len(xs))
                                   for j in range(len(ys))), Fraction(0))

        def in_star_and_tau(x, y):
            return any(la.vdot(m, y) == 1 and any(
                vi in delta.incidence[f] and la.vdot(x, n) == c
                for f, (n, c) in enumerate(delta.facets))
                for vi, m in enumerate(delta.vertices))

        def opposed_root(x, y):
            return next((a for a, av in zip(B2.roots, B2.coroots)
                         if sign(la.vdot(x, av)) * sign(la.vdot(a, y)) < 0),
                        None)

        def assert_verdict(verdict, bad):       # bad: (mass, witness) pairs
            assert verdict.passed == (not bad)
            assert verdict.offending_mass == sum(mass for mass, _ in bad)
            assert verdict.witnesses == tuple(w for _, w in bad[:8])

        pairs = [(xs[i], ys[j], mass) for i, j, mass in plan.triples]
        assert_verdict(check_stability_support(plan, delta, mu, nu),
                       [(mass, (x, y)) for x, y, mass in pairs
                        if not in_star_and_tau(x, y)])
        assert_verdict(check_reflection_sign(plan, B2, mu, nu),
                       [(mass, ((x, y), opposed_root(x, y)))
                        for x, y, mass in pairs if opposed_root(x, y)])
