import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from weylot.errors import (InternalCheckFailed, NotReflexive,
                           UnbalancedMasses)
from weylot import linalg as la
from weylot import measures, transport
from weylot.measures import WeightedPointCloud, discretize
from weylot.polytope import convex_hull
from weylot.rootsystems import (build_from_label, build_root_system,
                                weight_to_coords)
from weylot.transport import (TransportPlan, _cost_matrix, _network_simplex,
                              _scaled_masses, certify, check_chamber_support,
                              check_cyclical_monotonicity,
                              check_reflection_sign, check_stability_support,
                              solve_ot)
from weylot.weyl import mr_family, weyl_polytope

from invariant_oracle import solve_invariant_ot, symmetrize_plan


def cloud(points, masses, polytope=None, side="M"):
    n = len(points)
    return WeightedPointCloud(tuple(points), tuple(masses), (None,) * n,
                              (None,) * n, polytope, side)


# -- spanning-tree enumeration oracle -----------------------------------------

def spanning_trees(n, m):
    """All spanning trees of the complete bipartite graph K_{n,m}."""
    edges = [(i, j) for i in range(n) for j in range(m)]
    nodes = n + m
    trees = []

    def connected_possible(chosen, rest_start):
        # union-find over chosen plus all remaining edges
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            parent[ra] = rb

        for (i, j) in chosen:
            union(i, n + j)
        for (i, j) in edges[rest_start:]:
            union(i, n + j)
        return len({find(x) for x in range(nodes)}) == 1

    def grow(idx, chosen, parent):
        if len(chosen) == nodes - 1:
            trees.append(tuple(chosen))
            return
        if idx == len(edges):
            return
        if len(chosen) + (len(edges) - idx) < nodes - 1:
            return
        i, j = edges[idx]

        def find(x, par):
            while par[x] != x:
                x = par[x]
            return x

        ra, rb = find(i, parent), find(n + j, parent)
        if ra != rb:
            par2 = list(parent)
            par2[ra] = rb
            grow(idx + 1, chosen + [(i, j)], par2)
        if connected_possible(chosen, idx + 1):
            grow(idx + 1, chosen, parent)

    grow(0, [], list(range(nodes)))
    return trees


def tree_flow(tree, a, b):
    """Exact flows on a spanning tree; None if any flow is negative."""
    n, m = len(a), len(b)
    balance = list(a) + [-x for x in b]
    adj = {}
    for (i, j) in tree:
        adj.setdefault(i, []).append((n + j, (i, j)))
        adj.setdefault(n + j, []).append((i, (i, j)))
    flows = {}
    degree = {node: len(nb) for node, nb in adj.items()}
    leaves = [node for node, dg in degree.items() if dg == 1]
    remaining = set(tree)
    bal = dict(enumerate(balance))
    while remaining:
        leaf = leaves.pop()
        arc = next(e for (nb, e) in adj[leaf] if e in remaining)
        i, j = arc
        other = n + j if leaf == i else i
        flow = bal[leaf] if leaf < n else -bal[leaf]
        flows[arc] = flow
        if flow < 0:
            return None
        bal[other] += bal[leaf]
        bal[leaf] = 0
        remaining.discard(arc)
        degree[other] -= 1
        if degree[other] == 1 and remaining:
            leaves.append(other)
    return flows


def oracle_min_cost(a, b, cost):
    """Minimum cost over all transport-polytope vertices, by enumeration."""
    n, m = len(a), len(b)
    best = None
    count = 0
    for tree in spanning_trees(n, m):
        flows = tree_flow(tree, a, b)
        if flows is None:
            continue
        count += 1
        value = sum(flows[(i, j)] * cost[i][j] for (i, j) in tree)
        if best is None or value < best:
            best = value
    assert count > 0
    return best


class TestSolver:
    def test_segment_matching(self, segment):
        mu = discretize(segment, 0)
        nu = discretize(segment.dual(), 0)
        plan, pots = solve_ot(mu, nu)
        assert plan.triples == ((0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2)))
        assert plan.cost_value == -1

    def test_square_to_diamond_cost(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        assert plan.cost_value == Fraction(-3, 4)
        # every diamond edge centroid receives its two same-quadrant midpoints
        for i, j, mass in plan.triples:
            x, y = mu.points[i], nu.points[j]
            assert all(a * b >= 0 for a, b in zip(x, y))

    def test_unbalanced(self, segment):
        mu = discretize(segment, 0)
        nu = cloud([(1,), (-1,)], [Fraction(1, 3), Fraction(1, 3)])
        with pytest.raises(UnbalancedMasses):
            solve_ot(mu, nu)

    def test_negative_mass(self):
        mu = cloud([(-1,), (1,)], [Fraction(3, 2), Fraction(-1, 2)])
        nu = cloud([(-1,), (1,)], [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError, match="negative"):
            solve_ot(mu, nu)

    def test_marginals_exact(self, hexagon):
        mu = discretize(hexagon, 1)
        nu = discretize(hexagon.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        row = {}
        col = {}
        for i, j, mass in plan.triples:
            row[i] = row.get(i, Fraction(0)) + mass
            col[j] = col.get(j, Fraction(0)) + mass
        for i, mass in enumerate(mu.masses):
            assert row.get(i, Fraction(0)) == mass
        for j, mass in enumerate(nu.masses):
            assert col.get(j, Fraction(0)) == mass

    def test_zero_duality_gap_and_slackness(self, square):
        mu = discretize(square, 1)
        nu = discretize(square.dual(), 1)
        plan, pots = solve_ot(mu, nu)
        dual_value = sum(Fraction(m) * p for m, p in zip(mu.masses, pots.phi))
        dual_value += sum(Fraction(m) * p for m, p in zip(nu.masses, pots.psi))
        assert dual_value == plan.cost_value
        for i, j, _ in plan.triples:
            c = -Fraction(la.vdot(mu.points[i], nu.points[j]))
            assert pots.phi[i] + pots.psi[j] == c

    def test_potentials_feasible_and_anchored(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, pots = solve_ot(mu, nu)
        for i, x in enumerate(mu.points):
            for j, y in enumerate(nu.points):
                assert pots.phi[i] + pots.psi[j] <= -Fraction(la.vdot(x, y))
        anchor = min(range(len(mu.points)), key=lambda i: mu.points[i])
        assert pots.phi[anchor] == 0

    def test_c_transform_consistency(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, pots = solve_ot(mu, nu)
        for j, y in enumerate(nu.points):
            best = min(-Fraction(la.vdot(x, y)) - pots.phi[i]
                       for i, x in enumerate(mu.points))
            assert pots.psi[j] == best

    def test_against_tree_oracle_small(self):
        rng = random.Random(7)
        for _ in range(12):
            n = rng.randint(2, 4)
            m = rng.randint(2, 4)
            a = [Fraction(rng.randint(1, 9)) for _ in range(n)]
            b = [Fraction(rng.randint(1, 9)) for _ in range(m)]
            scale = sum(a) / sum(b)
            b = [x * scale for x in b]
            pts_a = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
            pts_b = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(m)]
            total = sum(a)
            mu = cloud(pts_a, [x / total for x in a])
            nu = cloud(pts_b, [x / total for x in b])
            plan, _ = solve_ot(mu, nu)
            cost = [[-Fraction(la.vdot(x, y)) for y in pts_b] for x in pts_a]
            expected = oracle_min_cost([x / total for x in a],
                                       [x / total for x in b], cost)
            assert plan.cost_value == expected


def integer_instance(rng, n, m, equal):
    """Integer points in Z^3 and integer masses with equal totals.

    ``equal`` gives equal masses and coordinates in {-1, 0, 1}, so costs
    tie often and most pivots are degenerate; otherwise masses are random
    in 0..9, zeros included.
    """
    span = 1 if equal else 9
    pts_a = [tuple(rng.randint(-span, span) for _ in range(3))
             for _ in range(n)]
    pts_b = [tuple(rng.randint(-span, span) for _ in range(3))
             for _ in range(m)]
    if equal:
        return pts_a, pts_b, [m] * n, [n] * m
    a = [rng.randint(0, 9) for _ in range(n - 1)] + [1]
    b = [rng.randint(0, 9) for _ in range(m - 1)] + [1]
    return pts_a, pts_b, [x * sum(b) for x in a], [y * sum(a) for y in b]


def networkx_min_cost(pts_a, pts_b, a, b):
    """Minimum of sum flow * -<x, y> by networkx's exact integer simplex."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for i, x in enumerate(a):
        g.add_node(("s", i), demand=-x)
    for j, y in enumerate(b):
        g.add_node(("t", j), demand=y)
    for i, x in enumerate(pts_a):
        for j, y in enumerate(pts_b):
            g.add_edge(("s", i), ("t", j), weight=-la.vdot(x, y))
    return nx.network_simplex(g)[0]


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed,n,m", [
        (0, 200, 200), (1, 200, 170), (2, 150, 120), (3, 90, 60),
        (4, 40, 40), (5, 25, 35), (6, 9, 13), (7, 3, 5), (8, 1, 4),
        (9, 6, 1),
    ])
    def test_cost_marginals_and_basis(self, seed, n, m):
        rng = random.Random(seed)
        pts_a, pts_b, a, b = integer_instance(rng, n, m, seed % 2 == 0)
        total = sum(a)
        mu = cloud(pts_a, [Fraction(x, total) for x in a])
        nu = cloud(pts_b, [Fraction(y, total) for y in b])
        plan, _ = solve_ot(mu, nu)
        expected = networkx_min_cost(pts_a, pts_b, a, b)
        assert plan.cost_value == Fraction(expected, total)
        row, col = [Fraction(0)] * n, [Fraction(0)] * m
        for i, j, mass in plan.triples:
            row[i] += mass
            col[j] += mass
        assert row == list(mu.masses) and col == list(nu.masses)

        k, _ = _cost_matrix(mu, nu)
        ai, bi, _ = _scaled_masses(mu.masses, nu.masses)
        flows, u, v = _network_simplex(ai, bi, k)
        assert len(flows) == n + m - 1
        assert min(flows.values()) >= 0
        assert all(u[i] + v[j] == k[i, j] for i, j in flows)
        assert (k - np.array(u)[:, None] - np.array(v)[None, :] >= 0).all()

    def test_object_costs_pivot_like_int64(self, monkeypatch):
        rng = random.Random(11)
        pts_a, pts_b, a, b = integer_instance(rng, 40, 50, True)
        mu = cloud(pts_a, [Fraction(x, sum(a)) for x in a])
        nu = cloud(pts_b, [Fraction(y, sum(a)) for y in b])
        k, _ = _cost_matrix(mu, nu)
        assert k.dtype == np.int64
        expected = _network_simplex(a, b, k)
        # the simplex picks its dtype from its bound alone
        monkeypatch.setattr(measures, "_INT64_GUARD", 1)
        assert _network_simplex(a, b, k.astype(object)) == expected


class TestSymmetrize:
    def b2_setup(self, k=0):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        mu = discretize(rec.polytope, k, group=W, side="M", system=b2)
        nu = discretize(rec.polytope.dual(), k, group=W, side="N", system=b2)
        return b2, rec, W, mu, nu

    def test_cost_preserved_and_invariant(self):
        b2, rec, W, mu, nu = self.b2_setup()
        plan, _ = solve_ot(mu, nu)
        sym = symmetrize_plan(plan, W, mu, nu)
        assert sym.cost_value == plan.cost_value
        weighted = {(mu.points[i], nu.points[j]): m
                    for i, j, m in sym.triples}
        for e in W:
            moved = {(tuple(la.mat_vec(e.matrix, x)),
                      tuple(la.mat_vec(e.dual_matrix, y))): m
                     for (x, y), m in weighted.items()}
            assert moved == weighted

    def test_fixed_point(self):
        b2, rec, W, mu, nu = self.b2_setup()
        plan, _ = solve_ot(mu, nu)
        sym = symmetrize_plan(plan, W, mu, nu)
        assert symmetrize_plan(sym, W, mu, nu).triples == sym.triples

    def test_marginals_preserved(self):
        b2, rec, W, mu, nu = self.b2_setup()
        plan, _ = solve_ot(mu, nu)
        sym = symmetrize_plan(plan, W, mu, nu)
        row = {}
        for i, j, m in sym.triples:
            row[i] = row.get(i, Fraction(0)) + m
        for i, mass in enumerate(mu.masses):
            assert row.get(i, Fraction(0)) == mass


class TestQuotientReduction:
    @pytest.mark.parametrize("family,rank,omega,k", [
        ("B", 2, (0, 2), 0), ("B", 2, (0, 2), 1), ("B", 2, (1, 0), 0),
        ("A", 2, (1, 1), 1), ("A", 3, (4, 0, 0), 0), ("B", 3, (0, 0, 2), 0),
    ])
    def test_matches_direct_solver(self, family, rank, omega, k):
        system = build_root_system(family, rank)
        rec = weyl_polytope(system, weight_to_coords(system, omega))
        W = system.weyl_group()
        mu = discretize(rec.polytope, k, group=W, side="M", system=system)
        nu = discretize(rec.polytope.dual(), k, group=W, side="N",
                        system=system)
        direct, _ = solve_ot(mu, nu)
        invariant, pots = solve_invariant_ot(mu, nu, W)
        assert invariant.cost_value == direct.cost_value
        dual_value = sum(Fraction(m) * p for m, p in zip(mu.masses, pots.phi))
        dual_value += sum(Fraction(m) * p for m, p in zip(nu.masses, pots.psi))
        assert dual_value == invariant.cost_value


    def test_direct_matches_quotient_on_refined_cube(self):
        b3 = build_root_system("B", 3)
        rec = weyl_polytope(b3, weight_to_coords(b3, (0, 0, 2)))
        W = b3.weyl_group()
        mu = discretize(rec.polytope, 1, group=W, side="M")
        nu = discretize(rec.polytope.dual(), 1, group=W, side="N")
        assert len(mu) == len(nu) == 288
        direct, _ = solve_ot(mu, nu)
        invariant, _ = solve_invariant_ot(mu, nu, W)
        assert direct.cost_value == invariant.cost_value == Fraction(-187, 216)
        sym = symmetrize_plan(direct, W, mu, nu)
        assert sym.cost_value == Fraction(-187, 216)


class TestCyclicalMonotonicity:
    def test_matched_signs_pass(self, segment):
        mu = discretize(segment, 0)
        nu = discretize(segment.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        assert check_cyclical_monotonicity(plan, mu, nu, 2).passed

    def test_swapped_matching_fails(self, segment):
        mu = discretize(segment, 0)
        nu = discretize(segment.dual(), 0)
        bad = TransportPlan(((0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2))),
                            Fraction(1))
        verdict = check_cyclical_monotonicity(bad, mu, nu, 2)
        assert not verdict.passed
        assert verdict.violations

    def test_square_diamond_k3(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        verdict = check_cyclical_monotonicity(plan, mu, nu, 3)
        assert verdict.passed and verdict.max_cycle_length == 3

    def test_longer_cycles(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        assert check_cyclical_monotonicity(plan, mu, nu, 4).passed

    @staticmethod
    def cycle_gain(cycle, mu, nu):
        """Exact cost drop from moving source p of each pair to the next
        pair's target."""
        def c(i, j):
            return -Fraction(la.vdot(mu.points[i], nu.points[j]))
        nxt = cycle[1:] + cycle[:1]
        return sum((c(i, j) - c(i, j2) for (i, j), (_, j2) in zip(cycle, nxt)),
                   Fraction(0))

    def random_case(self, seed):
        """Seeds 0, 1, 2 mod 3: arbitrary arc weights on at most 6 pairs, an
        optimal plan's support, that support plus one random pair."""
        rng = random.Random(seed)
        if seed % 3 == 0:
            # unit-vector sources: g[p, q] = y_q[p] - y_p[p] is arbitrary
            s = rng.randint(1, 6)
            eye = [tuple(int(i == p) for i in range(s)) for p in range(s)]
            ys = [tuple(rng.randint(-4, 4) + 3 * (i == q) for i in range(s))
                  for q in range(s)]
            plan = TransportPlan(tuple((p, p, Fraction(1, s))
                                       for p in range(s)), Fraction(0))
            return plan, cloud(eye, [Fraction(1, s)] * s), cloud(
                ys, [Fraction(1, s)] * s)
        dim = rng.choice((2, 3))

        def points(n):
            return [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                          for _ in range(dim)) for _ in range(n)]
        n, m = rng.randint(2, 3), rng.randint(2, 3)
        mu = cloud(points(n), [Fraction(1, n)] * n)
        nu = cloud(points(m), [Fraction(1, m)] * m)
        support = list(solve_ot(mu, nu)[0].support())
        rest = sorted({(i, j) for i in range(n) for j in range(m)}
                      - set(support))
        if seed % 3 == 2 and rest:
            support.append(rng.choice(rest))
        support.sort()
        plan = TransportPlan(tuple((i, j, Fraction(1, len(support)))
                                   for i, j in support), Fraction(0))
        return plan, mu, nu

    def test_matches_brute_force_over_simple_cycles(self):
        verdicts = []
        for seed in range(300):
            plan, mu, nu = self.random_case(seed)
            support = list(plan.support())
            positive = any(
                cycle[0] == min(cycle)
                and self.cycle_gain(list(cycle), mu, nu) > 0
                for length in range(2, len(support) + 1)
                for cycle in permutations(support, length))
            verdict = check_cyclical_monotonicity(plan, mu, nu, 2)
            assert verdict.passed == (not positive), seed
            if not verdict.passed:
                (witness,) = verdict.violations
                assert len(witness) >= 2 and set(witness) <= set(support)
                assert self.cycle_gain(list(witness), mu, nu) > 0
            verdicts.append(verdict.passed)
        assert 60 < sum(verdicts) < 240

    @pytest.mark.parametrize("s", [2, 3, 5, 8])
    def test_only_positive_cycle_is_the_longest(self, s):
        # unit-vector sources: g[p, q] = y_q[p], which is 1 on the arcs
        # p -> p + 1 (mod s) and -s elsewhere off the diagonal
        eye = [tuple(int(i == p) for i in range(s)) for p in range(s)]
        ys = [tuple(1 if (i + 1) % s == q else 0 if i == q else -s
                    for i in range(s)) for q in range(s)]
        mu = cloud(eye, [Fraction(1, s)] * s)
        nu = cloud(ys, [Fraction(1, s)] * s)
        plan = TransportPlan(tuple((p, p, Fraction(1, s)) for p in range(s)),
                             Fraction(0))
        (witness,) = check_cyclical_monotonicity(plan, mu, nu, 2).violations
        assert len(witness) == s
        assert self.cycle_gain(list(witness), mu, nu) == s

    def hexagon_case(self):
        hexagon = convex_hull([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1),
                               (1, -1)])
        mu = discretize(hexagon, 0)
        nu = discretize(hexagon.dual(), 0)
        plan = TransportPlan(tuple((i, j, Fraction(1, 4)) for i, j in
                                   ((0, 0), (3, 5), (5, 4), (1, 1))),
                             Fraction(0))
        return plan, mu, nu

    def test_positive_four_cycle_without_shorter_ones(self):
        plan, mu, nu = self.hexagon_case()
        support = plan.support()
        assert all(self.cycle_gain(list(cycle), mu, nu) <= 0
                   for length in (2, 3)
                   for cycle in permutations(support, length))
        verdict = check_cyclical_monotonicity(plan, mu, nu, 3)
        assert not verdict.passed and verdict.max_cycle_length == 3
        (witness,) = verdict.violations
        assert len(witness) == 4 and set(witness) == set(support)
        assert self.cycle_gain(list(witness), mu, nu) > 0

    def test_object_ints_give_the_same_verdict(self, monkeypatch, square):
        cases = [self.hexagon_case(), *map(self.random_case, range(20))]
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        cases.append((solve_ot(mu, nu)[0], mu, nu))
        expected = [check_cyclical_monotonicity(*case, 3) for case in cases]
        monkeypatch.setattr(measures, "_INT64_GUARD", 1)
        for (plan, mu, nu), verdict in zip(cases, expected):
            assert measures._matmul_dtype(mu.scaled[0], nu.scaled[0]) is object
            assert check_cyclical_monotonicity(plan, mu, nu, 3) == verdict


class FakeSystem:
    """Minimal stand-in with roots and coroots in plain e-coordinates."""

    def __init__(self, pairs):
        self.roots = tuple(p[0] for p in pairs)
        self.coroots = tuple(p[1] for p in pairs)


class TestReflectionSign:
    B2E = FakeSystem([
        ((1, -1), (1, -1)), ((-1, 1), (-1, 1)),
        ((1, 1), (1, 1)), ((-1, -1), (-1, -1)),
        ((1, 0), (2, 0)), ((-1, 0), (-2, 0)),
        ((0, 1), (0, 2)), ((0, -1), (0, -2)),
    ])

    def test_wall_point_passes(self):
        mu = cloud([(1, 1)], [Fraction(1)])
        nu = cloud([(Fraction(1, 2), Fraction(1, 2))], [Fraction(1)])
        plan = TransportPlan(((0, 0, Fraction(1)),), Fraction(-1, 2))
        assert check_reflection_sign(plan, self.B2E, mu, nu).passed

    def test_opposing_signs_fail(self):
        mu = cloud([(1, 1)], [Fraction(1)])
        nu = cloud([(0, -1)], [Fraction(1)])
        plan = TransportPlan(((0, 0, Fraction(1)),), Fraction(1))
        verdict = check_reflection_sign(plan, self.B2E, mu, nu)
        assert not verdict.passed
        assert verdict.offending_mass == 1
        assert verdict.witnesses

    def test_a1_matched(self):
        a1 = build_root_system("A", 1)
        mu = cloud([(-1,), (1,)], [Fraction(1, 2)] * 2)
        nu = cloud([(-1,), (1,)], [Fraction(1, 2)] * 2)
        plan = TransportPlan(((0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))),
                             Fraction(-1))
        assert check_reflection_sign(plan, a1, mu, nu).passed


class TestStabilitySupport:
    def test_good_plan_passes(self, square):
        mu = discretize(square, 0)
        nu = discretize(square.dual(), 0)
        plan, _ = solve_ot(mu, nu)
        verdict = check_stability_support(plan, square, mu, nu)
        assert verdict.passed and verdict.offending_mass == 0

    def test_opposite_quadrant_fails(self, square):
        h = Fraction(1, 2)
        mu = cloud([(1, h)], [Fraction(1)])
        nu = cloud([(-h, -h)], [Fraction(1)])
        plan = TransportPlan(((0, 0, Fraction(1)),), Fraction(3, 4))
        verdict = check_stability_support(plan, square, mu, nu)
        assert not verdict.passed
        assert verdict.offending_mass == 1
        assert verdict.witnesses == (((1, h), (-h, -h)),)

    def test_requires_reflexive(self, b2_octagon):
        mu = cloud([(1, 2)], [Fraction(1)])
        nu = cloud([(0, 0)], [Fraction(1)])
        plan = TransportPlan(((0, 0, Fraction(1)),), Fraction(0))
        with pytest.raises(NotReflexive):
            check_stability_support(plan, b2_octagon, mu, nu)


class TestChamberSupport:
    def test_adversarial_fails(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, weight_to_coords(b2, (0, 2)))
        W = b2.weyl_group()
        verts = rec.polytope.vertices
        dual = rec.polytope.dual()
        v = verts[0]
        opposite = tuple(-x for x in v)
        y = next(n for n in dual.vertices if la.vdot(opposite, n) == 1)
        mu = cloud([v], [Fraction(1)])
        nu = cloud([y], [Fraction(1)])
        plan = TransportPlan(((0, 0, Fraction(1)),), Fraction(0))
        verdict = check_chamber_support(plan, rec, W, mu, nu)
        assert not verdict.passed


class TestCertify:
    @pytest.mark.parametrize("family,rank,omega", [
        ("B", 2, (0, 2)),       # square
        ("B", 2, (1, 0)),       # diamond
        ("A", 2, (1, 1)),       # hexagon
        ("A", 2, (3, 0)),       # projective plane simplex
    ])
    def test_small_fixtures_all_pass(self, family, rank, omega):
        system = build_root_system(family, rank)
        rec = weyl_polytope(system, weight_to_coords(system, omega))
        report = certify(rec, 0, 3)
        assert report.passed
        assert report.duality_gap == 0
        assert report.stability.offending_mass == 0
        assert report.chamber_support.offending_mass == 0

    def test_requires_reflexive(self):
        b2 = build_root_system("B", 2)
        rec = weyl_polytope(b2, (2, 3))
        with pytest.raises(NotReflexive):
            certify(rec, 0, 3)


def invariant_route(rec, k):
    """The oracle for ``certify``: the whole group, both invariant clouds,
    the orbit-map quotient solve and all four checks on the lifted plan."""
    system = rec.system
    W = system.weyl_group()
    mu = discretize(rec.polytope, k, group=W, side="M")
    nu = discretize(rec.polytope.dual(), k, group=W, side="N")
    plan, pots = solve_invariant_ot(mu, nu, W)
    dual_value = sum(Fraction(m) * p for m, p in zip(mu.masses, pots.phi))
    dual_value += sum(Fraction(m) * p for m, p in zip(nu.masses, pots.psi))
    checks = (check_stability_support(plan, rec.polytope, mu, nu),
              check_chamber_support(plan, rec, W, mu, nu),
              check_reflection_sign(plan, system, mu, nu))
    return (plan.cost_value, len(mu), len(nu), plan.cost_value - dual_value,
            [(v.passed, v.offending_mass) for v in checks],
            check_cyclical_monotonicity(plan, mu, nu, 3).passed)


def certify_summary(rec, k):
    r = certify(rec, k, 3)
    checks = (r.stability, r.chamber_support, r.reflection_sign)
    return (r.cost, r.source_size, r.target_size, r.duality_gap,
            [(v.passed, v.offending_mass) for v in checks],
            r.cyclical_monotonicity.passed)


class TestQuotientCertify:
    @pytest.mark.parametrize("family,rank,omega", [
        ("B", 2, (0, 2)), ("B", 2, (1, 0)), ("A", 2, (1, 1)),
        ("A", 2, (3, 0)), ("B", 3, (0, 0, 2)), ("B", 3, (1, 0, 0)),
        ("A", 3, (4, 0, 0)), ("A", 3, (0, 2, 0)),
    ])
    def test_matches_the_invariant_route(self, family, rank, omega):
        system = build_root_system(family, rank)
        rec = weyl_polytope(system, weight_to_coords(system, omega))
        for k in (0, 1, 2):
            assert certify_summary(rec, k) == invariant_route(rec, k), k

    @pytest.mark.parametrize("label,omega", [
        ("F4", (0, 0, 0, 1)), ("A1xA2", (2, 1, 1))])
    def test_matches_the_invariant_route_at_rank_4(self, label, omega):
        system = build_from_label(label)
        rec = weyl_polytope(system, weight_to_coords(system, omega))
        assert certify_summary(rec, 0) == invariant_route(rec, 0)

    @pytest.mark.parametrize("row,rank,points,cost", [
        ("Bn-cube", 5, 3840, Fraction(-4, 5)),
        ("Dn-w2", 5, 15360, Fraction(-42281, 48600)),
        ("E6-w2", 6, 311040, Fraction(-146437, 168480)),
    ])
    def test_rank_five_and_six_pins(self, row, rank, points, cost):
        report = certify(mr_family(row, rank), 0, 3)
        assert report.passed and report.duality_gap == 0
        assert report.source_size == report.target_size == points
        assert report.cost == cost

    @pytest.mark.parametrize("shift,message", [
        (1, "not dual feasible"), (-1, "duality gap")])
    def test_a_broken_certificate_raises(self, monkeypatch, shift, message):
        # one source potential off by one cost unit: raised, the tight pair
        # turns infeasible; lowered, the dual value drops below the cost
        real = transport._network_simplex

        def shifted(a, b, k):
            flows, u, v = real(a, b, k)
            return flows, [u[0] + shift] + u[1:], v

        monkeypatch.setattr(transport, "_network_simplex", shifted)
        with pytest.raises(InternalCheckFailed, match=message):
            certify(mr_family("Bn-cube", 3), 1, 3)

    def test_cycle_length_below_two_is_rejected(self):
        with pytest.raises(ValueError):
            certify(mr_family("Bn-cube", 2), 0, 1)

    def test_the_quotient_solve_is_the_direct_solve(self):
        rec = mr_family("Bn-cube", 3)
        mu = measures.dominant_cloud(rec.polytope, 1, rec.system, "M")
        nu = measures.dominant_cloud(rec.polytope.dual(), 1, rec.system, "N")
        assert transport.solve_invariant_ot(mu, nu) == solve_ot(mu, nu)

    def test_the_quotient_solve_rejects_unbalanced_masses(self):
        mu = cloud([(1, 0)], [Fraction(1)])
        nu = cloud([(1, 0)], [Fraction(1, 2)])
        with pytest.raises(UnbalancedMasses):
            transport.solve_invariant_ot(mu, nu)


class TestChecksOnDominantRepresentatives:
    """Stability, chamber support and reflection sign hold on every pair of
    dominant representatives, so no plan ``certify`` solves can fail them:
    the all-pairs plan, with every pair in its support, passes all three."""

    @pytest.mark.parametrize("row,rank,k", [
        ("Bn-cube", 3, 2), ("F4-w4", 4, 1), ("An-roots", 3, 1),
        ("G2-v2", 2, 2)])
    def test_the_all_pairs_plan_passes(self, row, rank, k):
        rec = mr_family(row, rank)
        system = rec.system
        mu = measures.dominant_cloud(rec.polytope, k, system, "M")
        nu = measures.dominant_cloud(rec.polytope.dual(), k, system, "N")
        triples = tuple((i, j, Fraction(a) * b)
                        for i, a in enumerate(mu.masses)
                        for j, b in enumerate(nu.masses))
        cost = sum((-mass * Fraction(la.vdot(mu.points[i], nu.points[j]))
                    for i, j, mass in triples), Fraction(0))
        plan = TransportPlan(triples, cost)
        verdicts = (check_stability_support(plan, rec.polytope, mu, nu),
                    check_chamber_support(plan, rec, system.weyl_group(),
                                          mu, nu),
                    check_reflection_sign(plan, system, mu, nu))
        assert [(v.passed, v.offending_mass) for v in verdicts] == \
            [(True, 0)] * 3
