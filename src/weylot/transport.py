"""Exact discrete optimal transport for the duality-bracket cost.

The cost of moving unit mass from a boundary point m to a dual boundary
point n is ``c(m, n) = -<m, n>``.  Masses, costs, and potentials are exact
rationals; internally the solver rescales everything to integers, so numpy
int64 arrays can do the pricing scans while every pivot stays exact.
Pivoting is deterministic (steepest reduced cost, first index on ties) and
switches to Bland's first-eligible rule during degenerate stalls, which
rules out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import (CombinatorialBudgetExceeded, InternalCheckFailed,
                     NotReflexive, PivotCapExceeded, UnbalancedMasses)
from . import linalg as la
from .measures import (_INT64_GUARD, _int_array, _scaled_points,
                       chamber_incidence, discretize, tight_matrix)

_PIVOT_CAP = 2_000_000


@dataclass(frozen=True)
class TransportPlan:
    triples: tuple              # (source index, target index, mass)
    cost_value: Fraction

    def support(self):
        return tuple((i, j) for i, j, _ in self.triples)


@dataclass(frozen=True)
class KantorovichPotentials:
    phi: tuple
    psi: tuple


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    offending_mass: Fraction
    witnesses: tuple


@dataclass(frozen=True)
class CycleVerdict:
    passed: bool
    max_cycle_length: int
    violations: tuple


def _cost_matrix(mu_points, nu_points):
    """Integer cost matrix K with c = K / scale, via numpy when safe."""
    pm, sm = _scaled_points(mu_points)
    pn, sn = _scaled_points(nu_points)
    bound = (max((max(abs(x) for x in p) for p in pm), default=0)
             * max((max(abs(x) for x in p) for p in pn), default=0)
             * max(len(pm[0]), 1))
    dtype = np.int64 if bound < _INT64_GUARD else object
    k = -(np.array(pm, dtype=dtype) @ np.array(pn, dtype=dtype).T)
    return k, sm * sn


def _scaled_masses(masses_a, masses_b):
    mult = 1
    for x in list(masses_a) + list(masses_b):
        d = Fraction(x).denominator
        mult = mult * d // gcd(mult, d)
    a = [int(x * mult) for x in masses_a]
    b = [int(x * mult) for x in masses_b]
    return a, b, mult


def solve_ot(mu, nu):
    """Exactly optimal transport plan and potentials between two clouds.

    Runs a rational network simplex on the bipartite transportation problem;
    the duality gap of the returned pair is exactly zero.  Raises
    UnbalancedMasses when the totals differ.
    """
    if mu.total_mass() != nu.total_mass():
        raise UnbalancedMasses(
            f"total masses differ: {mu.total_mass()} vs {nu.total_mass()}")
    k, cost_scale = _cost_matrix(mu.points, nu.points)
    a, b, mass_scale = _scaled_masses(mu.masses, nu.masses)
    flows = _network_simplex(a, b, k)
    n, m = len(a), len(b)

    triples = []
    cost = Fraction(0)
    for (i, j), x in sorted(flows.items()):
        if x == 0:
            continue
        mass = Fraction(x, mass_scale)
        triples.append((i, j, mass))
        cost += mass * Fraction(int(k[i, j]), cost_scale)
    u, v = _tree_potentials(flows, k, n, m)
    phi = [Fraction(int(u[i]), cost_scale) for i in range(n)]
    psi = [Fraction(int(v[j]), cost_scale) for j in range(m)]
    anchor = min(range(n), key=lambda i: mu.points[i])
    shift = phi[anchor]
    phi = tuple(la.norm_scalar(x - shift) for x in phi)
    psi = tuple(la.norm_scalar(x + shift) for x in psi)
    plan = TransportPlan(tuple(triples), la.norm_scalar(cost))
    return plan, KantorovichPotentials(phi, psi)


def _northwest_tree(a, b):
    n, m = len(a), len(b)
    arcs = {}
    ra, rb = list(a), list(b)
    i = j = 0
    while True:
        x = min(ra[i], rb[j])
        arcs[(i, j)] = x
        ra[i] -= x
        rb[j] -= x
        if i == n - 1 and j == m - 1:
            break
        if ra[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1
    return arcs


def _tree_potentials(arcs, k, n, m):
    """Node potentials with u_i + v_j = K_ij on every basis arc; u_0 = 0."""
    adj = [[] for _ in range(n + m)]
    for (i, j) in arcs:
        adj[i].append(n + j)
        adj[n + j].append(i)
    u = [None] * n
    v = [None] * m
    u[0] = 0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            if node < n:
                v[nxt - n] = int(k[node, nxt - n]) - u[node]
            else:
                u[nxt] = int(k[nxt, node - n]) - v[node - n]
            stack.append(nxt)
    if any(x is None for x in u) or any(x is None for x in v):
        raise InternalCheckFailed("basis does not span the bipartite graph")
    return u, v


def _network_simplex(a, b, k):
    """Integer transportation simplex; returns the basis flows.

    Entering rule: steepest (most negative) reduced cost with first-index
    tie break, switching to Bland's first-eligible rule during degenerate
    stalls so cycling is impossible.  Both rules are deterministic.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return {}
    arcs = _northwest_tree(a, b)
    adj = {node: set() for node in range(n + m)}
    for (i, j) in arcs:
        adj[i].add(n + j)
        adj[n + j].add(i)

    use_numpy = k.dtype == np.int64
    stall = 0
    for _ in range(_PIVOT_CAP):
        u, v = _tree_potentials(arcs, k, n, m)
        if use_numpy and (max(map(abs, u), default=0) > _INT64_GUARD
                          or max(map(abs, v), default=0) > _INT64_GUARD):
            use_numpy = False
            k = k.astype(object)
        ua = np.array(u, dtype=k.dtype)
        va = np.array(v, dtype=k.dtype)
        reduced = (k - ua[:, None] - va[None, :]).reshape(-1)
        if stall >= 32:
            eligible = reduced < 0
            if not eligible.any():
                break
            flat = int(np.argmax(eligible))
        else:
            flat = int(np.argmin(reduced))
            if reduced[flat] >= 0:
                break
        ei, ej = divmod(flat, m)

        # cycle: entering arc + the tree path from target ej back to source ei
        parent = {ei: None}
        stack = [ei]
        while n + ej not in parent:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        path = [n + ej]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()              # ei ... n+ej alternating source/target
        cycle = [((ei, ej), 1)]     # + gains flow, - loses
        for s in range(len(path) - 1):
            x, y = path[s], path[s + 1]
            arc = (x, y - n) if x < n else (y, x - n)
            sign = -1 if s % 2 == 0 else 1
            cycle.append((arc, sign))

        theta = None
        leaving = None
        for arc, sign in cycle:
            if sign < 0:
                f = arcs[arc]
                if theta is None or f < theta or (f == theta and arc < leaving):
                    theta = f
                    leaving = arc
        stall = stall + 1 if theta == 0 else 0
        for arc, sign in cycle:
            if arc == (ei, ej) and arc not in arcs:
                arcs[arc] = sign * theta
            else:
                arcs[arc] += sign * theta
        del arcs[leaving]
        adj[ei].add(n + ej)
        adj[n + ej].add(ei)
        li, lj = leaving
        adj[li].discard(n + lj)
        adj[n + lj].discard(li)
    else:
        raise PivotCapExceeded("network simplex pivot cap exceeded")
    return arcs


# -- symmetrization -----------------------------------------------------------

def _index_maps(points, matrices):
    """Permutations induced on a point list by integer matrices.

    Works on common-denominator integer coordinates, one numpy matmul per
    matrix; raises if some image is missing (cloud not invariant).
    """
    pts, _ = _scaled_points(points)
    cbound = max((max(abs(x) for x in p) for p in pts), default=0)
    mbound = max((max(abs(x) for x in row) for mat in matrices
                  for row in mat), default=1)
    dim = len(pts[0]) if pts else 1
    dtype = np.int64 if cbound * mbound * dim < _INT64_GUARD else object
    arr = np.array(pts, dtype=dtype)
    lookup = {p: i for i, p in enumerate(map(tuple, pts))}
    out = []
    for mat in matrices:
        imgs = arr @ np.array(mat, dtype=dtype).T
        perm = []
        for row in imgs.tolist():
            q = tuple(row)
            if q not in lookup:
                raise ValueError("cloud is not invariant under the group")
            perm.append(lookup[q])
        out.append(perm)
    return out


def symmetrize_plan(plan, group, mu, nu):
    """Group average of a plan: exactly feasible, invariant, same cost.

    Requires both clouds invariant under the group (the source under the
    matrices, the target under the dual matrices); masses are compared
    exactly, so a non-invariant input raises.
    """
    elements = list(group)
    order = len(elements)
    accum = {}
    src_maps = _index_maps(mu.points, [e.matrix for e in elements])
    tgt_maps = _index_maps(nu.points, [e.dual_matrix for e in elements])
    for src, tgt in zip(src_maps, tgt_maps):
        for i, j, mass in plan.triples:
            key = (src[i], tgt[j])
            accum[key] = accum.get(key, Fraction(0)) + Fraction(mass, order)
        for idx, i2 in enumerate(src):
            if mu.masses[idx] != mu.masses[i2]:
                raise ValueError("source masses are not group invariant")
        for idx, j2 in enumerate(tgt):
            if nu.masses[idx] != nu.masses[j2]:
                raise ValueError("target masses are not group invariant")
    triples = tuple((i, j, la.norm_scalar(mass))
                    for (i, j), mass in sorted(accum.items()) if mass != 0)
    cost = Fraction(0)
    for i, j, mass in triples:
        cost += mass * -Fraction(la.vdot(mu.points[i], nu.points[j]))
    sym = TransportPlan(triples, la.norm_scalar(cost))
    if sym.cost_value != plan.cost_value:
        raise InternalCheckFailed(
            "symmetrization changed the cost (plan not optimal?)")
    return sym


# -- support checks -----------------------------------------------------------

def check_cyclical_monotonicity(plan, mu, nu, max_cycle_length=3, budget=10 ** 6):
    """Exhaustive cycle check over the support, lengths 2..max_cycle_length.

    A violating cycle is a sequence of support pairs whose cyclic
    reassignment lowers the total cost.  Lengths 2 and 3 run as exact
    integer matrix scans; ``budget`` caps the number of cycle combinations
    (pass None to lift the cap).
    """
    if max_cycle_length < 2:
        raise ValueError("cycle length must be at least 2")
    support = plan.support()
    s = len(support)
    if s == 0:
        return CycleVerdict(True, max_cycle_length, ())
    combos = 0
    for length in range(2, max_cycle_length + 1):
        combos += s ** length
    if budget is not None and combos > budget:
        raise CombinatorialBudgetExceeded(
            f"{combos} cycle combinations exceed budget {budget}")

    pm, _ = _scaled_points(mu.points)
    pn, _ = _scaled_points(nu.points)
    bound = (max(max(abs(x) for x in p) for p in pm)
             * max(max(abs(x) for x in p) for p in pn)
             * len(pm[0]) * 4)
    dtype = np.int64 if bound < _INT64_GUARD else object
    src = np.array([pm[i] for i, _ in support], dtype=dtype)
    tgt = np.array([pn[j] for _, j in support], dtype=dtype)
    # cost(p, q) = -<m_p, n_q> in scaled units; g[p, q] = c(p,p) - c(p,q)
    cross = -(src @ tgt.T)
    own = np.diag(cross).copy()
    g = own[:, None] - cross

    violations = []
    two = g + g.T
    if (two > 0).any():
        idx = np.argwhere(two > 0)
        p, q = (int(idx[0][0]), int(idx[0][1]))
        violations.append((support[p], support[q]))
    if max_cycle_length >= 3 and not violations:
        for i in range(s):
            d2 = (g[i][:, None] + g).max(axis=0)
            tot = d2 + g[:, i]
            if (tot > 0).any():
                kk = int(np.argmax(tot))
                jj = int(np.argmax(g[i] + g[:, kk]))
                violations.append((support[i], support[jj], support[kk]))
                break
    if max_cycle_length >= 4 and not violations:
        violations.extend(_long_cycles(g, support, max_cycle_length))
    return CycleVerdict(not violations, max_cycle_length, tuple(violations))


def _long_cycles(g, support, max_len):
    """First positive cycle of length 4..max_len found by DFS, if any."""
    s = len(support)

    def dfs(start, chain, acc):
        last = chain[-1]
        if len(chain) >= 4 and acc + int(g[last, start]) > 0:
            return tuple(support[i] for i in chain)
        if len(chain) == max_len:
            return None
        for nxt in range(s):
            if nxt == start:
                continue
            hit = dfs(start, chain + [nxt], acc + int(g[last, nxt]))
            if hit:
                return hit
        return None

    for start in range(s):
        hit = dfs(start, [start], 0)
        if hit:
            return [hit]
    return []


def check_reflection_sign(plan, system, mu, nu):
    """Per support pair and root: the two bracket signs never oppose.

    Assumes a group-invariant plan (e.g. from :func:`symmetrize_plan`).
    All sign tests run on common-denominator integer coordinates.
    """
    if not plan.triples:
        return CheckVerdict(True, Fraction(0), ())
    pm, _ = _int_array(mu.points)
    pn, _ = _int_array(nu.points)
    roots = np.array(system.roots, dtype=pm.dtype)
    coroots = np.array(system.coroots, dtype=pm.dtype)
    sv = pm @ coroots.T          # <x, alpha^vee> per source point and root
    tv = pn @ roots.T            # <alpha, y> per target point and root
    src = np.array([i for i, _, _ in plan.triples])
    tgt = np.array([j for _, j, _ in plan.triples])
    aa = sv[src]
    bb = tv[tgt]
    bad = ((aa > 0) & (bb < 0)) | ((aa < 0) & (bb > 0))
    badrow = bad.any(axis=1)
    witnesses = []
    offending = Fraction(0)
    for t, flag in enumerate(badrow):
        if flag:
            i, j, mass = plan.triples[t]
            offending += mass
            if len(witnesses) < 8:
                ridx = int(np.argmax(bad[t]))
                witnesses.append(((mu.points[i], nu.points[j]),
                                  system.roots[ridx]))
    return CheckVerdict(not witnesses, la.norm_scalar(offending),
                        tuple(witnesses))


def check_stability_support(plan, delta, mu, nu):
    """Support containment in the union of Star(m) x tau_m over vertices m.

    Exact incidence tests: a source point is in Star(m) iff some facet
    through m is tight at it; a target point is in tau_m iff it is in the
    dual polytope with bracket exactly 1 against m.
    """
    if not delta.is_reflexive:
        raise NotReflexive("stability support needs a reflexive polytope")
    if not plan.triples:
        return CheckVerdict(True, Fraction(0), ())
    pm, ms = _int_array(mu.points)
    pn, ns = _int_array(nu.points)
    verts = np.array(delta.vertices, dtype=pm.dtype)

    # y must lie in the dual polytope: <v, y> <= 1 for every vertex v
    vy = verts @ pn.T
    if (vy > ns).any():
        j = int(np.argwhere((vy > ns).any(axis=0))[0][0])
        raise ValueError(f"target point {nu.points[j]} is outside the dual")

    tight = tight_matrix(pm, ms, delta)                 # sources x facets
    inc = np.zeros((len(delta.facets), len(delta.vertices)), dtype=np.int8)
    for f, members in enumerate(delta.incidence):
        for vi in members:
            inc[f, vi] = 1
    cand = (tight.astype(np.int8) @ inc) > 0            # sources x vertices
    tau = (vy == ns)                                    # vertices x targets
    ok_matrix = (cand.astype(np.int16) @ tau.astype(np.int16)) > 0
    witnesses = []
    offending = Fraction(0)
    for i, j, mass in plan.triples:
        if not ok_matrix[i, j]:
            offending += mass
            if len(witnesses) < 8:
                witnesses.append((mu.points[i], nu.points[j]))
    return CheckVerdict(not witnesses, la.norm_scalar(offending),
                        tuple(witnesses))


def check_chamber_support(plan, rec, group, mu, nu):
    """Theorem-style support check: some chamber works for both sides at once.

    For every support pair there must be a group element w with the source
    in w(C+_M) and the target in w^vee(C+_N); wall points belong to every
    incident chamber.
    """
    if not rec.polytope.is_reflexive:
        raise NotReflexive("chamber support needs a reflexive polytope")
    if not plan.triples:
        return CheckVerdict(True, Fraction(0), ())
    in_m = chamber_incidence(mu.points, rec.system, group, "M")
    in_n = chamber_incidence(nu.points, rec.system, group, "N")
    src = np.array([i for i, _, _ in plan.triples])
    tgt = np.array([j for _, j, _ in plan.triples])
    shared = (in_m[:, src] & in_n[:, tgt]).any(axis=0)
    witnesses = []
    offending = Fraction(0)
    for t, okflag in enumerate(shared):
        if not okflag:
            i, j, mass = plan.triples[t]
            offending += mass
            if len(witnesses) < 8:
                witnesses.append((mu.points[i], nu.points[j]))
    return CheckVerdict(not witnesses, la.norm_scalar(offending),
                        tuple(witnesses))


# -- invariant problems via the quotient reduction -----------------------------

def _orbit_decomposition(points, matrices):
    """Orbit representatives (lex-min) and the rep position of every point."""
    maps = _index_maps(points, matrices)
    rep_of = [None] * len(points)
    reps = []
    for i in range(len(points)):
        if rep_of[i] is not None:
            continue
        orbit = {i}
        queue = [i]
        while queue:
            x = queue.pop()
            for perm in maps:
                j = perm[x]
                if j not in orbit:
                    orbit.add(j)
                    queue.append(j)
        rep = min(orbit)
        reps.append(rep)
        for j in orbit:
            rep_of[j] = rep
    rep_pos = {r: k for k, r in enumerate(reps)}
    return reps, [rep_pos[r] for r in rep_of]


def solve_invariant_ot(mu, nu, group, _system=None):
    """Exactly optimal invariant plan and potentials for invariant clouds.

    The invariant problem collapses to a transport problem between orbit
    masses for the cost ``min over w of c(x, w y)``; an optimal quotient
    plan lifts to a group-averaged plan of the same (optimal) cost, and
    quotient potentials lift to optimal potentials, constant on orbits.
    The lifted potentials are re-verified feasible on every pair and the
    duality gap is checked to be exactly zero.
    """
    if mu.total_mass() != nu.total_mass():
        raise UnbalancedMasses(
            f"total masses differ: {mu.total_mass()} vs {nu.total_mass()}")
    elements = list(group)
    src_reps, src_rep_of = _orbit_decomposition(
        mu.points, [e.matrix for e in elements])
    tgt_reps, tgt_rep_of = _orbit_decomposition(
        nu.points, [e.dual_matrix for e in elements])

    pm, sm = _scaled_points(mu.points)
    pn, sn = _scaled_points(nu.points)
    bound = (max(max(abs(x) for x in p) for p in pm)
             * max(max(abs(x) for x in p) for p in pn)
             * len(pm[0]))
    dtype = np.int64 if bound < _INT64_GUARD else object
    am = np.array([pm[i] for i in src_reps], dtype=dtype)
    an = np.array(pn, dtype=dtype)
    tgt_rep_idx = np.array(tgt_reps)

    # reduced cost over orbit pairs: min over w of -<x_rep, w_dual y_rep>
    best = None
    best_w = None
    for widx, e in enumerate(elements):
        wd = np.array(e.dual_matrix, dtype=dtype)
        imgs = (an[tgt_rep_idx] @ wd.T)
        costs = -(am @ imgs.T)
        if best is None:
            best = costs.copy()
            best_w = np.zeros(costs.shape, dtype=np.int64)
        else:
            better = costs < best
            best[better] = costs[better]
            best_w[better] = widx
    qk = best

    qa = [Fraction(0)] * len(src_reps)
    for i, pos in enumerate(src_rep_of):
        if mu.masses[i] != mu.masses[src_reps[pos]]:
            raise ValueError("source masses are not constant on orbits")
        qa[pos] += Fraction(mu.masses[i])
    qb = [Fraction(0)] * len(tgt_reps)
    for j, pos in enumerate(tgt_rep_of):
        if nu.masses[j] != nu.masses[tgt_reps[pos]]:
            raise ValueError("target masses are not constant on orbits")
        qb[pos] += Fraction(nu.masses[j])
    a_int, b_int, mass_scale = _scaled_masses(qa, qb)
    flows = _network_simplex(a_int, b_int, qk)

    # lift the quotient plan and average it over the group
    order = len(elements)
    src_maps = _index_maps(mu.points, [e.matrix for e in elements])
    tgt_maps = _index_maps(nu.points, [e.dual_matrix for e in elements])
    accum = {}
    qcost = Fraction(0)
    for (qi, qj), x in sorted(flows.items()):
        if x == 0:
            continue
        mass = Fraction(x, mass_scale)
        wstar = int(best_w[qi, qj])
        i0 = src_reps[qi]
        j0 = tgt_maps[wstar][tgt_reps[qj]]
        qcost += mass * Fraction(int(qk[qi, qj]), sm * sn)
        share = mass / order
        for widx in range(order):
            key = (src_maps[widx][i0], tgt_maps[widx][j0])
            accum[key] = accum.get(key, Fraction(0)) + share
    triples = tuple((i, j, la.norm_scalar(m))
                    for (i, j), m in sorted(accum.items()) if m != 0)
    cost = Fraction(0)
    for i, j, mass in triples:
        cost += mass * -Fraction(la.vdot(mu.points[i], nu.points[j]))
    if cost != qcost:
        raise InternalCheckFailed("quotient lift changed the transport cost")
    plan = TransportPlan(triples, la.norm_scalar(cost))

    u, v = _tree_potentials(flows, qk, len(src_reps), len(tgt_reps))
    phi = tuple(la.norm_scalar(Fraction(u[src_rep_of[i]], sm * sn))
                for i in range(len(mu.points)))
    psi = tuple(la.norm_scalar(Fraction(v[tgt_rep_of[j]], sm * sn))
                for j in range(len(nu.points)))
    # exact feasibility of the lifted potentials on every pair
    K = -(np.array(pm, dtype=dtype) @ np.array(pn, dtype=dtype).T)
    phin = np.array([int(Fraction(x) * sm * sn) for x in phi], dtype=dtype)
    psin = np.array([int(Fraction(x) * sm * sn) for x in psi], dtype=dtype)
    if ((phin[:, None] + psin[None, :]) > K).any():
        raise InternalCheckFailed("lifted potentials are not dual feasible")
    dual_value = sum((Fraction(m) * p for m, p in zip(mu.masses, phi)),
                     Fraction(0))
    dual_value += sum((Fraction(m) * p for m, p in zip(nu.masses, psi)),
                      Fraction(0))
    if dual_value != plan.cost_value:
        raise InternalCheckFailed("quotient reduction produced a duality gap")
    anchor = min(range(len(mu.points)), key=lambda i: mu.points[i])
    shift = phi[anchor]
    phi = tuple(la.norm_scalar(x - shift) for x in phi)
    psi = tuple(la.norm_scalar(x + shift) for x in psi)
    return plan, KantorovichPotentials(phi, psi)


# -- the full certification pipeline ------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    stability: CheckVerdict
    chamber_support: CheckVerdict
    reflection_sign: CheckVerdict
    cyclical_monotonicity: CycleVerdict
    duality_gap: Fraction
    cost: Fraction
    refinement: int
    source_size: int
    target_size: int

    @property
    def passed(self):
        return (self.stability.passed and self.chamber_support.passed
                and self.reflection_sign.passed
                and self.cyclical_monotonicity.passed
                and self.duality_gap == 0)


def certify(rec, refinement=0, max_cycle_length=3, cycle_budget=None):
    """Discretize both boundaries, transport, symmetrize, and run all checks.

    The transport problem is solved through the exact quotient reduction
    (the invariant problem collapses to orbit masses), which both returns a
    group-invariant optimal plan directly and keeps the pivoting small; the
    resulting plan is what all four checks run on.
    """
    if not rec.polytope.is_reflexive:
        raise NotReflexive("certification needs a reflexive polytope")
    system = rec.system
    group = system.weyl_group()
    mu = discretize(rec.polytope, refinement, group=group, side="M")
    nu = discretize(rec.polytope.dual(), refinement, group=group, side="N")
    plan, pots = solve_invariant_ot(mu, nu, group)

    dual_value = sum((Fraction(m) * p for m, p in zip(mu.masses, pots.phi)),
                     Fraction(0))
    dual_value += sum((Fraction(m) * p for m, p in zip(nu.masses, pots.psi)),
                      Fraction(0))
    gap = la.norm_scalar(plan.cost_value - dual_value)

    stability = check_stability_support(plan, rec.polytope, mu, nu)
    chamber = check_chamber_support(plan, rec, group, mu, nu)
    refl = check_reflection_sign(plan, system, mu, nu)
    cycles = check_cyclical_monotonicity(plan, mu, nu, max_cycle_length,
                                         cycle_budget)
    return CertificationReport(
        stability=stability,
        chamber_support=chamber,
        reflection_sign=refl,
        cyclical_monotonicity=cycles,
        duality_gap=gap,
        cost=plan.cost_value,
        refinement=refinement,
        source_size=len(mu),
        target_size=len(nu),
    )
