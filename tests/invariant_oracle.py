"""The whole-group invariant transport route, kept as a test oracle.

``certify`` solves a plain transport problem between dominant
representatives.  This module is the route it replaced: index maps of a
materialized group on invariant clouds, an orbit decomposition, the quotient
cost as a minimum over the group, and a group-averaged lift.  The tests use
it to cross-check ``certify`` and the direct solver.
"""

from fractions import Fraction

import numpy as np

from weylot import linalg as la
from weylot.errors import InternalCheckFailed, UnbalancedMasses
from weylot.transport import (KantorovichPotentials, TransportPlan,
                              _cost_matrix, _dual_value, _network_simplex,
                              _scaled_masses)


def _index_maps(cloud, matrices):
    """Permutations induced on a cloud's point list by integer matrices.

    Works on common-denominator integer coordinates, one numpy matmul per
    matrix; raises if some image is missing (cloud not invariant).
    """
    arr, _ = cloud.scaled
    mats = np.array(matrices)
    dtype = la.matmul_dtype(arr, mats)
    arr, mats = arr.astype(dtype), mats.astype(dtype)
    lookup = {p: i for i, p in enumerate(map(tuple, arr.tolist()))}
    out = []
    for mat in mats:
        perm = []
        for row in (arr @ mat.T).tolist():
            q = tuple(row)
            if q not in lookup:
                raise ValueError("cloud is not invariant under the group")
            perm.append(lookup[q])
        out.append(perm)
    return out


def _group_average(pairs, src_maps, tgt_maps, mu, nu):
    """The plan averaging (i, j, mass) triples over the group's index maps."""
    order = len(src_maps)
    accum = {}
    for src, tgt in zip(src_maps, tgt_maps):
        for i, j, mass in pairs:
            key = (src[i], tgt[j])
            accum[key] = accum.get(key, Fraction(0)) + Fraction(mass, order)
    triples = tuple((i, j, la.norm_scalar(mass))
                    for (i, j), mass in sorted(accum.items()) if mass != 0)
    cost = Fraction(0)
    for i, j, mass in triples:
        cost += mass * -Fraction(la.vdot(mu.points[i], nu.points[j]))
    return TransportPlan(triples, la.norm_scalar(cost))


def symmetrize_plan(plan, group, mu, nu):
    """Group average of a plan: exactly feasible, invariant, same cost.

    Requires both clouds invariant under the group (the source under the
    matrices, the target under the dual matrices); masses are compared
    exactly, so a non-invariant input raises.
    """
    src_maps = _index_maps(mu, group.matrices.tolist())
    tgt_maps = _index_maps(nu, group.dual_matrices.tolist())
    for src, tgt in zip(src_maps, tgt_maps):
        for idx, i2 in enumerate(src):
            if mu.masses[idx] != mu.masses[i2]:
                raise ValueError("source masses are not group invariant")
        for idx, j2 in enumerate(tgt):
            if nu.masses[idx] != nu.masses[j2]:
                raise ValueError("target masses are not group invariant")
    sym = _group_average(plan.triples, src_maps, tgt_maps, mu, nu)
    if sym.cost_value != plan.cost_value:
        raise InternalCheckFailed(
            "symmetrization changed the cost (plan not optimal?)")
    return sym


def _orbit_decomposition(maps):
    """Orbit representatives (lex-min) and the rep position of every point."""
    rep_of = [None] * len(maps[0])
    reps = []
    for i in range(len(rep_of)):
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


def solve_invariant_ot(mu, nu, group):
    """Exactly optimal invariant plan and potentials for invariant clouds.

    The invariant problem collapses to a transport problem between orbit
    masses for the cost ``min over w of c(x, w y)``; an optimal quotient
    plan lifts to a group-averaged plan of the same (optimal) cost, and
    quotient potentials lift to optimal potentials, constant on orbits.
    The lifted potentials are re-verified feasible on every pair and the
    duality gap is checked to be exactly zero.
    """
    if sum(mu.masses) != sum(nu.masses):
        raise UnbalancedMasses(
            f"total masses differ: {sum(mu.masses)} vs {sum(nu.masses)}")
    src_maps = _index_maps(mu, group.matrices.tolist())
    tgt_maps = _index_maps(nu, group.dual_matrices.tolist())
    src_reps, src_rep_of = _orbit_decomposition(src_maps)
    tgt_reps, tgt_rep_of = _orbit_decomposition(tgt_maps)
    k, scale = _cost_matrix(mu, nu)

    # reduced cost over orbit pairs: min over w of c(x_rep, w y_rep), the
    # first minimizing w kept for the lift
    images = np.array(tgt_maps)[:, tgt_reps]          # w x target orbits
    costs = k[np.array(src_reps)[:, None, None], images[None]]
    best_w = costs.argmin(axis=1)
    qk = costs.min(axis=1)

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
    flows, u, v = _network_simplex(a_int, b_int, qk)

    # lift the quotient plan and average it over the group
    lifted = []
    qcost = Fraction(0)
    for (qi, qj), x in sorted(flows.items()):
        if x == 0:
            continue
        mass = Fraction(x, mass_scale)
        lifted.append((src_reps[qi], int(images[best_w[qi, qj], qj]), mass))
        qcost += mass * Fraction(int(qk[qi, qj]), scale)
    plan = _group_average(lifted, src_maps, tgt_maps, mu, nu)
    if plan.cost_value != qcost:
        raise InternalCheckFailed("quotient lift changed the transport cost")

    # exact feasibility of the lifted potentials on every pair
    dtype = la.bounded_dtype(2 * max(map(abs, u + v)))
    phin = np.array(u, dtype=dtype)[src_rep_of]
    psin = np.array(v, dtype=dtype)[tgt_rep_of]
    if ((phin[:, None] + psin[None, :]) > k).any():
        raise InternalCheckFailed("lifted potentials are not dual feasible")
    phi = [Fraction(u[p], scale) for p in src_rep_of]
    psi = [Fraction(v[p], scale) for p in tgt_rep_of]
    if _dual_value(mu, nu, phi, psi) != plan.cost_value:
        raise InternalCheckFailed("quotient reduction produced a duality gap")
    return plan, _anchored(mu, phi, psi)


def _anchored(mu, phi, psi):
    """Potentials shifted so that phi is 0 at the lex-least source point."""
    shift = phi[min(range(len(mu.points)), key=lambda i: mu.points[i])]
    return KantorovichPotentials(tuple(la.norm_scalar(x - shift) for x in phi),
                                 tuple(la.norm_scalar(x + shift) for x in psi))
