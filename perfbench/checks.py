"""Correctness checks on the results of benchmark operations.

Every check returns a list of problems; an empty list means the result is
correct.  The checks read only what the program printed or returned, and
the transport check redoes its verification in its own exact integer
arithmetic rather than trusting any value the program computed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import numpy as np

# Pinned results of the seed code: exact cost and cloud sizes per side.
CERTIFY_EXPECT = {
    "certify-refined": {"cost": "-187/216", "points": 288},
}
# Cost of the refine-1 cube problem by the quotient route
# (`weylot certify` on the cube with --refine 1, the certify-refined run).
OT_EXPECT_COST = Fraction(-187, 216)
DEDUPE_CLASSES = 15

CERTIFY_VERDICTS = ("stability", "chamber_support", "reflection_sign",
                    "cyclical_monotonicity")
_INT64_SAFE = 1 << 62


def check_certify(code, text, expect):
    """A `weylot certify` run: exit 0, pass, zero gap, pinned cost and sizes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("pass") is not True:
        problems.append(f"pass is {doc.get('pass')!r}")
    for name in CERTIFY_VERDICTS:
        if doc.get(name, {}).get("pass") is not True:
            problems.append(f"{name} did not pass")
    if doc.get("duality_gap") != "0/1":
        problems.append(f"duality gap {doc.get('duality_gap')!r}")
    if doc.get("cost") != expect["cost"]:
        problems.append(f"cost {doc.get('cost')!r} != {expect['cost']}")
    for side in ("source_points", "target_points"):
        if doc.get(side) != expect["points"]:
            problems.append(f"{side} {doc.get(side)!r} != {expect['points']}")
    return problems


def _scaled(values):
    """Integers proportional to exact rationals, and the common scale."""
    scale = lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


def check_ot(code, text, mu_rows, nu_rows, expect_cost=OT_EXPECT_COST):
    """A `weylot ot` run, verified from the inputs alone.

    ``mu_rows`` and ``nu_rows`` are the (point, mass) rows of the input
    files in file order.  The plan must be nonnegative with row and column
    sums equal to the masses; the potentials must satisfy
    phi_i + psi_j <= -<m_i, n_j> on every pair; primal and dual values must
    both equal the reported cost, and that cost the pinned optimum.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
        plan = [(int(i), int(j), Fraction(x)) for i, j, x in doc["plan"]]
        phi = [Fraction(x) for x in doc["phi"]]
        psi = [Fraction(x) for x in doc["psi"]]
        cost = Fraction(doc["cost"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    n, m = len(mu_rows), len(nu_rows)
    if len(phi) != n or len(psi) != m:
        return [f"potential lengths {len(phi)}, {len(psi)} != {n}, {m}"]
    problems = []

    rows = [Fraction(0)] * n
    cols = [Fraction(0)] * m
    primal = Fraction(0)
    for i, j, x in plan:
        if not (0 <= i < n and 0 <= j < m):
            return [f"plan entry ({i}, {j}) out of range"]
        if x < 0:
            problems.append(f"negative mass at ({i}, {j})")
        rows[i] += x
        cols[j] += x
        primal += x * -sum(a * b for a, b in zip(mu_rows[i][0], nu_rows[j][0]))
    if any(rows[i] != mu_rows[i][1] for i in range(n)):
        problems.append("row sums differ from the source masses")
    if any(cols[j] != nu_rows[j][1] for j in range(m)):
        problems.append("column sums differ from the target masses")

    dual = (sum((mu_rows[i][1] * phi[i] for i in range(n)), Fraction(0))
            + sum((nu_rows[j][1] * psi[j] for j in range(m)), Fraction(0)))
    if primal != cost:
        problems.append(f"plan cost {primal} != reported {cost}")
    if dual != cost:
        problems.append(f"duality gap {primal - dual}")
    if cost != expect_cost:
        problems.append(f"cost {cost} != pinned {expect_cost}")

    # Dual feasibility on all n*m pairs, in integers: with every coordinate
    # scaled by sm (sources) and sn (targets) and the potentials by sp,
    # phi_i + psi_j <= -<m_i, n_j>  iff  (Phi_i + Psi_j) * sm * sn
    #                                     <= -<M_i, N_j> * sp.
    pm, sm = _scaled([x for p, _ in mu_rows for x in p])
    pn, sn = _scaled([x for p, _ in nu_rows for x in p])
    pots, sp = _scaled(phi + psi)
    d = len(mu_rows[0][0])
    bound = (max(map(abs, pm)) * max(map(abs, pn)) * d * sp
             + 2 * max(map(abs, pots)) * sm * sn)
    dtype = np.int64 if bound < _INT64_SAFE else object
    M = np.array(pm, dtype=dtype).reshape(n, d)
    N = np.array(pn, dtype=dtype).reshape(m, d)
    lhs = (np.array(pots[:n], dtype=dtype)[:, None]
           + np.array(pots[n:], dtype=dtype)[None, :]) * (sm * sn)
    rhs = -(M @ N.T) * sp
    bad = int((lhs > rhs).sum())
    if bad:
        problems.append(f"potentials infeasible on {bad} pairs")
    return problems


def check_classify(record, star, member):
    """A classify-gl operation against its untransformed member's invariants."""
    def label(detection):
        return None if detection is None else detection[0]

    got = {"aut_order": record.aut_order, "reflexive": record.reflexive,
           "weyl": label(record.weyl), "dual_weyl": label(record.dual_weyl),
           "vertex_condition": record.vertex_condition,
           "delzant": record.delzant}
    problems = [f"{key} {value!r} != {member[key]!r}"
                for key, value in got.items() if value != member[key]]
    if not star.passed:
        problems.append(f"star containment failed: {star.witness}")
    return problems


def check_dedupe(class_count, expect=DEDUPE_CLASSES):
    if class_count != expect:
        return [f"{class_count} unimodular classes, expected {expect}"]
    return []
