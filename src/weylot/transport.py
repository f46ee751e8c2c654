"""Exact discrete optimal transport for the duality-bracket cost.

The cost of moving unit mass from a boundary point m to a dual boundary
point n is ``c(m, n) = -<m, n>``.  Masses, costs, and potentials are exact
rationals; internally the solver rescales everything to integers.  The
network simplex keeps a strongly feasible spanning tree (Cunningham 1976),
which rules out cycling without any stall rule, from a greedy start on
reduced costs with the rows in decreasing regret (Vogel's order), made
strongly feasible by a perturbation of the masses; a pivot re-hangs
and re-prices only the subtree it cuts off, in one indexed add, and
entering arcs come from a block search over rows of the reduced-cost
matrix in numpy.  It runs in int64 when a proven bound on every potential
and reduced cost fits, on exact Python ints otherwise, and every pivot is
deterministic.  The plan's cost is one sum of integers made a ``Fraction``
once, and the dual value is compared with it in integers.

Cyclical monotonicity of a plan's support is decided exactly at every cycle
length by one longest-path pass over the support pairs: a pass leaves a
potential that bounds every cycle sum by 0, a failure a positive cycle.

``certify`` works on one closed Weyl chamber: for dominant x in M and y in
N, max over w of <x, w y> is <x, y> (Humphreys, *Reflection Groups and
Coxeter Groups*, 1.12), so the invariant problem is a plain transport
problem between dominant representatives.  ``solve_invariant_ot`` solves it
with the same core as ``solve_ot``, and both check the certificate exactly:
the potentials are feasible on every pair and leave no duality gap, which
on the representatives proves the lifted plan optimal at every cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import isqrt

import numpy as np

from .errors import (InternalCheckFailed, NotReflexive, PivotCapExceeded,
                     UnbalancedMasses)
from . import linalg as la
from .measures import chamber_incidence, dominant_cloud
from .polytope import tight_matrix

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


def _cost_matrix(mu, nu):
    """Integer cost matrix K with c = K / scale, via numpy when safe.
    Raises ValueError when the two clouds live in different dimensions."""
    (pm, sm), (pn, sn) = mu.scaled, nu.scaled
    if pm.shape[1] != pn.shape[1]:
        raise ValueError(f"point dimensions differ: {pm.shape[1]} "
                         f"vs {pn.shape[1]}")
    return -la.exact_matmul(pm, pn.T), sm * sn


def _scaled_masses(masses_a, masses_b):
    """Integer masses a, b over one common denominator, and that
    denominator.  Raises UnbalancedMasses when the totals differ, then
    ValueError when a mass is negative or the total is 0."""
    ints, mult = la.clear_denominators(tuple(masses_a) + tuple(masses_b))
    a, b = list(ints[:len(masses_a)]), list(ints[len(masses_a):])
    if sum(a) != sum(b):
        raise UnbalancedMasses(
            f"total masses differ: {Fraction(sum(a), mult)} "
            f"vs {Fraction(sum(b), mult)}")
    if min(ints, default=0) < 0:
        raise ValueError("masses must not be negative")
    if not sum(a):
        raise ValueError("total mass must be positive")
    return a, b, mult


def _solve(mu, nu):
    """The core of both solvers: the optimal plan and its potentials, the
    certificate checked in integer cost units (a, b the scaled masses, x
    the flows): u_i + v_j <= k_ij on every pair, and a zero duality gap
    sum x k - sum a u - sum b v.  Either failure raises InternalCheckFailed."""
    a, b, mass_scale = _scaled_masses(mu.masses, nu.masses)
    k, cost_scale = _cost_matrix(mu, nu)
    flows, u, v = _network_simplex(a, b, k)

    arcs = sorted((ij, x) for ij, x in flows.items() if x)
    triples = tuple((i, j, Fraction(x, mass_scale)) for (i, j), x in arcs)
    cost = sum(x * int(k[i, j]) for (i, j), x in arcs)
    plan = TransportPlan(triples, la.norm_scalar(
        Fraction(cost, mass_scale * cost_scale)))
    dtype = la.bounded_dtype(2 * max(map(abs, u + v)))
    phin, psin = np.array(u, dtype=dtype), np.array(v, dtype=dtype)
    if (phin[:, None] + psin > k).any():
        raise InternalCheckFailed("transport potentials are not dual feasible")
    if (cost - sum(x * y for x, y in zip(a, u))
            - sum(x * y for x, y in zip(b, v))):
        raise InternalCheckFailed("transport solve left a duality gap")
    return plan, _potentials(mu, u, v, cost_scale)


def solve_ot(mu, nu):
    """Exactly optimal transport plan and potentials between two clouds.

    Runs a rational network simplex on the bipartite transportation problem
    and checks its certificate exactly (:func:`_solve`).  Raises
    UnbalancedMasses when the totals differ.
    """
    return _solve(mu, nu)


def solve_invariant_ot(mu, nu):
    """Exactly optimal plan between dominant representatives, certified.

    Precondition: both clouds hold dominant representatives, one per Weyl
    orbit with its orbit mass.  For such x and y, max over w of <x, w y>
    is <x, y>, so ``-<x, y>`` is already the quotient cost and the
    invariant problem is the plain transport problem between the clouds.
    The plan and its certificate, checked exactly on every pair of
    representatives, come from the core of :func:`solve_ot`.
    """
    return _solve(mu, nu)


def _potentials(mu, u, v, scale):
    """Integer potentials u, v over ``scale`` as Kantorovich potentials,
    shifted so that phi is 0 at the lex-least source point."""
    shift = u[min(range(len(mu.points)), key=lambda i: mu.points[i])]
    return KantorovichPotentials(
        tuple(la.norm_scalar(Fraction(x - shift, scale)) for x in u),
        tuple(la.norm_scalar(Fraction(y + shift, scale)) for y in v))


def _dual_value(mu, nu, phi, psi):
    """The dual objective: sum of mu * phi plus sum of nu * psi."""
    pairs = list(zip(mu.masses, phi)) + list(zip(nu.masses, psi))
    return sum((Fraction(m) * p for m, p in pairs), Fraction(0))


def _greedy_tree(a, b, k):
    """The start of :func:`_tree_simplex` as arcs (i, j) to flows: the
    sources in decreasing regret fill their cheapest targets with mass left.

    Both read the reduced costs red = k - u - v, u the row minima of k and
    v the column minima of k - u, so 0 <= red <= 2 max|k|.  A source's
    regret is its second-smallest red less its smallest (0 with one
    target), partitioned one row block at a time, so no second n x m array
    is held; a stable sort breaks ties by index (Vogel's order,
    Reinfeld and Vogel 1958): the rows that lose most by missing their
    cheapest target pick first.  The order sets the pivot count of the
    solve; it does not enter the proof below.

    The greedy runs on masses perturbed with L = 2(n+m): L a_0 - (n+m-1) at
    source 0, L a_i + 1 at the other sources, L b_j - 1 at the targets.  On
    a tree rooted at source 0 the arc above a subtree of s < L/2 nodes then
    carries L f + s if its child is a source, L f - s if a target, f its
    flow for a, b.  That is never 0, and it depends on the tree alone, not
    on the order the arcs were placed in.  So each step, in any order of
    the rows, empties one row or column (the last both), which leaves
    n+m-1 arcs; f is the rounded quotient by L, and a zero-flow arc has a
    source child: the tree is strongly feasible for a, b (Orden's
    perturbation).
    """
    red = k - k.min(axis=1)[:, None]
    red -= red.min(axis=0)
    regret = np.zeros(len(a), dtype=red.dtype)
    if len(b) > 1:
        step = _block_rows(len(a), len(b))
        for lo in range(0, len(a), step):
            least = np.partition(red[lo:lo + step], 1, axis=1)
            regret[lo:lo + step] = least[:, 1] - least[:, 0]
    return _greedy_fill(a, b, red, np.argsort(-regret, kind="stable"))


def _block_rows(n, m):
    """Rows per block of an n x m scan: about 8 sqrt(nm) entries."""
    return max(1, 8 * isqrt(n * m) // m)


def _greedy_fill(a, b, red, order):
    """The perturbed greedy of :func:`_greedy_tree`, the sources taken in
    ``order``, each filling its cheapest live targets under ``red``."""
    big = 2 * (len(a) + len(b))
    rb = [big * y - 1 for y in b]
    live, top = np.ones(len(b), dtype=bool), red.max() + 1
    arcs = {}
    for i in order.tolist():
        left = big * a[i] + 1 - (0 if i else big // 2)
        row = np.where(live, red[i], top)
        while left and live.any():
            j = int(row.argmin())
            x = min(left, rb[j])
            arcs[(i, j)] = (x + big // 2) // big
            left -= x
            rb[j] -= x
            live[j], row[j] = rb[j] > 0, top
    return arcs


def _network_simplex(a, b, k):
    """Integer transportation simplex on strongly feasible spanning trees.

    Returns ``(flows, u, v)``: the n+m-1 basis arcs (i, j) with their
    flows, and integer potentials with u[i] + v[j] == k[i, j] on every
    basis arc, k[i, j] - u[i] - v[j] >= 0 on every arc.

    Entering arc: block search.  Rows of ``k - u - v`` are scanned in
    blocks of about 8 sqrt(nm) arcs from a cursor that carries over between
    pivots, and the most negative arc of the first block holding one
    enters.  Leaving arc: Cunningham's rule on a tree rooted at source 0,
    the last blocking arc met walking the cycle from its join node, which
    keeps every zero-flow arc pointing toward the root.  Degenerate rule:
    a pivot moves no flow iff a zero-flow arc hangs below a source on the
    entering source's side of the cycle, and the first one above that
    source leaves.  Proof: in a strongly feasible tree, arcs with a target
    child carry positive flow, and flow falls only on the arcs below the
    sources of that side and below the targets of the other.  The start,
    :func:`_greedy_tree`, fills the rows in decreasing regret of their
    reduced costs; that order sets the pivot count but does not enter the
    proof that the start is strongly feasible.  It is when every mass is
    positive, so nodes of zero mass (a zero-mass target admits no
    such tree) sit out the pivoting and join the basis afterwards through a
    zero-flow arc on which their c-transform potential is tight.

    dtype: every potential is a signed sum of at most n+m-1 costs, so every
    reduced cost is below 2(n+m)max|k| in magnitude; int64 holds them when
    that bound is below the guard, object ints otherwise.
    """
    n, m = len(a), len(b)
    rows = [i for i in range(n) if a[i]] or [0]
    cols = [j for j in range(m) if b[j]] or [0]
    if len(rows) == n and len(cols) == m:
        return _tree_simplex(a, b, k)
    sub, us, vs = _network_simplex([a[i] for i in rows], [b[j] for j in cols],
                                   k[np.ix_(rows, cols)])
    flows = {(rows[i], cols[j]): x for (i, j), x in sub.items()}
    u, v = dict(zip(rows, us)), dict(zip(cols, vs))
    for i in sorted(set(range(n)) - set(rows)):
        j = min(cols, key=lambda j: int(k[i, j]) - v[j])
        u[i], flows[(i, j)] = int(k[i, j]) - v[j], 0
    for j in sorted(set(range(m)) - set(cols)):
        i = min(range(n), key=lambda i: int(k[i, j]) - u[i])
        v[j], flows[(i, j)] = int(k[i, j]) - u[i], 0
    return flows, [u[i] for i in range(n)], [v[j] for j in range(m)]


def _tree_simplex(a, b, k):
    """:func:`_network_simplex` for positive masses.

    Source i is node i and target j is node n + j.  The tree is kept as
    parent, depth and children per node, with flow[x] on the arc between
    x and its parent, and the potentials as one array over the nodes.  A
    block is priced with one temporary, ``k[lo:hi] - u[lo:hi, None]`` less
    v in place.  A pivot with reduced cost delta moves the potentials of
    the subtree it re-hangs by +delta on the side of the entering arc's
    end in it and -delta on the other: one indexed add of a fixed side
    vector (+1 at sources, -1 at targets) times +-delta.  A degenerate
    pivot builds no cycle: one walk up the entering source's sources finds
    the leaving arc (the degenerate rule of :func:`_network_simplex`; arcs
    with a target child carry positive flow in a strongly feasible tree),
    climbing the entering target only to the depth it reached, and stops
    at the join when there is none.  The start must span, meet the
    marginals and be strongly feasible, and a re-hung subtree must not
    outgrow the tree (InternalCheckFailed); an arc that still prices out
    after ``_PIVOT_CAP`` pivots raises PivotCapExceeded.
    """
    n, m = len(a), len(b)
    nodes = n + m
    kmax = int(np.abs(k).max(initial=0))
    dtype = la.bounded_dtype(2 * nodes * kmax)
    k = k.astype(dtype, copy=False)
    adj = [[] for _ in range(nodes)]
    for (i, j), x in _greedy_tree(a, b, k).items():
        adj[i].append((n + j, x))
        adj[n + j].append((i, x))
    parent, depth, flow = [-1] * nodes, [0] * nodes, [0] * nodes
    children = [set() for _ in range(nodes)]
    pot = np.zeros(nodes, dtype=dtype)
    order = [0]
    for x in order:
        for y, f in adj[x]:
            if y != 0 and parent[y] < 0:
                parent[y], depth[y], flow[y] = x, depth[x] + 1, f
                children[x].add(y)
                pot[y] = k[min(x, y), max(x, y) - n] - pot[x]
                order.append(y)
    if len(order) < nodes:
        raise InternalCheckFailed("basis does not span the bipartite graph")
    out, into = [0] * n, [0] * m
    for x in order[1:]:
        out[min(x, parent[x])] += flow[x]
        into[max(x, parent[x]) - n] += flow[x]
    if out != list(a) or into != list(b):
        raise InternalCheckFailed("start flows miss the marginals")
    if any(flow[x] < 0 or (flow[x] == 0 and x >= n) for x in order[1:]):
        raise InternalCheckFailed("start basis is not strongly feasible")

    u, v = pot[:n], pot[n:]
    side = np.array([1] * n + [-1] * m, dtype=dtype)
    block = _block_rows(n, m)
    row = 0
    for pivots in count():
        # the cursor stays on multiples of block, so these blocks cover
        # every row once
        for _ in range(-(-n // block)):
            lo, hi = row, min(row + block, n)
            row = hi % n
            red = k[lo:hi] - u[lo:hi, None]
            red -= v
            r, c = divmod(int(red.argmin()), m)
            delta = red[r, c]
            if delta < 0:
                break
        else:
            break                       # no arc prices out: optimal
        if pivots == _PIVOT_CAP:
            raise PivotCapExceeded("network simplex pivot cap exceeded")
        ei, ej = lo + r, n + c

        # theta = 0 iff a zero-flow arc hangs below a source of the ei side
        # (arcs with a target child carry flow), and Cunningham's rule then
        # drops the first one above ei.  The walk up ei's sources stops at
        # it or at the join; ej climbs only to the depth reached, and x is
        # below the join while that climb does not land on it.
        path, x, y = [ei], ei, ej
        while True:
            while depth[y] > depth[x]:
                y = parent[y]
            if x == y or not flow[x]:
                break
            p = parent[x]
            x = parent[p]
            path += (p, x)
        if x != y:
            theta, enter, outer = 0, ei, ej
        else:
            # the cycle: arc ei -> ej, then the tree paths ej -> join -> ei
            up_i, up_j = [], []
            x, y = ei, ej
            while depth[x] > depth[y]:
                up_i.append(x)
                x = parent[x]
            while depth[y] > depth[x]:
                up_j.append(y)
                y = parent[y]
            while x != y:
                up_i.append(x)
                up_j.append(y)
                x, y = parent[x], parent[y]
            # Flow falls on the arcs below the sources of the ei side and
            # below the targets of the ej side: the even positions of both
            # paths.  The last blocking arc from the join on is the first
            # minimum above ei, or the last one above ej, which wins ties.
            drop_i = [flow[x] for x in up_i[::2]]
            drop_j = [flow[y] for y in up_j[::2]]
            if drop_j and (not drop_i or min(drop_j) <= min(drop_i)):
                theta = min(drop_j)
                t = 2 * (len(drop_j) - 1 - drop_j[::-1].index(theta))
                path, enter, outer = up_j[:t + 1], ej, ei
            else:
                theta = min(drop_i)
                path = up_i[:2 * drop_i.index(theta) + 1]
                enter, outer = ei, ej
            # theta >= 1: the walk found no zero-flow arc on the cycle
            for x in up_i[::2] + up_j[::2]:
                flow[x] -= theta
            for x in up_i[1::2] + up_j[1::2]:
                flow[x] += theta

        # re-hang the cut-off subtree below the entering arc
        children[parent[path[-1]]].discard(path[-1])
        new_parent, new_flow = outer, theta
        for x in path:
            children[new_parent].add(x)
            children[x].discard(new_parent)
            parent[x], new_parent = new_parent, x
            flow[x], new_flow = new_flow, flow[x]
        depth[enter] = depth[outer] + 1
        sub = _subtree(children, depth, enter, nodes)
        sub = np.fromiter(sub, dtype=np.intp, count=len(sub))
        pot[sub] += side[sub] * (delta if enter < n else -delta)
    flows = {(min(x, p), max(x, p) - n): flow[x]
             for x, p in enumerate(parent) if p >= 0}
    return flows, u.tolist(), v.tolist()


def _subtree(children, depth, top, nodes):
    """The nodes below ``top``, ``top`` first, each given the depth one
    below its parent's.  A tree of ``nodes`` nodes has no larger subtree,
    so the walk stops there: more means a pivot re-hung a path off its
    cycle and closed a loop, which raises InternalCheckFailed."""
    sub = [top]
    for x in islice(sub, nodes):
        for y in children[x]:
            depth[y] = depth[x] + 1
            sub.append(y)
    if len(sub) > nodes:
        raise InternalCheckFailed("a pivot closed a loop in the basis tree")
    return sub


# -- support checks -----------------------------------------------------------

def check_cyclical_monotonicity(plan, mu, nu, max_cycle_length=3):
    """Exact c-cyclical monotonicity of the support, at every cycle length.

    A violating cycle is a sequence of support pairs whose cyclic
    reassignment lowers the total cost.  With arc weights
    ``g[p, q] = c(p, p) - c(p, q)`` over the support pairs, a violation is
    a positive cycle, found or ruled out by one synchronous Bellman-Ford
    longest-path pass from ``d = 0``.  If the pass settles within s rounds
    (s support pairs), ``psi = -d`` satisfies ``g[p, q] <= psi_p - psi_q``
    on every arc, so every cycle sum telescopes to at most 0: a proof for
    all lengths at once.  Otherwise the predecessors (updated only on a
    strict gain) close a cycle.  After every round the predecessors are
    walked from the nodes that changed, O(s) in all, and the first round
    that closes a cycle ends the pass; the cycle's exactly positive sum is
    checked and it is returned as the single violation.

    ``max_cycle_length`` is validated (at least 2) and echoed in the
    verdict; it does not limit the proof.
    """
    if max_cycle_length < 2:
        raise ValueError("cycle length must be at least 2")
    support = plan.support()
    s = len(support)
    if s == 0:
        return CycleVerdict(True, max_cycle_length, ())

    (pm, _), (pn, _) = mu.scaled, nu.scaled
    # |g| <= 2 max|cross| and 0 <= d <= s max|g| over s rounds, so every
    # value below is at most 2(s+1) max|cross| in magnitude
    dtype = la.matmul_dtype(pm, pn, 2 * (s + 1))
    src = pm[[i for i, _ in support]].astype(dtype)
    tgt = pn[[j for _, j in support]].astype(dtype)
    # cost(p, q) = -<m_p, n_q> in scaled units; g[p, q] = c(p,p) - c(p,q)
    cross = -(src @ tgt.T)
    own = np.diag(cross).copy()
    g = own[:, None] - cross

    d = np.zeros(s, dtype=dtype)
    pred = np.zeros(s, dtype=np.int64)
    for _ in range(s):
        cand = d[:, None] + g
        best = cand.max(axis=0)
        changed = best > d
        if not changed.any():
            return CycleVerdict(True, max_cycle_length, ())
        pred[changed] = cand.argmax(axis=0)[changed]
        d = np.where(changed, best, d)
        cycle = _predecessor_cycle(pred, d, np.flatnonzero(changed))
        if cycle:
            break
    else:
        raise InternalCheckFailed("Bellman-Ford ran s rounds without a cycle")

    cycle.reverse()                     # pred[q] = p is the arc p -> q
    total = sum(int(g[p, q]) for p, q in zip(cycle, cycle[1:] + cycle[:1]))
    if total <= 0:
        raise InternalCheckFailed("predecessor cycle is not positive")
    return CycleVerdict(False, max_cycle_length,
                        (tuple(support[p] for p in cycle),))


def _predecessor_cycle(pred, d, starts):
    """A cycle of the predecessor graph reached from ``starts``, or None.

    A node has a predecessor iff it ever gained, that is iff d > 0.  Walks
    share their marks, so the search visits each node once.  A node that
    gains in round r > 1 gains from one that gained in round r - 1, so
    after round s each node within s - 1 steps of a round-s gain has a
    predecessor, and the walk from it must close a cycle.  Any predecessor
    cycle is positive: take the last round r that set one of its arcs.
    Each arc p -> q satisfies d[q] <= d[p] + g[p, q] at the end of round
    r - 1, strictly for the arcs set in round r, so summing over the cycle
    leaves 0 < sum g.  Returns the nodes in walk order, x, pred[x], ...
    """
    pred, has_pred = pred.tolist(), (d > 0).tolist()
    mark = {}
    for walk, x in enumerate(starts.tolist()):
        path = []
        while x not in mark and has_pred[x]:
            mark[x] = walk
            path.append(x)
            x = pred[x]
        if mark.get(x) == walk:
            return path[path.index(x):]
    return None


def _verdict(plan, mu, nu, failures, labels=None):
    """A check's verdict from a failure mask over the plan's triples.

    ``failures(src, tgt)`` takes the source and target index of every
    triple and returns one flag per triple, or with ``labels`` one flag per
    triple and label, the first failing label joining the witness.  The
    offending mass is that of the failing triples, the first eight of which
    are the witnesses.  An empty plan passes without calling ``failures``.
    """
    witnesses = []
    offending = Fraction(0)
    if plan.triples:
        src, tgt, _ = zip(*plan.triples)
        bad = failures(np.array(src), np.array(tgt))
        rows = bad if labels is None else bad.any(axis=1)
        for t in np.flatnonzero(rows).tolist():
            i, j, mass = plan.triples[t]
            offending += mass
            if len(witnesses) < 8:
                pair = (mu.points[i], nu.points[j])
                witnesses.append(pair if labels is None else
                                 (pair, labels[int(np.argmax(bad[t]))]))
    return CheckVerdict(not witnesses, la.norm_scalar(offending),
                        tuple(witnesses))


def check_reflection_sign(plan, system, mu, nu):
    """Per support pair and root: the two bracket signs never oppose.

    Tests the given plan's pairs (x, y) against every root: <x, alpha^vee>
    and <alpha, y> must not have strictly opposite signs.  The offending
    set is W-invariant, since w maps the brackets of (x, y) with alpha to
    those of (w x, w y) with w alpha; so on ``certify``'s quotient plan over
    dominant representatives it gives the offending mass of the lifted
    invariant plan.  Between two dominant points both brackets have the
    sign of alpha, so on that plan the check cannot fail.  All sign tests
    run on common-denominator integer coordinates.
    """
    def opposed(src, tgt):
        (pm, _), (pn, _) = mu.scaled, nu.scaled
        # <x, alpha^vee> per source point and root, <alpha, y> per target
        aa = la.exact_matmul(pm, la.transpose(system.coroots))[src]
        bb = la.exact_matmul(pn, la.transpose(system.roots))[tgt]
        return ((aa > 0) & (bb < 0)) | ((aa < 0) & (bb > 0))
    return _verdict(plan, mu, nu, opposed, system.roots)


def check_stability_support(plan, delta, mu, nu):
    """Support containment in the union of Star(m) x tau_m over vertices m.

    Exact incidence tests: a source point is in Star(m) iff some facet
    through m is tight at it; a target point is in tau_m iff it is in the
    dual polytope with bracket exactly 1 against m.
    """
    if not delta.is_reflexive:
        raise NotReflexive("stability support needs a reflexive polytope")

    def outside(src, tgt):
        (pm, ms), (pn, ns) = mu.scaled, nu.scaled
        # y must lie in the dual polytope: <v, y> <= 1 for every vertex v
        vy = la.exact_matmul(delta.vertices, pn.T)
        if (vy > ns).any():
            j = int(np.argwhere((vy > ns).any(axis=0))[0][0])
            raise ValueError(
                f"target point {nu.points[j]} is outside the dual")
        tight = tight_matrix(pm, ms, delta.facets)      # sources x facets
        # bool matmuls: "any" over facets and vertices, which cannot wrap
        cand = tight @ delta.tight.T                    # sources x vertices
        tau = (vy == ns)                                # vertices x targets
        return ~(cand @ tau)[src, tgt]
    return _verdict(plan, mu, nu, outside)


def check_chamber_support(plan, rec, group, mu, nu):
    """Theorem-style support check: some chamber works for both sides at once.

    For every support pair there must be a group element w with the source
    in w(C+_M) and the target in w^vee(C+_N); wall points belong to every
    incident chamber.

    This is the test of :func:`check_reflection_sign`: such a w exists iff
    no root alpha gives <x, alpha^vee> and <alpha, y> strictly opposite
    signs, so both checks give the same offending mass and witness pairs.
    If w exists, beta = w^-1 alpha pairs the dominant w^-1 x and w^-vee y
    to brackets of the sign of beta.  Conversely, identify N_R with M_R by
    a W-invariant inner product ( , ), y to y', so that <alpha, y> has the
    sign of (alpha, y') and C+_N goes to C+_M.  For g on no wall and small
    e > 0, (z, alpha) at z = x + e (y' - x) + e^2 g has the sign of
    (x, alpha), else of (y', alpha), else of (g, alpha), the first nonzero:
    z is in one open chamber w C+, whose closure holds x, and y' as no
    (x, alpha) and (y', alpha) have strictly opposite signs.
    """
    if not rec.polytope.is_reflexive:
        raise NotReflexive("chamber support needs a reflexive polytope")

    def no_shared_chamber(src, tgt):
        in_m = chamber_incidence(mu.scaled[0], rec.system, group, "M")
        in_n = chamber_incidence(nu.scaled[0], rec.system, group, "N")
        return ~(in_m[:, src] & in_n[:, tgt]).any(axis=0)
    return _verdict(plan, mu, nu, no_shared_chamber)


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


def certify(rec, refinement=0, max_cycle_length=3):
    """Certify the invariant optimal plan between the two boundary measures.

    Runs on one closed Weyl chamber and never builds a full cloud.
    ``dominant_cloud`` gives one representative per orbit on each side,
    with the orbit masses.  For x dominant in M and y dominant in N,
    max over w of <x, w y> is <x, y>: y - w y is a nonnegative sum of
    simple coroots (Humphreys, *Reflection Groups and Coxeter Groups*,
    1.12; Bourbaki, *Lie*, VI 1.6), and x pairs nonnegatively with each.
    So the quotient cost of an orbit pair is -<x, y>: the quotient problem
    is the transport problem between the representative clouds, which
    ``solve_invariant_ot`` solves.  Its plan lifts to the invariant plan
    moving mass/|W| from w x to w y for every w, with the same cost.

    The potential certificate: the quotient potentials u, v lift to
    potentials constant on orbits, feasible on every pair of the full
    problem iff ``u_X + v_Y <= -<x, y>`` on every pair of representatives
    (by the lemma), and tight on the lifted support iff tight on the
    quotient support.  ``solve_invariant_ot`` checks feasibility on every
    pair and a zero duality gap exactly, which with positive masses is
    tightness on the support; a failure raises InternalCheckFailed.  So the
    lifted plan is optimal and c-cyclically monotone at every length.

    All four checks run on the quotient plan over the representatives:
    stability, reflection sign, cyclical monotonicity (the longest-path
    pass, which the potentials already decide), and chamber support over
    the materialized W.  Each offending set is W-invariant, so the
    offending masses are those of the lifted plan; witnesses are dominant
    representatives.  The sizes are |W| times the representative counts.
    ``max_cycle_length`` is validated (at least 2) and echoed.
    """
    if not rec.polytope.is_reflexive:
        raise NotReflexive("certification needs a reflexive polytope")
    if max_cycle_length < 2:
        raise ValueError("cycle length must be at least 2")
    system = rec.system
    group = system.weyl_group()
    mu = dominant_cloud(rec.polytope, refinement, system, "M")
    nu = dominant_cloud(rec.polytope.dual(), refinement, system, "N")
    plan, pots = solve_invariant_ot(mu, nu)
    gap = la.norm_scalar(plan.cost_value - _dual_value(mu, nu, pots.phi,
                                                       pots.psi))
    return CertificationReport(
        stability=check_stability_support(plan, rec.polytope, mu, nu),
        chamber_support=check_chamber_support(plan, rec, group, mu, nu),
        reflection_sign=check_reflection_sign(plan, system, mu, nu),
        cyclical_monotonicity=check_cyclical_monotonicity(
            plan, mu, nu, max_cycle_length),
        duality_gap=gap,
        cost=plan.cost_value,
        refinement=refinement,
        source_size=system.order * len(mu),
        target_size=system.order * len(nu),
    )
