"""The Bellman-Ford cycle check, kept as a test oracle.

``check_cyclical_monotonicity`` in ``weylot.transport`` reads its verdict off
the potentials the solve returned.  This module is the check it replaced: a
longest-path pass over the support pairs that decides c-cyclical
monotonicity of any plan, optimal or not, and returns a positive cycle as
the witness when it fails.  The tests feed it non-optimal plans and use it
to cross-check the potential route on optimal ones.
"""

import numpy as np

from weylot import linalg as la
from weylot.errors import InternalCheckFailed
from weylot.transport import CycleVerdict


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
