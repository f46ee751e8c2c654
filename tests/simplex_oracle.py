"""The transport simplex before its pivots were made cheaper, kept as a test
oracle.

``transport._tree_simplex`` now moves a re-hung subtree's potentials with
one indexed add of a fixed per-node side vector and prices each block with
one temporary.  This module is the pivot loop it replaced, verbatim, with
the zero-mass reduction of ``_network_simplex`` around it.  Both must make
the same pivots, so the tests compare their flows and potentials exactly.
"""

from itertools import count
from math import isqrt

import numpy as np

from weylot import linalg as la
from weylot.errors import InternalCheckFailed, PivotCapExceeded
from weylot.transport import _PIVOT_CAP, _greedy_tree


def _network_simplex(a, b, k):
    """Integer transportation simplex on strongly feasible spanning trees.

    Returns ``(flows, u, v)``: the n+m-1 basis arcs (i, j) with their
    flows, and potentials with u[i] + v[j] == k[i, j] on every basis arc,
    k[i, j] - u[i] - v[j] >= 0 on every arc.

    Entering arc: block search.  Rows of ``k - u - v`` are scanned in
    blocks of about 8 sqrt(nm) arcs from a cursor that carries over between
    pivots, and the most negative arc of the first block holding one
    enters.  Leaving arc: Cunningham's rule on a tree rooted at source 0,
    the last blocking arc met walking the cycle from its join node, which
    keeps every zero-flow arc pointing toward the root.  The start,
    :func:`_greedy_tree`, reads the costs and has that property when every
    mass is positive, so nodes of zero mass (a zero-mass target admits no
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
    x and its parent.  The start must span, meet the marginals and be
    strongly feasible; an arc that still prices out after ``_PIVOT_CAP``
    pivots raises PivotCapExceeded.
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
    block = max(1, 8 * isqrt(n * m) // m)
    row = 0
    for pivots in count():
        # the cursor stays on multiples of block, so these blocks cover
        # every row once
        for _ in range(-(-n // block)):
            lo, hi = row, min(row + block, n)
            row = hi % n
            red = k[lo:hi] - u[lo:hi, None] - v
            flat = int(red.argmin())
            if red.flat[flat] < 0:
                break
        else:
            break                       # no arc prices out: optimal
        if pivots == _PIVOT_CAP:
            raise PivotCapExceeded("network simplex pivot cap exceeded")
        delta = red.flat[flat]
        ei, ej = lo + flat // m, n + flat % m

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
        # Flow falls on the arcs below the sources of the ei side and below
        # the targets of the ej side: the even positions of both paths.
        # The last blocking arc from the join on is the first minimum above
        # ei, or the last one above ej, which wins ties.
        drop_i = [flow[x] for x in up_i[::2]]
        drop_j = [flow[y] for y in up_j[::2]]
        if drop_j and (not drop_i or min(drop_j) <= min(drop_i)):
            theta = min(drop_j)
            t = 2 * (len(drop_j) - 1 - drop_j[::-1].index(theta))
            path, enter, outer = up_j[:t + 1], ej, ei
        else:
            theta = min(drop_i)
            path, enter, outer = up_i[:2 * drop_i.index(theta) + 1], ei, ej
        if theta:
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
        sub = [enter]
        for x in sub:
            for y in children[x]:
                depth[y] = depth[x] + 1
                sub.append(y)
        sub = np.array(sub)
        same = (sub < n) == (enter < n)
        pot[sub[same]] += delta
        pot[sub[~same]] -= delta
    flows = {(min(x, p), max(x, p) - n): flow[x]
             for x, p in enumerate(parent) if p >= 0}
    return flows, u.tolist(), v.tolist()
