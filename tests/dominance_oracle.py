"""Dominant representatives by a walk of simple reflections, for the tests.

The tests draw dominant points with it and pick the dominant vertex of the
tuple-at-a-time Weyl detection in ``reflection_oracle``; it reflects with
the system's simple reflection matrices (:func:`simple_matrices`) and
multiplies the group element out with Python matrix products
(:func:`mat_mul`).  Other tests import the exact matrix helpers from here
too: :func:`mat_mul`, :func:`mat_vec`, the Bareiss :func:`det` of one
matrix, the cofactor :func:`adjugate` built on it, the ``Fraction``
Gauss-Jordan :func:`fraction_solve` and the :func:`inverse` built on it.
None of them calls ``linalg.adjugate``, ``linalg.solve`` or
``linalg.batched_det``, so they stay independent oracles of all three.

:func:`polar` is the rational polar dual of any polytope, reflexive or not,
as plain vertex and facet tuples in ``Fraction`` arithmetic: an oracle of
``Polytope.dual`` and of the star check's reading of P* off P.
:func:`dilated_polar` scales it to the least lattice polytope.
"""

from fractions import Fraction
from math import lcm

from weylot import linalg as la
from weylot.polytope import convex_hull


def mat_mul(a, b):
    """Exact product of two matrices of tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(la.vdot(row, col) for col in bt) for row in a)


def mat_vec(m, v) -> tuple:
    """Exact product of a matrix of tuples and a vector."""
    return tuple(la.vdot(row, v) for row in m)


def det(m):
    """Exact determinant of an integer matrix (fraction-free Bareiss).

    Raises ValueError for an entry that is not an int.
    """
    n = len(m)
    a = [list(row) for row in m]
    if not all(isinstance(x, int) for row in a for x in row):
        raise ValueError("determinant needs an integer matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def adjugate(m):
    """Adjugate of an integer matrix, computed from cofactors."""
    n = len(m)
    if n == 1:
        return ((1,),)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            cof[i][j] = (-1) ** (i + j) * det(minor)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def fraction_solve(m, b):
    """Solve the square system m x = b by Gauss-Jordan elimination in
    Fractions; None if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(m, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(la.norm_scalar(a[i][n]) for i in range(n))


def inverse(m):
    """Exact inverse of a square matrix; None if singular."""
    cols = [fraction_solve(m, e) for e in la.identity(len(m))]
    return None if None in cols else la.transpose(cols)


def simple_matrices(system, j):
    """The j-th simple reflection of ``system`` as tuple matrices on M and
    on N, read off its block-diagonal generator."""
    n = system.rank
    block = system.simple_reflections[j].tolist()
    return (tuple(tuple(row[:n]) for row in block[:n]),
            tuple(tuple(row[n:]) for row in block[n:]))


def dominant_representative(system, x, side="M"):
    """The chamber representative of ``x`` and a group element mapping x to
    it, as its (matrix on M, matrix on N) pair of tuple matrices.

    Repeatedly reflects at a violated simple (co)root; terminates because
    each step strictly shortens the inversion set.
    """
    n = system.rank
    cur = tuple(la.norm_scalar(v) for v in x)
    mat = la.identity(n)
    dual = la.identity(n)
    while True:
        pairings = system.simple_pairings(cur, side)
        j = next((k for k, t in enumerate(pairings) if t < 0), None)
        if j is None:
            break
        smat, sdual = simple_matrices(system, j)
        cur = mat_vec(smat if side == "M" else sdual, cur)
        mat = mat_mul(smat, mat)
        dual = mat_mul(sdual, dual)
    return cur, (mat, dual)


def polar_facet(v):
    """The facet <x, n> <= c of the polar dual that vertex v gives: n is
    primitive and v = n / c, so the facet is <v, x> <= 1."""
    ints, mult = la.clear_denominators(v)
    n, g = la.primitivize(ints)
    return n, la.norm_scalar(Fraction(mult, g))


def polar(vertices, facets):
    """The polar dual {y : <v, y> <= 1 for every vertex v} of a polytope
    with facets <x, n> <= c, n primitive: its vertices n / c and its facets
    :func:`polar_facet` of the vertices, each list sorted; entries are ints
    where integral, else Fractions.  Applied twice it gives the input back.
    """
    verts = sorted(tuple(la.norm_scalar(Fraction(x, 1) / c) for x in n)
                   for n, c in facets)
    return tuple(verts), tuple(sorted(map(polar_facet, vertices)))


def dilated_polar(p):
    """The least dilation L P* of the polar dual that is a lattice
    polytope, as a ``Polytope``: L is the lcm of the offsets of ``p``."""
    big = lcm(*(c for _, c in p.facets))
    verts, _ = polar(p.vertices, p.facets)
    return convex_hull([tuple(int(x * big) for x in v) for v in verts])
