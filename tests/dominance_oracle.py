"""Dominant representatives by a walk of simple reflections, for the tests.

The tests draw dominant points with it and pick the dominant vertex of the
tuple-at-a-time Weyl detection in ``reflection_oracle``; it reflects with
the system's simple reflection matrices (:func:`simple_matrices`) and
multiplies the group element out with Python matrix products
(:func:`mat_mul`).  Other tests import :func:`mat_mul` and the exact
:func:`inverse` from here too.
"""

from weylot import linalg as la


def mat_mul(a, b):
    """Exact product of two matrices of tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(la.vdot(row, col) for col in bt) for row in a)


def inverse(m):
    """Exact inverse of a square matrix; None if singular."""
    cols = [la.solve(m, e) for e in la.identity(len(m))]
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
        cur = la.mat_vec(smat if side == "M" else sdual, cur)
        mat = mat_mul(smat, mat)
        dual = mat_mul(sdual, dual)
    return cur, (mat, dual)
