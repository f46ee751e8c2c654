"""Dominant representatives by a walk of simple reflections, for the tests.

The tests draw dominant points with it and pick the dominant vertex of the
tuple-at-a-time Weyl detection in ``reflection_oracle``; the group element
it returns is multiplied out with Python matrix products (:func:`mat_mul`,
which other tests import too).
"""

from weylot import linalg as la
from weylot.rootsystems import GroupElement


def mat_mul(a, b):
    """Exact product of two matrices of tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(la.vdot(row, col) for col in bt) for row in a)


def dominant_representative(system, x, side="M"):
    """The chamber representative of ``x`` and a group element mapping x to it.

    Repeatedly reflects at a violated simple (co)root; terminates because
    each step strictly shortens the inversion set.
    """
    n = system.rank
    cur = tuple(la.norm_scalar(v) for v in x)
    mat = la.identity(n)
    dual = la.identity(n)
    word = []
    while True:
        pairings = system.simple_pairings(cur, side)
        j = next((k for k, t in enumerate(pairings) if t < 0), None)
        if j is None:
            break
        idx = system.simple_indices[j]
        cur = system.reflect(idx, cur, side)
        word.append(j)
        smat, sdual = system._simple_matrices(j)
        mat = mat_mul(smat, mat)
        dual = mat_mul(sdual, dual)
    return cur, GroupElement(mat, dual, tuple(word))
