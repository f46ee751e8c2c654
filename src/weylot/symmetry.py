"""Lattice symmetries of polytopes: automorphisms, reflections, equivalence.

Every lattice automorphism of a polytope preserves the positive definite
moment form G = sum of v v^T over the vertices, so automorphisms are
isometries of the rational inner product B = G^{-1}.  This gives two exact
search strategies used below:

* reflections are B-orthogonal, hence determined by their (-1)-eigenvector
  alone, and that eigenvector is parallel to a difference of two vertices;
* automorphisms and unimodular equivalences come from one level-wise
  integer search (the form-invariant method of Bremner, Dutour Sikiric,
  Pasechnik, Rehn and Schuermann, "Computing symmetry groups of
  polyhedra", 2014): numpy arrays of tuples of basis-vertex images grow
  one basis vertex a level, kept where their pairwise B-products match,
  and every complete tuple's map is checked exactly, in blocks, for
  integrality, the vertex set and |det| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GroupCapExceeded
from . import linalg as la
from .rootsystems import group_closure, orbit_cap


def moment_adjugate(vertices):
    """Adjugate and determinant of G = sum over vertices of v v^T (integers)."""
    g = la.mat_mul(la.transpose(vertices), vertices)
    return la.adjugate_int(g), la.det(g)


def reflections(polytope):
    """All lattice reflections preserving the vertex set.

    A reflection in the automorphism group is the B-orthogonal reflection
    in its (-1)-eigenvector alpha, and alpha is parallel to v - sigma(v)
    for any moved vertex v.  Since a reflection fixing a spanning set of
    vertices is the identity, it suffices to try directions from a linear
    basis of vertices to every other vertex.
    """
    verts = polytope.vertices
    if not all(isinstance(x, int) for v in verts for x in v):
        raise ValueError("reflection search requires a lattice polytope")
    badj, _ = moment_adjugate(verts)
    vset = set(verts)
    directions = {}     # primitive, first nonzero entry positive; in order
    for i in la.independent_rows(verts, polytope.dim):
        for w in verts:
            prim, g = la.primitivize(la.vsub(verts[i], w))
            if g:
                sign = 1 if next(x for x in prim if x != 0) > 0 else -1
                directions.setdefault(tuple(sign * x for x in prim))

    found = {}
    for alpha in directions:
        balpha = la.mat_vec(badj, alpha)
        s = la.vdot(alpha, balpha)
        # sigma = I - 2 alpha (B alpha)^T / (alpha^T B alpha); must be integral
        num = [[2 * a * b for b in balpha] for a in alpha]
        if any(x % s for row in num for x in row):
            continue
        mat = tuple(tuple(int(i == j) - x // s for j, x in enumerate(row))
                    for i, row in enumerate(num))
        if all(la.mat_vec(mat, v) in vset for v in verts):
            found[mat] = alpha
    return tuple(sorted(found))


def generate_group(generators, cap=None):
    """Close integer matrices under multiplication; raises past the cap."""
    if not generators:
        return ()
    elements, _ = group_closure(generators, cap)
    return tuple(tuple(map(tuple, g)) for g in elements.tolist())


# tuples of basis images in one block of the search: large enough to pay
# for the numpy calls a block makes, small enough that a search for one map
# reaches its first complete tuples early and that a block of images stays
# small (128 n d entries)
_BLOCK = 128


def _vertex_data(*polytopes):
    """For each polytope: its vertices as integers, all scaled by one
    common denominator; their pairwise products in the form adj(G) of
    those rows; and det G."""
    import numpy as np
    from .measures import _exact_matmul, _int_array
    pts, _ = _int_array([v for p in polytopes for v in p.vertices])
    out = []
    for p in polytopes:
        verts, pts = pts[:len(p.vertices)], pts[len(p.vertices):]
        adj, det = moment_adjugate(verts.tolist())
        gram = _exact_matmul(_exact_matmul(verts, np.array(adj, dtype=object)),
                             verts.T)
        out.append((verts, gram, det))
    return out


def _row_keys(rows, bound):
    """Exact ids of integer rows with entries in [-bound, bound]: their
    digits in base 2 bound + 1."""
    import numpy as np
    from .measures import _exact_matmul
    weights = [(2 * bound + 1) ** i for i in range(rows.shape[-1])]
    return _exact_matmul(rows + bound, np.array(weights, dtype=object))


def _leaf_maps(leaves, search):
    """The maps of complete image tuples that pass every exact check, in
    order.  Tuple r gives T = U^T adj(B)^T / det B, U its image rows; T must
    be integral, send every vertex of p to a vertex of q (matched on exact
    row keys) and have |det T| = 1, that is |det U| = |det B|."""
    import numpy as np
    from .measures import _batched_det, _exact_matmul
    adj_t, det_b, verts_p, verts_q, q_keys = search
    u = verts_q[leaves]
    num = _exact_matmul(u.transpose(0, 2, 1), adj_t)
    ok = (num % det_b == 0).all(axis=(1, 2))
    u, t = u[ok], num[ok] // det_b
    images = _exact_matmul(verts_p, t.transpose(0, 2, 1))
    qmax = int(np.abs(verts_q).max())
    inside = (np.abs(images) <= qmax).all(axis=2)
    keys = _row_keys(np.clip(images, -qmax, qmax), qmax)
    ok = (inside & np.isin(keys, q_keys)).all(axis=1)
    u, t = u[ok], t[ok]
    t = t[abs(_batched_det(u)) == abs(det_b)]
    return [tuple(map(tuple, m)) for m in t.tolist()]


def _basis_image_search(verts_p, gram_p, verts_q, gram_q, first_only, cap):
    """Determinant +-1 integer maps T with T(V(p)) = V(q), in the
    lexicographic order of the images of a vertex basis of p.

    ``verts_*`` and ``gram_*`` come from :func:`_vertex_data`.  Level k
    extends every tuple of images of the first k basis vertices by each
    vertex of q whose products with those images equal the basis's own
    (one broadcast compare per earlier level).  Blocks of at most
    ``_BLOCK`` tuples go depth first, so memory stays bounded and the maps
    come in the order a recursive backtracking search meets them;
    complete tuples are checked exactly by :func:`_leaf_maps`.  Stops at
    the first map when ``first_only``; raises GroupCapExceeded once more
    than ``cap`` maps are found.
    """
    import numpy as np
    d = verts_q.shape[1]
    basis = la.independent_rows(verts_p.tolist(), d)
    brows = verts_p[basis].tolist()
    # T B^T = U^T for image rows U, so det(B) T = U^T adj(B)^T
    adj_t = np.array(la.transpose(la.adjugate_int(brows)), dtype=object)
    det_b = la.det(brows)
    search = (adj_t, det_b, verts_p, verts_q,
              _row_keys(verts_q, int(np.abs(verts_q).max())))
    cands = [np.flatnonzero(gram_q.diagonal() == gram_p[b, b]) for b in basis]
    stack = [np.zeros((1, 0), dtype=np.intp)]
    out = []
    while stack:
        front = stack.pop()
        k = front.shape[1]
        if k == d:
            out += _leaf_maps(front, search)
            if first_only and out:
                return out[:1]
            if len(out) > cap:
                raise GroupCapExceeded(f"automorphism count exceeds cap {cap}")
            continue
        keep = np.ones((len(front), len(cands[k])), dtype=bool)
        for prev in range(k):
            keep &= (gram_q[front[:, prev, None], cands[k]]
                     == gram_p[basis[prev], basis[k]])
        rows, cols = np.nonzero(keep)
        grown = np.concatenate([front[rows], cands[k][cols, None]], axis=1)
        stack += [grown[i:i + _BLOCK]
                  for i in range(0, len(grown), _BLOCK)][::-1]
    return out


def automorphism_group(polytope, cap=None):
    """All determinant +-1 integer maps sending the vertex set onto itself."""
    cap = orbit_cap() if cap is None else cap
    (verts, gram, _), = _vertex_data(polytope)
    return tuple(sorted(_basis_image_search(verts, gram, verts, gram,
                                            False, cap)))


def unimodular_equivalent(p, q):
    """A determinant +-1 integer map with T(V(p)) = V(q), or None.

    Quick invariants (counts, volume, sorted Gram-diagonal multisets) reject
    most non-equivalent pairs before the image search runs.
    """
    if p.dim != q.dim:
        return None
    if len(p.vertices) != len(q.vertices) or len(p.facets) != len(q.facets):
        return None
    if p.volume != q.volume:
        return None
    (verts_p, gram_p, det_p), (verts_q, gram_q, det_q) = _vertex_data(p, q)
    if det_p != det_q:
        return None
    if sorted(gram_p.diagonal().tolist()) != sorted(gram_q.diagonal().tolist()):
        return None
    found = _basis_image_search(verts_p, gram_p, verts_q, gram_q, True, 1)
    return found[0] if found else None


@dataclass(frozen=True)
class ReflectionData:
    """A reflection of the lattice: matrix, primitive root, integer coroot."""

    matrix: tuple
    root: tuple
    coroot: tuple


def reflection_data(matrix):
    """Extract (alpha, alpha^vee) with sigma(m) = m - <m, alpha^vee> alpha."""
    d = len(matrix)
    diff = [[(1 if i == j else 0) - matrix[i][j] for j in range(d)]
            for i in range(d)]  # id - sigma, rank 1, columns multiples of alpha
    col = next(c for c in range(d)
               if any(diff[r][c] != 0 for r in range(d)))
    alpha_raw = tuple(diff[r][col] for r in range(d))
    alpha, g = la.primitivize(alpha_raw)
    lead = next(i for i, x in enumerate(alpha) if x != 0)
    if alpha[lead] < 0:
        alpha = tuple(-x for x in alpha)
    coroot = []
    for c in range(d):
        column = tuple(diff[r][c] for r in range(d))
        # column = <e_c, alpha^vee> * alpha
        k = next((i for i, x in enumerate(alpha) if x != 0))
        val = Fraction(column[k], alpha[k])
        if val * alpha[k] != column[k] or any(val * alpha[i] != column[i]
                                              for i in range(d)):
            raise ValueError("matrix is not a reflection")
        coroot.append(la.norm_scalar(val))
    if la.vdot(alpha, coroot) != 2:
        raise ValueError("matrix is not a lattice reflection")
    return ReflectionData(tuple(map(tuple, matrix)), alpha, tuple(coroot))
