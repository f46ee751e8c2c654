"""Lattice symmetries of polytopes: automorphisms, reflections, equivalence.

Every lattice automorphism of a polytope preserves the positive definite
moment form G = sum of v v^T over the vertices, so automorphisms are
isometries of the rational inner product B = G^{-1}.  This gives two exact
search strategies used below:

* reflections are B-orthogonal, hence determined by their (-1)-eigenvector
  alone, and that eigenvector is parallel to a difference of two vertices;
  every such candidate is checked in one batched integer pass, which also
  yields each reflection's root, coroot and vertex permutation;
* automorphisms and unimodular equivalences come from one level-wise
  integer search (the form-invariant method of Bremner, Dutour Sikiric,
  Pasechnik, Rehn and Schuermann, "Computing symmetry groups of
  polyhedra", 2014): numpy arrays of tuples of basis-vertex images grow
  one basis vertex a level, kept where their pairwise B-products match,
  and every complete tuple's map is checked exactly, in blocks, for
  integrality and for sending the vertices one to one onto the vertices,
  which makes it a bijection of the vertex sets and so unimodular.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupCapExceeded
from . import linalg as la
from .rootsystems import orbit_cap


def reflection_search(polytope):
    """All lattice reflections preserving the vertex set, each with its
    root, coroot and vertex permutation, in the order of the matrices.

    A reflection in the automorphism group is B-orthogonal, so it is
    sigma = I - alpha (alpha^vee)^T with alpha^vee = 2 B alpha / (alpha^T B
    alpha) for its primitive (-1)-eigenvector alpha, and alpha is parallel
    to v - sigma(v) for any moved vertex v.  A reflection fixing a spanning
    set of vertices is the identity, so the candidates are the primitive
    differences from a linear basis of vertices to every vertex, first
    nonzero entry positive.  As alpha is primitive, sigma is integral iff
    alpha^vee is.  All candidates are checked at once: one exact matmul
    maps every vertex through every integral sigma, one exact row lookup
    (:func:`linalg.row_index`) finds each image among the vertices, and a
    sigma is kept iff every image is found; the lookup is its
    permutation.  Returns (matrices, roots, coroots, perms): tuples of
    matrices, roots and coroots and an (r, n) index array.
    """
    d = polytope.dim
    pts = polytope.vertex_array
    badj, _ = polytope.moment_adjugate
    top = int(np.abs(pts).max())
    pts = pts.astype(la.bounded_dtype(2 * top))
    basis = la.independent_rows(polytope.vertices, d)
    diffs = (pts[basis, None, :] - pts[None, :, :]).reshape(-1, d)
    g = np.gcd.reduce(diffs, axis=1)
    diffs, g = diffs[g != 0], g[g != 0]
    lead = diffs[np.arange(len(diffs)), np.argmax(diffs != 0, axis=1)]
    alpha = diffs // np.where(lead < 0, -g, g)[:, None]
    _, first = np.unique(la.row_keys(alpha, 2 * top), return_index=True)
    alpha = alpha[first]

    balpha = la.exact_matmul(alpha, badj)
    s = la.exact_matmul(alpha[:, None, :], balpha[:, :, None])[:, 0, 0]
    ok = (2 * balpha % s[:, None] == 0).all(axis=1)
    alpha, coroot = alpha[ok], 2 * balpha[ok] // s[ok, None]
    sigma = (np.eye(d, dtype=int)
             - la.exact_matmul(alpha[:, :, None], coroot[:, None, :]))

    perms = la.row_index(la.exact_matmul(pts, sigma.transpose(0, 2, 1)), pts)
    ok = (perms >= 0).all(axis=1)
    mats = [tuple(map(tuple, m)) for m in sigma[ok].tolist()]
    idx = sorted(range(len(mats)), key=mats.__getitem__)
    return (tuple(mats[i] for i in idx),
            tuple(map(tuple, alpha[ok][idx].tolist())),
            tuple(map(tuple, coroot[ok][idx].tolist())), perms[ok][idx])


# tuples of basis images in one block of the search: large enough to pay
# for the numpy calls a block makes, small enough that a search for one map
# reaches its first complete tuples early and that a block of images stays
# small (128 n d entries)
_BLOCK = 128


def _vertex_data(*polytopes):
    """For each polytope: its integer vertex rows; their pairwise products
    in the form adj(G) (:attr:`Polytope.moment_adjugate`); and det G."""
    out = []
    for p in polytopes:
        verts, (adj, det) = p.vertex_array, p.moment_adjugate
        gram = la.exact_matmul(la.exact_matmul(verts, adj), verts.T)
        out.append((verts, gram, det))
    return out


def _leaf_maps(leaves, search):
    """The maps of complete image tuples that pass every exact check, in
    order.  Tuple r gives T = U^T adj(B)^T / det B, U its image rows; T must
    be integral and send the vertices of p one to one into those of q: an
    exact row lookup (:func:`linalg.row_index`) finds every image, and no
    two images are the same vertex.

    That makes |det T| = 1 with no determinant taken.  As |V(p)| = |V(q)|,
    T maps V(p) onto V(q), so T(p) = q and T is nonsingular.  For p = q,
    T permutes a spanning set, so some power of T is I and the integer
    det T is +-1.  For p != q, summing v v^T over the matched vertices
    gives G_q = T G_p T^T, and the matched products in the forms give
    T^T adj(G_q) T = adj(G_p); taking determinants, det(T)^(2d) = 1."""
    adj_t, det_b, verts_p, verts_q = search
    num = la.exact_matmul(verts_q[leaves].transpose(0, 2, 1), adj_t)
    t = num[(num % det_b == 0).all(axis=(1, 2))] // det_b
    images = la.exact_matmul(verts_p, t.transpose(0, 2, 1))
    idx = np.sort(la.row_index(images, verts_q), axis=1)
    t = t[(idx[:, 0] >= 0) & (idx[:, 1:] != idx[:, :-1]).all(axis=1)]
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
    d = verts_q.shape[1]
    basis = la.independent_rows(verts_p.tolist(), d)
    # T B^T = U^T for image rows U, so det(B) T = U^T adj(B)^T
    adj, det_b = la.adjugate(verts_p[basis].tolist())
    adj_t = la.transpose(adj)
    search = (adj_t, det_b, verts_p, verts_q)
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


def automorphism_group(polytope):
    """All determinant +-1 integer maps sending the vertex set onto itself;
    GroupCapExceeded past ``orbit_cap()`` of them."""
    (verts, gram, _), = _vertex_data(polytope)
    return tuple(sorted(_basis_image_search(verts, gram, verts, gram,
                                            False, orbit_cap())))


def unimodular_equivalent(p, q):
    """A determinant +-1 integer map with T(V(p)) = V(q), or None.

    Quick invariants (counts, det G and the sorted Gram-diagonal multisets)
    reject most non-equivalent pairs before the image search runs.  The
    volume, though invariant, is not compared: it needs a boundary
    triangulation, which costs more than the search it would save.
    """
    if p.dim != q.dim:
        return None
    if len(p.vertices) != len(q.vertices) or len(p.facets) != len(q.facets):
        return None
    (verts_p, gram_p, det_p), (verts_q, gram_q, det_q) = _vertex_data(p, q)
    if det_p != det_q:
        return None
    if sorted(gram_p.diagonal().tolist()) != sorted(gram_q.diagonal().tolist()):
        return None
    found = _basis_image_search(verts_p, gram_p, verts_q, gram_q, True, 1)
    return found[0] if found else None
