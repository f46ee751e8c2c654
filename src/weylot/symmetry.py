"""Lattice symmetries of polytopes: automorphisms, reflections, equivalence.

Every lattice automorphism of a polytope preserves the positive definite
moment form G = sum of v v^T over the vertices, so automorphisms are
isometries of the rational inner product B = G^{-1}.  This gives two exact
search strategies used below:

* reflections are B-orthogonal, hence determined by their (-1)-eigenvector
  alone, and that eigenvector is parallel to a difference of two vertices;
* automorphisms and unimodular equivalences come from one search that
  extends tuples of basis-vertex images whose pairwise B-products match,
  then checks the vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GroupCapExceeded
from . import linalg as la
from .rootsystems import group_closure, orbit_cap


def moment_adjugate(polytope):
    """Adjugate and determinant of G = sum over vertices of v v^T (integers)."""
    d = polytope.dim
    g = [[0] * d for _ in range(d)]
    for v in polytope.vertices:
        for i in range(d):
            vi = v[i]
            if vi == 0:
                continue
            for j in range(d):
                g[i][j] += vi * v[j]
    g = tuple(tuple(row) for row in g)
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
    d = polytope.dim
    badj, _ = moment_adjugate(polytope)
    vset = set(verts)

    basis = []
    for v in verts:
        if la.rank(basis + [list(v)]) > len(basis):
            basis.append(list(v))
            if len(basis) == d:
                break

    directions = []
    seen_dirs = set()
    for b in basis:
        for w in verts:
            diff = tuple(bi - wi for bi, wi in zip(b, w))
            if all(x == 0 for x in diff):
                continue
            prim, _ = la.primitivize(diff)
            if prim[next(i for i, x in enumerate(prim) if x != 0)] < 0:
                prim = tuple(-x for x in prim)
            if prim not in seen_dirs:
                seen_dirs.add(prim)
                directions.append(prim)

    found = {}
    for alpha in directions:
        balpha = la.mat_vec(badj, alpha)
        s = la.vdot(alpha, balpha)
        # sigma = I - 2 alpha (B alpha)^T / (alpha^T B alpha); must be integral
        ok = True
        mat = []
        for i in range(d):
            row = []
            for j in range(d):
                num = 2 * alpha[i] * balpha[j]
                if num % s != 0:
                    ok = False
                    break
                row.append((1 if i == j else 0) - num // s)
            if not ok:
                break
            mat.append(tuple(row))
        if not ok:
            continue
        mat = tuple(mat)
        if all(la.mat_vec(mat, v) in vset for v in verts):
            found[mat] = alpha
    return tuple(sorted(found))


def generate_group(generators, cap=None):
    """Close integer matrices under multiplication; raises past the cap."""
    if not generators:
        return ()
    elements, _ = group_closure(generators, cap)
    return tuple(tuple(map(tuple, g)) for g in elements.tolist())


def _vertex_gram(polytope):
    """Pairwise products of the vertices in the form adj(G), and det G."""
    badj, det = moment_adjugate(polytope)
    verts = polytope.vertices
    bv = [la.mat_vec(badj, v) for v in verts]
    return [[la.vdot(u, w) for w in bv] for u in verts], det


def _basis_image_search(p, gram_p, q, gram_q, first_only, cap):
    """Determinant +-1 integer maps T with T(V(p)) = V(q).

    Backtracking over images in V(q) of a vertex basis of p, pruned by
    exact equality of pairwise products in the invariant forms; every
    surviving candidate map is checked for integrality, |det| = 1 and the
    full vertex set.  Stops at the first map when ``first_only``; raises
    GroupCapExceeded once more than ``cap`` maps are found.
    """
    verts_p, verts_q = p.vertices, q.vertices
    d = p.dim
    basis_idx = []
    basis_rows = []
    for i, v in enumerate(verts_p):
        if la.rank(basis_rows + [list(v)]) > len(basis_rows):
            basis_idx.append(i)
            basis_rows.append(list(v))
            if len(basis_rows) == d:
                break
    # T sends basis row r to image row r: T = images^T (basis^T)^-1
    binv_t = la.transpose(la.inverse(basis_rows))
    vset_q = set(verts_q)
    candidates = [[c for c in range(len(verts_q))
                   if gram_q[c][c] == gram_p[bi][bi]] for bi in basis_idx]
    out = []

    def extend(images):
        level = len(images)
        if level == d:
            u = tuple(verts_q[c] for c in images)
            t = la.mat_mul(la.transpose(u), binv_t)
            if not all(isinstance(la.norm_scalar(x), int) for row in t for x in row):
                return
            t = tuple(tuple(la.norm_scalar(x) for x in row) for row in t)
            if abs(la.det(t)) != 1:
                return
            if all(la.mat_vec(t, v) in vset_q for v in verts_p):
                out.append(t)
                if len(out) > cap:
                    raise GroupCapExceeded(
                        f"automorphism count exceeds cap {cap}")
            return
        bi = basis_idx[level]
        for cand in candidates[level]:
            if all(gram_q[images[prev]][cand] == gram_p[basis_idx[prev]][bi]
                   for prev in range(level)):
                images.append(cand)
                extend(images)
                images.pop()
                if first_only and out:
                    return

    extend([])
    return out


def automorphism_group(polytope, cap=None):
    """All determinant +-1 integer maps sending the vertex set onto itself."""
    cap = orbit_cap() if cap is None else cap
    gram, _ = _vertex_gram(polytope)
    return tuple(sorted(_basis_image_search(polytope, gram, polytope, gram,
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
    gram_p, det_p = _vertex_gram(p)
    gram_q, det_q = _vertex_gram(q)
    if det_p != det_q:
        return None
    if sorted(gram_p[i][i] for i in range(len(gram_p))) != \
       sorted(gram_q[i][i] for i in range(len(gram_q))):
        return None
    found = _basis_image_search(p, gram_p, q, gram_q, True, 1)
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
