"""The tuple-at-a-time Weyl detection, kept as a test oracle.

``weyl.is_weyl_polytope`` reads reflections, their vertex permutations,
roots and coroots off one batched integer search.  This module is the route
it replaced: each candidate reflection tested on every vertex with
``mat_vec``, a set-based orbit walk, and each reflection's root and coroot
re-derived from its matrix, and each component of the Dynkin graph named
by a search for a node permutation matching a reference Cartan matrix.
The tests compare the two on every input.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from weylot import linalg as la
from weylot.rootsystems import RootSystem, cartan_matrix
from weylot.weyl import WeylDetection

from dominance_oracle import (adjugate, det, dominant_representative,
                              mat_mul, mat_vec)

# (family, least rank, greatest rank) of the types detection names
REFERENCE_TYPES = (("A", 1, inf), ("B", 2, inf), ("C", 3, inf),
                   ("D", 4, inf), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))


def reference_cartans(rank):
    return [(f"{fam}{rank}", cartan_matrix(fam, rank))
            for fam, low, high in REFERENCE_TYPES if low <= rank <= high]


def match_cartan(label_cartans, C):
    """The label of the first reference Cartan matrix that C equals up to
    a permutation of the nodes, or None.  Backtracking over the node
    permutations: node i of C goes to each unused reference node that
    agrees with it on the diagonal and on its entries with nodes 0..i-1."""
    n = len(C)

    def extend(ref, perm):
        i = len(perm)
        return i == n or any(
            extend(ref, perm + [k]) for k in range(n)
            if k not in perm and ref[k][k] == C[i][i]
            and all(ref[k][perm[j]] == C[i][j] and ref[perm[j]][k] == C[j][i]
                    for j in range(i)))

    return next((label for label, ref in label_cartans if extend(ref, [])),
                None)


def moment_adjugate(vertices):
    """Adjugate and determinant of G = sum over vertices of v v^T (integers)."""
    g = mat_mul(la.transpose(vertices), vertices)
    return adjugate(g), det(g)


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
        balpha = mat_vec(badj, alpha)
        s = la.vdot(alpha, balpha)
        # sigma = I - 2 alpha (B alpha)^T / (alpha^T B alpha); must be integral
        num = [[2 * a * b for b in balpha] for a in alpha]
        if any(x % s for row in num for x in row):
            continue
        mat = tuple(tuple(int(i == j) - x // s for j, x in enumerate(row))
                    for i, row in enumerate(num))
        if all(mat_vec(mat, v) in vset for v in verts):
            found[mat] = alpha
    return tuple(sorted(found))


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


def identify_reflection_group(refs):
    """Root system and type label of a set of lattice reflections.

    The reflections must generate a finite lattice group whose roots span.
    Returns (label, system): the system of the reflections' roots +-a and
    coroots in the lattice's own coordinates, type ("detected", rank).
    """
    data = [reflection_data(m) for m in refs]
    roots = []
    seen = set()
    for rd in data:
        for sign in (1, -1):
            a = tuple(sign * x for x in rd.root)
            if a not in seen:
                seen.add(a)
                roots.append((a, tuple(sign * x for x in rd.coroot)))
    d = len(data[0].root)
    t = 1
    while True:
        f = tuple(t ** i for i in range(d))
        if all(la.vdot(a, f) != 0 for a, _ in roots):
            break
        t += 1
    positive = [(a, av) for a, av in roots if la.vdot(a, f) > 0]
    pos_set = {a for a, _ in positive}
    simples = []
    for a, av in positive:
        is_sum = False
        for b in pos_set:
            c = tuple(x - y for x, y in zip(a, b))
            if any(x != 0 for x in c) and c in pos_set:
                is_sum = True
                break
        if not is_sum:
            simples.append((a, av))
    simples.sort()
    sreal = [a for a, _ in simples]
    scov = [av for _, av in simples]
    C = tuple(tuple(la.vdot(sreal[j], scov[i]) for j in range(len(simples)))
              for i in range(len(simples)))
    roots.sort()
    all_roots = [a for a, _ in roots]
    system = RootSystem([("detected", len(simples))], all_roots,
                        [av for _, av in roots],
                        [all_roots.index(a) for a in sreal], C, "custom")
    # split into irreducible components along the Dynkin graph
    n = len(simples)
    comp = list(range(n))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for i in range(n):
        for j in range(n):
            if i != j and C[i][j] != 0:
                comp[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    labels = []
    for members in groups.values():
        sub = tuple(tuple(C[i][j] for j in members) for i in members)
        label = match_cartan(reference_cartans(len(members)), sub)
        if label is None:
            label = f"?{len(members)}"
        labels.append(label)
    labels.sort()
    return "x".join(labels), system


def is_weyl_polytope(p):
    """Detect vertex transitivity under the reflection subgroup of Aut(p).

    Returns a :class:`WeylDetection` when the group generated by all lattice
    reflections preserving ``p`` acts transitively on the vertices (then
    ``p`` is the hull of one orbit), else None.
    """
    refs = reflections(p)
    if not refs:
        return None
    start = p.vertices[0]
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for s in refs:
            w = mat_vec(s, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(p.vertices):
        return None
    label, system = identify_reflection_group(refs)
    vertex, _ = dominant_representative(system, p.vertices[0])
    return WeylDetection(label, refs, system, vertex)
