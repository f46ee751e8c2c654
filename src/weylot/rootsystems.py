"""Crystallographic root systems, Weyl groups and orbits.

A root datum is fixed by its Cartan matrix and its lattice M (Bourbaki,
*Lie*, VI, 1; Humphreys, *Reflection Groups and Coxeter Groups*, 2.9).
:func:`build_from_label` builds every system, one type or a direct
product, over the root lattice (in simple-root coordinates, where it is
``Z^r``) or over the weight lattice (in fundamental-weight coordinates),
from the block-diagonal Cartan matrix of its factors.  Dual-side data
(coroots, chamber normals) is stored in the basis dual to the chosen one,
so the duality bracket is the plain dot product throughout.

The roots, an orbit and the Weyl group are all one reflection closure
(:func:`group_closure`) under the simple reflections, as block-diagonal
pairs acting on M and on N (:func:`block_reflections`): of the simple
columns (alpha_i; alpha_i^vee), of the column (m; 0), and of the identity.

Conventions follow Bourbaki: simple root numbering, Cartan matrices
(stored here as ``C[i][j] = <alpha_j, alpha_i^vee>``, so row ``i`` is the
coroot ``alpha_i^vee`` in dual coordinates), and the classical families
A (n>=1), B (n>=2), C (n>=3), D (n>=4), E6, F4, G2 plus direct products.
"""

from __future__ import annotations

import os
from functools import cache, cached_property
from math import factorial, inf

import numpy as np

from .errors import (GroupCapExceeded, NotLatticePoint, UnsupportedType,
                     WeylotError)
from . import linalg as la

DEFAULT_ORBIT_CAP = 100_000


def orbit_cap():
    """Active orbit/group size cap; WEYLOT_ORBIT_CAP overrides the default.

    Raises WeylotError unless the variable is unset or an integer >= 1.
    """
    value = os.environ.get("WEYLOT_ORBIT_CAP", str(DEFAULT_ORBIT_CAP))
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise WeylotError(
            f"WEYLOT_ORBIT_CAP must be an integer >= 1, not {value!r}")
    return cap


def group_closure(generators, seeds=None, rank=None, cap=None):
    """Close integer seed arrays under left multiplication by the generators.

    ``generators`` is a stack of d x d integer matrices, block diagonal
    with a leading ``rank`` x ``rank`` block (default d, one block), and
    ``seeds`` a stack of d x c integer arrays (default: the d x d identity,
    whose closure is the group itself).  Each element is keyed on its first
    ``rank`` rows and columns, which must determine it.  Breadth first:
    each round multiplies the frontier by each generator in turn, one
    matmul per diagonal block, and keeps the products whose keys are new
    before the next generator, so a round holds the frontier's products by
    one generator at a time.
    Returns an int64 array of the elements, sorted lexicographically on
    their keys.  Raises GroupCapExceeded before the closure grows past
    ``cap`` elements (default from ``orbit_cap()``), or when an entry could
    leave int64.
    """
    cap = orbit_cap() if cap is None else cap
    gens = np.array(generators, dtype=np.int64)
    d = gens.shape[-1]
    rank = d if rank is None else rank
    if gens[:, :rank, rank:].any() or gens[:, rank:, :rank].any():
        raise ValueError("generators are not block diagonal at the rank")
    blocks = [(g[:rank, :rank], g[rank:, rank:]) for g in gens]
    seen = set()

    def multipliable(batch):
        """``batch`` as int64, once its products by the generators fit."""
        if la.matmul_dtype(gens, batch) is object:
            raise GroupCapExceeded("closure entries outgrow int64")
        return np.asarray(batch, dtype=np.int64)

    def fresh(batch):
        """The elements of ``batch`` whose keys are new, now seen."""
        keys = batch[:, :rank, :rank]
        size = keys[0].nbytes
        buf = keys.tobytes()
        keep = []
        for i in range(len(batch)):
            key = buf[i * size:(i + 1) * size]
            if key in seen:
                continue
            if len(seen) >= cap:
                raise GroupCapExceeded(f"closure size exceeds cap {cap}")
            seen.add(key)
            keep.append(i)
        return batch[keep]

    frontier = fresh(multipliable(np.eye(d, dtype=np.int64)[None]
                                  if seeds is None else seeds))
    found = []
    while len(frontier):
        found.append(multipliable(frontier))
        parts = []
        for g, g_dual in blocks:
            batch = np.empty_like(frontier)
            np.matmul(g, frontier[:, :rank], out=batch[:, :rank])
            np.matmul(g_dual, frontier[:, rank:], out=batch[:, rank:])
            parts.append(fresh(batch))
        frontier = np.concatenate(parts)
    elements = np.concatenate(found)
    found.clear()
    keys = elements[:, :rank, :rank].reshape(len(elements), -1)
    return elements[np.lexsort(keys.T[::-1])]


def block_reflections(roots, coroots):
    """The reflections at the given roots and index-aligned coroots, as one
    int64 stack of block-diagonal pairs (s on M, s^vee on N).

    ``s m = m - <m, a^vee> a`` and ``s^vee n = n - <a, n> a^vee``; the N
    block is the transpose of the M block, so ``<s m, s^vee n> = <m, n>``.
    """
    a = np.array(roots, dtype=np.int64)
    r = a.shape[1]
    s = np.eye(r, dtype=np.int64) - (a[:, :, None] *
                                     np.array(coroots, dtype=np.int64)[:, None])
    out = np.zeros((len(a), 2 * r, 2 * r), dtype=np.int64)
    out[:, :r, :r] = s
    out[:, r:, r:] = s.transpose(0, 2, 1)
    return out


def cartan_matrix(family, rank):
    """C[i][j] = <alpha_j, alpha_i^vee> for the Bourbaki simple roots."""
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i, j):
        C[i][j] = -1
        C[j][i] = -1

    if family == "A":
        for i in range(n - 1):
            chain(i, i + 1)
    elif family == "B":
        # alpha_n is the short root e_n; <alpha_{n-1}, alpha_n^vee> = -2
        for i in range(n - 2):
            chain(i, i + 1)
        C[n - 1][n - 2] = -2
        C[n - 2][n - 1] = -1
    elif family == "C":
        # alpha_n is the long root 2 e_n; <alpha_n, alpha_{n-1}^vee> = -2
        for i in range(n - 2):
            chain(i, i + 1)
        C[n - 1][n - 2] = -1
        C[n - 2][n - 1] = -2
    elif family == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
    elif family == "E":
        # nodes 1-3-4-5-6-...-n in a chain, node 2 attached to node 4
        for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)):
            chain(a - 1, b - 1)
        for k in range(6, n):
            chain(k - 1, k)
    elif family == "F":
        chain(0, 1)
        chain(2, 3)
        C[2][1] = -2
        C[1][2] = -1
    elif family == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        C[0][1] = -3
        C[1][0] = -1
    return tuple(tuple(row) for row in C)


_ADMISSIBLE = {"A": 1, "B": 2, "C": 3, "D": 4}
# the supported exceptional types and their Weyl group orders
_EXCEPTIONAL_ORDER = {("E", 6): 51840, ("F", 4): 1152, ("G", 2): 12}


def components(C):
    """The node sets of the connected components of the Dynkin graph of a
    Cartan matrix, as sorted index tuples in sorted order: the adjacency,
    with loops, squared until paths span every node."""
    reach = np.array(C) != 0
    for _ in range(len(C).bit_length()):
        reach = reach @ reach
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def dynkin_type(C):
    """(family, rank) of a connected Cartan matrix, in any node order: the
    type whose :func:`cartan_matrix` has the same determinant and the same
    multiset of sorted rows, or ``("?", rank)`` if no type has both.

    Both are invariant under a simultaneous permutation of rows and
    columns, and they tell apart any two types of one rank.  From rank 9
    on the candidates are A_n (det n+1 >= 10), B_n and C_n (det 2) and D_n
    (det 4); B_n has a row with nonzero entries {2, -2} and none with
    {2, -1, -2}, and C_n the reverse.  Ranks up to 8, with E6-E8, F4 and
    G2, are checked by enumeration (``tests/test_rootsystems.py``).  An
    affine Cartan matrix has determinant 0, so it is ``?``.
    """
    key = (la.batched_det(np.array([C])).item(), sorted(map(sorted, C)))
    return next((t for t, k in _type_keys(len(C)) if k == key),
                ("?", len(C)))


@cache
def _type_keys(n):
    """Per type of rank n, its :func:`dynkin_type` key: the determinant
    and the sorted list of the sorted rows of its :func:`cartan_matrix`."""
    types = [(f, n) for f, low in _ADMISSIBLE.items() if n >= low]
    types += [(f, r) for f, r in (*_EXCEPTIONAL_ORDER, ("E", 7), ("E", 8))
              if r == n]
    stack = [cartan_matrix(*t) for t in types]
    return tuple((t, (d, sorted(map(sorted, m)))) for t, d, m in
                 zip(types, la.batched_det(np.array(stack)).tolist(), stack))


class RootSystem:
    """A root system with a lattice choice between root and weight lattices."""

    def __init__(self, type_label, roots, coroots, simple_indices,
                 cartan, lattice_choice):
        self.type_label = tuple(type_label)   # ((family, rank), ...)
        self.roots = tuple(roots)             # M-coordinates
        self.coroots = tuple(coroots)         # N-coordinates, index-aligned
        self.simple_indices = tuple(simple_indices)
        self.cartan_matrix = cartan
        self.lattice_choice = lattice_choice
        self.rank = len(roots[0])

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    @property
    def order(self):
        """|W| in closed form from the type label, without building the
        group (Bourbaki, *Lie*, VI, plates I-IX)."""
        out = 1
        for fam, rk in self.type_label:
            if fam == "A":
                out *= factorial(rk + 1)
            elif fam in ("B", "C"):
                out *= 2 ** rk * factorial(rk)
            elif fam == "D":
                out *= 2 ** (rk - 1) * factorial(rk)
            elif (fam, rk) in _EXCEPTIONAL_ORDER:
                out *= _EXCEPTIONAL_ORDER[fam, rk]
            else:
                raise UnsupportedType(f"no closed-form order for {fam}{rk}")
        return out

    def __repr__(self):
        label = "x".join(f"{fam}{rk}" for fam, rk in self.type_label)
        return (f"RootSystem({label}, {len(self.roots)} roots, "
                f"lattice={self.lattice_choice!r})")

    # -- reflections, orbits and the group ---------------------------------

    @cached_property
    def simple_reflections(self):
        """The simple reflections as :func:`block_reflections`, built once."""
        return block_reflections(self.simple_roots, self.simple_coroots)

    def simple_pairings(self, x, side="M"):
        if side == "M":
            return tuple(la.vdot(x, self.coroots[i]) for i in self.simple_indices)
        return tuple(la.vdot(self.roots[i], x) for i in self.simple_indices)

    def is_dominant(self, x, side="M"):
        return all(t >= 0 for t in self.simple_pairings(x, side))

    def orbit(self, m):
        """Weyl orbit of the lattice point ``m``, sorted lexicographically:
        the closure of the column (m; 0) under the simple reflections.

        Raises GroupCapExceeded (an OrbitCapExceeded) if the orbit grows
        past ``orbit_cap()``, or if its entries could leave int64, which
        takes entries of about 2^55.
        """
        if not la.is_integer_vector(m):
            raise NotLatticePoint(f"{tuple(m)} is not a lattice point")
        n = self.rank
        column = [[x] for x in m] + [[0]] * n
        points = group_closure(self.simple_reflections, [column], n)
        return tuple(map(tuple, points[:, :n, 0].tolist()))

    def weyl_group(self):
        """The whole Weyl group: the closure of the identity under the
        simple reflections, keyed on the M block, which fixes the N block
        (its inverse transpose).  Capped by ``orbit_cap()``."""
        n = self.rank
        elements = group_closure(self.simple_reflections, None, n)
        return WeylGroup(elements[:, :n, :n].copy(),
                         elements[:, n:, n:].copy())


class WeylGroup:
    """A materialized Weyl group: int64 stacks of its matrices on M and of
    their inverse transposes on N, index-aligned, so that
    ``<matrices[k] m, dual_matrices[k] n> == <m, n>``."""

    def __init__(self, matrices, dual_matrices):
        self.matrices = matrices
        self.dual_matrices = dual_matrices

    def __len__(self):
        return len(self.matrices)


def parse_type_label(text):
    """Parse labels like ``"B3"`` or ``"A1xA2"`` into (family, rank) pairs."""
    parts = text.replace(" ", "").split("x")
    out = []
    for part in parts:
        if len(part) < 2 or not part[0].isalpha():
            raise UnsupportedType(f"cannot parse type {text!r}")
        fam = part[0].upper()
        try:
            rk = int(part[1:])
        except ValueError as exc:
            raise UnsupportedType(f"cannot parse type {text!r}") from exc
        out.append((fam, rk))
    return tuple(out)


def build_from_label(text, lattice="root"):
    """Build the root system of a label like ``"B3"`` or ``"A1xB2"`` over
    the root or the weight lattice.

    C is the block-diagonal Cartan matrix of all factors.  The simple
    (root; coroot) columns are (e_i; C_i) over the root lattice, in
    simple-root coordinates, and (column i of C; e_i) over the weight
    lattice, in fundamental-weight coordinates; their closure under the
    simple reflections gives every root and its coroot.  A supported system
    has at most 3 rank^2 roots, so the orbit cap does not apply.
    """
    label = parse_type_label(text)
    for family, rank in label:
        if (family, rank) not in _EXCEPTIONAL_ORDER and (
                family not in _ADMISSIBLE or rank < _ADMISSIBLE[family]):
            raise UnsupportedType(f"unsupported root system {family}{rank}")
    if lattice not in ("root", "weight"):
        raise ValueError(f"lattice is 'root' or 'weight', not {lattice!r}")
    n = sum(rank for _, rank in label)
    C, at = [[0] * n for _ in range(n)], 0
    for family, rank in label:
        for i, row in enumerate(cartan_matrix(family, rank)):
            C[at + i][at:at + rank] = row
        at += rank
    C, eye = tuple(map(tuple, C)), la.identity(n)
    simple, cosimple = (eye, C) if lattice == "root" else (la.transpose(C), eye)
    columns = group_closure(block_reflections(simple, cosimple),
                            [[[x] for x in a + c]
                             for a, c in zip(simple, cosimple)], n, inf)
    roots = list(map(tuple, columns[:, :n, 0].tolist()))
    coroots = list(map(tuple, columns[:, n:, 0].tolist()))
    return RootSystem(label, roots, coroots,
                      [roots.index(a) for a in simple], C, lattice)


def build_root_system(family, rank, lattice="root"):
    """The root system of one type: :func:`build_from_label` of
    ``f"{family}{rank}"``."""
    return build_from_label(f"{family}{rank}", lattice)


def weight_to_coords(system: RootSystem, omega_coeffs):
    """The point x of M with ``<x, alpha_i^vee> = omega_i`` for every
    simple coroot, in any lattice.

    Raises NotLatticePoint if x lies outside the system's lattice M.
    """
    n = system.rank
    if len(omega_coeffs) != n:
        raise ValueError(f"expected {n} weight coefficients")
    coords = la.solve(system.simple_coroots, omega_coeffs)
    if not la.is_integer_vector(coords):
        raise NotLatticePoint(
            f"weight {tuple(omega_coeffs)} is not in the chosen lattice")
    return coords
