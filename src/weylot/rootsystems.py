"""Crystallographic root systems, Weyl groups and orbits.

Coordinates: a root system of rank r lives in an r-dimensional lattice M.
Internally everything is generated in the simple-root basis, where the
root lattice is exactly ``Z^r``.  Choosing ``lattice="weight"`` re-expresses
all data in the fundamental-weight basis, and a custom intermediate lattice
may be given by an integer basis matrix (columns are lattice generators in
simple-root coordinates).  Dual-side data (coroots, chamber normals) is
stored in the basis dual to the chosen one, so the duality bracket is the
plain dot product throughout.

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
from functools import cached_property
from math import factorial, inf

import numpy as np

from .errors import (GroupCapExceeded, NotLatticePoint, UnsupportedType)
from . import linalg as la

DEFAULT_ORBIT_CAP = 100_000


def orbit_cap():
    """Active orbit/group size cap; WEYLOT_ORBIT_CAP overrides the default."""
    value = os.environ.get("WEYLOT_ORBIT_CAP")
    if value is None:
        return DEFAULT_ORBIT_CAP
    return int(value)


def group_closure(generators, seeds=None, rank=None, cap=None):
    """Close integer seed arrays under left multiplication by the generators.

    ``generators`` is a stack of d x d integer matrices, block diagonal
    with a leading ``rank`` x ``rank`` block (default d, one block), and
    ``seeds`` a stack of d x c integer arrays (default: the d x d identity,
    whose closure is the group itself).  Each element is keyed on its first
    ``rank`` rows and columns, which must determine it.  Breadth first:
    each round multiplies the whole frontier by every generator, one
    matmul per diagonal block, and keeps the products whose keys are new.
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
    top, bottom = gens[:, None, :rank, :rank], gens[:, None, rank:, rank:]
    batch = np.eye(d, dtype=np.int64)[None] if seeds is None else seeds
    found, seen = [], set()
    while len(batch):
        if la.matmul_dtype(gens, batch) is object:
            raise GroupCapExceeded("closure entries outgrow int64")
        batch = np.asarray(batch, dtype=np.int64)
        keys = np.ascontiguousarray(batch[:, :rank, :rank])
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
        frontier = batch[keep]
        found.append(frontier)
        batch = np.empty((len(gens), *frontier.shape), dtype=np.int64)
        np.matmul(top, frontier[:, :rank], out=batch[:, :, :rank])
        np.matmul(bottom, frontier[:, rank:], out=batch[:, :, rank:])
        batch = batch.reshape(-1, *frontier.shape[1:])
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
_EXCEPTIONAL = {("E", 6), ("F", 4), ("G", 2)}
_EXCEPTIONAL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                      ("F", 4): 1152, ("G", 2): 12}


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

    def orbit(self, m, cap=None):
        """Weyl orbit of the lattice point ``m``, sorted lexicographically:
        the closure of the column (m; 0) under the simple reflections.

        Raises GroupCapExceeded (an OrbitCapExceeded) if the orbit grows
        past the cap (default from ``orbit_cap()``), or if its entries
        could leave int64, which takes entries of about 2^55.
        """
        if not la.is_integer_vector(m):
            raise NotLatticePoint(f"{tuple(m)} is not a lattice point")
        n = self.rank
        column = [[x] for x in m] + [[0]] * n
        points = group_closure(self.simple_reflections, [column], n, cap)
        return tuple(map(tuple, points[:, :n, 0].tolist()))

    def weyl_group(self, cap=None):
        """The whole Weyl group: the closure of the identity under the
        simple reflections, keyed on the M block, which fixes the N block
        (its inverse transpose)."""
        n = self.rank
        elements = group_closure(self.simple_reflections, None, n, cap)
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


def build_root_system(family, rank, lattice="root"):
    """Construct a root system of the given family, rank, and lattice choice.

    ``lattice`` is ``"root"``, ``"weight"``, or an integer matrix whose
    columns generate an intermediate lattice in simple-root coordinates.
    """
    family = family.upper()
    if (family, rank) not in _EXCEPTIONAL:
        if family not in _ADMISSIBLE or rank < _ADMISSIBLE[family]:
            raise UnsupportedType(f"unsupported root system {family}{rank}")
    C = cartan_matrix(family, rank)
    n = rank

    # the (root, coroot) columns: the closure of the simple ones (e_i; C[i]),
    # keyed on the root; a supported system has at most 3 rank^2 roots, so
    # the orbit cap does not apply
    eye = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    columns = group_closure(block_reflections(eye, C),
                            [[[x] for x in e + c] for e, c in zip(eye, C)],
                            n, inf)
    roots = list(map(tuple, columns[:, :n, 0].tolist()))
    coroots = list(map(tuple, columns[:, n:, 0].tolist()))
    simple_indices = [roots.index(e) for e in eye]

    system = RootSystem([(family, rank)], roots, coroots, simple_indices,
                        C, "root")
    if lattice == "root":
        return system
    if lattice == "weight":
        basis = la.inverse(C)  # columns = fundamental weights in alpha-coords
        basis = tuple(tuple(basis[i][j] for j in range(n)) for i in range(n))
        return _change_lattice(system, basis, "weight")
    basis = tuple(tuple(row) for row in lattice)
    return _change_lattice(system, basis, "custom")


def _change_lattice(system, basis, name):
    """Re-express a root-lattice system in the basis given by ``basis`` columns.

    Verifies the sandwich condition: the new lattice must contain all roots
    (integer coordinates) and sit inside the weight lattice (integer pairings
    with all coroots).
    """
    n = system.rank
    inv = la.inverse(basis)
    if inv is None:
        raise ValueError("lattice basis is singular")
    new_roots = []
    for alpha in system.roots:
        x = la.mat_vec(inv, alpha)
        if not la.is_integer_vector(x):
            raise ValueError("lattice does not contain the root lattice")
        new_roots.append(tuple(la.norm_scalar(v) for v in x))
    bt = la.transpose(basis)
    new_coroots = []
    for covec in system.coroots:
        y = la.mat_vec(bt, covec)
        new_coroots.append(tuple(la.norm_scalar(v) for v in y))
    for j in range(n):
        col = tuple(basis[i][j] for i in range(n))
        pairings = [la.vdot(col, system.coroots[i]) for i in system.simple_indices]
        if not la.is_integer_vector(pairings):
            raise ValueError("lattice is not inside the weight lattice")
    order = sorted(range(len(new_roots)), key=lambda i: new_roots[i])
    inv_order = {old: new for new, old in enumerate(order)}
    return RootSystem(system.type_label,
                      [new_roots[i] for i in order],
                      [new_coroots[i] for i in order],
                      [inv_order[i] for i in system.simple_indices],
                      system.cartan_matrix, name)


def product(r1: RootSystem, r2: RootSystem) -> RootSystem:
    """Direct product: block sums of roots, coroots, and Cartan data."""
    if r1.lattice_choice != r2.lattice_choice:
        raise ValueError("lattice choices differ")
    n1, n2 = r1.rank, r2.rank
    roots = []
    coroots = []
    for a, av in zip(r1.roots, r1.coroots):
        roots.append(a + (0,) * n2)
        coroots.append(av + (0,) * n2)
    for b, bv in zip(r2.roots, r2.coroots):
        roots.append((0,) * n1 + b)
        coroots.append((0,) * n1 + bv)
    order = sorted(range(len(roots)), key=lambda i: roots[i])
    pos = {old: new for new, old in enumerate(order)}
    simple = [pos[i] for i in r1.simple_indices]
    simple += [pos[len(r1.roots) + i] for i in r2.simple_indices]
    C = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            C[i][j] = r1.cartan_matrix[i][j]
    for i in range(n2):
        for j in range(n2):
            C[n1 + i][n1 + j] = r2.cartan_matrix[i][j]
    return RootSystem(r1.type_label + r2.type_label,
                      [roots[i] for i in order],
                      [coroots[i] for i in order],
                      simple,
                      tuple(tuple(row) for row in C),
                      r1.lattice_choice)


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
    """Build a (product) root system from a label like ``"A1xB2"``."""
    parts = parse_type_label(text)
    system = build_root_system(parts[0][0], parts[0][1], lattice)
    for fam, rk in parts[1:]:
        system = product(system, build_root_system(fam, rk, lattice))
    return system


def weight_to_coords(system: RootSystem, omega_coeffs):
    """Point of M with the given fundamental-weight coefficients.

    Raises NotLatticePoint if the combination lands outside the chosen
    lattice M.
    """
    n = system.rank
    if len(omega_coeffs) != n:
        raise ValueError(f"expected {n} weight coefficients")
    if system.lattice_choice == "root":
        inv = la.inverse(system.cartan_matrix)
        coords = la.mat_vec(inv, omega_coeffs)
    elif system.lattice_choice == "weight":
        coords = tuple(omega_coeffs)
    else:
        raise ValueError("weight coordinates need a root or weight lattice")
    coords = tuple(la.norm_scalar(x) for x in coords)
    if not la.is_integer_vector(coords):
        raise NotLatticePoint(
            f"weight {tuple(omega_coeffs)} is not in the chosen lattice")
    return coords
