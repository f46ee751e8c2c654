"""The cone-determinant cell kernel against a lattice-frame oracle.

Every facet lies on <x, n> = c with n primitive, so
``Polytope.measure_cells`` takes one batched integer determinant of vertex
rows per facet, and ``face_lattice_volume``, ``volume`` and ``barycenter``
sum it over the flag cells.  The oracle below is the frame path it
replaced: a saturated lattice basis of each facet's direction space, exact
local coordinates in it, and a Fraction determinant per cell, over a
second triangulation of the boundary, the pulling one.
"""

import os
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import pytest

from weylot import linalg as la
from weylot import fileio
from weylot.measures import surface_measure
from weylot.polytope import Polytope
from weylot.weyl import FAMILY_ROWS, family_smallest_ranks, mr_family

from dominance_oracle import dilated_polar, inverse, mat_vec
from test_fixture_files import HERE, load
from test_integer_cells import (barycentric_subdivide, flag_cells,
                                scaled_points)
from test_linalg import fraction_det
from test_properties import random_polytope


# -- the lattice-frame oracle ------------------------------------------------

def nullspace(rows):
    """Primitive integer basis of the rational null space of the rows."""
    ncols = len(rows[0])
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(la.primitivize(la.clear_denominators(v)[0])[0])
    return basis


def integer_kernel(rows):
    """Basis of {x integer : rows . x = 0} by unimodular column reduction."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def col_op(j, k, f):
        for row in m + u:
            row[j] -= f * row[k]

    def col_swap(j, k):
        for row in m + u:
            row[j], row[k] = row[k], row[j]

    pivot_col = 0
    for row in m:
        if pivot_col == ncols:
            break
        while True:
            nz = [k for k in range(pivot_col, ncols) if row[k] != 0]
            if len(nz) <= 1:
                if nz and nz[0] != pivot_col:
                    col_swap(nz[0], pivot_col)
                break
            k = min(nz, key=lambda c: abs(row[c]))
            for c in nz:
                if c != k:
                    col_op(c, k, row[c] // row[k])
        if row[pivot_col] != 0:
            pivot_col += 1
    return [tuple(u[i][j] for i in range(ncols))
            for j in range(pivot_col, ncols)
            if all(r[j] == 0 for r in m)]


def face_frame(p, face):
    """``to_local``: exact coordinates of x - v0 in a lattice basis of the
    face's direction space (the saturation of its vertex differences)."""
    verts = [p.vertices[i] for i in face.vertex_indices]
    v0 = verts[0]
    diffs = [la.clear_denominators(la.vsub(v, v0))[0] for v in verts[1:]]
    diffs = [v for v in diffs if any(v)]
    basis = integer_kernel(nullspace(diffs)) if diffs else []
    assert len(basis) == face.dimension
    rows = [tuple(b[r] for b in basis) for r in range(p.dim)]
    idx = la.independent_rows(rows, len(basis))
    inv = inverse([rows[r] for r in idx])
    rest = [r for r in range(p.dim) if r not in idx]

    def to_local(x):
        dvec = la.vsub(x, v0)
        sol = mat_vec(inv, [dvec[r] for r in idx])
        assert all(la.vdot(sol, rows[r]) == dvec[r] for r in rest)
        return sol

    return to_local


def simplex_volume(cell):
    """A point counts 1; a unimodular k-simplex counts 1/k!."""
    mat = [la.vsub(v, cell[0]) for v in cell[1:]]
    if not mat:
        return Fraction(1)
    return abs(Fraction(fraction_det(mat))) / factorial(len(mat))


def triangulate_face(p, face):
    """Vertex-index simplices of a pulling triangulation of ``face``.

    Anchored at the lexicographically smallest vertex of every face,
    recursively; uses only vertices, so the cells partition the face.
    """
    if face.dimension == 0:
        return ((face.vertex_indices[0],),)
    anchor = face.vertex_indices[0]
    cells = []
    for child in p.face_children(face):
        if anchor in child.vertex_indices:
            continue
        for cell in triangulate_face(p, child):
            cells.append((anchor,) + cell)
    return tuple(cells)


def boundary_triangulation(p):
    """Per facet, vertex-index simplices triangulating it."""
    return tuple(triangulate_face(p, f) for f in p.facet_faces())


def oracle_face_volume(p, face):
    to_local = face_frame(p, face)
    return la.norm_scalar(sum(
        (simplex_volume([to_local(p.vertices[i]) for i in cell])
         for cell in triangulate_face(p, face)), Fraction(0)))


def oracle_measure_cells(p, face, cells):
    to_local = face_frame(p, face)
    return [(tuple(la.norm_scalar(sum(Fraction(v[c]) for v in cell)
                                  / len(cell)) for c in range(p.dim)),
             simplex_volume([to_local(v) for v in cell]))
            for cell in cells]


def oracle_volume(p):
    origin = (0,) * p.dim
    return la.norm_scalar(sum(
        (simplex_volume([origin] + [p.vertices[i] for i in cell])
         for cells in boundary_triangulation(p) for cell in cells),
        Fraction(0)))


def oracle_barycenter(p):
    total = Fraction(0)
    acc = [Fraction(0)] * p.dim
    for cells in boundary_triangulation(p):
        for cell in cells:
            w = abs(Fraction(fraction_det([p.vertices[i] for i in cell])))
            total += w
            for k in range(p.dim):
                acc[k] += w * sum(Fraction(p.vertices[i][k]) for i in cell) \
                    / (p.dim + 1)
    return tuple(la.norm_scalar(a / total) for a in acc)


# -- the polytopes -------------------------------------------------------------

@lru_cache(maxsize=None)
def polytopes():
    """Name -> polytope: the fixtures, every family member of rank <= 4
    and its dual, and seeded random polytopes with rational duals, each
    dual dilated to the least lattice polytope (offsets above 1)."""
    out = {name[:-5]: load(name[:-5]) for name in sorted(os.listdir(HERE))}
    for row in sorted(FAMILY_ROWS):
        for rank in family_smallest_ranks(row):
            if rank <= 4:
                p = mr_family(row, rank).polytope
                out[f"{row}-{rank}"] = p
                out[f"{row}-{rank}-dual"] = p.dual()
    rng = random.Random(11)
    for i in range(4):
        p = random_polytope(rng)
        out[f"random-{i}"] = p
        out[f"random-{i}-dual"] = dilated_polar(p)
    return out


@lru_cache(maxsize=None)
def volume_cases():
    """Name -> polytope: the polytopes above, the golden polytopes, and
    every family member of rank 5 and its dual."""
    out = dict(polytopes())
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for name in sorted(os.listdir(golden)):
        if name.endswith(".poly"):
            with open(os.path.join(golden, name), encoding="utf-8") as f:
                out["golden-" + name[:-5]] = fileio.parse_polytope(f.read())
    for row in sorted(FAMILY_ROWS):
        if 5 in family_smallest_ranks(row):
            p = mr_family(row, 5).polytope
            out[f"{row}-5"] = p
            out[f"{row}-5-dual"] = p.dual()
    return out


def fresh(name):
    """An uncached copy, so volumes are computed under the current guard."""
    p = volume_cases()[name]
    return Polytope(p.vertices, p.facets, p.dim)


@lru_cache(maxsize=None)
def volume_oracle(name):
    """The frame path's facet volumes, volume and barycenter, over the
    pulling triangulation."""
    p = fresh(name)
    return ([oracle_face_volume(p, f) for f in p.facet_faces()],
            oracle_volume(p), oracle_barycenter(p))


@lru_cache(maxsize=None)
def oracle(name):
    """Per facet its flag cells, built by the Fraction path of
    ``test_integer_cells`` and refined k times for k <= 1 (k = 0 in
    dimension 4), each with the frame path's measures."""
    p = fresh(name)
    cells = []
    for face in p.facet_faces():
        kinds = [flag_cells(p, face)]
        if p.dim <= 3:
            kinds += [[sub for cell in kind
                       for sub in barycentric_subdivide(cell)]
                      for kind in kinds]
        cells += [(face, kind, oracle_measure_cells(p, face, kind))
                  for kind in kinds]
    return cells


@pytest.fixture(params=["int64", "object"])
def path(request, monkeypatch):
    if request.param == "object":
        monkeypatch.setattr(la, "_INT64_GUARD", 1)
    return request.param


def test_the_polytopes():
    polys = polytopes().values()
    assert len(polys) == 63
    assert sum(not p.is_reflexive for p in polys) >= 9
    assert max(p.dim for p in polys) == 4
    # 11 fixtures, 4 golden polytopes, 27 members of rank <= 5, their
    # duals, and the 8 random polytopes
    assert len(volume_cases()) == 11 + 4 + 2 * 27 + 8
    assert max(p.dim for p in volume_cases().values()) == 5


@pytest.mark.parametrize("name", sorted(volume_cases()))
def test_volumes_match_the_frame(name, path):
    """The flag cells' volumes against a second triangulation."""
    vols, volume, barycenter = volume_oracle(name)
    p = fresh(name)
    assert [p.face_lattice_volume(f) for f in p.facet_faces()] == vols
    assert p.volume == volume
    assert p.barycenter == barycenter
    sm = surface_measure(p)
    assert sm.facet_masses == tuple(enumerate(vols))
    assert sm.total == sum(vols)


@pytest.mark.parametrize("name", sorted(polytopes()))
def test_measure_cells_match_the_frame(name, path):
    p = fresh(name)
    for face, cells, expected in oracle(name):
        rows, denom = scaled_points([v for cell in cells for v in cell])
        (sums, sden), (dets, vden) = p.measure_cells(
            face, np.array(rows).reshape(len(cells), p.dim, p.dim), denom)
        assert [(tuple(la.norm_scalar(Fraction(x, sden)) for x in s),
                 la.norm_scalar(Fraction(det) / vden))
                for s, det in zip(sums.tolist(), dets.tolist())] == expected


def test_non_facet_face_raises(cube):
    with pytest.raises(ValueError):
        cube.face_lattice_volume(cube.face_children(cube.facet_faces()[0])[0])
