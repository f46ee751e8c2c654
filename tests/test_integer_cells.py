"""Integer cells in ``discretize`` against the Fraction cell path.

``discretize`` keeps every facet's cells as integer vertex rows over one
denominator, from the face walk through refinement to the measurement.
The oracle below is the Fraction path it replaced: face barycenters summed
in Fractions, barycentric subdivision by Fraction averages, cone volumes by
a Fraction determinant, and common-denominator coordinates by an lcm loop.
Clouds must agree in points, masses and ``scaled`` on both paths: every
flag cell ("group", the group-invariant cloud) and ``walls``.
"""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd

import pytest

from weylot import linalg as la
from weylot.measures import (_barycentric_subdivide, discretize,
                             dominant_cloud)
from weylot.weyl import (FAMILY_ROWS, family_smallest_ranks, is_weyl_polytope,
                         mr_family)

from dominance_oracle import det
from test_fixture_files import HERE, load


# -- the Fraction cell path ----------------------------------------------------

def bcenter(p, f):
    vs = f.vertex_indices
    return tuple(
        la.norm_scalar(sum(Fraction(p.vertices[i][c]) for i in vs) / len(vs))
        for c in range(p.dim))


def flag_cells(p, face, keep=None):
    """One cell per face flag; ``keep``, a predicate on barycenters,
    prunes the walk."""
    cells = []

    def walk(f, chain):
        b = bcenter(p, f)
        if keep is not None and not keep(b):
            return
        chain = chain + [b]
        if f.dimension == 0:
            cells.append(tuple(reversed(chain)))
            return
        for child in p.face_children(f):
            walk(child, chain)

    walk(face, [])
    return cells


def barycentric_subdivide(cell):
    s = len(cell) - 1
    if s == 0:
        return [cell]
    out = []
    for perm in permutations(range(s + 1)):
        pts = []
        acc = tuple(Fraction(0) for _ in cell[0])
        for step, idx in enumerate(perm, start=1):
            acc = tuple(a + Fraction(x) for a, x in zip(acc, cell[idx]))
            pts.append(tuple(la.norm_scalar(a / step) for a in acc))
        out.append(tuple(pts))
    return out


def scaled_points(points):
    """Common-denominator integer coordinates for a list of rational points."""
    mult = 1
    for p in points:
        for x in p:
            d = Fraction(x).denominator
            mult = mult * d // gcd(mult, d)
    return [tuple(int(x * mult) for x in p) for p in points], mult


def oracle_discretize(p, cells_per_facet):
    """(points, masses, scaled) of the Fraction path's cells; a centroid
    met on two facets fails."""
    d = p.dim
    accum = {}
    for face, cells in zip(p.facet_faces(), cells_per_facet):
        f = face.facet_indices[0]
        for cell in cells:
            rows, mult = scaled_points(cell)
            centroid = tuple(la.norm_scalar(Fraction(sum(col), d * mult))
                             for col in zip(*rows))
            vol = Fraction(abs(det(rows)),
                           mult ** d * factorial(d - 1) * p.facets[f][1])
            mass, tag = accum.get(centroid, (Fraction(0), f))
            assert tag == f
            accum[centroid] = (mass + vol, f)
    total = sum((mass for mass, _ in accum.values()), Fraction(0))
    points = tuple(sorted(accum))
    masses = tuple(la.norm_scalar(accum[x][0] / total) for x in points)
    return points, masses, scaled_points(points)


# -- the polytopes -------------------------------------------------------------

@lru_cache(maxsize=None)
def polytopes():
    """Name -> (polytope, root system, side): every fixture with its
    detected system and its lattice dual, and every family member of rank
    <= 4 and its dual."""
    out = {}
    for name in sorted(os.listdir(HERE)):
        p = load(name[:-5])
        system = is_weyl_polytope(p).system
        out[name[:-5]] = (p, system, "M")
        if p.is_reflexive:
            out[name[:-5] + "-dual"] = (p.dual(), system, "N")
    for row in sorted(FAMILY_ROWS):
        for rank in family_smallest_ranks(row):
            if rank <= 4:
                rec = mr_family(row, rank)
                out[f"{row}-{rank}"] = (rec.polytope, rec.system, "M")
                out[f"{row}-{rank}-dual"] = (rec.polytope.dual(), rec.system,
                                             "N")
    return out


def refinements(name, kind):
    """k <= 2 up to dimension 3.  In dimension 4 the walls path takes
    k <= 1 and the others k = 0: their k = 1 clouds run the same
    subdivision on up to 27,648 Fraction cells."""
    if polytopes()[name][0].dim <= 3:
        return range(3)
    return range(2 if kind == "walls" else 1)


@lru_cache(maxsize=None)
def oracle_cells(name, kind, k):
    """Per facet, the Fraction path's cells of one kind, refined k times."""
    if k:
        return tuple([sub for cell in cells
                      for sub in barycentric_subdivide(cell)]
                     for cells in oracle_cells(name, kind, k - 1))
    p, system, side = polytopes()[name]
    keep = None
    if kind == "walls":
        keep = lambda x: system.is_dominant(x, side)      # noqa: E731
    return tuple(flag_cells(p, face, keep) for face in p.facet_faces())


@lru_cache(maxsize=None)
def oracle(name, kind, k):
    return oracle_discretize(polytopes()[name][0],
                             oracle_cells(name, kind, k))


@pytest.fixture(params=["int64", "object"])
def path(request, monkeypatch):
    if request.param == "object":
        monkeypatch.setattr(la, "_INT64_GUARD", 1)
    return request.param


def test_the_polytopes():
    polys = polytopes().values()
    assert len(polys) == 65
    assert {p.dim for p, _, _ in polys} == {1, 2, 3, 4}


@pytest.mark.parametrize("kind", ["group", "walls"])
@pytest.mark.parametrize("name", sorted(polytopes()))
def test_clouds_match_the_fraction_path(name, kind, path):
    p, system, side = polytopes()[name]
    for k in refinements(name, kind):
        if kind == "group":
            cloud = discretize(p, k, side=side)
        else:
            cloud = dominant_cloud(p, k, system, side)
        points, masses, (rows, scale) = oracle(name, kind, k)
        assert cloud.points == points
        assert cloud.masses == masses
        assert cloud.scaled[1] == scale
        assert cloud.scaled[0].tolist() == [list(r) for r in rows]


def fractions(cells, denom):
    return [tuple(tuple(la.norm_scalar(Fraction(x, denom)) for x in v)
                  for v in cell) for cell in cells.tolist()]


@pytest.mark.parametrize("name", sorted(polytopes()))
def test_cells_match_the_fraction_path(name, path):
    """Per facet, the flag cells, and up to dimension 3 one subdivision of
    them, as lists of vertex tuples, each running from a vertex up to the
    facet barycenter."""
    p = polytopes()[name][0]
    for f, face in enumerate(p.facet_faces()):
        cells = p.flag_cells(face)
        assert sorted(fractions(*cells)) == sorted(
            oracle_cells(name, "group", 0)[f])
        if p.dim <= 3:
            assert sorted(fractions(*_barycentric_subdivide(*cells))) == \
                sorted(oracle_cells(name, "group", 1)[f])
