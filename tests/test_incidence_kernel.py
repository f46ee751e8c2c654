"""The tight-set kernel and the star check against the loops they replaced.

``Polytope.incidence`` and ``vertex_condition`` read their tight sets from
one exact integer product, ``tight_matrix``; ``star_containment_check``
reads facet barycenters.  The oracles here are the per-point ``vdot``
loops and the per-facet region solves, which enumerate each facet's part
in the chamber by double description, passing each equality as two
inequalities.  The star oracle fixes the verdict and the failing side; its
witness differs by design, so each witness of the check is validated on
its own.  Both take P* from the rational polar of ``dominance_oracle``, not
from ``Polytope.dual``, which exists for reflexive polytopes only.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from weylot import linalg as la
from weylot import polytope
from weylot.cli import _build_record
from weylot.errors import NotReflexive
from weylot.fileio import parse_polytope
from weylot.rootsystems import build_root_system
from weylot.weyl import (FAMILY_ROWS, StarContainmentVerdict,
                         family_smallest_ranks, mr_family,
                         star_containment_check, vertex_condition,
                         weyl_polytope)

from dominance_oracle import dilated_polar, polar

HERE = Path(__file__).parent


def oracle_incidence(p):
    return tuple(frozenset(i for i, v in enumerate(p.vertices)
                           if la.vdot(v, n) == c) for n, c in p.facets)


def oracle_vertex_condition(p):
    if not p.is_reflexive:
        raise NotReflexive("vertex condition is defined for reflexive polytopes")
    dual_vertices, _ = polar(p.vertices, p.facets)
    for m in p.vertices:
        for n in dual_vertices:
            if la.vdot(m, n) == 0:
                return False, (m, n)
    return True, None


def h_polytope_vertices(inequalities, dim):
    """Vertices of {x : <x, n> <= c for every (n, c) in ``inequalities``}.

    Integer normals n and rational offsets c; an equality is two opposite
    inequalities.  The region must be bounded and the normals must span.
    Returns a sorted list of rational points (possibly empty).
    """
    rows = []
    for n, c in inequalities:
        scaled, _ = la.clear_denominators(tuple(n) + (c,))
        rows.append(tuple(scaled[:-1]) + (-scaled[-1],))
    rows.append((0,) * dim + (-1,))
    rays = polytope._dd_cone(rows)
    verts = set()
    for ray in rays:
        y, t = ray[:-1], ray[-1]
        if t == 0:
            if any(x != 0 for x in y):
                raise ValueError("region is unbounded")
            continue
        verts.add(tuple(la.norm_scalar(Fraction(x, t)) for x in y))
    return sorted(verts)


class TestRegionEnumeration:
    def test_cube_facet_chamber(self, cube):
        ineqs = list(cube.facets) + [((-1, 1, 0), 0), ((0, -1, 1), 0),
                                     ((0, 0, -1), 0)]
        # the equality <x, e1> = 1 as two inequalities
        ineqs += [((1, 0, 0), 1), ((-1, 0, 0), -1)]
        verts = h_polytope_vertices(ineqs, 3)
        assert verts == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_empty_region(self, square):
        verts = h_polytope_vertices(
            list(square.facets) + [((1, 0), 5), ((-1, 0), -5)], 2)
        assert verts == []


def oracle_region(inequalities, equalities, dim):
    """The old region solve: each equality as the two inequalities that
    the removed ``equalities`` parameter added, in the same order."""
    rows = list(inequalities)
    for n, c in equalities:
        rows += [(n, c), (tuple(-x for x in n), -c)]
    return h_polytope_vertices(rows, dim)


def oracle_star_check(rec):
    """The star check with one region solve per facet outside the star."""
    p = rec.polytope
    system = rec.system
    m = rec.weight

    m_idx = p.vertex_index(m)
    star_facets = [f for f, members in enumerate(oracle_incidence(p))
                   if m_idx in members]
    chamber = [(tuple(-x for x in system.coroots[i]), 0)
               for i in system.simple_indices]
    for f, (n, c) in enumerate(p.facets):
        if f in star_facets:
            continue
        region = oracle_region(list(p.facets) + chamber, [(n, c)], p.dim)
        if not region:
            continue
        if any(all(la.vdot(v, p.facets[g][0]) == p.facets[g][1]
                   for v in region) for g in star_facets):
            continue
        x = tuple(la.norm_scalar(sum(Fraction(v[k]) for v in region)
                                 / len(region)) for k in range(p.dim))
        return StarContainmentVerdict(False, "certified", ("primal", x))

    _, dual_facets = polar(p.vertices, p.facets)
    dual_chamber = [(tuple(-x for x in system.roots[i]), 0)
                    for i in system.simple_indices]
    for n, c in dual_facets:
        region = oracle_region(list(dual_facets) + dual_chamber,
                               [(n, c)], p.dim)
        bad = [y for y in region if la.vdot(m, y) != 1]
        if bad:
            return StarContainmentVerdict(False, "certified", ("dual", bad[0]))
    return StarContainmentVerdict(True, "certified", None)


def every_vertex_records():
    """The two smallest ranks up to 4 of each family row, each member with
    every vertex in turn as its weight."""
    out = []
    for row in sorted(FAMILY_ROWS):
        for rank in family_smallest_ranks(row, 2):
            if rank <= 4:
                rec = mr_family(row, rank)
                out += [dataclasses.replace(rec, weight=v)
                        for v in rec.polytope.vertices]
    return out


def golden_records():
    out = [weyl_polytope(build_root_system("B", 2), (2, 3))]   # the octagon
    for report in sorted((HERE / "golden").glob("certify-*.json")):
        doc = json.loads(report.read_text())
        out.append(_build_record(doc["type"], tuple(doc["weight"]), "root"))
    return out


def small_polytopes():
    """Every fixture, each family member of rank <= 5 and its dual, and the
    octagon's rational dual, dilated to the least lattice polytope."""
    polys = {path.stem: parse_polytope(path.read_text())
             for path in sorted((HERE / "fixtures").glob("*.poly"))}
    for row in sorted(FAMILY_ROWS):
        for rank in range(1, 6):
            if FAMILY_ROWS[row][1](rank):
                p = mr_family(row, rank).polytope
                polys[f"{row}-{rank}"] = p
                polys[f"{row}-{rank}-dual"] = p.dual()
    polys["b2-octagon-dual"] = dilated_polar(polys["b2-octagon"])
    return polys


SMALL = small_polytopes()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_incidence_and_vertex_condition_match_the_loops(name):
    p = SMALL[name]
    assert p.incidence == oracle_incidence(p)
    assert p.vertex_facets == tuple(
        tuple(f for f, members in enumerate(p.incidence) if i in members)
        for i in range(len(p.vertices)))
    if p.is_reflexive:
        assert vertex_condition(p) == oracle_vertex_condition(p)
    else:
        with pytest.raises(NotReflexive):
            vertex_condition(p)


def test_rational_dual_is_covered():
    assert {c for _, c in SMALL["b2-octagon-dual"].facets} == {6}
    assert sum(not p.is_reflexive for p in SMALL.values()) >= 2


def failing_side(verdict):
    return None if verdict.passed else verdict.witness[0]


def check_witness(rec, verdict):
    """A failure's witness is a dominant point of P (or P*) on exactly one
    facet, and that facet misses m (or has <m, y> < 1)."""
    if verdict.passed:
        assert verdict.witness is None
        return
    p, system, m = rec.polytope, rec.system, rec.weight
    side, x = verdict.witness
    facets, walls = ((p.facets, system.simple_coroots) if side == "primal"
                     else (polar(p.vertices, p.facets)[1], system.simple_roots))
    assert all(la.vdot(x, a) >= 0 for a in walls)
    assert all(la.vdot(x, n) <= c for n, c in facets)
    on = [f for f, (n, c) in enumerate(facets) if la.vdot(x, n) == c]
    assert len(on) == 1
    if side == "primal":
        assert p.vertex_index(m) not in oracle_incidence(p)[on[0]]
    else:
        assert la.vdot(m, x) != 1


def check_against_the_oracle(rec):
    """The check's verdict and failing side are the oracle's, and its
    witness is valid; returns the failing side."""
    verdict = star_containment_check(rec)
    assert verdict.mode == "certified"
    assert failing_side(verdict) == failing_side(oracle_star_check(rec))
    check_witness(rec, verdict)
    return failing_side(verdict)


def test_star_check_matches_the_region_solves_on_every_vertex():
    sides = [check_against_the_oracle(rec) for rec in every_vertex_records()]
    assert (len(sides), sides.count(None), sides.count("primal"),
            sides.count("dual")) == (193, 18, 144, 31)


def test_star_check_matches_the_region_solves_on_golden_inputs():
    for rec in golden_records():
        check_against_the_oracle(rec)


@pytest.mark.parametrize("row, rank", [("E6-w2", 6), ("Dn-w2", 6),
                                       ("Bn-cube", 6), ("An-roots", 6),
                                       ("Cn-w2", 6)])
def test_star_check_matches_the_region_solves_at_rank_6(row, rank):
    check_against_the_oracle(mr_family(row, rank))


def test_star_check_runs_no_double_description(monkeypatch):
    square = mr_family("Bn-cube", 2)
    triangle = mr_family("An-projective", 2)
    records = (square, dataclasses.replace(square, weight=(-1, -2)),
               dataclasses.replace(triangle, weight=(-1, 1)))

    def refused(rows):
        raise AssertionError("the star check ran a double description")

    monkeypatch.setattr(polytope, "_dd_cone", refused)
    sides = [failing_side(star_containment_check(rec)) for rec in records]
    assert sides == [None, "primal", "dual"]
