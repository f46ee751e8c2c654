"""The tight-set kernel against the loops it replaced.

``Polytope.incidence``, ``vertex_condition`` and ``star_containment_check``
read their tight sets from one exact integer product, ``tight_matrix``, and
the star check cuts each side once.  The oracles here are the per-point
``vdot`` loops and the per-facet region solves they replaced, unchanged but
for the region solve, which passes each equality as two inequalities.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from weylot import linalg as la
from weylot import weyl
from weylot.cli import _build_record
from weylot.errors import NotReflexive
from weylot.fileio import parse_polytope
from weylot.polytope import h_polytope_vertices
from weylot.rootsystems import build_root_system
from weylot.weyl import (FAMILY_ROWS, StarContainmentVerdict,
                         family_smallest_ranks, mr_family,
                         star_containment_check, vertex_condition,
                         weyl_polytope)

HERE = Path(__file__).parent


def oracle_incidence(p):
    return tuple(frozenset(i for i, v in enumerate(p.vertices)
                           if la.vdot(v, n) == c) for n, c in p.facets)


def oracle_vertex_condition(p):
    if not p.is_reflexive:
        raise NotReflexive("vertex condition is defined for reflexive polytopes")
    dual = p.dual()
    for m in p.vertices:
        for n in dual.vertices:
            if la.vdot(m, n) == 0:
                return False, (m, n)
    return True, None


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

    dual = p.dual()
    dual_chamber = [(tuple(-x for x in system.roots[i]), 0)
                    for i in system.simple_indices]
    for f, (n, c) in enumerate(dual.facets):
        region = oracle_region(list(dual.facets) + dual_chamber,
                               [(n, c)], dual.dim)
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
    """Every fixture, each family member of rank <= 5 and its dual, and a
    rational dual."""
    polys = {path.stem: parse_polytope(path.read_text())
             for path in sorted((HERE / "fixtures").glob("*.poly"))}
    for row in sorted(FAMILY_ROWS):
        for rank in range(1, 6):
            if FAMILY_ROWS[row][1](rank):
                p = mr_family(row, rank).polytope
                polys[f"{row}-{rank}"] = p
                polys[f"{row}-{rank}-dual"] = p.dual()
    polys["b2-octagon-dual"] = polys["b2-octagon"].dual()
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
    assert not SMALL["b2-octagon-dual"].is_lattice
    assert sum(not p.is_reflexive for p in SMALL.values()) >= 2


def test_star_check_matches_the_region_solves_on_every_vertex():
    verdicts = [(star_containment_check(rec), oracle_star_check(rec))
                for rec in every_vertex_records()]
    assert all(new == old for new, old in verdicts)
    sides = [None if v.passed else v.witness[0] for v, _ in verdicts]
    assert (len(sides), sides.count(None), sides.count("primal"),
            sides.count("dual")) == (193, 18, 144, 31)


def test_star_check_matches_the_region_solves_on_golden_inputs():
    for rec in golden_records():
        assert star_containment_check(rec) == oracle_star_check(rec)


@pytest.mark.parametrize("row, rank", [("E6-w2", 6), ("Dn-w2", 6),
                                       ("Bn-cube", 6)])
def test_star_check_matches_the_region_solves_at_rank_6(row, rank):
    rec = mr_family(row, rank)
    assert star_containment_check(rec) == oracle_star_check(rec)


def test_one_cut_per_side(monkeypatch):
    calls = []

    def counted(inequalities, dim):
        calls.append(dim)
        return h_polytope_vertices(inequalities, dim)

    monkeypatch.setattr(weyl, "h_polytope_vertices", counted)
    square = mr_family("Bn-cube", 2)
    triangle = mr_family("An-projective", 2)
    sides = []
    for rec in (square, dataclasses.replace(square, weight=(-1, -2)),
                dataclasses.replace(triangle, weight=(-1, 1))):
        calls.clear()
        verdict = star_containment_check(rec)
        sides.append(verdict.witness and verdict.witness[0])
        assert calls == [2, 2]
    assert sides == [None, "primal", "dual"]
