import gc
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from weylot import fileio, measures, transport, weyl
from weylot import linalg as la
from weylot.cli import main
from weylot.polytope import Polytope, convex_hull
from weylot.rootsystems import RootSystem
from weylot.symmetry import unimodular_equivalent
from weylot.weyl import (WeylPolytopeRecord, is_weyl_polytope,
                         star_containment_check)

from reflection_oracle import reflection_data

FIXTURES = Path(__file__).parent / "fixtures"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def cube_file(tmp_path):
    cube = convex_hull([(x, y, z) for x in (1, -1) for y in (1, -1)
                        for z in (1, -1)])
    return write(tmp_path, "cube.poly", fileio.serialize_polytope(cube))


class TestGenFamily:
    def test_gen_square(self, capsys):
        assert main(["gen", "--type", "B2", "--weight", "0,2"]) == 0
        out = capsys.readouterr().out
        p = fileio.parse_polytope(out)
        assert len(p.vertices) == 4

    def test_gen_product(self, capsys):
        assert main(["gen", "--type", "A1xA1", "--weight", "2,2"]) == 0
        p = fileio.parse_polytope(capsys.readouterr().out)
        assert len(p.vertices) == 4

    def test_family(self, capsys):
        assert main(["family", "--row", "An-projective", "--rank", "2"]) == 0
        p = fileio.parse_polytope(capsys.readouterr().out)
        assert set(p.vertices) == {(2, 1), (-1, 1), (-1, -2)}

    def test_gen_bad_weight(self, capsys):
        assert main(["gen", "--type", "B2", "--weight", "0,x"]) == 2

    def test_gen_non_dominant(self, capsys):
        assert main(["gen", "--type", "B2", "--weight=-1,0"]) == 2


class TestDual:
    def test_cube_gives_octahedron(self, tmp_path, capsys):
        assert main(["dual", cube_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        oct_p = fileio.parse_polytope(out)
        assert len(oct_p.vertices) == 6

    def test_non_reflexive_input(self, tmp_path, capsys):
        octagon = convex_hull([(1, 2), (2, 1), (-1, 2), (2, -1),
                               (1, -2), (-2, 1), (-1, -2), (-2, -1)])
        path = write(tmp_path, "oct.poly", fileio.serialize_polytope(octagon))
        assert main(["dual", path]) == 1
        assert capsys.readouterr() == (
            "", "dual is not a lattice polytope (vertex (Fraction(-1, 2), 0));"
                " the input is not reflexive\n")

    def test_non_reflexive_kite(self, tmp_path, capsys):
        # the least non-integral dual vertex, with its integral entry an int
        path = write(tmp_path, "kite.poly", "4 2\n2 0\n0 1\n-1 0\n0 -1\n")
        assert main(["dual", path]) == 1
        assert capsys.readouterr() == (
            "", "dual is not a lattice polytope (vertex (Fraction(1, 2), -1));"
                " the input is not reflexive\n")


class TestCheck:
    def test_reflexive_pass(self, tmp_path, capsys):
        assert main(["check", cube_file(tmp_path), "--reflexive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reflexive"] is True

    def test_reflexive_fail(self, tmp_path, capsys):
        octagon = convex_hull([(1, 2), (2, 1), (-1, 2), (2, -1),
                               (1, -2), (-2, 1), (-1, -2), (-2, -1)])
        path = write(tmp_path, "oct.poly", fileio.serialize_polytope(octagon))
        assert main(["check", path, "--reflexive"]) == 1

    def test_multiple_flags(self, tmp_path, capsys):
        code = main(["check", cube_file(tmp_path), "--reflexive", "--delzant",
                     "--weyl", "--vertex-condition", "--star"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delzant"] is True
        assert doc["weyl"]["type"] == "B3"
        assert doc["vertex_condition"] is True
        assert doc["star_containment"]["pass"] is True

    def test_weyl_and_star_detect_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return is_weyl_polytope(p)

        monkeypatch.setattr("weylot.cli.is_weyl_polytope", counted)
        assert main(["check", cube_file(tmp_path), "--weyl", "--star"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["weyl"]["type"] == "B3"
        assert doc["star_containment"]["pass"] is True
        assert len(calls) == 1

    def test_vertex_condition_failure(self, tmp_path, capsys):
        hexagon = convex_hull([(1, 0), (0, 1), (1, 1),
                               (-1, 0), (0, -1), (-1, -1)])
        path = write(tmp_path, "hex.poly", fileio.serialize_polytope(hexagon))
        assert main(["check", path, "--vertex-condition"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertex_condition"] is False
        assert doc["vertex_condition_witness"]

    def test_all_checks_on_a_polytope_that_is_not_reflexive(self, capsys):
        # the vertex condition is defined for reflexive polytopes only: the
        # report gives it as null, as classify does, beside the other checks
        code = main(["check", str(FIXTURES / "b2-octagon.poly"), "--reflexive",
                     "--delzant", "--weyl", "--vertex-condition", "--star"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reflexive"] is False
        assert doc["delzant"] is True
        assert doc["weyl"] == {"type": "B2", "dominant_vertex": [2, 3]}
        assert doc["vertex_condition"] is None
        assert doc["vertex_condition_witness"] is None
        assert doc["star_containment"] == {"pass": True, "mode": "certified"}


class TestClassify:
    def test_batch(self, tmp_path, capsys):
        hexagon = convex_hull([(1, 0), (0, 1), (1, 1),
                               (-1, 0), (0, -1), (-1, -1)])
        path1 = cube_file(tmp_path)
        path2 = write(tmp_path, "hex.poly", fileio.serialize_polytope(hexagon))
        assert main(["classify", path1, path2]) == 0
        out = capsys.readouterr().out
        docs = [json.loads(chunk) for chunk in
                out.replace("}\n{", "}\x00{").split("\x00")]
        assert docs[0]["aut_order"] == 48
        assert docs[1]["aut_order"] == 12


class TestCertify:
    def test_cube(self, tmp_path, capsys):
        from weylot.weyl import mr_family
        rec = mr_family("Bn-cube", 3)
        path = write(tmp_path, "cube.poly",
                     fileio.serialize_polytope(rec.polytope))
        code = main(["certify", path, "--type", "B3", "--weight", "0,0,2",
                     "--refine", "0", "--cycles", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["duality_gap"] == "0/1"
        assert doc["stability"]["offending_mass"] == "0/1"

    def test_mismatched_weight(self, tmp_path, capsys):
        path = cube_file(tmp_path)
        assert main(["certify", path, "--type", "B3", "--weight",
                     "1,0,0"]) == 2

    @pytest.mark.parametrize("poly, args, report", [
        ("cube-B3.poly", ["--type", "B3", "--weight", "0,0,2", "--refine",
                          "1", "--cycles", "3"], "certify-cube-B3-k1.json"),
        ("v3-A3.poly", ["--type", "A3", "--weight", "0,2,0", "--refine",
                        "0"], "certify-v3-A3-k0.json"),
        ("2w1-D4.poly", ["--type", "D4", "--weight", "2,0,0,0", "--refine",
                         "0"], "certify-2w1-D4-k0.json"),
        ("w4-F4.poly", ["--type", "F4", "--weight", "0,0,0,1", "--refine",
                        "0"], "certify-w4-F4-k0.json"),
    ])
    def test_golden_report(self, capsys, poly, args, report):
        golden = Path(__file__).parent / "golden"
        assert main(["certify", str(golden / poly)] + args) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (golden / report).read_bytes()


class TestOt:
    def test_plan_dump(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure",
                   "2 1\n-1 1/2\n1 1/2\n")
        nu = write(tmp_path, "nu.measure",
                   "2 1\n-1 1/2\n1 1/2\n")
        assert main(["ot", mu, nu]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == "-1/1"
        assert doc["plan"] == [[0, 0, "1/2"], [1, 1, "1/2"]]

    def test_unbalanced(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure", "2 1\n-1 1/2\n1 1/2\n")
        nu = write(tmp_path, "nu.measure", "2 1\n-1 1/3\n1 1/3\n")
        assert main(["ot", mu, nu]) == 2

    def test_negative_mass_is_an_input_error(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure", "2 1\n-1 3/2\n1 -1/2\n")
        nu = write(tmp_path, "nu.measure", "2 1\n-1 1/2\n1 1/2\n")
        assert main(["ot", mu, nu]) == 2
        assert capsys.readouterr().err.startswith("error: negative mass")

    def test_zero_total_mass_is_an_input_error(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure", "1 1\n0 0\n")
        assert main(["ot", mu, mu]) == 2
        assert capsys.readouterr().err == \
            "error: total mass must be positive\n"

    def test_mixed_dimensions_are_an_input_error(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure", "1 1\n1 1\n")
        nu = write(tmp_path, "nu.measure", "1 2\n1 0 1\n")
        assert main(["ot", mu, nu]) == 2
        assert capsys.readouterr().err == \
            "error: point dimensions differ: 1 vs 2\n"

    def test_zero_masses(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.measure", "3 1\n0 0\n-1 1/2\n1 1/2\n")
        nu = write(tmp_path, "nu.measure", "3 1\n-1 1/2\n2 0\n1 1/2\n")
        assert main(["ot", mu, nu]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == "-1/1"
        assert doc["plan"] == [[1, 0, "1/2"], [2, 2, "1/2"]]
        # the potentials of the zero-mass points are their c-transforms
        phi = [Fraction(x) for x in doc["phi"]]
        psi = [Fraction(x) for x in doc["psi"]]
        xs, ys = (0, -1, 1), (-1, 2, 1)
        assert phi[0] == min(-xs[0] * y - p for y, p in zip(ys, psi))
        assert psi[1] == min(-x * ys[1] - p for x, p in zip(xs, phi))


def crossed_pair(tmp_path):
    """Two-point measures whose optimal plan sends source 0 to target 1 and
    source 1 to target 0."""
    mu = write(tmp_path, "mu.measure", "2 1\n1 1/2\n-1 1/2\n")
    nu = write(tmp_path, "nu.measure", "2 1\n-1 1/2\n1 1/2\n")
    return mu, nu


def greedy_miss(tmp_path):
    """1-D measures one pivot from optimal at the greedy start.  Both
    sources have regret 0, so source -2 fills first; its reduced costs tie
    at 0 on targets -1 and -2, it takes target -1, the first, and that
    leaves target -2 to source 1."""
    mu = write(tmp_path, "mu.measure", "2 1\n-2 1/3\n1 2/3\n")
    nu = write(tmp_path, "nu.measure", "3 1\n-1 1/3\n-2 1/3\n1 1/3\n")
    return mu, nu


class TestResourceCaps:
    def test_orbit_cap_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("WEYLOT_ORBIT_CAP", "4")
        assert main(["gen", "--type", "B3", "--weight", "0,0,2"]) == 3

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-5"])
    def test_bad_orbit_cap_is_an_input_error(self, value, monkeypatch,
                                             capsys):
        # a setting that is not an integer >= 1 is not a resource cap
        monkeypatch.setenv("WEYLOT_ORBIT_CAP", value)
        assert main(["gen", "--type", "B3", "--weight", "0,0,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: WEYLOT_ORBIT_CAP must be an integer")

    @pytest.mark.parametrize("weight", [2 ** 62, 2 ** 70])
    def test_orbit_past_int64_exit_code(self, weight, capsys):
        # the A1 orbit of weight w is +-w/2: past the closure's int64 bound
        assert main(["gen", "--type", "A1", "--weight", str(weight)]) == 3
        assert "int64" in capsys.readouterr().err

    def test_pivot_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(transport, "_PIVOT_CAP", 0)
        assert main(["ot", *greedy_miss(tmp_path)]) == 3
        assert "pivot cap" in capsys.readouterr().err

    def test_pivot_cap_counts_pivots(self, tmp_path, monkeypatch, capsys):
        # the solve takes p = 1 pivot: a cap of p passes, p - 1 fails
        files = greedy_miss(tmp_path)
        monkeypatch.setattr(transport, "_PIVOT_CAP", 1)
        assert main(["ot", *files]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == "-4/3"
        monkeypatch.setattr(transport, "_PIVOT_CAP", 0)
        assert main(["ot", *files]) == 3


class TestInternalCheck:
    def test_self_check_exit_code(self, tmp_path, monkeypatch, capsys):
        # a starting basis that misses nodes fails the spanning self-check
        monkeypatch.setattr(transport, "_greedy_tree",
                            lambda a, b, k: {(0, 0): a[0]})
        assert main(["ot", *crossed_pair(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: basis does not span")

    @pytest.mark.parametrize("start,message", [
        # the zero-flow arc hangs target 1 below source 0, away from the root
        ({(0, 0): 1, (0, 1): 0, (1, 1): 1}, "start basis is not strongly"),
        ({(0, 0): 2, (1, 0): 0, (1, 1): 1}, "start flows miss the marginals"),
    ])
    def test_bad_start_exit_code(self, tmp_path, monkeypatch, capsys, start,
                                 message):
        monkeypatch.setattr(transport, "_greedy_tree", lambda a, b, k: start)
        assert main(["ot", *crossed_pair(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("internal error: " + message)

    def test_centroid_on_a_wall_exit_code(self, monkeypatch, capsys):
        # a walk that keeps every flag cell leaves centroids off the open
        # dominant chamber, which certify's cloud check rejects
        every_cell = measures._flag_cells
        monkeypatch.setattr(measures, "_flag_cells",
                            lambda p, face, walls=None: every_cell(p, face))
        golden = Path(__file__).parent / "golden"
        assert main(["certify", str(golden / "cube-B3.poly"), "--type", "B3",
                     "--weight", "0,0,2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: a kept cell centroid")

    def test_centroid_off_its_facet_exit_code(self, monkeypatch, capsys):
        # every centroid lies inside one facet; a tight matrix that says
        # otherwise is a weylot fault, not an input error
        monkeypatch.setattr(measures, "tight_matrix",
                            lambda pts, scale, facets: np.zeros(
                                (len(pts), len(facets)), dtype=bool))
        golden = Path(__file__).parent / "golden"
        assert main(["certify", str(golden / "cube-B3.poly"), "--type", "B3",
                     "--weight", "0,0,2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(
            "internal error: cell centroid not in a unique facet interior")


    @pytest.mark.parametrize("argv, patch, message", [
        # a hull with a vertex off the orbit
        (["gen", "--type", "B2", "--weight", "0,2"],
         (weyl, "convex_hull", lambda points: convex_hull(
             list(points) + [tuple(2 * x for x in points[0])])),
         "orbit points failed to all be vertices"),
        # a family member the reflexivity test rejects
        (["family", "--row", "Bn-cube", "--rank", "2"],
         (Polytope, "is_reflexive", False),
         "family member Bn-cube rank 2 is not reflexive"),
    ])
    def test_table_self_check_exit_code(self, monkeypatch, capsys, argv,
                                        patch, message):
        monkeypatch.setattr(*patch)
        assert main(argv) == 4
        assert capsys.readouterr().err == f"internal error: {message}\n"


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.poly", "--reflexive"]) == 2

    def test_malformed(self, tmp_path, capsys):
        path = write(tmp_path, "bad.poly", "not a header\n")
        assert main(["check", path, "--reflexive"]) == 2

    def test_rows_past_the_polytope_header(self, tmp_path, capsys):
        diamond = "4 2\n1 0\n-1 0\n0 1\n0 -1\n"
        path = write(tmp_path, "diamond.poly", diamond)
        assert main(["check", path, "--reflexive"]) == 0
        path = write(tmp_path, "extra.poly", diamond + "3 3\n")
        assert main(["check", path, "--reflexive"]) == 2
        assert capsys.readouterr().err == "error: expected 4 rows, found 5\n"

    def test_rows_past_the_measure_header(self, tmp_path, capsys):
        nu = write(tmp_path, "nu.txt", "1 1\n1 1\n")
        mu = write(tmp_path, "mu.txt", "1 1\n-1 1\n")
        assert main(["ot", mu, nu]) == 0
        mu = write(tmp_path, "extra.txt", "1 1\n-1 1\n2 1\n")
        assert main(["ot", mu, nu]) == 2
        assert capsys.readouterr().err == "error: expected 1 rows, found 2\n"


class TestInProcess:
    def test_repeated_calls_free_no_parser_objects(self, capsys):
        # the parser is built once and reused, so a call leaves no argparse
        # objects in reference cycles for the collector
        argv = ["gen", "--type", "B2", "--weight", "0,2"]
        enabled = gc.isenabled()
        gc.disable()
        try:
            first = main(argv), capsys.readouterr().out
            gc.collect()
            second = main(argv), capsys.readouterr().out
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            freed = [type(o).__name__ for o in gc.garbage
                     if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert first == second and first[0] == 0
        assert freed == []


def detected_record(p, det):
    """Oracle: the record ``check --star`` built before the detection kept
    its root system, from the reflections and simple roots alone."""
    roots = []
    seen = {}
    for mat in det.reflections:
        rd = reflection_data(mat)
        for sign in (1, -1):
            a = tuple(sign * x for x in rd.root)
            seen[a] = tuple(sign * x for x in rd.coroot)
    all_roots = sorted(seen)
    coroots = [seen[a] for a in all_roots]
    simple_roots = det.system.simple_roots
    simple_coroots = det.system.simple_coroots
    simple_idx = [all_roots.index(a) for a in simple_roots]
    cartan = tuple(tuple(la.vdot(simple_roots[j], simple_coroots[i])
                         for j in range(len(simple_roots)))
                   for i in range(len(simple_roots)))
    system = RootSystem([("detected", len(simple_roots))], all_roots,
                        coroots, simple_idx, cartan, "custom")
    return WeylPolytopeRecord(p, system, det.dominant_vertex, "custom")


class TestCheckStar:
    @pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
    def test_matches_the_reflection_record(self, name, capsys):
        path = str(FIXTURES / name)
        p = fileio.parse_polytope((FIXTURES / name).read_text())
        det = is_weyl_polytope(p)
        old = detected_record(p, det).system
        new = det.system
        assert (new.type_label, new.roots, new.coroots, new.simple_indices,
                new.cartan_matrix, new.lattice_choice) == \
            (old.type_label, old.roots, old.coroots, old.simple_indices,
             old.cartan_matrix, old.lattice_choice)
        verdict = star_containment_check(detected_record(p, det))
        code = main(["check", path, "--star"])
        doc = json.loads(capsys.readouterr().out)
        assert code == (0 if verdict.passed else 1)
        assert doc["star_containment"] == {"pass": verdict.passed,
                                           "mode": verdict.mode}


class TestCheckStarNonWeyl:
    def test_star_without_weyl_structure(self, tmp_path, capsys):
        p = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -2)])
        path = write(tmp_path, "asym.poly", fileio.serialize_polytope(p))
        assert main(["check", path, "--star"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["star_containment"] is None
