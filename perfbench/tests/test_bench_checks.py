"""Each correctness check accepts a true result and catches a corrupted one."""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from weylot import fileio
from weylot.measures import discretize
from weylot.rootsystems import build_from_label, weight_to_coords
from weylot.transport import certify
from weylot.weyl import classify, mr_family, star_containment_check, weyl_polytope

from perfbench import checks, inputs
from perfbench.workloads import run_cli

BENCH = Path(__file__).resolve().parents[1]


def _certify_doc():
    verdict = {"pass": True, "offending_mass": "0/1", "witnesses": []}
    return {"refinement": 1, "source_points": 288, "target_points": 288,
            "cost": "-187/216", "duality_gap": "0/1",
            "stability": dict(verdict), "chamber_support": dict(verdict),
            "reflection_sign": dict(verdict),
            "cyclical_monotonicity": {"pass": True, "max_cycle_length": 3,
                                      "violations": 0},
            "pass": True}


def test_certify_check_catches_a_flipped_verdict():
    expect = checks.CERTIFY_EXPECT["certify-refined"]
    doc = _certify_doc()
    assert checks.check_certify(0, json.dumps(doc), expect) == []
    doc["reflection_sign"]["pass"] = False
    assert checks.check_certify(0, json.dumps(doc), expect)
    doc = _certify_doc()
    doc["pass"] = False
    assert checks.check_certify(0, json.dumps(doc), expect)
    assert checks.check_certify(1, json.dumps(_certify_doc()), expect)
    doc = _certify_doc()
    doc["duality_gap"] = "1/7"
    assert checks.check_certify(0, json.dumps(doc), expect)


def test_certify_check_on_a_real_report(tmp_path):
    path = tmp_path / "B3.poly"
    inputs.write_polytope_file(path, "B3", 1)
    code, text = run_cli(["certify", str(path), "--type", "B3",
                          "--weight", "0,0,2", "--refine", "0"])
    doc = json.loads(text)
    expect = {"cost": doc["cost"], "points": doc["source_points"]}
    assert checks.check_certify(code, text, expect) == []
    assert checks.check_certify(code, text, dict(expect, points=1))


def _cube_clouds(tmp_path):
    """Refine-0 cube clouds in files, and their quotient-route optimal cost."""
    system = build_from_label("B3")
    rec = weyl_polytope(system, weight_to_coords(system, (0, 0, 2)))
    group = system.weyl_group()
    paths = []
    for poly, side in ((rec.polytope, "M"), (rec.polytope.dual(), "N")):
        cloud = discretize(poly, 0, group=group, side=side, system=system)
        path = tmp_path / f"{side}.txt"
        path.write_text(fileio.serialize_measure(cloud.points, cloud.masses))
        paths.append(path)
    return paths, certify(rec, 0).cost


def test_ot_check_catches_moved_mass(tmp_path):
    paths, cost = _cube_clouds(tmp_path)
    rows = [inputs.measure_rows_exact(p.read_text()) for p in paths]
    code, text = run_cli(["ot"] + [str(p) for p in paths])
    assert checks.check_ot(code, text, *rows, expect_cost=cost) == []
    assert checks.check_ot(code, text, *rows, expect_cost=cost + 1)

    doc = json.loads(text)
    plan = doc["plan"]
    (i, j, x), (k, l, y) = plan[0], plan[1]
    assert i != k and j != l
    # Moving mass between two entries breaks the marginals.
    shift = Fraction(x) / 2
    moved = dict(doc, plan=[[i, j, fileio.rational_str(Fraction(x) - shift)],
                            [k, l, fileio.rational_str(Fraction(y) + shift)]]
                 + plan[2:])
    problems = checks.check_ot(code, json.dumps(moved), *rows,
                               expect_cost=cost)
    assert any("sums" in p for p in problems)
    # Moving it around a 2-cycle keeps the marginals but not the cost.
    cycled = dict(doc, plan=[[i, j, fileio.rational_str(Fraction(x) - shift)],
                             [k, l, fileio.rational_str(Fraction(y) - shift)],
                             [i, l, fileio.rational_str(shift)],
                             [k, j, fileio.rational_str(shift)]] + plan[2:])
    problems = checks.check_ot(code, json.dumps(cycled), *rows,
                               expect_cost=cost)
    assert problems and not any("sums" in p for p in problems)


def test_ot_check_catches_infeasible_potentials():
    mu = [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))]
    nu = [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))]
    doc = {"cost": "-1/1", "plan": [[0, 0, "1/2"], [1, 1, "1/2"]],
           "phi": ["0/1", "0/1"], "psi": ["-1/1", "-1/1"]}
    assert checks.check_ot(0, json.dumps(doc), mu, nu, Fraction(-1)) == []
    # Shifting 3 from phi_1 to phi_0 keeps the dual value, but
    # phi_0 + psi_j = 2 exceeds both costs c(m_0, n_j) = -1 and 1.
    bad = dict(doc, phi=["3/1", "-3/1"])
    problems = checks.check_ot(0, json.dumps(bad), mu, nu, Fraction(-1))
    assert problems == ["potentials infeasible on 2 pairs"]


def test_classify_check_catches_a_wrong_aut_order():
    members = inputs.load_members()
    idx = next(i for i, m in enumerate(members)
               if (m["row"], m["rank"]) == ("Bn-cube", 3))
    rec = mr_family("Bn-cube", 3)
    record, star = classify(rec.polytope), star_containment_check(rec)
    assert checks.check_classify(record, star, members[idx]) == []
    wrong = dataclasses.replace(record, aut_order=record.aut_order // 2)
    assert checks.check_classify(wrong, star, members[idx]) == [
        "aut_order 24 != 48"]
    failed = dataclasses.replace(star, passed=False)
    assert checks.check_classify(record, failed, members[idx])


def test_dedupe_check():
    assert checks.check_dedupe(15) == []
    assert checks.check_dedupe(16)


def test_run_fails_without_the_sources(tmp_path):
    """Given only the benchmark's own files, the run exits non-zero and
    prints no result."""
    copy = tmp_path / "perfbench"
    for path in BENCH.rglob("*"):
        rel = path.relative_to(BENCH)
        if path.is_file() and rel.parts[0] != "out" and path.suffix != ".pyc":
            target = copy / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ot-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    from perfbench import run
    from perfbench.tracer import Tracer
    from perfbench.workloads import PassResult
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    runs = {"plain": [PassResult(op_s=[1.0, 2.0], busy_s=3.0),
                      PassResult(op_s=[0.5, 9.0], busy_s=9.5)],
            "traced": [PassResult(op_s=[1.5], busy_s=1.5)]}
    e2e = run.end_to_end(runs, 0.5)
    assert e2e["op_s"][0] == 1.5            # mean of the middle half
    assert e2e["ops_per_s"][0] == 4 / 12.5
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    tracer = Tracer()
    with tracer.op((0, 0)):
        with tracer.span("transport.solve_ot"):
            pass
    layers = run.per_layer(runs, tracer)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for group in ("end_to_end", "per_layer"):
        got = e2e if group == "end_to_end" else layers
        assert all(got[m["name"]][1] == m["unit"] for m in spec[group])
