"""The traced run wraps the program's own functions and changes no result."""

from weylot import cli, fileio, measures, transport, weyl
from weylot.polytope import Polytope

from perfbench import inputs
from perfbench.tracer import Tracer, instrument
from perfbench.workloads import ClassifyGL, run_cli


def test_traced_certify_runs_the_cli_and_gives_its_report(tmp_path):
    path = tmp_path / "B3.poly"
    inputs.write_polytope_file(path, "B3", 1)
    argv = ["certify", str(path), "--type", "B3", "--weight", "0,0,2",
            "--refine", "0"]
    plain = run_cli(argv)
    tracer = Tracer()
    with instrument(tracer), tracer.op((0, 0)):
        traced = run_cli(argv)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"fileio.parse", "fileio.report", "weyl.weyl_polytope",
            "polytope.hull", "polytope.dual", "rootsystems.weyl_group",
            "measures.discretize", "transport.solve_invariant_ot",
            "transport.check_stability_support",
            "transport.check_chamber_support",
            "transport.check_reflection_sign",
            "transport.check_cyclical_monotonicity"} <= names
    assert "transport.solve_ot" not in names
    assert tracer.counts["rootsystems.group_order"] == 48
    assert tracer.counts["measures.cloud_points"] > 0
    # Every layer span nests in the operation's span.
    assert all(span[4] == (0, 0) for span in tracer.spans)
    times = tracer.self_times()
    assert abs(sum(times.values()) - tracer.op_durations()[(0, 0)]) < 1e-6


def test_instrument_puts_the_originals_back():
    before = (measures.discretize, transport.check_reflection_sign,
              weyl.is_weyl_polytope, cli.is_weyl_polytope,
              fileio.parse_polytope, Polytope.__dict__["is_delzant"],
              Polytope.dual)
    with instrument(Tracer()):
        assert cli.is_weyl_polytope is weyl.is_weyl_polytope
        assert measures.discretize is not before[0]
        assert Polytope.dual is not before[-1]
    after = (measures.discretize, transport.check_reflection_sign,
             weyl.is_weyl_polytope, cli.is_weyl_polytope,
             fileio.parse_polytope, Polytope.__dict__["is_delzant"],
             Polytope.dual)
    assert after == before


def test_traced_classify_pass_matches_the_untraced_one(tmp_path):
    work = ClassifyGL()
    work.setup(1, tmp_path)
    work.entries = work.entries[:6]          # three members, two maps each
    plain = work.run_pass(0)
    tracer = Tracer()
    traced = work.run_pass(0, tracer)
    assert all(p == [] for p in plain.problems[:-1])
    assert traced.problems[:-1] == plain.problems[:-1]
    names = {span[0] for span in tracer.spans}
    assert {"polytope.hull", "symmetry.automorphism_group",
            "weyl.is_weyl_polytope", "weyl.star_containment_check",
            "symmetry.unimodular_equivalent"} <= names
    assert tracer.counts["symmetry.aut_order"] > 0
