import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest

from weylot.errors import MalformedHeader, NonIntegerEntry
from weylot import fileio
from weylot.cli import main
from weylot.polytope import convex_hull
from weylot.transport import CertificationReport, CheckVerdict, CycleVerdict
from weylot.weyl import classify


SQUARE_COLS = "2 4\n1 1 -1 -1\n1 -1 1 -1\n"
SQUARE_ROWS = "4 2\n1 1\n1 -1\n-1 1\n-1 -1\n"


class TestParse:
    def test_column_convention(self):
        p = fileio.parse_polytope(SQUARE_COLS)
        assert set(p.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_row_convention(self):
        p = fileio.parse_polytope(SQUARE_ROWS)
        assert set(p.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_comments_ignored(self):
        text = "# a square\n" + SQUARE_ROWS + "# trailing note\n"
        p = fileio.parse_polytope(text)
        assert len(p.vertices) == 4

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            fileio.parse_polytope("4\n1 1\n")
        with pytest.raises(MalformedHeader):
            fileio.parse_polytope("a b\n")
        with pytest.raises(MalformedHeader):
            fileio.parse_polytope("")

    def test_non_integer_entry(self):
        with pytest.raises(NonIntegerEntry):
            fileio.parse_polytope("2 4\n1 1 -1 -1\n1 x 1 -1\n")

    def test_wrong_row_width(self):
        with pytest.raises(NonIntegerEntry):
            fileio.parse_polytope("2 4\n1 1 -1\n1 -1 1 -1\n")

    def test_bad_measure_token_after_repeats(self):
        # good tokens repeat before the bad one, which still fails alone
        text = "3 2\n1/2 0 1/3\n0 1/2 1/3\n1/2 x/2 1/3\n"
        with pytest.raises(NonIntegerEntry,
                           match=r"^cannot parse rational 'x/2'$"):
            fileio.parse_measure(text)
        with pytest.raises(ValueError,
                           match=r"^negative mass '-1/3': '0 1/2 -1/3'$"):
            fileio.parse_measure("2 2\n1/2 0 1/3\n0 1/2 -1/3\n")

    def test_repeated_measure_tokens_parse_alike(self):
        points, masses = fileio.parse_measure(
            "3 2\n2/4 0 1/3\n0 2/4 1/3\n2/4 2/4 2/6\n")
        assert points == ((Fraction(1, 2), 0), (0, Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2)))
        assert masses == (Fraction(1, 3),) * 3
        assert isinstance(points[0][1], int)


class TestRoundTrip:
    def test_parse_serialize_identity(self, cube, hexagon):
        for p in (cube, hexagon):
            text = fileio.serialize_polytope(p)
            again = fileio.parse_polytope(text)
            assert again == p
            assert fileio.serialize_polytope(again) == text

    def test_serialize_parse_idempotent(self):
        text = fileio.serialize_polytope(fileio.parse_polytope(SQUARE_COLS))
        assert fileio.serialize_polytope(fileio.parse_polytope(text)) == text

    def test_measure_roundtrip(self):
        pts = ((1, Fraction(1, 2)), (Fraction(-1, 2), -1))
        masses = (Fraction(2, 3), Fraction(1, 3))
        text = fileio.serialize_measure(pts, masses)
        pts2, masses2 = fileio.parse_measure(text)
        assert pts2 == pts and masses2 == masses


class TestReports:
    def test_rationals_as_strings(self):
        assert fileio.rational_str(Fraction(0)) == "0/1"
        assert fileio.rational_str(Fraction(-3, 4)) == "-3/4"

    def test_classification_doc(self, cube):
        doc = fileio.classification_json(classify(cube), "deadbeef")
        assert doc["aut_order"] == 48
        assert doc["input_hash"] == "deadbeef"
        assert doc["weyl"]["type"] == "B3"
        text = fileio.write_report(doc)
        assert '"aut_order": 48' in text
        assert "0.333" not in text

    def test_deterministic_bytes(self, hexagon):
        doc1 = fileio.classification_json(classify(hexagon), "h")
        doc2 = fileio.classification_json(classify(hexagon), "h")
        assert fileio.write_report(doc1) == fileio.write_report(doc2)

    def test_witness_serialized_as_integer_vectors(self, hexagon):
        doc = fileio.classification_json(classify(hexagon), "h")
        assert doc["vertex_condition"] is False
        wit = doc["vertex_condition_witness"]
        assert isinstance(wit, list) and len(wit) == 2
        assert all(isinstance(x, int) for vec in wit for x in vec)

    def test_failing_certification(self):
        # no golden report fails a check: a hand-built failing report pins
        # the failure schema, pair and (pair, root) witnesses alike
        half = Fraction(1, 2)
        report = CertificationReport(
            stability=CheckVerdict(False, Fraction(1, 8),
                                   (((1, half), (-1, 0)),)),
            chamber_support=CheckVerdict(True, Fraction(0), ()),
            reflection_sign=CheckVerdict(
                False, Fraction(3, 8), ((((2, 1), (0, -1)), (1, 0)),
                                        (((1, 1), (half, 0)), (0, 1)))),
            cyclical_monotonicity=CycleVerdict(
                False, 3, (((0, 1), (1, 0)), ((2, 2), (3, 0), (0, 3)))),
            duality_gap=Fraction(0), cost=Fraction(-3, 2), refinement=1,
            source_size=4, target_size=6)
        expected = {
            "tool": fileio.TOOL_VERSION, "input_hash": "h", "type": "B2",
            "weight": [0, 2], "refinement": 1, "source_points": 4,
            "target_points": 6, "cost": "-3/2", "duality_gap": "0/1",
            "stability": {"pass": False, "offending_mass": "1/8",
                          "witnesses": [{"pair": [[1, "1/2"], [-1, 0]]}]},
            "chamber_support": {"pass": True, "offending_mass": "0/1",
                                "witnesses": []},
            "reflection_sign": {
                "pass": False, "offending_mass": "3/8",
                "witnesses": [{"pair": [[2, 1], [0, -1]], "root": [1, 0]},
                              {"pair": [[1, 1], ["1/2", 0]],
                               "root": [0, 1]}]},
            "cyclical_monotonicity": {"pass": False, "max_cycle_length": 3,
                                      "violations": 2},
            "pass": False}
        doc = fileio.certification_json(report, "h", "B2", (0, 2))
        assert doc == expected
        # the key order too
        assert fileio.write_report(doc) == \
            json.dumps(expected, indent=2) + "\n"


def report_docs(capsys):
    """The golden certify reports, a classify document and a check
    document."""
    golden = Path(__file__).parent / "golden"
    docs = [json.loads(path.read_text())
            for path in sorted(golden.glob("*.json"))]
    fixtures = Path(__file__).parent / "fixtures"
    for argv in (["classify", str(fixtures / "hexagon.poly")],
                 ["check", str(fixtures / "hexagon.poly"), "--reflexive",
                  "--delzant", "--weyl", "--vertex-condition", "--star"]):
        main(argv)
        docs.append(json.loads(capsys.readouterr().out))
    return docs


class TestWriteReport:
    def test_bytes_match_the_indenting_encoder(self, capsys):
        docs = report_docs(capsys)
        assert len(docs) == 6
        for doc in docs:
            assert fileio.write_report(doc) == json.dumps(doc, indent=2) + "\n"

    def test_leaves_no_reference_cycles(self, capsys):
        docs = report_docs(capsys)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for doc in docs:
                fileio.write_report(doc)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
