"""The seeded input generator: deterministic, unimodular, row-preserving."""

from collections import Counter

from perfbench import inputs


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for run in ("a", "b"):
        inputs.write_polytope_file(tmp_path / f"{run}.poly", "B3", 7)
    assert (tmp_path / "a.poly").read_bytes() == (tmp_path / "b.poly").read_bytes()
    members = inputs.load_members()
    assert (inputs.classify_entries(members, 7)
            == inputs.classify_entries(members, 7))


def test_other_seed_gives_other_row_order():
    members = inputs.load_members()
    one = inputs.classify_entries(members, 1)
    two = inputs.classify_entries(members, 2)
    assert [e[2] for e in one] != [e[2] for e in two]
    assert [sorted(e[2]) for e in one] == [sorted(e[2]) for e in two]


def test_matrices_are_unimodular_and_map_the_member():
    members = inputs.load_members()
    entries = inputs.classify_entries(members, 3)
    assert len(entries) == len(members) * inputs.MATRICES_PER_MEMBER == 42
    lo, hi = inputs.COORD_RANGE
    for idx, mat, raw in entries:
        assert inputs.determinant(mat) in (1, -1)
        verts = [tuple(v) for v in members[idx]["vertices"]]
        assert Counter(raw) == Counter(inputs.mat_vec(mat, v) for v in verts)
        assert lo <= max(abs(x) for v in raw for x in v) <= hi


def test_determinant():
    assert inputs.determinant(((0, 1), (1, 0))) == -1
    assert inputs.determinant(((2, 1, 0), (1, 1, 0), (0, 0, -1))) == -1
    assert inputs.determinant(((1, 2), (2, 4))) == 0


def test_polytope_file_rows_are_the_pinned_vertices(tmp_path):
    path = tmp_path / "B3.poly"
    inputs.write_polytope_file(path, "B3", 5)
    rows = [tuple(int(x) for x in ln.split())
            for ln in path.read_text().splitlines()[2:]]
    assert sorted(rows) == sorted(inputs.CERTIFY_POLYTOPES["B3"])
