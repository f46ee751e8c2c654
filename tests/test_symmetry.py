import gc
import os
import random
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylot import linalg as la
from weylot import measures
from weylot.errors import GroupCapExceeded
from weylot.measures import _batched_det
from weylot.polytope import convex_hull
from weylot.rootsystems import group_closure
from weylot.symmetry import (_basis_image_search, _vertex_data,
                             automorphism_group, reflections,
                             unimodular_equivalent)
from weylot.weyl import (FAMILY_ROWS, family_smallest_ranks,
                         is_weyl_polytope, mr_family)

import reflection_oracle as oracle
from dominance_oracle import mat_mul
from reflection_oracle import reflection_data
from test_fixture_files import HERE, load
from test_linalg import fraction_det, rank_loop


def automorphisms_by_permutation(p):
    """Oracle: try every vertex permutation and keep the linear ones."""
    verts = p.vertices
    d = p.dim
    basis_idx = []
    rows = []
    for i, v in enumerate(verts):
        if la.rank(rows + [list(v)]) > len(rows):
            basis_idx.append(i)
            rows.append(list(v))
            if len(rows) == d:
                break
    binv = la.inverse(rows)
    found = set()
    vset = set(verts)
    for perm in permutations(range(len(verts))):
        u = tuple(verts[perm[i]] for i in basis_idx)
        t = mat_mul(la.transpose(u), la.transpose(binv))
        if not all(isinstance(la.norm_scalar(x), int) for r in t for x in r):
            continue
        t = tuple(tuple(la.norm_scalar(x) for x in r) for r in t)
        if abs(la.det(t)) != 1:
            continue
        if all(la.mat_vec(t, verts[i]) == verts[perm[i]]
               for i in range(len(verts))):
            found.add(t)
    return found


class TestAutomorphismGroup:
    def test_square_order_matches_oracle(self, square):
        aut = automorphism_group(square)
        assert len(aut) == 8
        assert set(aut) == automorphisms_by_permutation(square)

    def test_hexagon_order_matches_oracle(self, hexagon):
        aut = automorphism_group(hexagon)
        assert len(aut) == 12
        assert set(aut) == automorphisms_by_permutation(hexagon)

    def test_cube_order(self, cube):
        assert len(automorphism_group(cube)) == 48

    def test_group_axioms(self, square):
        aut = set(automorphism_group(square))
        for a in aut:
            assert la.inverse(a) is not None
            inv = tuple(tuple(la.norm_scalar(x) for x in row)
                        for row in la.inverse(a))
            assert inv in aut
            for b in aut:
                assert mat_mul(a, b) in aut

    def test_asymmetric(self):
        p = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -2)])
        aut = automorphism_group(p)
        assert len(aut) == 2  # identity and the x-flip


class TestReflections:
    def test_square_has_four(self, square):
        refs = reflections(square)
        assert len(refs) == 4
        for m in refs:
            assert mat_mul(m, m) == la.identity(2)
            rd = reflection_data(m)
            assert la.vdot(rd.root, rd.coroot) == 2
            # sigma(x) = x - <x, coroot> root on a sample point
            x = (3, 5)
            t = la.vdot(x, rd.coroot)
            expected = tuple(xi - t * ai for xi, ai in zip(x, rd.root))
            assert la.mat_vec(m, x) == expected

    def test_triangle_reflections_generate_s3(self, p2_dual_triangle):
        refs = reflections(p2_dual_triangle)
        assert len(refs) == 3
        assert len(group_closure(refs)) == 6

    def test_asymmetric_polytope_single_reflection(self):
        p = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -2)])
        assert len(reflections(p)) == 1

    def test_reflections_are_automorphisms(self, cube):
        aut = set(automorphism_group(cube))
        refs = reflections(cube)
        assert len(refs) == 9  # 3 coordinate flips + 6 coordinate swaps
        assert set(refs) <= aut


class TestUnimodularEquivalence:
    def test_hexagon_equals_own_dual(self, hexagon):
        t = unimodular_equivalent(hexagon, hexagon.dual())
        assert t is not None
        assert abs(la.det(t)) == 1
        images = {la.mat_vec(t, v) for v in hexagon.vertices}
        assert images == set(hexagon.dual().vertices)

    def test_square_vs_diamond(self, square, diamond):
        assert square.volume == 4 and diamond.volume == 2
        assert unimodular_equivalent(square, diamond) is None

    def test_identity_case(self, square):
        t = unimodular_equivalent(square, square)
        assert t is not None

    def test_sheared_copy(self, p2_dual_triangle):
        shear = ((1, 2), (0, 1))
        moved = convex_hull([la.mat_vec(shear, v)
                             for v in p2_dual_triangle.vertices])
        t = unimodular_equivalent(p2_dual_triangle, moved)
        assert t is not None
        assert {la.mat_vec(t, v) for v in p2_dual_triangle.vertices} == \
            set(moved.vertices)


class TestCaps:
    def test_automorphism_cap(self, cube):
        from weylot.errors import GroupCapExceeded
        with pytest.raises(GroupCapExceeded):
            automorphism_group(cube, cap=5)

    def test_group_closure_cap(self, square):
        from weylot.errors import GroupCapExceeded
        refs = reflections(square)
        with pytest.raises(GroupCapExceeded):
            group_closure(refs, cap=3)

    def test_group_closure_entries_past_int64(self):
        # an infinite group whose entries grow like Fibonacci numbers
        from weylot.errors import GroupCapExceeded
        with pytest.raises(GroupCapExceeded, match="int64"):
            group_closure([((2, 1), (1, 1))])


def random_unimodular(rng, d):
    """A random integer matrix of determinant +-1: signed row operations."""
    if d == 1:
        return ((rng.choice((-1, 1)),),)
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
        if rng.random() < 0.5:
            t[i] = [-a for a in t[i]]
    return tuple(map(tuple, t))


class TestBasisImageSearch:
    @pytest.mark.parametrize("name", sorted(n[:-5] for n in os.listdir(HERE)))
    def test_unimodular_images_of_fixtures(self, name):
        p = load(name)
        rng = random.Random(name)
        order = len(automorphism_group(p))
        for _ in range(3):
            u = random_unimodular(rng, p.dim)
            moved = convex_hull([la.mat_vec(u, v) for v in p.vertices])
            t = unimodular_equivalent(p, moved)
            assert t is not None and abs(la.det(t)) == 1
            assert {la.mat_vec(t, v) for v in p.vertices} == \
                set(moved.vertices)
            assert len(automorphism_group(moved)) == order


# -- the recursive backtracking search, kept as the oracle ------------------

def oracle_gram(polytope):
    """Pairwise vertex products in the form adj(G), G = sum of v v^T; det G."""
    verts = polytope.vertices
    d = polytope.dim
    g = [[sum(v[i] * v[j] for v in verts) for j in range(d)]
         for i in range(d)]
    det = fraction_det(g)
    badj = [[det * x for x in row] for row in la.inverse(g)]
    bv = [la.mat_vec(badj, v) for v in verts]
    return [[la.vdot(u, w) for w in bv] for u in verts], det


def oracle_search(p, gram_p, q, gram_q, first_only, cap):
    """Depth-first backtracking over basis images with per-map Fraction
    checks: integrality, |det| = 1 and the full vertex set."""
    verts_p, verts_q = p.vertices, q.vertices
    d = p.dim
    basis_idx = rank_loop(verts_p, d)
    binv_t = la.transpose(la.inverse([verts_p[i] for i in basis_idx]))
    vset_q = set(verts_q)
    candidates = [[c for c in range(len(verts_q))
                   if gram_q[c][c] == gram_p[bi][bi]] for bi in basis_idx]
    out = []

    def extend(images):
        level = len(images)
        if level == d:
            u = tuple(verts_q[c] for c in images)
            t = mat_mul(la.transpose(u), binv_t)
            if not all(isinstance(la.norm_scalar(x), int)
                       for row in t for x in row):
                return
            t = tuple(tuple(la.norm_scalar(x) for x in row) for row in t)
            if abs(la.det(t)) != 1:
                return
            if all(la.mat_vec(t, v) in vset_q for v in verts_p):
                out.append(t)
                if len(out) > cap:
                    raise GroupCapExceeded(f"more than {cap}")
            return
        bi = basis_idx[level]
        for cand in candidates[level]:
            if all(gram_q[images[prev]][cand] == gram_p[basis_idx[prev]][bi]
                   for prev in range(level)):
                images.append(cand)
                extend(images)
                images.pop()
                if first_only and out:
                    return

    extend([])
    return out


def oracle_automorphisms(p):
    gram, _ = oracle_gram(p)
    return tuple(sorted(oracle_search(p, gram, p, gram, False, 10 ** 6)))


def oracle_equivalent(p, q):
    if p.dim != q.dim or len(p.vertices) != len(q.vertices) \
            or len(p.facets) != len(q.facets) or p.volume != q.volume:
        return None
    gram_p, det_p = oracle_gram(p)
    gram_q, det_q = oracle_gram(q)
    if det_p != det_q or sorted(gram_p[i][i] for i in range(len(gram_p))) \
            != sorted(gram_q[i][i] for i in range(len(gram_q))):
        return None
    found = oracle_search(p, gram_p, q, gram_q, True, 1)
    return found[0] if found else None


def image(u, p):
    return convex_hull([la.mat_vec(u, v) for v in p.vertices])


def conjugate(u, maps):
    """u A u^-1 for each map A, sorted: the automorphisms of u(P)."""
    uinv = la.inverse(u)
    return tuple(sorted(tuple(tuple(la.norm_scalar(x) for x in row)
                              for row in mat_mul(mat_mul(u, a), uinv))
                        for a in maps))


def member_cases():
    """Family members of rank <= 4 and their duals, by name."""
    cases = []
    for row in FAMILY_ROWS:
        for rank in family_smallest_ranks(row):
            if rank <= 4:
                cases.append(f"{row}-{rank}")
                cases.append(f"{row}-{rank}-dual")
    return cases


def fixture_cases():
    return sorted(n[:-5] for n in os.listdir(HERE))


@lru_cache(maxsize=None)
def case(name):
    """A polytope case: a fixture file or a (dual) family member."""
    if name in fixture_cases():
        return load(name)
    row, rank, *dual = name.rsplit("-", 2) if name.endswith("-dual") \
        else name.rsplit("-", 1)
    p = mr_family(row, int(rank)).polytope
    return p.dual() if dual else p


@lru_cache(maxsize=None)
def oracle_case(name):
    return oracle_automorphisms(case(name))


def seeded_images(name, count=3):
    p = case(name)
    rng = random.Random(name)
    out = []
    for _ in range(count):
        u = random_unimodular(rng, p.dim)
        out.append((u, image(u, p)))
    return out


ALL_CASES = fixture_cases() + member_cases()


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("name", ALL_CASES)
    def test_automorphisms(self, name):
        p = case(name)
        expected = oracle_case(name)
        assert automorphism_group(p) == expected
        for u, moved in seeded_images(name):
            assert automorphism_group(moved) == conjugate(u, expected)

    @pytest.mark.parametrize("name", ALL_CASES)
    def test_equivalence_first_map(self, name):
        p = case(name)
        pairs = [(p, moved) for _, moved in seeded_images(name)]
        pairs += [(moved, p) for _, moved in seeded_images(name)]
        pairs.append((p, p.dual()))
        for a, b in pairs:
            t = unimodular_equivalent(a, b)
            assert t == oracle_equivalent(a, b)
            assert t is not None or (a, b) == (p, p.dual())

    def test_search_on_pairs_of_equal_size(self):
        """The bare search, without the quick invariants, and
        ``unimodular_equivalent`` on every pair of member cases with equal
        dimension and vertex count."""
        cases = [case(n) for n in member_cases()]
        pairs = [(a, b) for a in cases for b in cases
                 if a is not b and a.dim == b.dim
                 and len(a.vertices) == len(b.vertices)]
        equivalences = [oracle_equivalent(a, b) for a, b in pairs]
        assert equivalences.count(None) > 10
        for (a, b), expected in zip(pairs, equivalences):
            assert unimodular_equivalent(a, b) == expected
            gram_a, _ = oracle_gram(a)
            gram_b, _ = oracle_gram(b)
            (va, ga, _), (vb, gb, _) = _vertex_data(a, b)
            assert _basis_image_search(va, ga, vb, gb, True, 1) == \
                oracle_search(a, gram_a, b, gram_b, True, 1)

    @pytest.mark.parametrize("name", ["cube", "hexagon", "v3", "Bn-cube-4",
                                      "Dn-w2-4-dual", "An-roots-4"])
    def test_object_ints(self, name, monkeypatch):
        p = case(name)
        (u, moved), = seeded_images(name, 1)
        expected = (automorphism_group(moved),
                    unimodular_equivalent(p, moved))
        monkeypatch.setattr(measures, "_INT64_GUARD", 1)
        (_, gram, _), = _vertex_data(moved)
        assert gram.dtype == object
        assert automorphism_group(moved) == expected[0] \
            == conjugate(u, oracle_case(name))
        assert unimodular_equivalent(p, moved) == expected[1]


RATIONAL_DUAL = [(2, 0), (0, 2), (-2, 0), (0, -2), (1, 1)]


class TestBoundaries:
    def test_cube_cap(self, cube):
        with pytest.raises(GroupCapExceeded):
            automorphism_group(cube, cap=47)
        assert len(automorphism_group(cube, cap=48)) == 48

    def test_rational_vertices(self):
        q = convex_hull(RATIONAL_DUAL).dual()
        assert any(x.denominator > 1 for v in q.vertices for x in v)
        aut = automorphism_group(q)
        assert len(aut) == 8 and aut == oracle_automorphisms(q)
        t = unimodular_equivalent(q, q)
        assert t is not None and t == oracle_equivalent(q, q)

    @pytest.mark.parametrize("verts, order", [
        # a map of the basis onto vertices, isometric in the forms and
        # integral, that sends (1, 3, 0) off the vertex set
        ([(-2, 0, 2), (-1, -2, 2), (-1, 1, 0), (1, -1, 0), (1, 2, -2),
          (1, 3, 0), (2, 0, -2)], 1),
        # a basis image that no integral map reaches
        ([(-1, 2), (0, -2), (0, 2), (1, -2)], 4),
    ])
    def test_each_leaf_check_is_needed(self, verts, order):
        p = convex_hull(verts)
        aut = automorphism_group(p)
        assert len(aut) == order and aut == oracle_automorphisms(p)

    # With all-zero Gram matrices every tuple passes the form test, so
    # only the exact leaf checks stand between a tuple and a map.

    def test_rows_outside_the_box_of_q_do_not_match(self):
        """(-3, -1) clips onto q's vertex (-1, -1) but is not one."""
        verts_p = np.array([(1, 0), (0, 1), (-3, -1)])
        verts_q = np.array([(1, 0), (0, 1), (-1, -1)])
        zero = np.zeros((3, 3), dtype=np.int64)
        assert _basis_image_search(verts_p, zero, verts_q, zero,
                                   False, 10) == []

    def test_singular_maps_are_rejected(self, diamond):
        """((1, -1), (0, 0)) sends the diamond's vertices into themselves."""
        (verts, _, _), = _vertex_data(diamond)
        zero = np.zeros((4, 4), dtype=np.int64)
        found = _basis_image_search(verts, zero, verts, zero, False, 100)
        assert sorted(found) == list(automorphism_group(diamond))

    def test_dimension_one(self, segment):
        assert automorphism_group(segment) == (((-1,),), ((1,),))

    @pytest.mark.parametrize("verts, group", [
        ([(-1 << 62,), (1 << 62,)], (((-1,),), ((1,),))),
        ([(-1 << 62, 0), (1 << 62, 0), (0, -1), (0, 1)],
         (((-1, 0), (0, -1)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)),
          ((1, 0), (0, 1)))),
    ])
    def test_vertices_past_the_int64_guard(self, verts, group):
        # row keys add the coordinate bound to every entry, which wraps
        # in int64 at 2^62; vertices past the guard are object ints
        p = convex_hull(verts)
        assert automorphism_group(p) == group
        assert unimodular_equivalent(p, p) == group[-1]


class TestBatchedDet:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_matches_bareiss(self, d):
        rng = random.Random(d)
        mats = [[[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(d)]
                 for _ in range(d)] for _ in range(200)]
        mats.append([[0] * d for _ in range(d)])
        mats.append([[int(i + j == d - 1) for j in range(d)]
                     for i in range(d)])          # pivots off the diagonal
        expected = [la.det(m) for m in mats]
        assert any(x == 0 for x in expected) and any(x != 0 for x in expected)
        for dtype in (np.int64, object):
            assert _batched_det(np.array(mats, dtype=dtype)).tolist() \
                == expected


class TestNoReferenceCycles:
    def test_search_leaves_no_garbage(self, cube):
        automorphism_group(cube)
        unimodular_equivalent(cube, cube)
        gc.collect()
        gc.disable()
        try:
            automorphism_group(cube)
            unimodular_equivalent(cube, cube)
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- Weyl detection against the tuple-at-a-time oracle ----------------------

def detection_summary(det):
    """Everything a detection reports: label, reflections, dominant vertex
    and the detected system's roots, coroots, simple indices and Cartan
    matrix."""
    if det is None:
        return None
    s = det.system
    return (det.type_label, det.reflections, det.dominant_vertex, s.roots,
            s.coroots, s.simple_indices, s.cartan_matrix, s.type_label)


def with_reflexive_duals(polytopes):
    return [q for p in polytopes
            for q in ((p, p.dual()) if p.is_reflexive else (p,))]


@lru_cache(maxsize=None)
def detection_set(name):
    """The classify-gl benchmark entries (seed 1), every family member of
    rank <= 5 among each row's three smallest ranks, or every fixture; each
    with its dual when reflexive."""
    if name == "classify-gl":
        from perfbench.inputs import classify_entries, load_members
        base = [convex_hull(raw)
                for _, _, raw in classify_entries(load_members(), 1)]
    elif name == "members":
        base = [mr_family(row, rank).polytope for row in sorted(FAMILY_ROWS)
                for rank in family_smallest_ranks(row, 3) if rank <= 5]
    else:
        base = [load(n) for n in fixture_cases()]
    return with_reflexive_duals(base)


class TestWeylDetectionAgainstOracle:
    @pytest.mark.parametrize("guard", [False, True])
    @pytest.mark.parametrize("name", ["classify-gl", "members", "fixtures"])
    def test_same_detections(self, name, guard, monkeypatch):
        polytopes = detection_set(name)
        expected = [detection_summary(oracle.is_weyl_polytope(p))
                    for p in polytopes]
        if guard:
            monkeypatch.setattr(measures, "_INT64_GUARD", 1)
        for p, summary in zip(polytopes, expected):
            assert reflections(p) == oracle.reflections(p)
            assert detection_summary(is_weyl_polytope(p)) == summary

    @pytest.mark.parametrize("verts, count, expected", [
        ([(1 << 62,), (-1 << 62,)], 1, ("A1", (1 << 62,))),
        ([(1 << 62, 0), (-1 << 62, 0), (0, 1), (0, -1)], 2, None),
        ([(1 << 62, 0), (-1 << 62, 0), (0, 1 << 62), (0, -1 << 62)], 4,
         ("B2", (0, 1 << 62))),
    ])
    def test_entries_past_int64(self, verts, count, expected):
        p = convex_hull(verts)
        det = is_weyl_polytope(p)
        assert len(reflections(p)) == count
        assert (det and (det.type_label, det.dominant_vertex)) == expected
        assert detection_summary(det) == \
            detection_summary(oracle.is_weyl_polytope(p))


RANK4_MEMBERS = [f"{row}-{rank}" for row in sorted(FAMILY_ROWS)
                 for rank in family_smallest_ranks(row) if rank <= 4]


class TestDetectionEquivariance:
    @given(st.sampled_from(RANK4_MEMBERS), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_unimodular_image(self, name, seed):
        """U P has the type of P, the reflections U sigma U^-1 and the
        oracle's detection: the non-canonical coordinates of classify-gl."""
        p = case(name)
        u = random_unimodular(random.Random(seed), p.dim)
        moved = image(u, p)
        det, moved_det = is_weyl_polytope(p), is_weyl_polytope(moved)
        assert moved_det.type_label == det.type_label
        assert moved_det.reflections == conjugate(u, det.reflections)
        assert detection_summary(moved_det) == \
            detection_summary(oracle.is_weyl_polytope(moved))
