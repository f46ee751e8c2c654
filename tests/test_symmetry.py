import os
import random
from itertools import permutations

import pytest

from weylot import linalg as la
from weylot.polytope import convex_hull
from weylot.symmetry import (automorphism_group, generate_group,
                             reflection_data, reflections,
                             unimodular_equivalent)

from test_fixture_files import HERE, load


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
        t = la.mat_mul(la.transpose(u), la.transpose(binv))
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
                assert la.mat_mul(a, b) in aut

    def test_asymmetric(self):
        p = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -2)])
        aut = automorphism_group(p)
        assert len(aut) == 2  # identity and the x-flip


class TestReflections:
    def test_square_has_four(self, square):
        refs = reflections(square)
        assert len(refs) == 4
        for m in refs:
            assert la.mat_mul(m, m) == la.identity(2)
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
        assert len(generate_group(refs)) == 6

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

    def test_generate_group_cap(self, square):
        from weylot.errors import GroupCapExceeded
        refs = reflections(square)
        with pytest.raises(GroupCapExceeded):
            generate_group(refs, cap=3)

    def test_generate_group_entries_past_int64(self):
        # an infinite group whose entries grow like Fibonacci numbers
        from weylot.errors import GroupCapExceeded
        with pytest.raises(GroupCapExceeded, match="int64"):
            generate_group([((2, 1), (1, 1))])


def random_unimodular(rng, d):
    """A random integer matrix of determinant +-1: signed row operations."""
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
