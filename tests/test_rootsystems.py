from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylot.errors import (NotLatticePoint, OrbitCapExceeded, UnsupportedType)
from weylot import linalg as la
from weylot.polytope import convex_hull
from weylot.rootsystems import (GroupElement, RootSystem, _cartan_matrix,
                                _change_lattice, block_reflections,
                                build_from_label, build_root_system,
                                dual_system, group_closure, parse_type_label,
                                product, weight_to_coords)
from weylot.symmetry import automorphism_group, reflections
from weylot.weyl import identify_reflection_group

from dominance_oracle import dominant_representative, mat_mul, simple_matrices

CLASSICAL = {
    ("A", 1): (2, 2), ("A", 2): (6, 6), ("A", 3): (12, 24),
    ("A", 4): (20, 120),
    ("B", 2): (8, 8), ("B", 3): (18, 48), ("B", 4): (32, 384),
    ("C", 3): (18, 48), ("C", 4): (32, 384),
    ("D", 4): (24, 192), ("D", 5): (40, 1920),
    ("G", 2): (12, 12), ("F", 4): (48, 1152),
}


# Systems the group closure is checked on: every family up to rank 4, one
# direct product and one weight-lattice system.
CLOSURE_LABELS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4",
                  "F4", "G2", "A1xB2", "B3-weight")


def closure_system(label):
    if label.endswith("-weight"):
        return build_from_label(label[:-len("-weight")], "weight")
    return build_from_label(label)


def weyl_group_by_python(system):
    """Oracle: breadth-first closure in pure Python over tuple matrices."""
    n = system.rank
    gens = [simple_matrices(system, j)
            for j in range(len(system.simple_indices))]
    ident = GroupElement(la.identity(n), la.identity(n))
    seen = {ident.matrix: ident}
    queue = [ident]
    while queue:
        g = queue.pop()
        for j, (smat, sdual) in enumerate(gens):
            mat = mat_mul(smat, g.matrix)
            if mat in seen:
                continue
            elem = GroupElement(mat, mat_mul(sdual, g.dual_matrix))
            seen[mat] = elem
            queue.append(elem)
    return sorted(seen.values(), key=lambda e: e.matrix)


def reflect_by_python(system, root_index, x, side="M"):
    """sigma(m) = m - <m, a^vee> a, or its dual form on the N side."""
    alpha = system.roots[root_index]
    covec = system.coroots[root_index]
    if side == "M":
        t = la.vdot(x, covec)
        return tuple(xi - t * ai for xi, ai in zip(x, alpha))
    t = la.vdot(alpha, x)
    return tuple(xi - t * ci for xi, ci in zip(x, covec))


def orbit_by_python(system, m):
    """Oracle: the Weyl orbit of m by a search over tuples, sorted."""
    seen = {tuple(m)}
    queue = [tuple(m)]
    while queue:
        v = queue.pop()
        for i in system.simple_indices:
            w = reflect_by_python(system, i, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def roots_by_python(C):
    """Oracle: the roots and index-aligned coroots of the Cartan matrix C
    (row i the coroot alpha_i^vee) in simple-root coordinates, sorted on
    the roots, by reflecting (root, coroot) pairs from the simple ones."""
    n = len(C)
    simple = [(tuple(int(k == i) for k in range(n)), tuple(C[i]))
              for i in range(n)]
    seen = dict(simple)
    queue = list(simple)
    while queue:
        alpha, covec = queue.pop()
        for i in range(n):
            t = la.vdot(alpha, C[i])  # <alpha, alpha_i^vee>
            beta = tuple(alpha[k] - t * (k == i) for k in range(n))
            if beta in seen:
                continue
            u = covec[i]
            seen[beta] = tuple(covec[k] - u * C[i][k] for k in range(n))
            queue.append((beta, seen[beta]))
    roots = sorted(seen)
    return roots, [seen[r] for r in roots]


def system_by_python(label):
    """Oracle: ``closure_system(label)`` with the roots of each factor
    from :func:`roots_by_python`."""
    factors = []
    for fam, rk in parse_type_label(label.removesuffix("-weight")):
        C = _cartan_matrix(fam, rk)
        roots, coroots = roots_by_python(C)
        simple = [roots.index(tuple(int(k == i) for k in range(rk)))
                  for i in range(rk)]
        system = RootSystem([(fam, rk)], roots, coroots, simple, C, "root")
        if label.endswith("-weight"):
            basis = tuple(map(tuple, la.inverse(C)))
            system = _change_lattice(system, basis, "weight")
        factors.append(system)
    return reduce(product, factors)


def reflection_matrices(system):
    """Every reflection of ``system`` as tuple matrices (on M, on N), read
    off :func:`block_reflections` over all its roots."""
    n = system.rank
    return [(tuple(map(tuple, b[:n, :n].tolist())),
             tuple(map(tuple, b[n:, n:].tolist())))
            for b in block_reflections(system.roots, system.coroots)]


# Bourbaki's E8 Cartan matrix, written out: nodes 1-3-4-5-6-7-8 in a chain,
# node 2 attached to node 4; E7 is its leading 7x7 block.
E8_CARTAN = ((2, 0, -1, 0, 0, 0, 0, 0),
             (0, 2, 0, -1, 0, 0, 0, 0),
             (-1, 0, 2, -1, 0, 0, 0, 0),
             (0, -1, -1, 2, -1, 0, 0, 0),
             (0, 0, 0, -1, 2, -1, 0, 0),
             (0, 0, 0, 0, -1, 2, -1, 0),
             (0, 0, 0, 0, 0, -1, 2, -1),
             (0, 0, 0, 0, 0, 0, -1, 2))


class TestConstruction:
    @pytest.mark.parametrize("family,rank", sorted(CLASSICAL))
    def test_counts_by_generation(self, family, rank):
        nroots, order = CLASSICAL[(family, rank)]
        r = build_root_system(family, rank)
        assert len(r.roots) == nroots
        assert len(r.weyl_group()) == order

    def test_e6_root_count(self):
        assert len(build_root_system("E", 6).roots) == 72

    def test_e6_group_order_by_generation(self):
        # the largest supported group
        assert len(build_root_system("E", 6).weyl_group()) == 51840

    def test_cartan_a2(self):
        assert build_root_system("A", 2).cartan_matrix == ((2, -1), (-1, 2))

    def test_cartan_matches_bracket_formula(self):
        for label in ("A3", "B3", "C3", "G2", "F4"):
            r = build_from_label(label)
            s = r.simple_roots
            sv = r.simple_coroots
            for i in range(r.rank):
                for j in range(r.rank):
                    assert r.cartan_matrix[i][j] == la.vdot(s[j], sv[i])

    def test_roots_one_sided_in_simple_basis(self):
        for label in ("A2", "B3", "G2", "D4"):
            r = build_from_label(label)
            for alpha in r.roots:
                assert all(x >= 0 for x in alpha) or all(x <= 0 for x in alpha)

    @pytest.mark.parametrize("label", CLOSURE_LABELS)
    def test_roots_match_python_closure(self, label):
        system, oracle = closure_system(label), system_by_python(label)
        assert system.roots == oracle.roots
        assert system.coroots == oracle.coroots
        assert system.simple_indices == oracle.simple_indices

    @pytest.mark.parametrize("rank,count", [(7, 126), (8, 240)])
    def test_e7_e8_are_recognized(self, rank, count):
        C = tuple(row[:rank] for row in E8_CARTAN[:rank])
        roots, coroots = roots_by_python(C)
        assert len(roots) == count
        label, _ = identify_reflection_group(roots, coroots)
        assert label == f"E{rank}"
        assert _cartan_matrix("E", rank) == C

    def test_unsupported(self):
        with pytest.raises(UnsupportedType):
            build_root_system("C", 2)
        with pytest.raises(UnsupportedType):
            build_root_system("E", 7)
        with pytest.raises(UnsupportedType):
            build_root_system("H", 3)


class TestReflections:
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_involution_b2(self, x):
        r = build_root_system("B", 2)
        for i, (smat, sdual) in enumerate(reflection_matrices(r)):
            assert la.mat_vec(smat, x) == reflect_by_python(r, i, x)
            assert la.mat_vec(smat, la.mat_vec(smat, x)) == x
            assert la.mat_vec(sdual, la.mat_vec(sdual, x)) == x

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    @settings(max_examples=40)
    def test_bracket_duality(self, m, n):
        r = build_root_system("G", 2)
        for i, (smat, sdual) in enumerate(reflection_matrices(r)):
            assert la.mat_vec(sdual, n) == reflect_by_python(r, i, n, "N")
            left = la.vdot(la.mat_vec(smat, m), n)
            right = la.vdot(m, la.mat_vec(sdual, n))
            assert left == right

    def test_root_to_minus_root(self):
        a1 = build_root_system("A", 1)
        smat, _ = simple_matrices(a1, 0)
        alpha = a1.simple_roots[0]
        assert la.mat_vec(smat, alpha) == tuple(-x for x in alpha)

    def test_fixed_hyperplane(self):
        b2 = build_root_system("B", 2)
        x = (1, 2)  # <x, alpha_1^vee> = 2*1 - 2 = 0
        assert la.vdot(x, b2.simple_coroots[0]) == 0
        assert la.mat_vec(simple_matrices(b2, 0)[0], x) == x

    def test_b2_e_coordinate_example(self):
        # e-coords (2,1) = alpha-coords (2,3); reflecting at e1-e2 gives (1,2)
        b2 = build_root_system("B", 2)
        assert la.mat_vec(simple_matrices(b2, 0)[0], (2, 3)) == (1, 3)
        # alpha-coords (1,3) = 1*(e1-e2) + 3*e2 = (1,2) in e-coords


class TestOrbits:
    def test_b2_octagon(self):
        b2 = build_root_system("B", 2)
        orb = b2.orbit((2, 3))
        assert len(orb) == 8
        # translate to e-coordinates via e1 = a1 + a2, e2 = a2
        evecs = {(a, b - a) for a, b in orb}
        assert evecs == {(2, 1), (1, 2), (-1, 2), (-2, 1),
                         (-2, -1), (-1, -2), (1, -2), (2, -1)}

    def test_weight_lattice_orbit(self):
        a2w = build_root_system("A", 2, "weight")
        orb = a2w.orbit((1, 0))
        assert orb == ((-1, 1), (0, -1), (1, 0))

    def test_zero_orbit(self):
        assert build_root_system("A", 2).orbit((0, 0)) == ((0, 0),)

    def test_orbit_divides_group_order(self):
        b3 = build_root_system("B", 3)
        for m in [(1, 0, 0), (1, 1, 0), (1, 2, 1)]:
            orbit = b3.orbit(m)
            assert 48 % len(orbit) == 0

    def test_orbit_invariant_under_simple_reflections(self):
        g2 = build_root_system("G", 2)
        orb = set(g2.orbit((2, 1)))
        for j in range(g2.rank):
            smat, _ = simple_matrices(g2, j)
            assert {la.mat_vec(smat, v) for v in orb} == orb

    @pytest.mark.parametrize("label", CLOSURE_LABELS)
    def test_matches_python_search(self, label):
        system = closure_system(label)
        n = system.rank
        for x in [(1,) * n, (2, -1) + (0,) * n, (0,) * (n - 1) + (-3,)]:
            x = x[:n]
            for m in (x, dominant_representative(system, x)[0]):
                assert system.orbit(m) == orbit_by_python(system, m)

    def test_orbit_cap(self, monkeypatch):
        monkeypatch.setenv("WEYLOT_ORBIT_CAP", "3")
        b3 = build_root_system("B", 3)
        with pytest.raises(OrbitCapExceeded):
            b3.orbit((1, 2, 3))


class TestDominance:
    def test_b2_sign_flip(self):
        b2 = build_root_system("B", 2)
        # e-coords (-1,-1) = alpha-coords (-1,-2); dominant form is (1,2)=(1,1)e
        dom, w = dominant_representative(b2, (-1, -2))
        assert dom == (1, 2)
        assert w.apply((-1, -2)) == (1, 2)

    def test_dominant_fixed(self):
        a3 = build_root_system("A", 3)
        x = (3, 4, 3)
        dom, w = dominant_representative(a3, x)
        assert dom == x and w.matrix == la.identity(3)

    def test_a2_simple_root_to_highest(self):
        a2 = build_root_system("A", 2)
        dom, w = dominant_representative(a2, (1, 0))
        assert dom == (1, 1)
        assert w.matrix == simple_matrices(a2, 1)[0]

    def test_dual_side(self):
        b2 = build_root_system("B", 2)
        n = (-1, 0)
        dom, w = dominant_representative(b2, n, side="N")
        assert b2.is_dominant(dom, "N")
        assert w.apply_dual(n) == dom

    def test_group_element_bracket_compatibility(self):
        g2 = build_root_system("G", 2)
        _, w = dominant_representative(g2, (-3, -1))
        m = (2, 5)
        n = (7, -3)
        assert la.vdot(w.apply(m), w.apply_dual(n)) == la.vdot(m, n)


class TestWeylGroup:
    def test_a1(self):
        a1 = build_root_system("A", 1)
        W = a1.weyl_group()
        assert len(W) == 2

    def test_b2_order_8(self):
        assert len(build_root_system("B", 2).weyl_group()) == 8

    def test_a3_order_24(self):
        assert len(build_root_system("A", 3).weyl_group()) == 24

    def test_elements_preserve_roots(self):
        b2 = build_root_system("B", 2)
        roots = set(b2.roots)
        for e in b2.weyl_group():
            assert {la.mat_vec(e.matrix, r) for r in roots} == roots

    @pytest.mark.parametrize("label", CLOSURE_LABELS)
    def test_matches_python_closure(self, label):
        system = closure_system(label)
        oracle = weyl_group_by_python(system)
        elements = system.weyl_group().elements
        assert [e.matrix for e in elements] == [e.matrix for e in oracle]
        assert [e.dual_matrix for e in elements] == \
            [e.dual_matrix for e in oracle]

    @pytest.mark.parametrize("label", CLOSURE_LABELS + (
        "A1xA1", "A1xA1xA2", "B2xG2", "A2xC3"))
    def test_order_is_the_group_size(self, label):
        system = closure_system(label)
        assert system.order == len(system.weyl_group())

    def test_exceptional_orders(self):
        assert build_root_system("E", 6).order == 51840
        assert build_from_label("E6xG2").order == 51840 * 12

    def test_cap_boundary(self):
        b3 = build_root_system("B", 3)
        with pytest.raises(OrbitCapExceeded):
            b3.weyl_group(cap=47)
        assert len(b3.weyl_group(cap=48)) == 48

    def test_group_closure_cap_boundary(self):
        cube = convex_hull([(x, y, z) for x in (1, -1) for y in (1, -1)
                            for z in (1, -1)])
        refs = reflections(cube)
        with pytest.raises(OrbitCapExceeded):
            group_closure(refs, cap=47)
        # the reflections generate all 48 automorphisms, in sorted order
        elements = group_closure(refs, cap=48)
        assert elements.tolist() == [list(map(list, g))
                                     for g in automorphism_group(cube)]

    @pytest.mark.parametrize("label", CLOSURE_LABELS)
    def test_arrays_are_the_elements(self, label):
        W = closure_system(label).weyl_group()
        M, D = W.matrices, W.dual_matrices
        assert M.dtype == D.dtype == np.int64 and len(M) == len(D) == len(W)
        assert [(e.matrix, e.dual_matrix) for e in W] == [
            (tuple(map(tuple, m)), tuple(map(tuple, d)))
            for m, d in zip(M.tolist(), D.tolist())]
        # <M m, D n> = <m, n> for all m, n: M^T D = 1
        eye = np.eye(M.shape[-1], dtype=np.int64)
        assert (np.transpose(M, (0, 2, 1)) @ D == eye).all()

    def test_dual_matrices_preserve_bracket(self):
        a2 = build_root_system("A", 2)
        for e in a2.weyl_group():
            for m in [(1, 0), (2, -3)]:
                for n in [(0, 1), (-1, 4)]:
                    assert la.vdot(la.mat_vec(e.matrix, m),
                                   la.mat_vec(e.dual_matrix, n)) == \
                        la.vdot(m, n)


class TestProductsAndDuality:
    def test_a1_a1(self):
        p = product(build_root_system("A", 1), build_root_system("A", 1))
        assert len(p.roots) == 4
        assert len(p.weyl_group()) == 4

    def test_a1_a2(self):
        p = build_from_label("A1xA2")
        assert len(p.weyl_group()) == 12

    def test_a1_b2(self):
        p = build_from_label("A1xB2")
        assert len(p.weyl_group()) == 16

    def test_dual_of_b2_is_c2_shape(self):
        b2 = build_root_system("B", 2)
        d = dual_system(b2)
        assert d.label() == "C2"
        lengths = sorted(la.vdot(r, r) for r in d.roots)
        lengths_b = sorted(la.vdot(r, r) for r in b2.coroots)
        assert lengths == lengths_b

    def test_dual_involution(self):
        for label in ("A2", "B2", "G2"):
            r = build_from_label(label)
            dd = dual_system(dual_system(r))
            assert dd.roots == r.roots and dd.coroots == r.coroots

    def test_a_self_dual(self):
        a3 = build_root_system("A", 3)
        d = dual_system(a3)
        assert d.cartan_matrix == a3.cartan_matrix

    def test_parse_labels(self):
        assert parse_type_label("B3") == (("B", 3),)
        assert parse_type_label("A1xA2") == (("A", 1), ("A", 2))
        with pytest.raises(UnsupportedType):
            parse_type_label("X")


class TestWeightCoordinates:
    def test_a2_p2_weight(self):
        a2 = build_root_system("A", 2)
        assert weight_to_coords(a2, (3, 0)) == (2, 1)

    def test_g2_short_weight(self):
        g2 = build_root_system("G", 2)
        assert weight_to_coords(g2, (1, 0)) == (2, 1)

    def test_non_lattice_weight(self):
        a2 = build_root_system("A", 2)
        with pytest.raises(NotLatticePoint):
            weight_to_coords(a2, (1, 0))

    def test_weight_lattice_choice(self):
        a2w = build_root_system("A", 2, "weight")
        assert weight_to_coords(a2w, (1, 0)) == (1, 0)
        for alpha in a2w.roots:
            assert la.is_integer_vector(alpha)
