import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from weylot import linalg as la
from weylot.polytope import _dd_cone

from dominance_oracle import adjugate, det, fraction_solve


def fraction_rank(rows):
    """Oracle: rank by Gauss-Jordan elimination over the rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def fraction_det(m):
    """Oracle: determinant of a rational matrix by Gaussian elimination."""
    a = [list(map(Fraction, r)) for r in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return la.norm_scalar(out)


def rank_loop(rows, limit):
    """Oracle: the first ``limit`` rows that raise the rank, one rank each."""
    idx = []
    for i, row in enumerate(rows):
        if len(idx) == limit:
            break
        if fraction_rank([rows[j] for j in idx] + [row]) > len(idx):
            idx.append(i)
    return idx


def seeded_rows(rng, dim):
    """Integer rows with a random rank, some leading rows dependent."""
    span = [[rng.randint(-9, 9) for _ in range(dim)]
            for _ in range(rng.randint(1, dim))]
    rows = []
    for _ in range(rng.randint(1, 3 * dim)):
        coeffs = [rng.randint(-3, 3) for _ in span]
        rows.append(tuple(sum(c * s[k] for c, s in zip(coeffs, span))
                          for k in range(dim)))
    # a zero row and a repeated row up front
    return [(0,) * dim, rows[0]] + rows


class TestIndependentRows:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_rank_loop(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 6)
        rows = seeded_rows(rng, dim)
        for limit in (1, dim, len(rows)):
            assert la.independent_rows(rows, limit) == rank_loop(rows, limit)
        assert la.rank(rows) == fraction_rank(rows)

    def test_dependent_leading_rows(self):
        rows = [(2, 4, 6), (1, 2, 3), (-3, -6, -9), (0, 1, 0), (1, 3, 3),
                (0, 0, 5)]
        assert la.independent_rows(rows, 3) == [0, 3, 5]
        assert la.independent_rows(rows, 2) == [0, 3]

    def test_rational_rows(self):
        rows = [(Fraction(1, 2), Fraction(1, 3)), (3, 2), (Fraction(1, 7), 0)]
        assert la.independent_rows(rows, 2) == [0, 2]
        assert la.rank(rows) == 2

    def test_empty(self):
        assert la.independent_rows([], 3) == []
        assert la.rank([]) == 0


class TestDet:
    """The Bareiss determinant of one matrix, an oracle in
    ``dominance_oracle``, against Gauss-Jordan elimination in Fractions."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_fraction_elimination(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 6)
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(d)]
             for _ in range(d)]
        assert det(m) == fraction_det(m)

    def test_fraction_matrix_raises(self):
        with pytest.raises(ValueError):
            det([[Fraction(1, 2), 0], [0, 2]])


def seeded_matrix(rng, n, entry):
    """An n x n matrix of ``entry()`` values, about a third of them 0 so
    that the eliminations swap rows."""
    return [[rng.choice((0, entry(), entry())) for _ in range(n)]
            for _ in range(n)]


class TestAdjugate:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_cofactors(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        # every fourth matrix has entries past int64
        top = (1 << 70) if seed % 4 == 0 else 9
        m = seeded_matrix(rng, n, lambda: rng.randint(-top, top))
        while fraction_det(m) == 0:
            m = seeded_matrix(rng, n, lambda: rng.randint(-top, top))
        assert la.adjugate(m) == (adjugate(m), fraction_det(m))

    @pytest.mark.parametrize("m", [
        [[0]],
        [[1, 2], [2, 4]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[1 << 70, 1], [1 << 71, 2]],
    ])
    def test_singular_raises(self, m):
        with pytest.raises(ValueError):
            la.adjugate(m)


class TestSolve:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fraction_gauss_jordan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)

        def entry():
            if rng.random() < 0.5:
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

        m = seeded_matrix(rng, n, entry)
        if seed % 5 == 0 and n > 1:
            # a singular system: the last row repeats a multiple of the first
            m[-1] = [Fraction(3, 2) * x for x in m[0]]
        b = [entry() for _ in range(n)]
        got, want = la.solve(m, b), fraction_solve(m, b)
        assert got == want
        if want is not None:
            assert [type(x) for x in got] == [type(x) for x in want]

    def test_singular_is_none(self):
        assert la.solve([[1, 2], [Fraction(1, 2), 1]], [1, 0]) is None
        assert la.solve([[0, 0], [0, 0]], [0, 0]) is None


class TestIntegerArrays:
    def test_exact_matmul_of_int_sequences(self):
        big = 1 << 70
        assert la.exact_matmul([[1, 2]], [[3], [4]]).dtype == np.int64
        out = la.exact_matmul([[big, 1]], [[big], [-1]])
        assert out.dtype == object and out.tolist() == [[big * big - 1]]

    @pytest.mark.parametrize("guard", [False, True])
    def test_row_index_matches_a_scan(self, guard, monkeypatch):
        rng = random.Random(7)
        table = np.array(rng.sample(list(product(range(-3, 4), repeat=3)), 10))
        rows = np.array([[rng.randint(-4, 4) for _ in range(3)]
                         for _ in range(40)]).reshape(8, 5, 3)
        rows[0, 0] = table[3]
        if guard:
            monkeypatch.setattr(la, "_INT64_GUARD", 1)
        where = {tuple(r): i for i, r in enumerate(table.tolist())}
        assert la.row_index(rows, table).tolist() == [
            [where.get(tuple(r), -1) for r in block]
            for block in rows.tolist()]


class TestDDConeSeed:
    def test_rows_that_do_not_span(self):
        rows = [(1, 0, -1), (0, 1, -1), (1, 1, -2), (-1, -1, 2)]
        with pytest.raises(ValueError, match="do not span"):
            _dd_cone(rows)

    def test_dependent_leading_rows(self):
        # the unit square's facets, homogenized; a repeated row comes first
        rows = [(1, 0, -1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
        rays = _dd_cone(rows)
        assert sorted(rays) == sorted(
            [(x, y, 1) for x in (-1, 1) for y in (-1, 1)])
