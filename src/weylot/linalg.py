"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of ``int`` / ``fractions.Fraction`` and is
deliberately dependency-free: the geometry modules need exact answers, and
the matrices involved are tiny (dimension at most 8 or so).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple
Matrix = tuple


def norm_scalar(q):
    """Collapse Fractions with denominator 1 to plain ints."""
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


def vdot(a, b):
    return norm_scalar(sum(x * y for x, y in zip(a, b)))


def vsub(a, b) -> Vector:
    return tuple(norm_scalar(x - y) for x, y in zip(a, b))


def mat_vec(m, v) -> Vector:
    return tuple(vdot(row, v) for row in m)


def transpose(m) -> Matrix:
    return tuple(zip(*m))


def identity(n) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def is_integer_vector(v) -> bool:
    return all(isinstance(norm_scalar(x), int) for x in v)


def primitivize(v):
    """Scale an integer vector by 1/gcd.  Returns (primitive vector, gcd)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(v), 0
    return tuple(x // g for x in v), g


def clear_denominators(v):
    """Integer vector parallel to a rational one.  Returns (ints, lcm of denominators).

    Reads each entry's numerator and denominator, which ints have too.
    """
    mult = lcm(*{x.denominator for x in v})
    return tuple(x.numerator * (mult // x.denominator) for x in v), mult


def independent_rows(rows, limit):
    """Indices of the first ``limit`` rows independent of the rows before them.

    One incremental fraction-free elimination: each row is reduced against
    the kept rows, every kept row being zero in the pivot columns of the
    rows kept before it, and is kept, as a primitive integer row, if
    anything is left.  Fewer than ``limit`` indices come back when the rows
    span less.
    """
    kept = []       # (pivot column, reduced row)
    out = []
    for i, row in enumerate(rows):
        if len(out) == limit:
            break
        r = list(row)
        for c, b in kept:
            if r[c] != 0:
                f, g = b[c], r[c]
                r = [f * x - g * y for x, y in zip(r, b)]
        c = next((j for j, x in enumerate(r) if x != 0), None)
        if c is not None:
            kept.append((c, primitivize(clear_denominators(r)[0])[0]))
            out.append(i)
    return out


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(independent_rows(rows, len(rows[0]) if rows else 0))


def det(m):
    """Exact determinant of an integer matrix (fraction-free Bareiss).

    Raises ValueError for an entry that is not an int.
    """
    n = len(m)
    a = [list(row) for row in m]
    if not all(isinstance(x, int) for row in a for x in row):
        raise ValueError("determinant needs an integer matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def solve(m, b):
    """Solve the square system m x = b exactly; None if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(m, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(norm_scalar(a[i][n]) for i in range(n))


def inverse(m):
    """Exact inverse of a square matrix; None if singular."""
    cols = [solve(m, e) for e in identity(len(m))]
    return None if None in cols else transpose(cols)


def adjugate_int(m):
    """Adjugate of an integer matrix, computed from cofactors."""
    n = len(m)
    if n == 1:
        return ((1,),)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            cof[i][j] = (-1) ** (i + j) * det(minor)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))
