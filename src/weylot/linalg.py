"""Exact linear algebra over the rationals and the integers.

The list functions (:func:`adjugate`, :func:`solve`, ...) work on tuples of
ints and Fractions: on one matrix of dimension at most 8 or so they beat
numpy's call overhead.  The array functions (:func:`exact_matmul`,
:func:`batched_det`, :func:`row_index`, ...) work on integer numpy arrays,
and they alone choose between int64 and object ints (:func:`bounded_dtype`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

_INT64_GUARD = 1 << 60


def norm_scalar(q):
    """Collapse Fractions with denominator 1 to plain ints."""
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


def vdot(a, b):
    return norm_scalar(sum(x * y for x, y in zip(a, b)))


def vsub(a, b) -> tuple:
    return tuple(norm_scalar(x - y) for x, y in zip(a, b))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def identity(n) -> tuple:
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


def adjugate(m):
    """Adjugate and determinant of a nonsingular integer matrix: one
    fraction-free Gauss-Jordan pass on [m | I] (Bareiss, *Math. Comp.* 22,
    1968).

    Every entry the pass writes is a minor of [m | I] (Bareiss's
    identity), so each division by the previous pivot is exact; the pass
    ends with +-det I on the left and +-adj on the right, the sign that of
    the row swaps.  Raises ValueError if m is singular.
    """
    n = len(m)
    a = [list(row) + list(e) for row, e in zip(m, identity(n))]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ValueError("adjugate pass needs a nonsingular matrix")
        a[k], a[piv] = a[piv], a[k]
        sign = sign if piv == k else -sign
        top = a[k]
        a = [row if row is top else [(x * top[k] - row[k] * y) // prev
                                     for x, y in zip(row, top)] for row in a]
        prev = top[k]
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


def solve(m, b):
    """Solve the square system m x = b exactly; None if singular.

    Each row is cleared of denominators, and x = adj b / det.
    """
    rows = [clear_denominators(tuple(row) + (y,))[0] for row, y in zip(m, b)]
    try:
        adj, d = adjugate([row[:-1] for row in rows])
    except ValueError:
        return None
    rhs = [row[-1] for row in rows]
    return tuple(norm_scalar(Fraction(vdot(r, rhs), d)) for r in adj)


# -- integer arrays -----------------------------------------------------------

def bounded_dtype(bound):
    """int64 if ``bound`` provably caps every magnitude computed, else object.

    The one place the int64 guard is read: every integer array whose
    values are proven below a bound states that bound here.
    """
    return np.int64 if bound < _INT64_GUARD else object


def _as_array(x):
    """An int sequence as object ints, which cannot overflow; arrays as is."""
    return x if isinstance(x, np.ndarray) else np.array(x, dtype=object)


def matmul_dtype(x, y, factor=1):
    """int64 if each entry of ``factor * (x @ y)`` provably fits, else object.

    An entry of x @ y is a sum of ``x.shape[-1]`` products of an entry of x
    and an entry of y.  ``x`` and ``y`` are integer arrays or int sequences.
    """
    x, y = _as_array(x), _as_array(y)
    return bounded_dtype(int(np.abs(x).max(initial=0))
                         * int(np.abs(y).max(initial=0))
                         * x.shape[-1] * factor)


def exact_matmul(x, y):
    """x @ y of integer arrays or int sequences, in the dtype
    :func:`matmul_dtype` picks."""
    x, y = _as_array(x), _as_array(y)
    dtype = matmul_dtype(x, y)
    return x.astype(dtype) @ y.astype(dtype)


def int_array(points):
    """Least-common-denominator integer coordinates of rational points, as an
    int64 array when every entry fits, else as object ints; products of it
    go through :func:`matmul_dtype`.  Returns ``(array, scale)``."""
    flat, scale = clear_denominators([x for p in points for x in p])
    return np.array(flat, dtype=bounded_dtype(max(map(abs, flat), default=0))
                    ).reshape(len(points), -1), scale


def batched_det(a):
    """Exact determinants of a stack of integer matrices: fraction-free
    Bareiss elimination with row pivoting, on every matrix at once.

    Every entry Bareiss computes is a minor, below H = max(1, |row|)^d by
    Hadamard's inequality, and every product it forms is below H^2; the
    dtype is picked from 2 H^2.
    """
    d = a.shape[-1]
    top = int(np.abs(a).max(initial=0))
    rows = a.astype(bounded_dtype(d * top * top))
    norm2 = max(1, int((rows * rows).sum(axis=-1).max(initial=0)))
    a, at = a.astype(bounded_dtype(2 * norm2 ** d)), np.arange(len(a))
    sign, prev = 1, 1
    for k in range(d - 1):
        piv = k + np.argmax(a[:, k:, k] != 0, axis=1)
        a[at, k], a[at, piv] = a[at, piv], a[at, k]
        sign = np.where(piv == k, sign, -sign)
        pk = a[:, k, k]
        # a zero pivot column leaves zeros below and right of it
        a[:, k + 1:, k + 1:] = (a[:, k + 1:, k + 1:] * pk[:, None, None]
                                - a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
                                ) // np.where(prev == 0, 1, prev)[..., None, None]
        prev = pk
    return sign * a[:, -1, -1]


def row_keys(rows, bound):
    """Exact ids of integer rows with entries in [-bound, bound]: their
    digits in base 2 bound + 1."""
    return exact_matmul(rows + bound,
                        [(2 * bound + 1) ** i for i in range(rows.shape[-1])])


def row_index(rows, table):
    """Per row of ``rows``, its index in the rows of ``table``, or -1 if it
    is none of them: one sorted lookup of exact row keys over one bound
    covering both integer arrays."""
    bound = max(int(np.abs(rows).max(initial=0)),
                int(np.abs(table).max(initial=0)))
    keys, table = row_keys(rows, bound), row_keys(table, bound)
    order = np.argsort(table)
    at = order[np.searchsorted(table[order], keys).clip(max=len(table) - 1)]
    return np.where(table[at] == keys, at, -1)
