"""Seeded input generation for the benchmark workloads.

Everything here is plain Python and does not import weylot, so the inputs
a run feeds the program depend only on the seed and the pinned data under
``data/``.  The same seed gives byte-identical files and entries.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Orbit hulls in the root-lattice coordinates that `weylot certify` expects
# for the given type and weight (its input file must match them as a set).
CERTIFY_POLYTOPES = {
    "B3": ((-1, -2, -3), (-1, -2, -1), (-1, 0, -1), (-1, 0, 1),
           (1, 0, -1), (1, 0, 1), (1, 2, 1), (1, 2, 3)),
}

# The refine-1 invariant boundary clouds of the B3 cube and its dual, rows
# in one uniformly random order (the order discretize emits, shuffled once
# by random.Random(0)).  Every seed gets these files as they are: the row
# order moves the solver's pivot count, and with it the time of a solve.
OT_FILES = ("cube-k1-mu.txt", "cube-k1-nu.txt")

# Largest |coordinate| of a transformed classify-gl entry lies in this range.
COORD_RANGE = (21, 40)
MATRICES_PER_MEMBER = 2
MAPS_SEED = 0


def write_polytope_file(path, type_label, seed):
    """The pinned orbit hull of ``type_label`` with seed-shuffled vertex rows."""
    rows = list(CERTIFY_POLYTOPES[type_label])
    random.Random(seed).shuffle(rows)
    lines = [f"# {type_label} orbit hull, seed {seed}",
             f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def measure_rows_exact(text):
    """Rows of a measure file as (point, mass) with exact rationals."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    return [(tuple(Fraction(t) for t in row[:-1]), Fraction(row[-1]))
            for row in lines[1:]]


def load_members():
    """The 21 family-table members of rank 2-4 with their pinned invariants."""
    return json.loads((DATA / "members.json").read_text(encoding="utf-8"))


def mat_vec(mat, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in mat)


def determinant(mat):
    """Exact determinant by fraction-free elimination (Bareiss)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_matrix(rng, vertices, lo=COORD_RANGE[0], hi=COORD_RANGE[1]):
    """A random det +-1 integer matrix whose image of ``vertices`` has its
    largest |coordinate| in [lo, hi].

    It starts from a signed permutation and adds +-1 or +-2 times one row
    to another until the image is large enough, restarting on overshoot.
    """
    d = len(vertices[0])
    while True:
        perm = list(range(d))
        rng.shuffle(perm)
        mat = [[rng.choice((1, -1)) if c == perm[r] else 0 for c in range(d)]
               for r in range(d)]
        while True:
            i, j = rng.sample(range(d), 2)
            c = rng.choice((1, -1, 2, -2))
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            top = max(abs(x) for v in vertices for x in mat_vec(mat, v))
            if top > hi:
                break
            if top >= lo:
                return tuple(tuple(row) for row in mat)


def classify_entries(members, seed):
    """The database of one classify-gl pass: each member under
    MATRICES_PER_MEMBER unimodular maps, vertex order shuffled by ``seed``.

    The maps come from the fixed MAPS_SEED, not from ``seed``: which map an
    entry gets moves the cost of its automorphism search by up to +-30%
    (An-roots rank 3: 0.04-0.08 s), enough to move the median operation of
    a pass by 12-17% between seeds.  Convex hulls sort their vertices, so
    the work of a pass is the same for every ``seed``.

    Returns a list of (member index, matrix, raw vertex tuple).
    """
    maps = random.Random(MAPS_SEED)
    order = random.Random(seed)
    entries = []
    for idx, member in enumerate(members):
        verts = [tuple(v) for v in member["vertices"]]
        for _ in range(MATRICES_PER_MEMBER):
            mat = unimodular_matrix(maps, verts)
            raw = [mat_vec(mat, v) for v in verts]
            order.shuffle(raw)
            entries.append((idx, mat, tuple(raw)))
    return entries
