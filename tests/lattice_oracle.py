"""Root systems by a change of lattice and by direct products, for the tests.

The package builds every system, one type or a product, over the root or
the weight lattice, with one closure over the block-diagonal Cartan matrix.
This oracle takes the older path, which ``tests/test_rootsystems.py``
compares it with: the roots of one type in simple-root coordinates,
re-expressed one root at a time in Fractions in the basis of another
lattice (:func:`change_lattice`, through the exact ``inverse``), then
glued into block sums factor by factor (:func:`product`).
"""

from weylot import linalg as la
from weylot.rootsystems import RootSystem

from dominance_oracle import inverse, mat_vec


def change_lattice(system, basis, name):
    """Re-express a root-lattice system in the basis given by ``basis`` columns.

    Verifies the sandwich condition: the new lattice must contain all roots
    (integer coordinates) and sit inside the weight lattice (integer pairings
    with all coroots).
    """
    n = system.rank
    inv = inverse(basis)
    if inv is None:
        raise ValueError("lattice basis is singular")
    new_roots = []
    for alpha in system.roots:
        x = mat_vec(inv, alpha)
        if not la.is_integer_vector(x):
            raise ValueError("lattice does not contain the root lattice")
        new_roots.append(tuple(la.norm_scalar(v) for v in x))
    bt = la.transpose(basis)
    new_coroots = []
    for covec in system.coroots:
        y = mat_vec(bt, covec)
        new_coroots.append(tuple(la.norm_scalar(v) for v in y))
    for j in range(n):
        col = tuple(basis[i][j] for i in range(n))
        pairings = [la.vdot(col, system.coroots[i]) for i in system.simple_indices]
        if not la.is_integer_vector(pairings):
            raise ValueError("lattice is not inside the weight lattice")
    order = sorted(range(len(new_roots)), key=lambda i: new_roots[i])
    inv_order = {old: new for new, old in enumerate(order)}
    return RootSystem(system.type_label,
                      [new_roots[i] for i in order],
                      [new_coroots[i] for i in order],
                      [inv_order[i] for i in system.simple_indices],
                      system.cartan_matrix, name)


def product(r1, r2):
    """Direct product: block sums of roots, coroots, and Cartan data."""
    if r1.lattice_choice != r2.lattice_choice:
        raise ValueError("lattice choices differ")
    n1, n2 = r1.rank, r2.rank
    roots = []
    coroots = []
    for a, av in zip(r1.roots, r1.coroots):
        roots.append(a + (0,) * n2)
        coroots.append(av + (0,) * n2)
    for b, bv in zip(r2.roots, r2.coroots):
        roots.append((0,) * n1 + b)
        coroots.append((0,) * n1 + bv)
    order = sorted(range(len(roots)), key=lambda i: roots[i])
    pos = {old: new for new, old in enumerate(order)}
    simple = [pos[i] for i in r1.simple_indices]
    simple += [pos[len(r1.roots) + i] for i in r2.simple_indices]
    C = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            C[i][j] = r1.cartan_matrix[i][j]
    for i in range(n2):
        for j in range(n2):
            C[n1 + i][n1 + j] = r2.cartan_matrix[i][j]
    return RootSystem(r1.type_label + r2.type_label,
                      [roots[i] for i in order],
                      [coroots[i] for i in order],
                      simple,
                      tuple(tuple(row) for row in C),
                      r1.lattice_choice)
