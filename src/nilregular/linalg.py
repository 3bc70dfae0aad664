"""Exact linear algebra over the package's coefficient fields.

``rank`` and ``solve`` run one Gaussian elimination, ``row_reduce`` on
lists of lists, for every field, GF(2) included.  Callers that already
hold GF(2) vectors packed into Python ints, one bit per coordinate (the
GF(2) search scan and the faithfulness rank), skip it: they insert the
vectors into an XOR basis keyed by each member's highest set bit
(``gf2_basis``, ``gf2_reduce``).  Everything is exact (field elements, no
floating point), so rank and solvability answers are never
approximations.
"""

from __future__ import annotations


def gf2_reduce(basis: dict[int, int], vector: int) -> int:
    """What is left of a packed GF(2) vector after XOR-ing out basis
    members; 0 exactly when the vector lies in the basis's span.

    ``basis`` maps each member's bit length (its highest set bit plus one)
    to the member, so every XOR clears the current highest bit and leaves
    only lower ones.
    """
    while vector:
        member = basis.get(vector.bit_length())
        if member is None:
            return vector
        vector ^= member
    return 0


def gf2_basis(vectors) -> dict[int, int]:
    """An echelon basis of the span of packed GF(2) vectors, keyed by the
    bit length of each member; its size is the rank."""
    basis: dict[int, int] = {}
    get = basis.get
    # gf2_reduce inlined: this loop is the search's inner loop
    for vector in vectors:
        while vector:
            top = vector.bit_length()
            member = get(top)
            if member is None:
                basis[top] = vector
                break
            vector ^= member
    return basis


def row_reduce(rows, field):
    """Bring a copy of ``rows`` to reduced row-echelon form.

    Args:
        rows: list of equal-length lists of field elements.
        field: the coefficient field providing the arithmetic.

    Returns:
        (echelon_rows, pivot_columns).
    """
    matrix = [list(row) for row in rows]
    if not matrix:
        return matrix, []
    ncols = len(matrix[0])
    zero = field.zero
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        target = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col] != zero:
                target = r
                break
        if target is None:
            continue
        matrix[pivot_row], matrix[target] = matrix[target], matrix[pivot_row]
        pivot = matrix[pivot_row]
        scale = field.inv(pivot[col])
        # the pivot row is zero left of col, and its zeros right of col
        # change nothing: only its nonzero entries scale and eliminate
        nonzero = [(j, field.mul(scale, pivot[j]))
                   for j in range(col, ncols) if pivot[j] != zero]
        for j, value in nonzero:
            pivot[j] = value
        for r, row in enumerate(matrix):
            factor = row[col]
            if r == pivot_row or factor == zero:
                continue
            for j, value in nonzero:
                row[j] = field.sub(row[j], field.mul(factor, value))
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(matrix):
            break
    return matrix, pivots


def rank(rows, field) -> int:
    return len(row_reduce(rows, field)[1])


def solve(rows, rhs, field):
    """One solution of the linear system rows * x = rhs, or None.

    Args:
        rows: list of m rows, each a list of n field elements.
        rhs: list of m field elements.
        field: the coefficient field.

    Returns:
        A list of n field elements (free variables set to zero), or None
        when the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs must have matching length")
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = [list(row) + [value] for row, value in zip(rows, rhs)]
    echelon, pivots = row_reduce(augmented, field)
    if ncols in pivots:
        return None
    solution = [field.zero] * ncols
    for r, col in enumerate(pivots):
        solution[col] = echelon[r][ncols]
    return solution
