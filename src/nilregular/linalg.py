"""Exact linear algebra over the package's coefficient fields.

There is one rank/solve path per field kind.  Over GF(2) a vector is a
Python int, one bit per coordinate, and rank and consistency come from
inserting vectors into an XOR basis keyed by each member's highest set
bit (``gf2_basis``, ``gf2_reduce``); ``rank`` and ``solve`` pack GF(2) rows
into it, and callers that already hold packed vectors call it directly.
Over GF(p) with p > 2 and over the rationals, ``row_reduce`` runs plain
Gaussian elimination on lists of lists.  Everything is exact (field
elements, no floating point), so rank and solvability answers are never
approximations.
"""

from __future__ import annotations

from .fields import GF2


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


def _pack(row) -> int:
    """A GF(2) row (entries 0 or 1) as an int: entry j is bit j."""
    return sum(1 << j for j, value in enumerate(row) if value)


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
        scale = field.inv(matrix[pivot_row][col])
        matrix[pivot_row] = [field.mul(scale, v) for v in matrix[pivot_row]]
        # the pivot row is zero left of col, so only columns col.. change
        tail = matrix[pivot_row][col:]
        for r, row in enumerate(matrix):
            factor = row[col]
            if r == pivot_row or factor == zero:
                continue
            row[col:] = [field.sub(v, field.mul(factor, p))
                         for v, p in zip(row[col:], tail)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(matrix):
            break
    return matrix, pivots


def rank(rows, field) -> int:
    if field == GF2:
        return len(gf2_basis(map(_pack, rows)))
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
    if field == GF2:
        return _solve_gf2(rows, rhs, ncols)
    augmented = [list(row) + [value] for row, value in zip(rows, rhs)]
    echelon, pivots = row_reduce(augmented, field)
    if ncols in pivots:
        return None
    solution = [field.zero] * ncols
    for r, col in enumerate(pivots):
        solution[col] = echelon[r][ncols]
    return solution


def _solve_gf2(rows, rhs, ncols: int):
    # variable j is bit j + 1 and the right-hand side is bit 0, below every
    # variable, so a member keyed by bit length 1 is a row 0 = 1
    basis = gf2_basis(_pack(row) << 1 | value for row, value in zip(rows, rhs))
    if 1 in basis:
        return None
    # back substitution from the lowest pivot up: a member's other
    # variable bits lie below its pivot and are already decided
    solution = 0
    for top in sorted(basis):
        member = basis[top]
        if (member ^ (member & solution).bit_count()) & 1:
            solution |= 1 << (top - 1)
    return [solution >> (j + 1) & 1 for j in range(ncols)]
