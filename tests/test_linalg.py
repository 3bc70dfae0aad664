"""Elimination against brute force over small prime fields, and the packed
GF(2) kernel against dense elimination."""

import itertools
import random
from fractions import Fraction

import pytest

from nilregular.fields import GF2, GF3, QQ, PrimeField
from nilregular.linalg import gf2_basis, gf2_reduce, rank, row_reduce, solve


def _span(rows, p) -> set:
    return {tuple(sum(c * v for c, v in zip(coefficients, column)) % p
                  for column in zip(*rows))
            for coefficients in itertools.product(range(p), repeat=len(rows))}


def _solutions(rows, rhs, p) -> list:
    return [x for x in itertools.product(range(p), repeat=len(rows[0]))
            if all(sum(a * b for a, b in zip(row, x)) % p == value
                   for row, value in zip(rows, rhs))]


def _check_against_brute_force(field, rng):
    p = field.p
    for _ in range(300):
        height, width = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(height)]
        rhs = [rng.randrange(p) for _ in range(height)]
        echelon, pivots = row_reduce(rows, field)
        for index, col in enumerate(pivots):
            assert [row[col] for row in echelon] == [
                int(r == index) for r in range(height)]
        assert _span(echelon, p) == _span(rows, p)
        assert p ** rank(rows, field) == len(_span(rows, p))
        solutions = _solutions(rows, rhs, p)
        found = solve(rows, rhs, field)
        if solutions:
            assert tuple(found) in solutions
        else:
            assert found is None


def test_elimination_matches_brute_force_over_gf3():
    _check_against_brute_force(GF3, random.Random(5))


def test_packed_gf2_rank_and_solve_match_brute_force():
    _check_against_brute_force(GF2, random.Random(6))


def _dense_rref(rows, p):
    """Gauss-Jordan elimination that scales and clears every entry, zeros
    included: over GF(p), or over the rationals for p = None."""
    def reduced(value):
        return value if p is None else value % p

    def inverse(value):
        return 1 / Fraction(value) if p is None else pow(value, -1, p)

    matrix = [list(row) for row in rows]
    pivots = []
    for col in range(len(matrix[0])):
        top = len(pivots)
        found = next((r for r in range(top, len(matrix)) if matrix[r][col] != 0),
                     None)
        if found is None:
            continue
        matrix[top], matrix[found] = matrix[found], matrix[top]
        scale = inverse(matrix[top][col])
        matrix[top] = [reduced(v * scale) for v in matrix[top]]
        for r, row in enumerate(matrix):
            if r != top and row[col] != 0:
                matrix[r] = [reduced(v - row[col] * w)
                             for v, w in zip(row, matrix[top])]
        pivots.append(col)
    return matrix, pivots


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(5)], ids=lambda f: f.name)
def test_row_reduce_matches_dense_elimination_on_sparse_matrices(field):
    # row_reduce touches only the pivot row's nonzero entries; elimination
    # over every entry must give the same rows and pivots
    rng = random.Random(13)
    p = None if field == QQ else field.p
    values = ([Fraction(a, b) for a in range(-3, 4) if a for b in (1, 2, 3)]
              if p is None else range(1, p))
    for _ in range(300):
        height, width = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.1, 0.25, 0.5))
        rows = [[field.coerce(rng.choice(values)) if rng.random() < density
                 else field.zero for _ in range(width)] for _ in range(height)]
        assert row_reduce(rows, field) == _dense_rref(rows, p), rows


def _pack(entries) -> int:
    """A GF(2) vector (entries 0 or 1) as an int: entry j is bit j."""
    return sum(1 << j for j, value in enumerate(entries) if value)


def _check_against_dense(rows, rhs):
    """The packed kernel agrees with dense elimination over GF(2), used as
    the search uses it: the XOR basis of the packed rows has the rank's
    size, and the packed right-hand side reduces to 0 against the basis of
    the packed columns exactly when the system is consistent."""
    assert len(gf2_basis(map(_pack, rows))) == rank(rows, GF2)
    width = len(rows[0])
    augmented = [row + [value] for row, value in zip(rows, rhs)]
    consistent = width not in row_reduce(augmented, GF2)[1]
    columns = gf2_basis(_pack(column) for column in zip(*rows))
    assert (gf2_reduce(columns, _pack(rhs)) == 0) == consistent
    found = solve(rows, rhs, GF2)
    if not consistent:
        assert found is None
        return
    assert found is not None and len(found) == width
    assert [sum(a * b for a, b in zip(row, found)) % 2 for row in rows] == rhs


def test_packed_gf2_matches_dense_elimination_up_to_60x16():
    rng = random.Random(11)
    for _ in range(200):
        height, width = rng.randint(1, 60), rng.randint(1, 16)
        density = rng.choice((0.05, 0.2, 0.5))
        rows = [[int(rng.random() < density) for _ in range(width)]
                for _ in range(height)]
        if rng.random() < 0.5:
            # a right-hand side in the column span, so consistent systems
            # show up at every shape
            picks = [rng.randrange(2) for _ in range(width)]
            rhs = [sum(a * b for a, b in zip(row, picks)) % 2 for row in rows]
        else:
            rhs = [rng.randrange(2) for _ in range(height)]
        _check_against_dense(rows, rhs)
