"""Dense elimination against brute force over a small prime field."""

import itertools
import random

from nilregular.fields import GF3
from nilregular.linalg import rank, row_reduce, solve


def _span(rows) -> set:
    return {tuple(sum(c * v for c, v in zip(coefficients, column)) % 3
                  for column in zip(*rows))
            for coefficients in itertools.product(range(3), repeat=len(rows))}


def _solutions(rows, rhs) -> list:
    return [x for x in itertools.product(range(3), repeat=len(rows[0]))
            if all(sum(a * b for a, b in zip(row, x)) % 3 == value
                   for row, value in zip(rows, rhs))]


def test_elimination_matches_brute_force_over_gf3():
    rng = random.Random(5)
    for _ in range(300):
        height, width = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(3) for _ in range(width)] for _ in range(height)]
        rhs = [rng.randrange(3) for _ in range(height)]
        echelon, pivots = row_reduce(rows, GF3)
        for index, col in enumerate(pivots):
            assert [row[col] for row in echelon] == [
                int(r == index) for r in range(height)]
        assert _span(echelon) == _span(rows)
        assert 3 ** rank(rows, GF3) == len(_span(rows))
        solutions = _solutions(rows, rhs)
        found = solve(rows, rhs, GF3)
        if solutions:
            assert tuple(found) in solutions
        else:
            assert found is None
