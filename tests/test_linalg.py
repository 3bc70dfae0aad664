"""Elimination against brute force over small prime fields, and the packed
GF(2) and GF(p) kernels against dense elimination."""

import itertools
import random
from fractions import Fraction

import pytest

from nilregular.fields import GF2, GF3, QQ, PrimeField
from nilregular.linalg import (
    MapKernel, PackedGF, PackedGF2, field_kernel, packed_kernel, rank, row_reduce, solve)


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
    size, and the basis of the augmented rows, the right-hand side at lane
    0 and column i at lane i + 1, has no member of top lane 0 (key 1)
    exactly when the system is consistent."""
    kernel = packed_kernel(GF2)
    assert len(kernel.basis(map(_pack, rows))) == rank(rows, GF2)
    width = len(rows[0])
    augmented = [row + [value] for row, value in zip(rows, rhs)]
    consistent = width not in row_reduce(augmented, GF2)[1]
    lanes = kernel.basis(_pack([value] + row) for row, value in zip(rows, rhs))
    assert (1 not in lanes) == consistent
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


PACKED_PRIMES = (3, 5, 7, 11, 13)


def _lanes(values) -> int:
    """A GF(p) vector as an int: entry j is byte j."""
    return sum(value << 8 * j for j, value in enumerate(values))


def _check_packed_against_dense(kernel, field, rows, rhs):
    """The packed kernel agrees with dense elimination, used as the search
    uses it: the basis of the packed rows has the rank's size, each member
    has lanes in range(p) and top lane 1, and the basis of the augmented
    rows, the right-hand side at lane 0 and column i at lane i + 1, has no
    member of top lane 0 (key 1) exactly when the system is consistent."""
    p = field.p
    basis = kernel.basis(map(_lanes, rows))
    assert len(basis) == rank(rows, field)
    for size, member in basis.items():
        lanes = list(member.to_bytes(size, "little"))
        assert all(lane < p for lane in lanes) and lanes[-1] == 1
    augmented = kernel.basis(_lanes([value] + row) for row, value in zip(rows, rhs))
    consistent = solve(rows, rhs, field) is not None
    assert (1 not in augmented) == consistent


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_gfp_rank_and_membership_match_dense_elimination(p):
    field = PrimeField(p)
    kernel = PackedGF(p)
    rng = random.Random(p)
    for _ in range(200):
        height, width = rng.randint(1, 40), rng.randint(1, 16)
        density = rng.choice((0.05, 0.2, 0.5, 1.0))
        rows = [[rng.randrange(1, p) if rng.random() < density else 0
                 for _ in range(width)] for _ in range(height)]
        if rng.random() < 0.5:
            # a right-hand side in the column span
            picks = [rng.randrange(p) for _ in range(width)]
            rhs = [sum(a * b for a, b in zip(row, picks)) % p for row in rows]
        else:
            rhs = [rng.randrange(p) for _ in range(height)]
        _check_packed_against_dense(kernel, field, rows, rhs)
    # every entry p - 1: each elimination puts p (p - 1) on a lane
    for height, width in ((1, 1), (5, 3), (3, 7), (12, 12)):
        rows = [[p - 1] * width for _ in range(height)]
        _check_packed_against_dense(kernel, field, rows, [p - 1] * height)
        _check_packed_against_dense(kernel, field, rows, [1] + [0] * (height - 1))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_gfp_sums_past_one_batch_stay_exact(p):
    # more terms than one normalising batch, mostly every lane and scalar
    # p - 1, so that a lane left at p - 1 by one batch meets a whole batch
    # of (p - 1)^2 terms
    kernel = PackedGF(p)
    rng = random.Random(100 + p)
    for _ in range(200):
        count = rng.randint(1, 3 * kernel.batch + 3)
        width = rng.randint(1, 12)
        vectors = [[p - 1 if rng.random() < 0.7 else rng.randrange(p)
                    for _ in range(width)] for _ in range(count)]
        scalars = [p - 1 if rng.random() < 0.7 else rng.randrange(p)
                   for _ in range(count)]
        expected = [sum(s * v[j] for s, v in zip(scalars, vectors)) % p
                    for j in range(width)]
        packed = kernel.combine(scalars, map(_lanes, vectors))
        assert list(packed.to_bytes(width, "little")) == expected
    full = kernel.combine([p - 1] * (2 * kernel.batch + 1), [_lanes([p - 1] * 4)] * (
        2 * kernel.batch + 1))
    assert list(full.to_bytes(4, "little")) == [(2 * kernel.batch + 1) % p] * 4


def test_packed_kernel_refuses_primes_past_13():
    # byte lanes serve the odd primes; GF(2) gets the bit kernel
    for p in (17, 19, 4, 2, 1, 0):
        with pytest.raises(ValueError, match="byte lanes"):
            PackedGF(p)
    assert packed_kernel(PrimeField(17)) is None
    assert packed_kernel(QQ) is None
    assert packed_kernel(GF3).p == 3
    assert isinstance(packed_kernel(GF2), PackedGF2)
    # every other field takes the kernel of maps
    for field in (PrimeField(17), QQ):
        assert isinstance(field_kernel(field), MapKernel)
    assert isinstance(field_kernel(GF3), PackedGF)


@pytest.mark.parametrize("p", (2,) + PACKED_PRIMES)
def test_packed_kernels_combine_and_split_like_dense_vectors(p):
    # a table of count columns of size coordinates each, one vector with
    # column i at lane i * size onwards, summed with scalars and split into
    # its columns, equals the dense mod-p sum column by column, on the
    # packed kernel and on the kernel of maps alike
    field = PrimeField(p)
    rng = random.Random(200 + p)
    for kernel in (packed_kernel(field), MapKernel(field)):
        def packed(values, size):
            return kernel.pack(enumerate(values), size)

        for _ in range(100):
            size, count, terms = rng.randint(1, 12), rng.randint(1, 8), rng.randint(0, 6)
            tables = [[[rng.randrange(p) for _ in range(size)] for _ in range(count)]
                      for _ in range(terms)]
            scalars = [rng.randrange(p) for _ in range(terms)]
            wholes = [packed(itertools.chain.from_iterable(table), size * count)
                      for table in tables]
            for table, whole in zip(tables, wholes):
                assert kernel.split(whole, size, count) == [packed(column, size)
                                                            for column in table]
            expected = [[sum(s * table[i][r] for s, table in zip(scalars, tables)) % p
                         for r in range(size)] for i in range(count)]
            assert (kernel.split(kernel.combine(scalars, wholes), size, count)
                    == [packed(column, size) for column in expected])
