"""Exact linear algebra over the package's coefficient fields.

``rank`` and the search keep echelon bases through a kernel (``pack``,
``combine``, ``split``, ``basis``) per field kind, chosen by
``field_kernel``: over GF(p) for p <= 13 a vector is a Python int, a bit
per lane over GF(2) and a byte lane past it, and over other fields a map
from lane to nonzero value (``MapKernel``).  ``solve`` runs one Gaussian
elimination, ``row_reduce`` on lists of lists, for every field.  All of
it is exact, so rank and solvability answers are never approximations.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce as fold


class _PackedKernel:
    """Vectors packed into Python ints, lane i in ``v >> lane_bits * i``;
    ``basis`` keeps an echelon basis keyed by top lane plus one."""

    __slots__ = ()

    def split(self, vector: int, size: int, count: int) -> list[int]:
        """The ``count`` blocks of ``size`` lanes of a vector, lowest
        first, each a vector of its own."""
        bits = size * self.lane_bits
        mask = (1 << bits) - 1
        return [vector >> start & mask for start in range(0, bits * count, bits)]


class PackedGF2(_PackedKernel):
    """GF(2) vectors, one bit per coordinate.  A sum is an XOR, and XOR-ing
    in the member keyed by a vector's bit length clears its highest bit."""

    __slots__ = ()

    lane_bits = 1

    def pack(self, lanes) -> int:
        """The vector with a 1 at lane i for each (i, c) of ``lanes``, the
        lanes distinct, with c nonzero: an int c of 0, 1 or -1 is read mod 2."""
        return sum(1 << lane for lane, value in lanes if value)

    def combine(self, scalars, vectors) -> int:
        """The XOR of the vectors of nonzero scalars."""
        return fold(operator.xor, itertools.compress(vectors, scalars), 0)

    def basis(self, vectors, start=None) -> dict[int, int]:
        """An echelon basis of the span of vectors and of the members of
        ``start``, itself left alone; its size is the rank."""
        basis = dict(start) if start else {}
        get = basis.get
        # this loop is the search's inner loop; no key is 0, the bit
        # length of 0
        for vector in vectors:
            while (member := get(vector.bit_length())) is not None:
                vector ^= member
            if vector:
                basis[vector.bit_length()] = vector
        return basis


class PackedGF(_PackedKernel):
    """GF(p) vectors for odd p, one byte lane per coordinate, in range(p).

    Sums and scalings run on the whole int, and one ``bytes.translate``
    through a mod-p table brings every lane back below p at C speed.
    Elimination with a member of top lane 1 is ``v + (p - lead) * member``:
    each lane reaches at most (p - 1) + (p - 1)^2 = p (p - 1) before the
    translate, so the lanes never carry into each other while p (p - 1)
    <= 255, that is for p in {3, 5, 7, 11, 13}.  Other values raise.  The
    top lane of that sum is exactly p, which the elimination drops; a
    member whose top lane is not 1 makes ``to_bytes`` raise OverflowError
    instead of looping.
    """

    # the odd primes with p (p - 1) <= 255
    PRIMES = frozenset((3, 5, 7, 11, 13))

    __slots__ = ("p", "mod", "inverse", "batch")

    lane_bits = 8

    def __init__(self, p: int):
        if p not in self.PRIMES:
            raise ValueError(f"GF({p}) does not fit byte lanes: p must be an "
                             f"odd prime with p (p - 1) <= 255")
        self.p = p
        self.mod = (bytes(range(p)) * (256 // p + 1))[:256]
        self.inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        # a normalised lane holds at most p - 1, and each scaled term of a
        # sum adds at most (p - 1)^2 to it
        self.batch = (255 - (p - 1)) // (p - 1) ** 2

    def pack(self, lanes) -> int:
        """The vector with value c in range(p) at lane i for each (i, c) of
        ``lanes``, the lanes distinct."""
        return sum(value << 8 * lane for lane, value in lanes)

    def normalize(self, vector: int) -> int:
        """Every lane of a carry-free sum reduced mod p."""
        return int.from_bytes(vector.to_bytes((vector.bit_length() + 7) >> 3, "little")
                              .translate(self.mod), "little")

    def combine(self, scalars, vectors) -> int:
        """sum of scalar * vector over nonzero scalars, normalised every
        ``batch`` terms so that no lane passes 255."""
        total = 0
        pending = 0
        for scalar, vector in zip(scalars, vectors):
            if scalar:
                if pending == self.batch:
                    total = self.normalize(total)
                    pending = 0
                total += scalar * vector
                pending += 1
        return self.normalize(total)

    def basis(self, vectors, start=None) -> dict[int, int]:
        """An echelon basis of the span of normalised vectors and of the
        members of ``start``, itself left alone, keyed by the byte length
        of each member, each member's top lane 1; its size is the rank."""
        p = self.p
        mod = self.mod
        inverse = self.inverse
        from_bytes = int.from_bytes
        basis = dict(start) if start else {}
        get = basis.get
        # this loop is the search's inner loop
        for vector in vectors:
            while vector:
                size = (vector.bit_length() + 7) >> 3
                shift = (size - 1) << 3
                lead = vector >> shift
                member = get(size)
                if member is None:
                    if lead != 1:
                        vector = from_bytes((vector * inverse[lead])
                                            .to_bytes(size, "little").translate(mod),
                                            "little")
                    basis[size] = vector
                    break
                vector = from_bytes((vector + (p - lead) * member - (p << shift))
                                    .to_bytes(size - 1, "little").translate(mod), "little")
        return basis


class MapKernel:
    """The packed kernels' interface for any field, the rationals and GF(p)
    for p > 13 among them: a vector maps each lane to its nonzero value."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def pack(self, lanes) -> dict:
        return {lane: value for lane, value in lanes if value}

    def combine(self, scalars, vectors) -> dict:
        """sum of scalar * vector."""
        add, mul = self.field.add, self.field.mul
        total: dict = {}
        for scalar, vector in zip(scalars, vectors):
            if scalar:
                for lane, value in vector.items():
                    total[lane] = add(total.get(lane, 0), mul(scalar, value))
        return {lane: value for lane, value in total.items() if value}

    def split(self, vector: dict, size: int, count: int) -> list[dict]:
        blocks: list[dict] = [{} for _ in range(count)]
        for lane, value in vector.items():
            blocks[lane // size][lane % size] = value
        return blocks

    def basis(self, vectors, start=None) -> dict[int, dict]:
        """As the packed kernels': keyed by top lane plus one, each member's
        top lane 1, ``start`` left alone."""
        field = self.field
        basis = dict(start) if start else {}
        for vector in vectors:
            vector = dict(vector)
            while vector:
                top = max(vector)
                lead = vector[top]
                member = basis.get(top + 1)
                if member is None:
                    scale = field.inv(lead)
                    basis[top + 1] = {lane: field.mul(scale, value)
                                      for lane, value in vector.items()}
                    break
                # the member's top lane is 1, so eliminating clears the vector's
                del vector[top]
                for lane, value in member.items():
                    if lane < top:
                        value = field.sub(vector.get(lane, 0), field.mul(lead, value))
                        if value:
                            vector[lane] = value
                        else:
                            del vector[lane]
        return basis


def field_kernel(field) -> PackedGF2 | PackedGF | MapKernel:
    """The packed kernel of GF(p) for p <= 13, else a ``MapKernel``."""
    p = getattr(field, "p", None)
    if p == 2:
        return PackedGF2()
    return PackedGF(p) if p in PackedGF.PRIMES else MapKernel(field)


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
    """The rank of a list of sparse rows, each of (column, value) pairs
    with values in the field, on the field's kernel."""
    kernel = field_kernel(field)
    return len(kernel.basis(map(kernel.pack, rows)))


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
