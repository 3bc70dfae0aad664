"""Exact linear algebra over the package's coefficient fields.

``rank`` and ``solve`` run one Gaussian elimination, ``row_reduce`` on
lists of lists, for every field, GF(2) included.  Callers that already
hold vectors packed into Python ints skip it.  GF(2) vectors carry one bit
per coordinate (the GF(2) search scan and the faithfulness rank) and go
into an XOR basis keyed by each member's highest set bit (``gf2_basis``,
``gf2_reduce``).  GF(p) vectors for p <= 13 carry one byte lane per
coordinate (the search scan over those primes) and go into an echelon
basis keyed by each member's top lane (``PackedGF``).  Everything is
exact (field elements, no floating point), so rank and solvability
answers are never approximations.
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


class PackedGF:
    """GF(p) vectors packed into Python ints, one byte lane per coordinate
    (coordinate i is the byte ``(v >> 8 * i) & 255``, in ``range(p)``).

    Sums and scalings run on the whole int, and one ``bytes.translate``
    through a mod-p table brings every lane back below p at C speed.
    Elimination with a member of top lane 1 is ``v + (p - lead) * member``:
    each lane reaches at most (p - 1) + (p - 1)^2 = p (p - 1) before the
    translate, so the lanes never carry into each other while p (p - 1)
    <= 255, that is for p in {2, 3, 5, 7, 11, 13}.  Larger primes raise.
    """

    # the primes with p (p - 1) <= 255
    PRIMES = frozenset((2, 3, 5, 7, 11, 13))

    __slots__ = ("p", "mod", "inverse", "batch")

    def __init__(self, p: int):
        if p not in self.PRIMES:
            raise ValueError(f"GF({p}) does not fit byte lanes: "
                             f"p must be a prime with p (p - 1) <= 255")
        self.p = p
        self.mod = (bytes(range(p)) * (256 // p + 1))[:256]
        self.inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        # a normalised lane holds at most p - 1, and each scaled term of a
        # sum adds at most (p - 1)^2 to it
        self.batch = (255 - (p - 1)) // (p - 1) ** 2

    def pack(self, values) -> int:
        """The packed vector of coordinates already in ``range(p)``."""
        return int.from_bytes(bytes(values), "little")

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

    def reduce(self, basis: dict[int, int], vector: int) -> int:
        """What is left of a normalised vector after eliminating with basis
        members; 0 exactly when the vector lies in the basis's span.

        ``basis`` maps each member's byte length (its top lane plus one) to
        the member, scaled so that its top lane is 1, so every elimination
        clears the current top lane and leaves only lower ones.
        """
        p = self.p
        mod = self.mod
        while vector:
            size = (vector.bit_length() + 7) >> 3
            member = basis.get(size)
            if member is None:
                return vector
            lead = vector >> ((size - 1) << 3)
            vector = int.from_bytes((vector + (p - lead) * member)
                                    .to_bytes(size, "little").translate(mod), "little")
        return 0

    def basis(self, vectors) -> dict[int, int]:
        """An echelon basis of the span of normalised vectors, keyed by
        the byte length of each member, each member's top lane 1; its size
        is the rank."""
        p = self.p
        mod = self.mod
        inverse = self.inverse
        from_bytes = int.from_bytes
        basis: dict[int, int] = {}
        get = basis.get
        # reduce inlined: this loop is the search's inner loop
        for vector in vectors:
            while vector:
                size = (vector.bit_length() + 7) >> 3
                lead = vector >> ((size - 1) << 3)
                member = get(size)
                if member is None:
                    if lead != 1:
                        vector = from_bytes((vector * inverse[lead])
                                            .to_bytes(size, "little").translate(mod),
                                            "little")
                    basis[size] = vector
                    break
                vector = from_bytes((vector + (p - lead) * member)
                                    .to_bytes(size, "little").translate(mod), "little")
        return basis


def packed_kernel(field) -> PackedGF | None:
    """The byte-lane kernel of a prime field that fits one, else None."""
    p = getattr(field, "p", None)
    return PackedGF(p) if p in PackedGF.PRIMES else None


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
