"""Exact coefficient fields: prime fields GF(p) and the rationals.

Field elements are plain values (ints in range(p) for prime fields; for
the rationals, an int when the value is integral and a
fractions.Fraction otherwise); the field objects only bundle the
arithmetic, so elements stay cheap to hash and compare.
"""

from __future__ import annotations

import re
from fractions import Fraction


class PrimeField:
    """Arithmetic in GF(p); elements are ints reduced into range(p).

    p must be a prime below 2^31; larger values raise ValueError without
    a primality test, because trial division up to sqrt(p) (about 46k
    divisions at the cap) would stall the constructor beyond it.
    """

    __slots__ = ("p", "name")

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= 2**31:
            raise ValueError(f"{p} is not below the prime-field cap 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"gf{p}"

    def coerce(self, value) -> int:
        """Accepts ints, Fractions with denominator invertible mod p, and
        strings like "7" or "3/4"."""
        if isinstance(value, str):
            value = Fraction(value.replace(" ", ""))
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator))
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return pow(a, self.p - 2, self.p)

    def coefficient_pool(self) -> tuple[range, bool]:
        """All field elements, zero first, flagged as exhaustive."""
        return range(self.p), True

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def _rational(value):
    """An int for an integral value, else the Fraction itself."""
    return value.numerator if value.denominator == 1 else value


class RationalField:
    """Exact rational arithmetic: integral values are ints, all others
    fractions.Fraction, so the common integer case skips Fraction."""

    __slots__ = ()

    name = "rational"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, str):
            value = value.replace(" ", "")
        return _rational(Fraction(value))

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _rational(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return _rational(Fraction(1, a))

    def coefficient_pool(self) -> tuple[list[int], bool]:
        """A small grid around 0, zero first; the rationals cannot be
        exhausted, so the flag is False and searches over this pool only
        report the grid."""
        return [0, 1, -1, 2, -2], False

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()

_GF_NAME = re.compile(r"gf([0-9]+)")


def field_from_name(name: str):
    """gf2, gf3 (any gf<p> for a prime p < 2^31, p in ASCII digits) or
    rational."""
    if name == "rational":
        return QQ
    match = _GF_NAME.fullmatch(name)
    if match:
        digits = match.group(1)
        # 2^31 has 10 digits; int() refuses past 4,300 in its own words
        if len(digits) > 10:
            raise ValueError(f"a {len(digits)}-digit order is not below the prime-field cap 2^31")
        return PrimeField(int(digits))
    raise ValueError(f"unknown field {name!r}")
