"""Exact field arithmetic and coefficient pools."""

from fractions import Fraction

import pytest

from nilregular.fields import (
    GF2, GF3, QQ, PrimeField, RationalField, field_from_name)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(31)  # fine


def test_gf2_arithmetic():
    assert GF2.add(1, 1) == 0
    assert GF2.neg(1) == 1
    assert GF2.one == 1 and GF2.zero == 0
    assert GF2.coerce(-3) == 1


def test_gf3_inverse_and_division():
    assert GF3.inv(2) == 2
    assert GF3.mul(1, GF3.inv(2)) == 2
    with pytest.raises(ZeroDivisionError):
        GF3.inv(0)
    five = PrimeField(5)
    assert five.inv(3) == 2
    assert five.coerce("3/4") == five.mul(3, five.inv(4))


def test_fraction_with_dead_denominator_is_rejected():
    # 1/2 has no meaning mod 2; silent coercion to 0 would corrupt sums
    with pytest.raises(ZeroDivisionError):
        GF2.coerce(Fraction(1, 2))


def test_rational_field_is_exact():
    third = QQ.coerce("1/3")
    assert QQ.mul(third, QQ.coerce(3)) == QQ.one
    assert QQ.add(third, third) == Fraction(2, 3)
    assert QQ.inv(Fraction(7, 2)) == Fraction(2, 7)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_rationals_keep_integral_values_as_ints():
    half, third = QQ.coerce("1/2"), QQ.coerce(Fraction(1, 3))
    cases = [(QQ.coerce("6/3"), 2), (QQ.coerce(" -4 / 2 "), -2), (QQ.coerce("0"), 0),
             (QQ.coerce(Fraction(9, 3)), 3), (QQ.coerce(7), 7),
             (QQ.add(half, half), 1), (QQ.sub(half, QQ.coerce("-1/2")), 1),
             (QQ.mul(half, 4), 2), (QQ.mul(third, QQ.coerce("3/2")), Fraction(1, 2)),
             (QQ.neg(QQ.coerce("-8/4")), 2), (QQ.inv(half), 2), (QQ.inv(-3), Fraction(-1, 3)),
             (QQ.inv(QQ.coerce("-1/5")), -5), (QQ.add(third, 1), Fraction(4, 3))]
    for value, expected in cases:
        assert value == expected and type(value) is type(expected)


def test_coefficient_pools():
    pool, exhaustive = GF3.coefficient_pool()
    assert list(pool) == [0, 1, 2]
    assert exhaustive
    grid, exhaustive = QQ.coefficient_pool()
    assert not exhaustive
    assert grid[0] == QQ.zero
    assert QQ.one in grid and QQ.zero in grid
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert all(type(c) is int for c in grid)


def test_field_identity_and_lookup():
    assert field_from_name("gf2") == GF2
    assert field_from_name("gf7") == PrimeField(7)
    assert isinstance(field_from_name("rational"), RationalField)
    assert field_from_name("rational") == QQ
    with pytest.raises(ValueError):
        field_from_name("gf6")
    with pytest.raises(ValueError):
        field_from_name("complex")
    # the whole name, in ASCII digits: no trailing newline, no Arabic-Indic
    # or fullwidth digits
    for name in ("gf7\n", "gf\u0663", "gf\uff17"):
        with pytest.raises(ValueError, match="^unknown field "):
            field_from_name(name)
    assert field_from_name("gf2147483647").p == 2**31 - 1
    # an order past 10 digits is refused before int() sees its digits
    for digits in ("1" * 11, "7" * 5000):
        with pytest.raises(ValueError, match=f"a {len(digits)}-digit order "
                           "is not below the prime-field cap"):
            field_from_name("gf" + digits)


def test_names():
    assert GF2.name == "gf2"
    assert QQ.name == "rational"
    assert str(GF2.one) == "1"
