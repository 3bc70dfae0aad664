"""Element arithmetic in normal form, parsing, and JSON round trips."""

import random
from fractions import Fraction

import pytest

from nilregular.elements import Algebra, linear_combination, parse_element
from nilregular.fields import GF2, GF3, QQ
from nilregular.rewriting import WordSyntaxError, ab_system, parse_word, xq_system

ALG = Algebra(xq_system(3), QQ)
X = ALG.gen("x")
Q = ALG.gen("q")


def test_generators_satisfy_the_relations():
    assert X * Q * X == X
    assert Q * X * Q == Q
    assert X ** 3 == ALG.zero
    assert X ** 2 != ALG.zero
    assert X ** 0 == ALG.one


def test_words_enter_in_normal_form():
    element = ALG.word("q^2 x q x q^3 x^2 q")
    assert element == ALG.word("q^4 x^2 q")
    assert ALG.word("x^3").is_zero
    assert ALG.from_terms({"x q x": 2, "x": -2}).is_zero


def test_scalar_and_mixed_arithmetic():
    e = ALG.one - Q * X
    assert e * e == e  # 1 - qx is idempotent
    assert 2 * e - e == e
    assert (ALG.scalar("1/2") + ALG.scalar(Fraction(1, 2))) == ALG.one
    assert 1 - Q * X == e
    assert e - 1 == -(Q * X)


def test_strings_are_not_silently_coerced_in_operators():
    with pytest.raises(TypeError):
        X + "q"
    with pytest.raises(TypeError):
        X * "q"


def test_coeff_support_degree():
    element = ALG.parse("2 q^2 x - x q + 1/3")
    assert element.coeff("q^2 x") == Fraction(2)
    assert element.coeff("q^5") == Fraction(0)
    assert element.degree() == 3
    assert ALG.zero.degree() is None
    assert [str(w) for w in element.support()] == ["1", "x q", "q^2 x"]


def test_str_rendering():
    assert str(ALG.parse("1 - x q + 2 q^2 x")) == "1 - x q + 2 q^2 x"
    assert str(ALG.zero) == "0"
    assert str(-X) == "-x"
    assert str(ALG.one) == "1"


def test_parse_element_errors_carry_positions():
    with pytest.raises(WordSyntaxError):
        parse_element("q^^2", ALG)
    with pytest.raises(WordSyntaxError):
        parse_element("", ALG)
    with pytest.raises(WordSyntaxError):
        parse_element("2 +", ALG)
    exc = pytest.raises(WordSyntaxError, parse_element, "q + z", ALG)
    assert exc.value.position == 4
    # a coefficient the field cannot invert is refused at its offset
    exc = pytest.raises(WordSyntaxError, parse_element, "1/0 x", ALG)
    assert exc.value.position == 0
    exc = pytest.raises(WordSyntaxError, parse_element, "x - 1/2 x",
                        Algebra(xq_system(3), GF2))
    assert exc.value.position == 4


def test_parse_element_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        element = ALG.random_element(rng)
        assert ALG.parse(str(element)) == element


def test_json_round_trip():
    element = ALG.parse("1/2 - q x + 3 q^2 x^2")
    data = element.to_json_dict()
    assert data == {"1": "1/2", "q x": "-1", "q^2 x^2": "3"}
    assert ALG.from_terms(data) == element


def test_gf_coefficients_wrap():
    alg2 = Algebra(xq_system(3), GF2)
    assert alg2.parse("q + q").is_zero
    alg3 = Algebra(xq_system(3), GF3)
    assert alg3.parse("2 q + 2 q") == alg3.parse("q")


def test_linear_combination_matches_sums():
    parts = [(Fraction(2), ALG.parse("q x")), (Fraction(-1), ALG.parse("q x + x")),
             (Fraction(0), ALG.parse("q^5"))]
    combined = linear_combination(ALG, parts)
    assert combined == 2 * ALG.parse("q x") - ALG.parse("q x + x")
    other = Algebra(ab_system(2), QQ)
    with pytest.raises(ValueError):
        linear_combination(ALG, [(1, other.gen("a"))])


def test_algebras_do_not_mix():
    other = Algebra(ab_system(2), QQ)
    with pytest.raises(ValueError):
        X + other.gen("a")
    assert other.gen("a") ** 2 == other.zero


def test_random_element_is_seed_deterministic():
    first = ALG.random_element(random.Random(9))
    second = ALG.random_element(random.Random(9))
    assert first == second
    assert not first.is_zero
