"""Randomized algebraic laws: the product is associative, phi is
multiplicative, phi does not see the rewriting that produces normal
forms, stack reduction agrees with random strategies and with products of
normal forms, the basis of a random presentation is its definition, the
packed GF(2) kernel's rank and consistency agree with dense elimination,
every linear-algebra kernel's echelon bases agree with ``row_reduce``, and
QQ arithmetic is Fraction arithmetic with integral values kept as ints."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nilregular.elements import Algebra
from nilregular.fields import GF2, GF3, QQ, PrimeField
from nilregular.linalg import MapKernel, field_kernel, packed_kernel, row_reduce
from nilregular.matrixrep import MatrixElement, MatrixModel
from nilregular.rewriting import (
    RewriteSystem, Rule, Word, ab_system, canonical_words, concat_reduce,
    enumerate_basis, is_basis_word, reduce, xq_system)

LAWS = settings(max_examples=60, deadline=None, database=None)

SYSTEM = xq_system(3)
GF3_ALG = Algebra(SYSTEM, GF3)
MODEL = MatrixModel(3, QQ)
WORDS = GF3_ALG.basis_words(4)


def elements(algebra, coefficients):
    terms = st.dictionaries(st.sampled_from(WORDS), coefficients, max_size=4)
    return terms.map(algebra.from_terms)


gf3_elements = elements(GF3_ALG, st.integers(1, 2))
rational_elements = elements(MODEL.source, st.integers(-3, 3))


@LAWS
@given(gf3_elements, gf3_elements, gf3_elements)
def test_product_is_associative_over_gf3(a, b, c):
    assert (a * b) * c == a * (b * c)


@LAWS
@given(rational_elements, rational_elements)
def test_phi_is_multiplicative_over_qq(u, v):
    assert MODEL.phi(u * v) == MODEL.phi(u) * MODEL.phi(v)


@LAWS
@given(st.lists(st.sampled_from("xq"), min_size=1, max_size=14))
def test_phi_of_a_word_is_phi_of_its_normal_form(letters):
    word = Word.from_letters(letters)
    outcome = reduce(word, SYSTEM)
    expected = (MatrixElement.zero(MODEL.target) if outcome.is_zero
                else MODEL.phi(outcome.result))
    assert MODEL.phi(word) == expected


@st.composite
def split_words(draw):
    system = draw(st.sampled_from(
        [xq_system(n) for n in range(2, 6)] + [ab_system(m) for m in range(1, 4)]))
    letters = draw(st.lists(st.sampled_from(system.letters), max_size=60))
    return system, letters, draw(st.integers(0, len(letters)))


@LAWS
@given(split_words(), st.integers(0, 2**32 - 1))
def test_stack_reduction_agrees_with_random_strategies_and_products(case, seed):
    system, letters, cut = case
    word = Word.from_letters(letters)
    outcome = reduce(word, system)
    assert reduce(word, system, rng=random.Random(seed)).result == outcome.result
    left = reduce(Word.from_letters(letters[:cut]), system)
    right = reduce(Word.from_letters(letters[cut:]), system)
    if not (left.is_zero or right.is_zero):
        product = concat_reduce(left.result, right.result, system)
        assert product.result == outcome.result


@st.composite
def presentations(draw):
    """1-3 rules over xq or ab, each left-hand side 1-3 letters long and
    each right-hand side zero or strictly shorter."""
    letters = draw(st.sampled_from(["xq", "ab"]))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
        rhs = draw(st.none() | st.lists(st.sampled_from(letters),
                                        max_size=len(lhs) - 1).map("".join))
        rules.append(Rule(lhs, rhs))
    return RewriteSystem(label="T", letters=letters, nilpotency_degree=0,
                         rules=tuple(rules))


@LAWS
@given(presentations())
def test_basis_of_a_random_presentation_is_its_definition(system):
    for max_len in range(7):
        filtered = [word for word in canonical_words(max_len, system)
                    if is_basis_word(word, system)]
        assert enumerate_basis(max_len, system) == filtered, (system, max_len)


@st.composite
def gf2_systems(draw):
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 8))
    bits = st.integers(0, 1)
    rows = draw(st.lists(st.lists(bits, min_size=width, max_size=width),
                         min_size=height, max_size=height))
    rhs = draw(st.lists(bits, min_size=height, max_size=height))
    return rows, rhs


@LAWS
@given(gf2_systems())
def test_packed_gf2_rank_and_solve_agree_with_dense_elimination(system):
    rows, rhs = system

    def pack(entries):
        return sum(1 << j for j, value in enumerate(entries) if value)

    kernel = packed_kernel(GF2)
    assert len(kernel.basis(map(pack, rows))) == len(row_reduce(rows, GF2)[1])
    augmented = [row + [value] for row, value in zip(rows, rhs)]
    consistent = len(rows[0]) not in row_reduce(augmented, GF2)[1]
    # the right-hand side at lane 0: a member of top lane 0 (key 1) is an
    # inconsistent row
    lanes = kernel.basis(pack([value] + row) for row, value in zip(rows, rhs))
    assert (1 not in lanes) == consistent


KERNEL_FIELDS = (QQ, GF2, GF3, PrimeField(17))


@st.composite
def kernel_systems(draw):
    """A field, a width, two lists of rows and a right-hand side for
    their concatenation; over QQ the entries include halves."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    numerators = st.integers(-3, 3)
    values = (st.builds(Fraction, numerators, st.sampled_from([1, 1, 2]))
              if field == QQ else numerators).map(field.coerce)
    width = draw(st.integers(1, 6))
    rows = st.lists(st.lists(values, min_size=width, max_size=width), max_size=6)
    first, second = draw(rows), draw(rows)
    rhs = draw(st.lists(values, min_size=len(first) + len(second),
                        max_size=len(first) + len(second)))
    return field, width, first, second, rhs


@LAWS
@given(kernel_systems())
def test_kernels_agree_with_row_reduce(system):
    # MapKernel and the field's packed kernel, where it has one: the size
    # of a basis is the rank, a system is consistent exactly when the basis
    # of its augmented rows (right-hand side at lane 0) has no member of
    # top lane 0 (key 1), and extending a basis from ``start`` gives the
    # rank of both row lists together, leaving ``start`` as it was
    field, width, first, second, rhs = system
    rows = first + second

    def rank(matrix):
        return len(row_reduce(matrix, field)[1])

    consistent = width not in row_reduce(
        [row + [value] for row, value in zip(rows, rhs)], field)[1]
    for kernel in {type(k): k for k in (MapKernel(field), field_kernel(field))}.values():
        def pack(entries):
            return kernel.pack(enumerate(entries), len(entries))

        basis = kernel.basis(map(pack, first))
        assert len(basis) == rank(first)
        kept = dict(basis)
        assert len(kernel.basis(map(pack, second), start=basis)) == rank(rows)
        assert basis == kept
        augmented = kernel.basis(pack([value] + row) for row, value in zip(rows, rhs))
        assert (1 not in augmented) == consistent, kernel


# big numerators, and small denominators so that integral results are common
rationals = st.builds(Fraction, st.integers(-2**80, 2**80),
                      st.sampled_from([1, 2, 3, 6]) | st.integers(1, 2**80))


@LAWS
@given(rationals, rationals)
def test_qq_arithmetic_is_fraction_arithmetic(a, b):
    u, v = QQ.coerce(a), QQ.coerce(b)
    results = [(u, a), (v, b), (QQ.add(u, v), a + b), (QQ.sub(u, v), a - b),
               (QQ.mul(u, v), a * b), (QQ.neg(u), -a),
               # inverses cancel to integral values, also from non-integral ones
               (QQ.add(u, QQ.neg(u)), Fraction(0)), (QQ.sub(u, u), Fraction(0))]
    if a:
        results.append((QQ.mul(u, QQ.inv(u)), Fraction(1)))
    if b:
        results.append((QQ.inv(v), 1 / b))
    for value, expected in results:
        assert value == expected
        # integral values are ints; a Fraction never has denominator 1
        assert type(value) is (int if expected.denominator == 1 else Fraction)
