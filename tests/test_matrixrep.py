"""The 2x2 matrix realization: images, membership, obstructions."""

import itertools
import math
import random

import pytest

from nilregular import matrixrep
from nilregular.elements import Algebra, linear_combination
from nilregular.fields import GF2, GF3, QQ
from nilregular.linalg import row_reduce, solve
from nilregular.matrixrep import (
    DegreeBoundExceeded, MatrixElement, MatrixModel, TMembership, _corner_elements,
    _rank, check_determinant_obstruction, det2, n2_variant_check, pi_eval,
    verify_phi_faithful)
from nilregular.rewriting import (
    IDENTITY_WORD, Word, ab_system, parse_word, reduce, xq_system)

MODEL = MatrixModel(3, QQ)
R = MODEL.target
S_ALG = MODEL.source


def test_generator_images():
    assert str(MODEL.x_image) == "[[a, 0], [1, 0]]"
    assert str(MODEL.q_image) == "[[b, 1 - b a], [0, 0]]"


def test_images_satisfy_the_relations():
    X, Q = MODEL.x_image, MODEL.q_image
    assert X * Q * X == X
    assert Q * X * Q == Q
    assert (X ** 3).is_zero
    assert not (X ** 2).is_zero


def test_golden_word_images():
    assert str(MODEL.phi(parse_word("q x^2"))) == "[[a, 0], [0, 0]]"
    assert str(MODEL.phi(parse_word("q^2 x"))) == "[[b, 0], [0, 0]]"
    assert str(MODEL.phi(S_ALG.parse("1 - q x"))) == "[[0, 0], [0, 1]]"
    assert str(MODEL.phi("x q")) == "[[a b, a - a b a], [b, 1 - b a]]"


def _product_images(model, max_len):
    """Every word over {x, q} of length <= max_len, normal or not, with its
    image as the left-to-right product of x_image and q_image: the way
    phi computed a word's image before the closed form."""
    images = {"": MatrixElement.identity(model.target)}
    for length in range(1, max_len + 1):
        for letters in itertools.product("xq", repeat=length):
            word = "".join(letters)
            generator = model.x_image if word[-1] == "x" else model.q_image
            images[word] = images[word[:-1]] * generator
    return images


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["rational", "gf2", "gf3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_image_matches_the_product_of_generator_images(n, field):
    model = MatrixModel(n, field)
    images = _product_images(model, 8)
    assert len(images) == 2 ** 9 - 1
    for word, product in images.items():
        assert model.phi(Word(word)) == product, (n, word)
    # an image dies exactly when the word's normal form does
    assert all(product.is_zero == reduce(Word(word), model.source.system).is_zero
               for word, product in images.items()), n


@pytest.mark.parametrize("table, letter, value", [
    ("_ROWS", "q", ({"": 1, "ba": -1}, {"b": 1})),
    ("_ROWS", "x", ({"": 1}, {"": 1})),
    ("_COLUMNS", "x", ("", "")),
], ids=["v_q-swapped", "v_x-extra-entry", "u_x-without-a"])
def test_a_wrong_factorization_is_refused(monkeypatch, table, letter, value):
    # image_terms's closed form rests on u_l v_l being the image of l; the
    # model checks that with matrix products, not with assert
    monkeypatch.setitem(getattr(matrixrep, table), letter, value)
    with pytest.raises(RuntimeError, match=f"is not the image of {letter}"):
        MatrixModel(3, QQ)


def test_phi_rejects_foreign_elements():
    other = Algebra(xq_system(3), GF2)
    with pytest.raises(ValueError):
        MODEL.phi(other.gen("x"))
    with pytest.raises(ValueError):
        MODEL.phi(R.gen("a"))


@pytest.mark.parametrize("word", [Word("ab"), "a b", "x a"], ids=repr)
def test_phi_refuses_letters_outside_the_xq_alphabet(word):
    # a and b are R's generators, not S's: they have no image under phi
    with pytest.raises(ValueError, match="does not belong to presentation S"):
        MODEL.phi(word)


def test_matrix_parse_round_trip():
    assert str(MODEL.phi("x q")) == "[[a b, a - a b a], [b, 1 - b a]]"


def test_membership_certificates():
    result = MODEL.membership(MODEL.phi("x q"))
    assert result.in_t
    assert str(result.top_right_factor) == "a"
    assert result.constant_part == QQ.zero
    assert str(result.bottom_right_factor) == "1"

    identity = MatrixElement.identity(R)
    result = MODEL.membership(identity)
    assert result.in_t
    assert result.constant_part == QQ.one
    assert result.bottom_right_factor.is_zero


def test_membership_rejects_an_outside_matrix():
    outside = MatrixElement(R, ((R.zero, R.one), (R.zero, R.zero)))
    result = MODEL.membership(outside, degree_bound=6)
    assert not result.in_t
    assert result.failed_entries == ("(1,2)",)


def test_membership_degree_bound_is_reported_not_silent():
    image = MODEL.phi("x q")
    with pytest.raises(DegreeBoundExceeded):
        MODEL.membership(image, degree_bound=0)
    generous = MODEL.membership(image, degree_bound=9)
    assert generous.in_t
    assert generous.top_right_factor == MODEL.membership(image).top_right_factor


def test_every_phi_image_is_in_t():
    for word in S_ALG.basis_words(4):
        assert MODEL.membership(MODEL.phi(word)).in_t


def _one_minus_ba(target):
    return target.one - target.gen("b") * target.gen("a")


def _assert_certifies(result, matrix):
    """result certifies that matrix lies in the image's block shape."""
    target = matrix.algebra
    assert result.in_t, str(matrix)
    assert result.top_right_factor * _one_minus_ba(target) == matrix.entry(0, 1)
    assert (target.scalar(result.constant_part)
            + result.bottom_right_factor * _one_minus_ba(target)
            == matrix.entry(1, 1))


def _dense_factor(model, entry, with_constant):
    """The factor s (and the constant c) with entry = s(1 - ba) (+ c), by
    one dense solve over every basis word of R up to deg(entry) -
    deg(1 - ba); None when there is none.  This is the membership solve
    before it was restricted to the entry's ba-chains."""
    target = model.target
    one_minus_ba = _one_minus_ba(target)
    bound = max((entry.degree() or 0) - one_minus_ba.degree(), 0)
    unknowns = target.basis_words(bound)
    columns = [target.word(w) * one_minus_ba for w in unknowns]
    if with_constant:
        columns.append(target.one)
    words = sorted({w for column in columns for w in column.support()}
                   | set(entry.support()), key=Word.sort_key)
    rows = [[column.coeff(w) for column in columns] for w in words]
    solution = solve(rows, [entry.coeff(w) for w in words], target.field)
    if solution is None:
        return None
    factor = linear_combination(
        target, zip(solution, (target.word(w) for w in unknowns)))
    return factor, solution[-1] if with_constant else None


def _dense_membership(model, matrix):
    top = _dense_factor(model, matrix.entry(0, 1), with_constant=False)
    bottom = _dense_factor(model, matrix.entry(1, 1), with_constant=True)
    failed = tuple(name for name, found in (("(1,2)", top), ("(2,2)", bottom))
                   if found is None)
    if failed:
        return TMembership(False, None, None, None, failed)
    return TMembership(True, top[0], bottom[1], bottom[0])


def _oracle_matrices(model, rng):
    """The zero matrix; phi of every basis word up to length 6; phi of
    x q^k (k = 5..8) plus up to two random shorter words, for entry
    degrees up to 10; six matrices built from random factors of R and a
    constant that cancels the factor's identity term in (2,2); and planted
    non-members: phi of a word up to length 4 plus a word of R one letter
    longer than the (1,2) or (2,2) entry and not ending in ba.  For
    n >= 3 every nonzero element of R(1 - ba) has only words ending in ba
    at its top degree, so the planted entry cannot lie in the ideal; for
    n = 2 the ideal is all of R.  Yields (matrix, planted entry or None).
    """
    source, target = model.source, model.target
    yield MatrixElement.zero(target), None
    for word in source.basis_words(6):
        yield model.phi(word), None
    for length in (6, 7, 8, 9, 9, 9):
        # x q^k has entries of degree k + 2, the most a word of its length
        element = source.word("x" + "q" * (length - 1)) + source.random_element(
            rng, length - 1, max_terms=2)
        yield model.phi(element), None
    one_minus_ba = _one_minus_ba(target)
    for _ in range(6):
        left, right, top, bottom = (target.random_element(rng, 4, max_terms=3)
                                    for _ in range(4))
        constant = target.scalar(rng.choice((1, -1)))
        # the (2,2) entry lacks the identity, yet its factor has it
        bottom = bottom - target.scalar(bottom.coeff(IDENTITY_WORD)) - constant
        yield MatrixElement(target, (
            (left, top * one_minus_ba),
            (right, constant + bottom * one_minus_ba))), None
    for word in source.basis_words(4):
        rows = [list(row) for row in model.phi(word).rows]
        i = rng.choice((0, 1))
        length = (rows[i][1].degree() or 0) + 1
        planted = rng.choice([m for m in target.basis_words(length)
                              if len(m) == length and not m.endswith("ba")])
        rows[i][1] = rows[i][1] + target.word(planted) * rng.choice((1, -1))
        yield MatrixElement(target, rows), ("(1,2)", "(2,2)")[i]


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["rational", "gf2", "gf3"])
def test_membership_matches_the_wide_solve_oracle(field):
    # the chain solve against one dense solve over every word of R up to
    # the factor's degree: the same verdict, factors and constant
    for n in (2, 3, 4):
        model = MatrixModel(n, field)
        members = planted_count = 0
        for matrix, planted in _oracle_matrices(model, random.Random(7 * n)):
            context = f"n={n} {matrix}"
            assert max(matrix.entry(i, 1).degree() or 0 for i in (0, 1)) <= 10
            result = model.membership(matrix)
            assert result == _dense_membership(model, matrix), context
            if planted is not None and n > 2:
                planted_count += 1
                assert result.failed_entries == (planted,), context
                continue
            members += 1
            _assert_certifies(result, matrix)
        words = len(model.source.basis_words(4))
        assert planted_count == (words if n > 2 else 0)
        assert members == (1 + len(model.source.basis_words(6)) + 12
                           + words - planted_count)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["rational", "gf3"])
def test_membership_at_degree_40_solves_small_systems(field, monkeypatch):
    # phi(x q^38) has (1,2) entry of degree 40; the dense solve would run
    # over every word of R up to degree 38, the chain solve over a few
    model = MatrixModel(3, field)
    matrix = model.phi("x q^38")
    assert matrix.entry(0, 1).degree() == 40
    shapes = []

    def recording(rows, rhs, solve_field):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return solve(rows, rhs, solve_field)

    monkeypatch.setattr(matrixrep, "solve", recording)
    result = model.membership(matrix)
    # (1,2) is a b^37 - a b^37 ba: one chain, rows at both words and one
    # unknown, s at a b^37.  (2,2) is b^37 - b^37 ba, the same shape, plus
    # the identity's chain, which the constant joins: one row, the
    # identity, and the constant's column.  Three solves in all
    assert sorted(shapes) == [(1, 1), (2, 1), (2, 1)]
    assert all(height * width <= 1000 for height, width in shapes), shapes
    _assert_certifies(result, matrix)
    assert model.membership(matrix, degree_bound=44) == result
    with pytest.raises(DegreeBoundExceeded):
        model.membership(matrix, degree_bound=37)


@pytest.mark.parametrize("count", [160, 231])
@pytest.mark.parametrize("field", [QQ, GF3], ids=["rational", "gf3"])
def test_membership_of_many_chains_costs_cells_linear_in_the_support(
        field, count, monkeypatch):
    # s is a sum of seeded words of R up to length 9 (all 231 of them at
    # the top), so its entries meet well over a hundred ba-chains.  One
    # solve per entry over all of its chains' words takes rows x columns
    # cells, 104,828 for the two entries at 160 words; the chain solves
    # take a few per word of the entries
    model = MatrixModel(3, field)
    target = model.target
    rng = random.Random(count)
    words = rng.sample(target.basis_words(9), count)
    assert len(target.basis_words(9)) == 231
    factor = linear_combination(
        target, ((rng.choice((1, -1, 2)), target.word(w)) for w in words))
    entry = factor * _one_minus_ba(target)
    matrix = MatrixElement(target, (
        (target.zero, entry), (target.zero, target.scalar(rng.choice((1, -1))) + entry)))
    cells = []

    def recording(rows, rhs, solve_field):
        cells.append(len(rows) * (len(rows[0]) if rows else 0))
        return solve(rows, rhs, solve_field)

    monkeypatch.setattr(matrixrep, "solve", recording)
    result = model.membership(matrix)
    support = sum(len(matrix.entry(i, 1).support()) for i in (0, 1))
    assert sum(cells) <= 4 * support, (sum(cells), support)
    _assert_certifies(result, matrix)
    assert result.top_right_factor == factor
    assert result == _dense_membership(model, matrix)


def test_n2_membership_factor_is_the_entry():
    # for n = 2, a = 0 and 1 - ba = 1, so the factor keeps the entry's degree
    model = MatrixModel(2, QQ)
    for word in model.source.basis_words(6):
        image = model.phi(word)
        result = model.membership(image)
        assert result.in_t and result.top_right_factor == image.entry(0, 1)


def test_free_mul_seam():
    a = R.gen("a")
    assert (a * a).is_zero  # the only way a product can die
    assert str(R.parse("a b") * R.parse("b a")) == "a b^2 a"
    with pytest.raises(ValueError):
        a * S_ALG.gen("x")


def test_matrix_arithmetic():
    X = MODEL.x_image
    assert X - X == MatrixElement.zero(R)
    assert X + (-X) == MatrixElement.zero(R)
    assert X * MatrixElement.identity(R) == X
    assert X + X - X == X
    with pytest.raises(ValueError):
        X ** -1
    other = MatrixModel(3, GF2).x_image
    with pytest.raises(ValueError):
        X + other


def test_matrix_power_squares_and_multiplies(monkeypatch):
    # every power up to 9 of a sum of both images equals the repeated product
    element = MODEL.x_image + MODEL.q_image
    expected = MatrixElement.identity(R)
    for exponent in range(10):
        assert element ** exponent == expected
        expected = expected * element
    products = []
    multiply = MatrixElement.__mul__

    def counting_mul(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(MatrixElement, "__mul__", counting_mul)
    assert (MODEL.x_image ** 1000).is_zero
    assert len(products) <= 2 * math.log2(1000) + 2
    with pytest.raises(ValueError):
        MODEL.x_image ** 2.0


def test_phi_faithful_report():
    report = verify_phi_faithful(max_len=4)
    assert report.passed
    assert report.parameters["fields"] == ["gf2", "rational"]
    with pytest.raises(ValueError):
        verify_phi_faithful(n=2)
    stretched = verify_phi_faithful(max_len=14)
    assert stretched.status == "pass"
    assert stretched.candidates_examined == 1301


@pytest.mark.parametrize("n, max_len", [(3, 7), (4, 6)])
def test_gf2_rank_of_the_images_matches_the_rational_rank(n, max_len):
    # verify_phi_faithful derives the rational verdict from the GF(2)
    # rank of the rational images' terms; the dense rational elimination
    # is the oracle.  The GF(2) and GF(3) models take their kernels' rank
    rational = MatrixModel(n, QQ)
    finite = (MatrixModel(n, GF2), MatrixModel(n, GF3))
    for length in range(max_len + 1):
        words = rational.source.basis_words(length)
        images = [rational.image_terms(word) for word in words]
        columns = sorted({(slot, word) for maps in images
                          for slot, terms in enumerate(maps) for word in terms})
        dense = [[maps[slot].get(word, 0) for slot, word in columns] for maps in images]
        ranks = [len(row_reduce(dense, QQ)[1]), _rank(images, GF2)] + [
            _rank([[entry.terms() for row in model.phi(word).rows for entry in row]
                   for word in words], model.target.field)
            for model in finite]
        assert ranks == [len(words)] * 4, (n, length)


def test_phi_faithful_reports_a_dependent_gf2_image(monkeypatch):
    # q x^2 takes the image of x, so two images coincide, mod 2 as well
    image_terms = MatrixModel.image_terms

    def patched(self, word):
        if word == parse_word("q x^2"):
            word = parse_word("x")
        return image_terms(self, word)

    monkeypatch.setattr(MatrixModel, "image_terms", patched)
    words = len(S_ALG.basis_words(4))
    report = verify_phi_faithful(max_len=4)
    assert report.status == "fail"
    assert report.witness == {"kind": "dependent-images", "field": "gf2",
                              "words": words, "rank": words - 1}
    assert report.candidates_examined == words


@pytest.mark.parametrize("n", [3, 4, 5])
def test_corner_elements_match_the_element_products(n):
    # the corner check reads (1 - qx) w (1 - qx) as w - qx w - w qx + qx w qx
    # from word products; frame * w * frame by element products is the
    # oracle.  Its images, summed from the word images it is handed (none,
    # those up to the corner's words, those up to 4 letters longer) and
    # from those it computes, must be phi of the element
    model = MatrixModel(n, QQ)
    source = model.source
    frame = source.one - source.gen("q") * source.gen("x")
    words = source.basis_words(4)
    products = [frame * source.word(w) * frame for w in words]
    products = [element for element in products if not element.is_zero]
    for length in (None, 4, 8):
        images = ({} if length is None else
                  {w: model.image_terms(w) for w in source.basis_words(length)})
        corner = _corner_elements(model, words, images)
        assert len(corner) == len(products), (n, length)
        for (terms, maps), element in zip(corner, products):
            assert terms == element.terms(), (n, length, str(element))
            assert list(maps) == [entry.terms() for row in model.phi(element).rows
                                  for entry in row], (n, length, str(element))


_IMAGE_SUM = MatrixModel._image_sum


def _image_sum_of_terms(keep):
    """_image_sum with a fault: the terms are filtered by keep first."""
    def image_sum(self, terms, image_terms):
        return _IMAGE_SUM(self, {w: c for w, c in terms.items() if keep(w)}, image_terms)
    return image_sum


def _image_sum_without_ba_endings(self, terms, image_terms):
    """_image_sum with a fault: the entries lose their words that end in
    ba, so 1 - ba and 1 share an image."""
    return tuple({s: c for s, c in total.items() if not s.endswith("ba")}
                 for total in _IMAGE_SUM(self, terms, image_terms))


@pytest.mark.parametrize("kind, target, fault", [
    ("corner-frame", "_image_sum", _image_sum_of_terms(lambda w: len(w) > 0)),
    ("corner-escape", "_image_sum", _image_sum_of_terms(lambda w: len(w) <= 2)),
    ("corner-dimension", "_image_sum", _image_sum_without_ba_endings),
    ("generator-membership", "solve", lambda rows, rhs, field: None),
], ids=["identity-term-dropped", "long-terms-dropped", "ba-endings-dropped",
        "no-factor-found"])
def test_each_corner_witness_is_reported(monkeypatch, kind, target, fault):
    # the images' rank reads image_terms, which these faults leave alone,
    # while phi of the frame and the corner elements' images are summed by
    # _image_sum, so each fault reaches the corner spot check and trips
    # its witness
    if target == "_image_sum":
        monkeypatch.setattr(MatrixModel, "_image_sum", fault)
    else:
        monkeypatch.setattr(matrixrep, "solve", fault)
    report = verify_phi_faithful(max_len=4)
    assert report.status == "fail"
    assert report.witness["kind"] == kind
    assert report.candidates_examined == 2 * len(S_ALG.basis_words(4)) + 1


def _phi_by_word_images(model, element):
    """phi(element) as it was computed before the term maps: each entry a
    linear_combination of the word images' entries."""
    images = [(c, model.phi(w).rows) for w, c in element.terms().items()]
    return MatrixElement(model.target, [
        [linear_combination(model.target, ((c, rows[i][j]) for c, rows in images))
         for j in (0, 1)]
        for i in (0, 1)])


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["rational", "gf2", "gf3"])
@pytest.mark.parametrize("n", [3, 4])
def test_phi_of_an_element_matches_the_sum_of_its_word_images(n, field):
    model = MatrixModel(n, field)
    source = model.source
    rng = random.Random(29 * n)
    frame = source.one - source.gen("q") * source.gen("x")
    # corner elements, whose images cancel outside the (2,2) entry, the
    # zero element, and random elements of up to eight terms
    elements = [frame * source.word(w) * frame for w in source.basis_words(3)]
    elements.append(source.zero)
    elements += [source.random_element(rng, 7, max_terms=8) for _ in range(150)]
    for element in elements:
        assert model.phi(element) == _phi_by_word_images(model, element), str(element)


def test_pi_goldens():
    algebra = Algebra(ab_system(2), QQ)
    image = pi_eval(algebra.parse("1 - b a"))
    assert image == ((QQ.zero, QQ.zero), (QQ.zero, QQ.one))
    assert det2(image, QQ) == QQ.zero
    assert pi_eval(algebra.gen("a")) == ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))
    assert pi_eval(algebra.parse("a b")) == ((QQ.zero, QQ.zero), (QQ.zero, QQ.one))
    # pi needs the square-zero relation on a
    with pytest.raises(ValueError):
        pi_eval(Algebra(ab_system(3), QQ).gen("a"))


def _pi_by_letter_products(element):
    """pi(element) as it was computed before the closed form: each word's
    image the product of its letters' matrices, scaled and summed."""
    field = element.algebra.field
    zero, one = field.zero, field.one
    generator = {"a": ((zero, zero), (one, zero)), "b": ((zero, one), (zero, zero))}
    total = ((zero, zero), (zero, zero))
    for word, coefficient in element.terms().items():
        image = ((one, zero), (zero, one))
        for letter in word:
            g = generator[letter]
            image = tuple(tuple(field.add(field.mul(image[i][0], g[0][j]),
                                          field.mul(image[i][1], g[1][j]))
                                for j in (0, 1)) for i in (0, 1))
        total = tuple(tuple(field.add(total[i][j], field.mul(coefficient, image[i][j]))
                            for j in (0, 1)) for i in (0, 1))
    return total


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["rational", "gf2", "gf3"])
def test_pi_matches_the_product_of_letter_images(field):
    # every basis word up to length 10, those holding bb among them, and
    # random elements whose words' images overlap and cancel
    algebra = Algebra(ab_system(2), field)
    elements = [algebra.word(w) for w in algebra.basis_words(10)]
    rng = random.Random(41)
    elements += [algebra.random_element(rng, 6, max_terms=8) for _ in range(200)]
    for element in elements:
        assert pi_eval(element) == _pi_by_letter_products(element), str(element)


def test_determinant_obstruction_report():
    report = check_determinant_obstruction(seed=1)
    assert report.passed
    assert report.candidates_examined == 1002


def test_n2_variant():
    report = n2_variant_check()
    assert report.passed
    assert n2_variant_check(field=GF3).passed


def test_n2_standard_model_kills_e():
    model = MatrixModel(2, QQ)
    source = model.source
    x, q = source.gen("x"), source.gen("q")
    e = source.one - q * x - x * q + x * q * q * x
    assert e * e == e
    assert not e.is_zero
    assert model.phi(e).is_zero


def test_model_requires_sane_degree():
    # the message comes from xq_system, the one guard on the degree
    for n in (1, 0):
        with pytest.raises(ValueError, match="^nilpotency degree must be at least 2$"):
            MatrixModel(n)


def test_long_word_image_needs_no_recursion():
    word = Word.from_letters(list("xq" * 1000))
    assert MatrixModel(3, QQ).phi(word) == MODEL.phi("x q")
