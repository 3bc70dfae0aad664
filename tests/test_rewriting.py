"""Word mechanics, reduction goldens, the basis closed form, confluence."""

import gc
import itertools
import random

import pytest

from nilregular.rewriting import (
    IDENTITY_WORD, MAX_EXPONENT, ReductionOutcome, RewriteSystem, Rule, Word,
    WordSyntaxError, ab_system, canonical_words, check_confluence, concat,
    concat_reduce, critical_pairs, enumerate_basis, is_basis_word, parse_word,
    reduce, system_from_label, xq_system)

S = xq_system(3)
R = ab_system(2)
FAMILIES = [xq_system(n) for n in range(2, 6)] + [ab_system(m) for m in range(1, 4)]
# x^3 = 0 and q^2 x = x: a right-hand side x can complete x^3 with letters
# to its left (x^2 q^2 x), which never happens in the two families, so only
# here does a re-pushed right-hand side have to be tested again
PROBE = RewriteSystem(
    label="T", letters=("x", "q"), nilpotent_letter="x", nilpotency_degree=3,
    rules=(Rule(("x",) * 3, None), Rule(("q", "q", "x"), ("x",))),
    interior_min_exponent=1)


def _leftmost_reduce(word, system):
    """The reducer before the stack one: rescan the whole word after every
    step and rewrite its leftmost redex (quadratic)."""
    letters = list(word.letters())
    steps = 0
    while True:
        found = []
        for start in range(len(letters)):
            for rule in system.rules:
                end = start + len(rule.lhs)
                if end <= len(letters) and tuple(letters[start:end]) == rule.lhs:
                    found.append((start, rule))
        if not found:
            return ReductionOutcome(Word.from_letters(letters), steps)
        start, rule = found[0]
        steps += 1
        if rule.rhs is None:
            return ReductionOutcome(None, steps)
        letters[start : start + len(rule.lhs)] = rule.rhs


def brute_force_basis(max_len, system):
    """All distinct nonzero normal forms of letter strings up to max_len."""
    found = {IDENTITY_WORD}
    for length in range(1, max_len + 1):
        for letters in itertools.product(system.letters, repeat=length):
            outcome = reduce(Word.from_letters(letters), system)
            if not outcome.is_zero:
                found.add(outcome.result)
    return found


def test_word_block_validation():
    with pytest.raises(ValueError):
        Word((("q", 0),))
    with pytest.raises(ValueError):
        Word((("q", 2), ("q", 1)))
    with pytest.raises(ValueError):
        Word((("z", 1),))


def test_identity_word():
    assert IDENTITY_WORD.is_identity
    assert len(IDENTITY_WORD) == 0
    assert str(IDENTITY_WORD) == "1"
    assert parse_word("1") == IDENTITY_WORD
    assert parse_word("  1  ") == IDENTITY_WORD


def test_parse_and_render_round_trip():
    for word in canonical_words(5, S):
        assert parse_word(str(word)) == word
    assert parse_word("q^3x^2q") == parse_word("q^3 x^2 q")


def test_parse_word_error_positions():
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word("z")
    assert excinfo.value.position == 0
    with pytest.raises(WordSyntaxError):
        parse_word("q^")
    with pytest.raises(WordSyntaxError):
        parse_word("q^0")
    with pytest.raises(WordSyntaxError):
        parse_word(f"q^{MAX_EXPONENT + 1}")
    # the whole word's letter count is capped too, at the token that
    # crosses the cap; nothing here is ever expanded into letters
    for tokens in ([f"q^{MAX_EXPONENT}"] * 2,
                   [f"q^{MAX_EXPONENT - 1}", f"x^{MAX_EXPONENT - 1}"] * 50):
        with pytest.raises(WordSyntaxError, match="word too long") as excinfo:
            parse_word(" ".join(tokens))
        assert excinfo.value.position == len(tokens[0]) + 1
    assert parse_word(f"q^{MAX_EXPONENT - 1} x").blocks \
        == (("q", MAX_EXPONENT - 1), ("x", 1))


def test_lex_order_q_above_x_and_prefix_below_extension():
    assert parse_word("x").lex_key() < parse_word("q").lex_key()
    # a proper prefix sorts strictly below any extension
    assert parse_word("q x").lex_key() < parse_word("q x^2").lex_key()
    assert parse_word("q x^2").lex_key() < parse_word("q^2").lex_key()
    assert parse_word("q").lex_key() == parse_word("q").lex_key()
    # sort_key orders by length first
    assert parse_word("x q").sort_key() < parse_word("q^2 x").sort_key()


def test_concat_merges_boundary_blocks():
    joined = concat(parse_word("q x"), parse_word("x q"))
    assert joined.blocks == (("q", 1), ("x", 2), ("q", 1))
    assert concat(IDENTITY_WORD, joined) == joined
    assert concat(joined, IDENTITY_WORD) == joined


def test_reduction_goldens():
    outcome = reduce(parse_word("q^2 x q x q^3 x^2 q"), S)
    assert str(outcome.result) == "q^4 x^2 q"
    assert outcome.steps >= 1

    product = concat_reduce(parse_word("q^3 x^2 q"), parse_word("x q^4 x^2"), S)
    assert str(product.result) == "q^3 x^2 q^4 x^2"

    dead = concat_reduce(parse_word("q x^2 q"), parse_word("x^2 q"), S)
    assert dead.is_zero
    assert dead.result is None

    one_step = concat_reduce(parse_word("q^2"), parse_word("x q^2 x"), S)
    assert str(one_step.result) == "q^3 x"
    assert one_step.steps == 1


def test_defining_relations():
    assert reduce(parse_word("x^3"), S).is_zero
    assert not reduce(parse_word("x^2"), S).is_zero
    assert str(reduce(parse_word("x q x"), S).result) == "x"
    assert str(reduce(parse_word("q x q"), S).result) == "q"
    assert reduce(parse_word("a^2"), R).is_zero
    assert str(reduce(parse_word("b a b a^2"), R).result) == "0" or \
        reduce(parse_word("b a b a^2"), R).is_zero


def test_reduce_matches_the_leftmost_oracle():
    for system in FAMILIES + [PROBE]:
        for word in canonical_words(10, system):
            assert reduce(word, system) == _leftmost_reduce(word, system), word
    assert reduce(parse_word("x^2 q^2 x"), PROBE) == ReductionOutcome(None, 2)


def test_concat_reduce_matches_reduce_of_the_concatenation():
    for system in FAMILIES:
        basis = enumerate_basis(6, system)
        for u in basis:
            for v in basis:
                joined = concat(u, v)
                expected = reduce(joined, system)
                assert concat_reduce(u, v, system) == expected, (u, v)
                assert expected == _leftmost_reduce(joined, system), (u, v)


def test_long_words_reduce():
    # a rescan after every step is quadratic (5.6 s at 4,001 letters, so
    # minutes here); the stack reducer is linear
    letters = ["x", "q"] * 20000 + ["x"]
    outcome = reduce(Word.from_letters(letters), S)
    assert outcome.result == parse_word("x")
    assert outcome.steps == 20000
    letters[-8:-8] = ["x"] * 3
    assert reduce(Word.from_letters(letters), S).is_zero


def test_random_strategy_agrees_with_leftmost():
    rng = random.Random(11)
    for word in canonical_words(6, S):
        expected = reduce(word, S).result
        for _ in range(3):
            assert reduce(word, S, rng=rng).result == expected


def test_basis_matches_brute_force_small():
    for system in (S, R):
        assert set(enumerate_basis(4, system)) == brute_force_basis(4, system)
    # the grown enumeration equals filtering every word, order included
    systems = [xq_system(n) for n in range(2, 6)] + [ab_system(m) for m in range(1, 4)]
    for system in systems:
        for max_len in range(11):
            filtered = [w for w in canonical_words(max_len, system)
                        if is_basis_word(w, system)]
            assert enumerate_basis(max_len, system) == filtered, (system, max_len)
        with pytest.raises(ValueError):
            enumerate_basis(-1, system)


def test_basis_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_basis(6, S)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_basis_counts():
    assert len(enumerate_basis(1, S)) == 3
    assert len(enumerate_basis(2, S)) == 7
    assert len(enumerate_basis(3, S)) == 12
    assert len(enumerate_basis(8, S)) == 88
    assert len(enumerate_basis(6, R)) == 53
    assert len(enumerate_basis(14, S)) == 650


def test_canonical_words_count():
    assert len(canonical_words(8, S)) == 511


def test_basis_words_have_the_closed_form():
    # blocks of the nilpotent letter stay below n; interior blocks of the
    # other letter stay at 2 or more
    for word in enumerate_basis(6, S):
        for index, (letter, exponent) in enumerate(word.blocks):
            if letter == "x":
                assert exponent < 3
            elif 0 < index < len(word.blocks) - 1:
                assert exponent >= 2
        assert is_basis_word(word, S)
    assert not is_basis_word(parse_word("x^3"), S)
    assert not is_basis_word(parse_word("x q x"), S)


def test_all_critical_pairs_resolve():
    pairs = critical_pairs(S)
    assert len(pairs) == 8
    assert all(pair.resolves for pair in pairs)
    assert all(pair.resolves for pair in critical_pairs(R))


def test_confluence_reports():
    report = check_confluence(S, max_len=6)
    assert report.passed
    assert report.status == "pass"
    assert check_confluence(R, max_len=6).passed


def test_system_from_label():
    assert system_from_label("S", 3).nilpotency_degree == 3
    assert system_from_label("R", 3).nilpotency_degree == 2
    with pytest.raises(ValueError):
        system_from_label("T", 3)
    with pytest.raises(ValueError):
        xq_system(1)
