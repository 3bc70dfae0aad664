"""Interface types, the C-set, the largest-word forms, and the searches."""

import itertools
import random
from collections import Counter

import pytest

from nilregular import analysis
from nilregular.analysis import (
    COccurrence, CSet, TauForm, _iter_families, _match_form1, _match_form2,
    _match_form3, _pair_contributions, _tau_witness, build_c_set,
    check_primeness_bounded, check_regularity_identities, check_separativity_identities,
    check_tau_forms_families, check_tau_uniqueness_families, check_types_lemma,
    classify_tau_occurrences, closing_argument_margin, find_tau,
    left_shape_words, right_shape_words, search_unit_regular_witness,
    tau_form_of, type_i_word, type_ii_word)
from nilregular.elements import Algebra, linear_combination
from nilregular.fields import GF2, GF3, QQ, PrimeField
from nilregular.linalg import (
    MapKernel, PackedGF, PackedGF2, field_kernel, packed_kernel, row_reduce, solve)
from nilregular.rewriting import (
    Word, canonical_words, enumerate_basis, parse_word, reduce, xq_system)

S = xq_system(3)


def words(*texts):
    return [parse_word(text) for text in texts]


def test_shape_word_pools():
    lefts = left_shape_words(3, S)
    rights = right_shape_words(3, S)
    assert [str(w) for w in lefts] == ["1", "q", "q^2", "q^3"]
    assert [str(y) for y in rights] == ["1", "x", "x^2"]
    assert len(left_shape_words(6, S)) == 13
    assert len(right_shape_words(6, S)) == 11
    assert len(left_shape_words(7, S)) == 18
    assert len(right_shape_words(7, S)) == 15


def test_interface_classification():
    # the seam of w*y dies, reduces once, or needs no reduction
    assert type_i_word("q x^2 q", "x^2 q", S).is_zero
    reduced = type_i_word("q x^2 q", "x q^2 x", S)
    assert not reduced.is_zero and reduced.steps == 1
    assert type_i_word("q", "x^2", S).steps == 0


def test_type_words():
    assert str(type_i_word("q^2", "x q^2 x", S).result) == "q^3 x"
    assert type_i_word("q x^2 q", "x^2", S).is_zero
    second = type_ii_word("q", "x q^2 x", S)
    assert str(second.result) == "q^2 x^2 q^2 x"
    # a nonzero type II word never needs reduction
    assert second.steps == 0


def test_c_set_of_the_identity_pair():
    c = build_c_set(["1"], ["1"], S)
    assert len(c) == 1
    occurrence = c.occurrences[0]
    assert str(occurrence.word) == "q x"
    assert occurrence.kind == "type-II"
    assert occurrence.sign == -1


def test_qx_occurrences_across_a_family():
    # the word qx can only arise from (1, 1) as type II and (q, x) as type I
    c = build_c_set(["1", "q"], ["1", "x"], S)
    sources = {(str(o.left), str(o.right), o.kind, o.sign)
               for o in c.occurrences_of("q x")}
    assert sources == {("1", "1", "type-II", -1), ("q", "x", "type-I", 1)}
    # so with equal coefficients on the two sides, qx cancels
    assert sum(o.sign for o in c.occurrences_of("q x")) == 0


@pytest.mark.parametrize("lefts, rights, message", [
    (["x"], ["x"], "x is not a left-shape word"),
    (["q x q"], ["x"], "q x q is not a left-shape word"),
    (["q"], ["q x"], "q x is not a right-shape word"),
    (["q", Word("q")], ["x"], "duplicate left word q"),
    (["q"], ["a"], "letter 'a' does not belong to presentation S"),
], ids=["left-x", "non-basis", "right-begins-in-q", "duplicate", "letter-a"])
def test_build_c_set_rejects_bad_input(monkeypatch, lefts, rights, message):
    # each bad word is refused by the side check, before any pair is
    # multiplied out (reducing a product would refuse a foreign letter too)
    multiplied = []
    monkeypatch.setattr(analysis, "_pair_contributions",
                        lambda *pair: multiplied.append(pair) or ())
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_c_set(lefts, rights, S)
    assert multiplied == []


@pytest.mark.parametrize("order", ((3, 4), (4, 3)), ids=["n3-first", "n4-first"])
def test_shape_verdicts_are_cached_per_system(order):
    # x^3 is a right-shape word at n = 4 and zero at n = 3, whichever
    # system's verdict is cached first
    analysis._shape_end.cache_clear()
    for n in order:
        if n == 4:
            assert build_c_set(["q"], ["x^3"], xq_system(4)).occurrences
        else:
            with pytest.raises(ValueError, match=r"^x\^3 is not a right-shape word$"):
                build_c_set(["q"], ["x^3"], S)


def test_cached_shape_verdicts_still_check_the_side_and_duplicates():
    analysis._shape_end.cache_clear()
    assert build_c_set(["q"], ["x"], S).occurrences
    with pytest.raises(ValueError, match="^q is not a right-shape word$"):
        build_c_set(["q"], ["q"], S)
    with pytest.raises(ValueError, match="^duplicate left word q$"):
        build_c_set(["q", "q", "x"], ["x"], S)


@pytest.mark.parametrize("text, letters", [
    ("q x q", "qxq"), ("q x^2 q", "qxxq"), ("x q", "xq"), ("1", "")])
def test_text_and_word_input_get_the_same_shape_verdict(text, letters):
    def verdict(word):
        try:
            build_c_set([word], [], S)
        except ValueError as error:
            return str(error)
        return "accepted"

    analysis._shape_end.cache_clear()
    text_first = [verdict(text), verdict(Word(letters))]
    analysis._shape_end.cache_clear()
    word_first = [verdict(Word(letters)), verdict(text)]
    assert text_first == word_first == [text_first[0]] * 2


def test_analysis_caches_are_bounded():
    assert analysis._shape_end.cache_info().maxsize is not None
    assert tau_form_of.cache_info().maxsize is not None
    # bounded, with room for every pair of the length-12 shape pools
    pairs = len(left_shape_words(12, S)) * len(right_shape_words(12, S))
    assert pairs == 94 * 77
    assert pairs <= _pair_contributions.cache_info().maxsize < 2 * pairs


@pytest.mark.parametrize("random_len", (6, 7, 8))
def test_pool_words_pass_the_full_side_check(random_len):
    # the sweeps' own pool words skip the side check; a plain list of the
    # same words gets the full check, which must accept them unchanged
    families = 0
    for exhaustive_len, seed in itertools.product((2, 3), (0, 1, 2)):
        for lefts, rights in _iter_families(exhaustive_len, random_len, 200,
                                            seed, S):
            families += 1
            for words, side in ((lefts, "left"), (rights, "right")):
                assert type(words) is analysis._PoolWords
                assert analysis._checked_side(words, side, S) is words
                assert analysis._checked_side(list(words), side, S) == words
    assert families == 3 * (2**6 + 2**7) + 6 * 200


def test_find_tau_and_form_parse():
    c = build_c_set(["q"], ["x^2"], S)
    tau = find_tau(c)
    assert str(tau) == "q x^2"
    form = tau_form_of(tau)
    assert form.q_exponents == (1,)
    assert form.tail_exponent == 2
    assert tau_form_of(parse_word("x q")) is None
    assert tau_form_of(parse_word("q x^2 q")) is None
    with pytest.raises(ValueError):
        find_tau(build_c_set([], [], S))


def _blocks_tau_form_of(word):
    """The block-walking parser that the regular expression replaced."""
    blocks = word.blocks
    if not blocks or blocks[0][0] != "q" or blocks[-1][0] != "x":
        return None
    q_exponents = tuple(e for letter, e in blocks if letter == "q")
    x_exponents = tuple(e for letter, e in blocks if letter == "x")
    if any(e != 2 for e in x_exponents[:-1]):
        return None
    if x_exponents[-1] not in (1, 2):
        return None
    if any(e < 2 for e in q_exponents[1:]):
        return None
    return TauForm(q_exponents, x_exponents[-1])


def test_tau_form_matches_the_block_parser():
    words_seen = parsed = 0
    for word in canonical_words(12, S):
        form = tau_form_of(word)
        assert form == _blocks_tau_form_of(word), word
        words_seen += 1
        parsed += form is not None
    assert (words_seen, parsed) == (2**13 - 1, 84)


def test_every_basis_word_from_q_to_x_has_the_tau_form():
    # so find_tau's off-form error can only fire on a non-basis word
    ends = [w for w in enumerate_basis(14, S)
            if w.startswith("q") and w.endswith("x")]
    assert len(ends) == 162
    assert all(tau_form_of(w) is not None for w in ends)
    assert tau_form_of("q x q^2 x") is None


def test_form1_occurrence():
    classification = classify_tau_occurrences(build_c_set(["q"], ["x^2"], S))
    assert str(classification.tau) == "q x^2"
    assert not classification.violations
    [occurrence] = classification.occurrences
    assert occurrence.form == 1
    assert occurrence.r == 1
    assert classification.reduced_occurrences == []


def test_form2_occurrence():
    # the smallest pair whose type I word reduces onto the largest word
    classification = classify_tau_occurrences(build_c_set(["q"], ["x q^3 x"], S))
    assert str(classification.tau) == "q^3 x"
    assert not classification.violations
    [occurrence] = classification.reduced_occurrences
    assert (occurrence.form, occurrence.r, occurrence.a, occurrence.b) == (2, 1, 1, 3)

    classification = classify_tau_occurrences(
        build_c_set(["q^2 x^2 q"], ["x q^3 x"], S))
    assert str(classification.tau) == "q^2 x^2 q^3 x"
    [occurrence] = classification.reduced_occurrences
    assert (occurrence.form, occurrence.r, occurrence.a, occurrence.b) == (2, 2, 1, 3)


def test_form3_interior_occurrence():
    classification = classify_tau_occurrences(build_c_set(["q"], ["x q^2 x"], S))
    assert str(classification.tau) == "q^2 x^2 q^2 x"
    assert not classification.violations
    reduced = classification.reduced_occurrences
    assert len(reduced) == 1
    assert reduced[0].form == 3
    assert reduced[0].variant == "interior"


def test_form3_terminal_occurrence():
    classification = classify_tau_occurrences(build_c_set(["q^2"], ["x"], S))
    assert str(classification.tau) == "q^3 x^2"
    [occurrence] = classification.reduced_occurrences
    assert occurrence.form == 3
    assert occurrence.variant == "terminal"


def test_mixed_family_with_identity_words():
    classification = classify_tau_occurrences(
        build_c_set(["1", "q"], ["1", "x"], S))
    assert str(classification.tau) == "q^2 x^2"
    assert not classification.violations
    # no identity pair reaches this tau, so nothing needed skipping
    assert classification.skipped_identity_pairs == []
    [occurrence] = classification.reduced_occurrences
    assert occurrence.form == 3 and occurrence.variant == "terminal"
    assert (str(occurrence.left), str(occurrence.right)) == ("q", "x")


def test_identity_pairs_reaching_tau_are_skipped_not_classified():
    # here tau = qx^2 arises only from the pair (1, x); the three-form
    # statement is about nonidentity pairs, so the pair is recorded instead
    classification = classify_tau_occurrences(build_c_set(["1"], ["x"], S))
    assert str(classification.tau) == "q x^2"
    assert classification.occurrences == []
    assert not classification.violations
    assert [(str(w), str(y)) for w, y in classification.skipped_identity_pairs] \
        == [("1", "x")]
    assert _tau_witness(classification, count_reduced=True) is None


def _eight_monomial_members(w, y):
    """Every monomial (xq)^e1 w (qx)^e2 y (xq)^e3, reduced; the C-members
    as occurrence records."""
    members = []
    for e1, e2, e3 in itertools.product((0, 1), repeat=3):
        letters = (("x", "q") * e1 + w.letters() + ("q", "x") * e2
                   + y.letters() + ("x", "q") * e3)
        outcome = reduce(Word.from_letters(letters), S)
        word = outcome.result
        if word is None or not (word.startswith("q") and word.endswith("x")):
            continue
        kind = {(0, 0, 0): "type-I", (0, 1, 0): "type-II"}.get((e1, e2, e3),
                                                                "other")
        members.append(COccurrence(word, w, y, kind, (-1) ** (e1 + e2 + e3),
                                   outcome.steps))
    return members


def test_pair_contributions_match_the_eight_monomial_expansion():
    lefts, rights = left_shape_words(5, S), right_shape_words(5, S)
    for w in lefts:
        for y in rights:
            assert list(_pair_contributions(S, w, y)) \
                == _eight_monomial_members(w, y), (w, y)
    assert len(lefts) * len(rights) == 63


def _pairwise_classification(lefts, rights, tau):
    """The pair-by-pair classifier: reduce the type I and type II word of
    every support pair and match the ones equal to tau."""
    form = tau_form_of(tau)
    occurrences, violations, skipped = [], [], []
    for w in lefts:
        for y in rights:
            first, second = type_i_word(w, y, S), type_ii_word(w, y, S)
            if w.is_identity or y.is_identity:
                if tau in (first.result, second.result):
                    skipped.append((w, y))
                continue
            if first.result == tau:
                matched = (_match_form1(w, y) if first.steps == 0
                           else _match_form2(w, y, tau, form))
                if matched is None:
                    violations.append({"left": str(w), "right": str(y),
                                       "kind": "type-I", "steps": first.steps})
                else:
                    occurrences.append(matched)
            if second.result == tau:
                matched = _match_form3(w, y, tau, form)
                if matched is None:
                    violations.append({"left": str(w), "right": str(y),
                                       "kind": "type-II", "steps": second.steps})
                else:
                    occurrences.append(matched)
    return occurrences, violations, skipped


def _oracle_families():
    yield from _iter_families(2, 0, 0, 0, S)
    rng = random.Random(11)
    for length in (6, 7, 8):
        left_pool, right_pool = left_shape_words(length, S), right_shape_words(length, S)
        for _ in range(350):
            yield (rng.sample(left_pool, rng.randint(1, 5)),
                   rng.sample(right_pool, rng.randint(1, 5)))


def test_classification_from_the_c_set_matches_the_pairwise_oracle():
    families = classified = 0
    for lefts, rights in _oracle_families():
        families += 1
        c_set = build_c_set(lefts, rights, S)
        if c_set.is_empty:
            continue
        classified += 1
        classification = classify_tau_occurrences(c_set)
        tau = max((word for w in lefts for y in rights
                   for word in (type_i_word(w, y, S).result,
                                type_ii_word(w, y, S).result)
                   if word is not None and word.startswith("q")
                   and word.endswith("x")), key=Word.lex_key)
        assert classification.tau == tau
        assert (classification.occurrences, classification.violations,
                classification.skipped_identity_pairs) \
            == _pairwise_classification(lefts, rights, tau), (lefts, rights)
    assert families == 64 + 1050
    assert classified > 1000


def _hand_built_c_set(lefts, rights):
    """The C-set of the pairs, from occurrence records built directly from
    the eight-monomial expansion, not by ``_pair_contributions``."""
    return CSet(tuple(occ for w in lefts for y in rights
                      for occ in _eight_monomial_members(w, y)), S)


def test_hand_built_c_sets_classify_like_built_ones():
    classified = 0
    for lefts, rights in _oracle_families():
        built = build_c_set(lefts, rights, S)
        hand_built = _hand_built_c_set(lefts, rights)
        assert hand_built == built
        if built.is_empty:
            continue
        classified += 1
        expected, got = (classify_tau_occurrences(c_set)
                         for c_set in (built, hand_built))
        assert (got.tau, got.occurrences, got.violations,
                got.skipped_identity_pairs) \
            == (expected.tau, expected.occurrences, expected.violations,
                expected.skipped_identity_pairs), (lefts, rights)
    assert classified > 1000


def test_hand_built_off_form_tau_is_refused():
    # q x q^2 x is not a basis word (xqx = x), so it has no TauForm
    word = parse_word("q x q^2 x")
    occurrence = COccurrence(word, parse_word("q"), parse_word("x q^2 x"),
                             "type-I", 1)
    smaller = COccurrence(parse_word("q x"), parse_word("q"), parse_word("x"),
                          "type-I", 1)
    assert occurrence.tau_match is None
    for c_set in (CSet((occurrence,), S), CSet((smaller, occurrence), S)):
        with pytest.raises(RuntimeError, match=r"^largest C-word q x q\^2 x off-form$"):
            classify_tau_occurrences(c_set)
    # below a larger on-form word it is never tau and never refused
    larger = COccurrence(parse_word("q^2 x"), parse_word("q^2"), parse_word("x"),
                         "type-I", 1)
    classification = classify_tau_occurrences(CSet((occurrence, larger), S))
    assert str(classification.tau) == "q^2 x"
    assert [occ.form for occ in classification.occurrences] == [1]


def _type_i_occurrence(left, right):
    w, y = parse_word(left), parse_word(right)
    outcome = type_i_word(w, y, S)
    return COccurrence(outcome.result, w, y, "type-I", 1, outcome.steps)


def test_form2_with_b2_needs_a_later_q_group_above_2():
    # (q, x q^2 x) reduces onto q^2 x with b = 2 and no later q-group; a
    # real C-set never has it as tau, since the pair's type II word
    # q^2 x^2 q^2 x is larger, so only a hand-built C-set reaches the clause
    lone = _type_i_occurrence("q", "x q^2 x")
    assert (str(lone.word), lone.steps) == ("q^2 x", 1)
    classification = classify_tau_occurrences(CSet((lone,), S))
    assert classification.occurrences == []
    assert classification.violations == [
        {"left": "q", "right": "x q^2 x", "kind": "type-I", "steps": 1}]
    # with a later q^3 the same seam is a form-2 occurrence
    later = _type_i_occurrence("q", "x q^2 x^2 q^3 x")
    assert str(later.word) == "q^2 x^2 q^3 x"
    [occurrence] = classify_tau_occurrences(CSet((later,), S)).occurrences
    assert (occurrence.form, occurrence.r, occurrence.a, occurrence.b) == (2, 1, 1, 2)


def test_classification_needs_n3():
    with pytest.raises(ValueError):
        classify_tau_occurrences(
            build_c_set(["q"], ["x^2"], xq_system(4)))


def test_uniqueness_report_for_single_families():
    classification = classify_tau_occurrences(
        build_c_set(["q"], ["x q^2 x"], S))
    assert str(classification.tau) == "q^2 x^2 q^2 x"
    assert _tau_witness(classification, count_reduced=True) is None
    assert build_c_set([], [], S).is_empty


def test_closing_argument_margin():
    # a form-1 pair also contributes the strictly larger type II word
    tau = find_tau(build_c_set(["q"], ["x^2"], S))
    assert closing_argument_margin(parse_word("q"), tau, S)


def test_family_sweeps_small():
    forms = check_tau_forms_families(exhaustive_len=2, random_len=4,
                                     random_trials=50, seed=3)
    assert forms.passed
    unique = check_tau_uniqueness_families(exhaustive_len=2, random_len=4,
                                           random_trials=50, seed=3)
    assert unique.passed
    assert unique.parameters["random_trials"] == 50


SWEEPS = [(check, random_len, seed)
          for check in (check_tau_forms_families, check_tau_uniqueness_families)
          for random_len in (6, 7, 8) for seed in (1, 2)]


@pytest.mark.parametrize(
    "check,random_len,seed", SWEEPS,
    ids=[f"{c.__name__}-L{length}-s{seed}" for c, length, seed in SWEEPS])
def test_sweeps_match_a_sweep_with_cold_caches(monkeypatch, check, random_len, seed):
    kwargs = dict(exhaustive_len=2, random_len=random_len, random_trials=100,
                  seed=seed)
    warm = check(**kwargs)
    build = analysis.build_c_set

    def cold_build_c_set(left_words, right_words, system):
        for cache in (analysis._shape_end, tau_form_of, _pair_contributions):
            cache.cache_clear()
        return build(left_words, right_words, system)

    monkeypatch.setattr(analysis, "build_c_set", cold_build_c_set)
    cold = check(**kwargs)
    assert warm.passed
    assert _without_elapsed(cold) == _without_elapsed(warm)


def test_types_lemma_small():
    report = check_types_lemma(max_len=5)
    assert report.passed
    assert report.candidates_examined > 0


def test_unit_regular_search_exhausts_gf2():
    report = search_unit_regular_witness(max_word_len=2, field=GF2)
    assert report.status == "exhausted"
    assert report.passed
    # pools at length 2: lefts {1, q, q^2}, rights {1, x, x^2}
    assert report.candidates_examined == 2 ** 3 * 2 ** 3
    assert report.parameters["analytic_candidate_count"] == 64
    assert report.parameters["pool_exhaustive"] is True
    assert report.witness is None


@pytest.mark.parametrize("arguments,message", (
    ({"max_word_len": -1}, "max_word_len must be nonnegative"),
    ({"max_word_len": 2, "workers": 0}, "workers must be positive"),
    ({"max_word_len": 2, "workers": -3}, "workers must be positive")),
    ids=["negative-length", "zero-workers", "negative-workers"])
def test_unit_regular_search_refuses_bad_bounds(arguments, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        search_unit_regular_witness(**arguments)


def test_unit_regular_search_workers_agree():
    single = search_unit_regular_witness(max_word_len=2, field=GF3)
    fanned = search_unit_regular_witness(max_word_len=2, field=GF3, workers=2)
    assert single.status == fanned.status == "exhausted"
    assert single.candidates_examined == fanned.candidates_examined == 3 ** 6


def test_unit_regular_search_rational_grid_is_flagged():
    report = search_unit_regular_witness(max_word_len=1, field=QQ)
    assert report.parameters["pool_exhaustive"] is False
    assert report.status == "exhausted"


def _beta_walk(field, lefts, tables, target, representatives=True):
    """The scan's walk over the betas of (tables, target): (index, beta)
    for each consistent beta in index order, one per scalar orbit over
    GF(p > 2) unless ``representatives`` is False."""
    kernel = field_kernel(field)
    stride = len(lefts) + 1
    pool, exhaustive = field.coefficient_pool()
    rows = analysis._settled_rows(kernel, tables, target, stride)
    leaves = analysis._walk(kernel, rows, stride, pool, exhaustive and representatives)
    return ((index, beta) for index, beta, _ in leaves)


def _assert_no_beta_survives(field, max_word_len, n):
    # a table fault that lets betas through would have the search walk
    # the alphas of each; the first surviving beta fails the test at once
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    target, tables = analysis._search_tables(n, field, lefts, rights)
    assert next(_beta_walk(field, lefts, tables, target), None) is None


def test_unit_regular_search_exhausts_gf2_at_length_5():
    # 2^9 alphas against 2^7 betas: each beta's system is inconsistent, so
    # no alpha is walked
    _assert_no_beta_survives(GF2, 5, 3)
    report = search_unit_regular_witness(max_word_len=5, field=GF2)
    assert report.status == "exhausted"
    assert report.candidates_examined == 65_536
    assert report.parameters["analytic_candidate_count"] == 65_536


def test_unit_regular_search_exhausts_gf2_at_length_7():
    # 2^18 alphas against 2^15 betas, every prefix of beta pruned before
    # its last digit
    _assert_no_beta_survives(GF2, 7, 3)
    report = search_unit_regular_witness(max_word_len=7, field=GF2)
    assert report.status == "exhausted"
    assert report.candidates_examined == 2 ** 33
    assert report.parameters["analytic_candidate_count"] == 2 ** 33


# (field, max_word_len, n, left words, right words): bounds that a test
# of every beta could not reach, 3^15, 2^28 and 2^32 betas
STRETCHED_SEARCHES = ((GF3, 7, 3, 18, 15), (GF2, 9, 3, 35, 28), (GF2, 8, 4, 35, 32))


@pytest.mark.parametrize(
    "field,max_word_len,n,lefts,rights", STRETCHED_SEARCHES,
    ids=[f"{f.name}-L{length}-n{n}" for f, length, n, _, _ in STRETCHED_SEARCHES])
def test_unit_regular_search_exhausts_stretched_bounds(field, max_word_len, n,
                                                       lefts, rights):
    _assert_no_beta_survives(field, max_word_len, n)
    report = search_unit_regular_witness(max_word_len=max_word_len, field=field, n=n)
    assert report.status == "exhausted"
    assert len(report.parameters["left_words"]) == lefts
    assert len(report.parameters["right_words"]) == rights
    assert report.candidates_examined == field.p ** (lefts + rights)
    assert report.parameters["analytic_candidate_count"] == field.p ** (lefts + rights)


def _frame_products(n, field, lefts, rights):
    """The algebra, 1 - xq, and every (1-xq) w (1-qx) * (1-qx) y (1-xq)."""
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    left_frame = algebra.one - x * q
    right_frame = algebra.one - q * x
    alpha_units = [left_frame * algebra.word(w) * right_frame for w in lefts]
    beta_units = [right_frame * algebra.word(y) * left_frame for y in rights]
    return algebra, left_frame, [[a_unit * b_unit for b_unit in beta_units]
                                 for a_unit in alpha_units]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("field", (GF2, GF3, PrimeField(5), PrimeField(17), QQ),
                         ids=lambda f: f.name)
def test_search_tables_hold_the_element_products(field, n):
    # (1-xq) w (1-qx) y (1-xq) = (1-xq) (wy - wqxy) (1-xq), and
    # (1-xq) T (1-xq) is 1 - xq for T = 1, T - xqT - Txq + xqTxq for a word
    # T from q to x, and 0 for any other word.  So the tables' rows, with
    # their targets, are the products' rows at the identity and at the
    # words from q to x, and every other product row is minus the
    # identity's (at xq) or, up to sign, the row of the word T it frames.
    # The tables' rows carry no words, so they are matched by content: the
    # target's value and every (column, right word) entry
    system = xq_system(n)
    for max_word_len in range(5 if field == GF2 else 4):
        lefts = left_shape_words(max_word_len, system)
        rights = right_shape_words(max_word_len, system)
        target, tables = analysis._search_tables(n, field, lefts, rights)
        _, left_frame, products = _frame_products(n, field, lefts, rights)
        rows = [{"target": c} if c != field.zero else {} for c in target]
        for j, table in enumerate(tables):
            for r, i, c in table:
                assert c != field.zero
                assert (i, j) not in rows[r]
                rows[r][i, j] = c
        expected = {word: {"target": c} for word, c in left_frame.terms().items()}
        for i, row_products in enumerate(products):
            for j, product in enumerate(row_products):
                for word, c in product.terms().items():
                    expected.setdefault(word, {})[i, j] = c
        kept = {word: row for word, row in expected.items()
                if word.is_identity or (word.startswith("q") and word.endswith("x"))}
        assert Counter(map(_frozen, rows)) == Counter(map(_frozen, kept.values())), \
            max_word_len
        for word, row in expected.items():
            if word in kept:
                continue
            head, tail = word.startswith("x"), word.endswith("q")
            assert word.startswith("xq" * head) and word.endswith("xq" * tail), word
            framed = Word(word[2 * head:len(word) - 2 * tail])
            assert framed.is_identity == (word == "xq"), word
            sign = -1 if head != tail or framed.is_identity else 1
            assert row == {key: c if sign == 1 else field.neg(c)
                           for key, c in expected.get(framed, {}).items()}, word


def _frozen(row: dict) -> frozenset:
    return frozenset(row.items())


@pytest.mark.parametrize("max_len,families_with_c_words", ((3, 104), (4, 942)))
def test_tau_has_one_entry_in_the_search_table(max_len, families_with_c_words):
    # in every family of the n = 3 pools with a C-word, tau occurs once, so
    # its coefficient in alpha * beta is +-u_w v_y for one pair and cannot
    # cancel.  A pair gives its type I word sign +1 and its type II word
    # sign -1, so a table row whose one entry is tau's occurrence is tau's
    families = 0
    for lefts, rights in _iter_families(max_len, 0, 0, 0, S):
        c_set = build_c_set(lefts, rights, S)
        if c_set.is_empty:
            continue
        families += 1
        (occurrence,) = c_set.occurrences_of(find_tau(c_set))
        target, tables = analysis._search_tables(3, QQ, lefts, rights)
        rows = [{} for _ in target]
        for j, table in enumerate(tables):
            for r, i, c in table:
                rows[r][lefts[i], rights[j]] = c
        assert {(occurrence.left, occurrence.right): occurrence.sign} in rows, \
            (lefts, rights)
    assert families == families_with_c_words


def test_a_scan_hit_that_does_not_multiply_out_raises(monkeypatch):
    # a hit is multiplied out in the algebra before it is reported, so a
    # scan defect cannot pass off a wrong witness as a counterexample
    def wrong_hit(n, field, lefts, rights):
        return 0, (0,) * len(lefts), (0,) * len(rights)
    monkeypatch.setattr(analysis, "_scan_betas", wrong_hit)
    with pytest.raises(RuntimeError, match="not 1 - xq"):
        search_unit_regular_witness(max_word_len=1, field=GF2, n=3)


def _brute_force_scan(n, field, lefts, rights):
    """The oracle: multiply out every alpha with every beta, in index
    order, and return (index, alpha, beta) for the first product equal to
    1 - xq."""
    algebra, left_frame, products = _frame_products(n, field, lefts, rights)
    pool, _ = field.coefficient_pool()
    betas = list(itertools.product(pool, repeat=len(rights)))
    columns_of = [[linear_combination(algebra, zip(beta, row)) for row in products]
                  for beta in betas]
    for alpha_index, alpha in enumerate(itertools.product(pool, repeat=len(lefts))):
        for beta_index, (beta, columns) in enumerate(zip(betas, columns_of)):
            if linear_combination(algebra, zip(alpha, columns)) == left_frame:
                return alpha_index * len(betas) + beta_index, alpha, beta
    return None


def _brute_force_search(monkeypatch, **kwargs):
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "_scan_betas", _brute_force_scan)
        return search_unit_regular_witness(**kwargs)


def _without_elapsed(report) -> dict:
    data = report.to_dict()
    data.pop("elapsed_ms")
    return data


GF5 = PrimeField(5)
# small exhaustive searches, at most 5,000 candidates each
SMALL_SEARCHES = (
    [(GF2, length, n) for n in (3, 4) for length in range(4)]
    + [(GF3, length, n) for n in (3, 4) for length in range(3)]
    + [(field, 1, n) for field in (GF5, QQ) for n in (3, 4)])


@pytest.mark.parametrize(
    "field,max_word_len,n", SMALL_SEARCHES,
    ids=[f"{f.name}-L{length}-n{n}" for f, length, n in SMALL_SEARCHES])
def test_unit_regular_search_matches_the_brute_force_scan(
        monkeypatch, field, max_word_len, n):
    expected = _brute_force_search(monkeypatch, max_word_len=max_word_len,
                                   field=field, n=n)
    report = search_unit_regular_witness(max_word_len=max_word_len,
                                         field=field, n=n)
    assert report.status == "exhausted"
    assert _without_elapsed(report) == _without_elapsed(expected)


# at n = 2 every power of x is regular, and alpha = 1 + q,
# beta = 1 + x + x q^2 x is a witness from length 4 on
N2_HITS = ((GF2, 4, 200), (GF3, 4, 2_930), (GF2, 5, 783))


@pytest.mark.parametrize(
    "field,max_word_len,examined", N2_HITS,
    ids=[f"{f.name}-L{length}" for f, length, _ in N2_HITS])
def test_n2_search_finds_the_brute_force_witness(
        monkeypatch, field, max_word_len, examined):
    expected = _brute_force_search(monkeypatch, max_word_len=max_word_len,
                                   field=field, n=2)
    report = search_unit_regular_witness(max_word_len=max_word_len,
                                         field=field, n=2)
    assert report.status == "fail"
    assert report.candidates_examined == examined
    assert _without_elapsed(report) == _without_elapsed(expected)


def _without_timing(report) -> dict:
    data = _without_elapsed(report)
    data["parameters"] = dict(data["parameters"], workers=None)
    return data


@pytest.mark.parametrize("workers", (1, 3, 13))
def test_n2_witness_is_the_same_across_worker_counts(monkeypatch, workers):
    # the search runs in one process; workers is checked and echoed only
    expected = _brute_force_search(monkeypatch, max_word_len=4, field=GF3, n=2)
    report = search_unit_regular_witness(max_word_len=4, field=GF3, n=2,
                                         workers=workers)
    assert report.parameters["workers"] == workers
    assert _without_timing(report) == _without_timing(expected)


@pytest.mark.parametrize("workers", (3, 13))
def test_gf5_witness_is_the_same_across_worker_counts(workers):
    # the first hit, alpha 750 with beta 31 = (1, 1, 1) in base 5
    single = search_unit_regular_witness(max_word_len=4, field=GF5, n=2)
    report = search_unit_regular_witness(max_word_len=4, field=GF5, n=2,
                                         workers=workers)
    assert report.parameters["workers"] == workers
    assert single.candidates_examined == 750 * 5 ** 3 + 32
    assert _without_timing(report) == _without_timing(single)


# n = 2 searches that hit, against the brute force over the whole index
# order.  GF(3) L=4 has 3^3 betas against 3^5 alphas and hits at (alpha,
# beta) = (108, 13), (135, 16), (189, 23) and (216, 26); 13 = (1, 1, 1)
# and 16 = (1, 2, 1) in base 3 represent the orbits {13, 26} and {16,
# 23}.  The rational grid at L=4 hits at (750, 31), (875, 36), (1375, 57)
# and (1500, 62) of 5^5 by 5^3, and walks each beta alone.  GF(5) L=4
# hits at 16 pairs, the least (750, 31), then (875, 41), (1000, 36) and
# (1125, 46); every other hit beta is a multiple of one of these four.
# GF(2) L=5 hits once, at (48, 14) of 2^6 by 2^4.  GF(7) L=4 walks six
# consistent representatives, 57 = (1, 1, 1) in base 7 to 92 = (1, 6,
# 1), and the least hit is (2744, 57).
N2_SCANS = ((GF3, 4), (QQ, 4), (GF5, 4), (GF2, 5), (PrimeField(7), 4))


@pytest.mark.parametrize(
    "field,max_word_len", N2_SCANS,
    ids=[f"{f.name}-L{length}" for f, length in N2_SCANS])
def test_n2_scan_matches_the_brute_force_scan(field, max_word_len):
    system = xq_system(2)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    args = (2, field, lefts, rights)
    assert analysis._scan_betas(*args) == _brute_force_scan(*args)


# the byte-lane scan against the brute force at the primes 7 and 13, at
# n = 2 and 3
PACKED_SCANS = ((PrimeField(7), 2, 2), (PrimeField(7), 3, 2),
                (PrimeField(13), 2, 1), (PrimeField(13), 3, 1))


@pytest.mark.parametrize(
    "field,n,max_word_len", PACKED_SCANS,
    ids=[f"{f.name}-n{n}-L{length}" for f, n, length in PACKED_SCANS])
def test_packed_scan_matches_the_brute_force_scan(field, n, max_word_len):
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    args = (n, field, lefts, rights)
    assert analysis._scan_betas(*args) == _brute_force_scan(*args)


def test_gf5_scan_reports_the_least_hit_of_an_orbit():
    # beta 31 = (1, 1, 1) hits with alpha 750 = (1, 1, 0, 0, 0), and its
    # multiples 62, 93 and 124 = c beta hit with the alphas alpha / c,
    # 2250, 1500 and 3000.  The scan walks the representative alone and
    # reports its hit, the least of the orbit's four.
    system = xq_system(2)
    lefts = left_shape_words(4, system)
    rights = right_shape_words(4, system)
    algebra, left_frame, products = _frame_products(2, GF5, lefts, rights)
    for scale in range(1, 5):
        alpha = (GF5.inv(scale),) * 2 + (0,) * 3
        beta = (scale,) * 3
        product = linear_combination(
            algebra, ((GF5.mul(a, b), products[i][j])
                      for i, a in enumerate(alpha) for j, b in enumerate(beta)))
        assert product == left_frame
    assert analysis._scan_betas(2, GF5, lefts, rights) == (
        750 * 125 + 31, (1, 1, 0, 0, 0), (1, 1, 1))


def test_scan_reports_the_least_index_not_the_first_hit(monkeypatch):
    # in the shape-word searches the first consistent beta always holds the
    # least hit, so hand-made GF(2) tables stand in: M(beta) is beta_0 T_0
    # + beta_1 T_1 with T_0 = [[0, 1], [1, 0]] and T_1 = [[1, 0], [1, 1]],
    # and the target is (1, 0).  Beta 1 = (0, 1) is consistent only with
    # alpha 3, beta 2 = (1, 0) only with alpha 1 and beta 3 only with
    # alpha 2, so the candidates 13, 6 and 11 hit, in that walk order
    tables = [[(0, 1, 1), (1, 0, 1)], [(0, 0, 1), (1, 0, 1), (1, 1, 1)]]
    monkeypatch.setattr(analysis, "_search_tables",
                        lambda n, field, lefts, rights: ([1, 0], tables))
    assert analysis._scan_betas(3, GF2, words("1", "q"), words("1", "x")) == (
        1 * 4 + 2, (0, 1), (1, 0))


def test_scan_reports_a_betas_least_alpha(monkeypatch):
    # hand-made GF(3) tables with one right word: T_0 = [[1, 1]] and the
    # target (1).  Beta 0 is inconsistent and beta 1 is consistent with
    # the alphas (0, 1), (1, 0) and (2, 2), of indices 1, 3 and 8; the
    # alpha walk's first leaf is the least, so the hit is 1 * 3 + 1
    monkeypatch.setattr(analysis, "_search_tables",
                        lambda n, field, lefts, rights: ([1], [[(0, 0, 1), (0, 1, 1)]]))
    assert analysis._scan_betas(3, GF3, words("1", "q"), words("1")) == (
        1 * 3 + 1, (0, 1), (1,))


# the n = 2 witness over primes past a brute force's reach, alpha = 1 + q
# and beta = 1 + x + x q^2 x, with the count up to its least index
N2_PRIME_HITS = ((PrimeField(31), 28_400_118_786), (PrimeField(101), 108_275_055_371_606))


@pytest.mark.parametrize("field,examined", N2_PRIME_HITS,
                         ids=[f.name for f, _ in N2_PRIME_HITS])
def test_n2_search_over_larger_primes_finds_the_witness(field, examined):
    report = search_unit_regular_witness(max_word_len=4, field=field, n=2)
    assert report.status == "fail"
    assert report.candidates_examined == examined

    def support(coefficients):
        return {word: c for word, c in coefficients.items() if c != "0"}
    assert support(report.witness["alpha_coefficients"]) == {"1": "1", "q": "1"}
    assert support(report.witness["beta_coefficients"]) == {
        "1": "1", "x": "1", str(parse_word("xqqx")): "1"}


def _n2_hits(field, max_word_len):
    """Every (alpha, beta) with alpha * beta = 1 - xq at n = 2.  Per beta,
    the sums over alpha's first two digits meet the sums over its other
    digits in a dictionary keyed by their terms."""
    system = xq_system(2)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    algebra, left_frame, products = _frame_products(2, field, lefts, rights)
    pool, _ = field.coefficient_pool()
    hits = []
    for beta in itertools.product(pool, repeat=len(rights)):
        columns = [linear_combination(algebra, zip(beta, row)) for row in products]
        tails = {}
        for tail in itertools.product(pool, repeat=len(lefts) - 2):
            terms = linear_combination(algebra, zip(tail, columns[2:])).terms()
            tails.setdefault(frozenset(terms.items()), []).append(tail)
        for head in itertools.product(pool, repeat=2):
            rest = left_frame - linear_combination(algebra, zip(head, columns))
            hits.extend((head + tail, beta)
                        for tail in tails.get(frozenset(rest.terms().items()), ()))
    return hits


@pytest.mark.parametrize("field,count", ((GF3, 4), (GF5, 16)),
                         ids=["gf3-L4", "gf5-L4"])
def test_n2_representatives_hit_only_with_alpha_leading_digit_1(field, count):
    # the empty word's coefficient of alpha * beta is u_1 v_1, and 1 - xq
    # makes it 1, so walking an orbit's representative alone finds the
    # orbit's least hit
    hits = _n2_hits(field, 4)
    assert len(hits) == count
    for alpha, beta in hits:
        assert field.mul(alpha[0], beta[0]) == 1
        if next(filter(None, beta)) == 1:
            assert alpha[0] == 1


# (field, max_word_len, tests per level) at n = 3.  The identity word's
# row, u_1 v_1 = 1, settles at level 1 with the top row q^(k+1) x,
# -u_(q^k) v_1 = 0, where q^k is the longest power of q among the left
# words: only y = 1 reaches either.  At level 2 the rows q^(j+1) x,
# u_(q^(j+1)) v_x - u_(q^j) v_1 = 0 for j < k, settle, and up to length 3,
# where the left words are the powers of q, they force u_(q^k), ...,
# u_q and then u_1 to 0 whenever v_1 != 0.  So level 1 tests (0) and (1)
# over GF(p), where a prefix of zeros extends by 0 or 1 only, and every
# digit over the rational grid; only a nonzero digit passes.  Level 2
# tests each passing digit followed by every digit of the pool, and each
# fails: 3 at GF(3), 2 at GF(2), 5 at GF(5) and 17 at GF(17).  At length
# 1 level 2 is the last: over GF(p) its tests are the p representatives
# (1, d), and over the grid the 4 x 5 leaves (a, d), a != 0.  At GF(3)
# L=4 two of the three (1, d) pass level 2 and their six extensions fail
# at level 3.
SOLVE_COUNTS = ((GF3, 2, (2, 3, 0)), (GF5, 1, (2, 5)), (QQ, 1, (5, 20)),
                (PrimeField(17), 1, (2, 17)), (GF2, 2, (2, 2, 0)),
                (GF5, 3, (2, 5, 0)), (GF3, 4, (2, 3, 6, 0)))


def _counting_solves(monkeypatch, count):
    """Route every consistency test of the scan through ``count``: the
    walk makes one ``basis`` call per tested node, on the field's kernel,
    and each call passes the kernel's class name."""
    for kernel_type in (PackedGF, PackedGF2, MapKernel):
        def counting_basis(kernel, vectors, start=None, basis=kernel_type.basis):
            count(type(kernel).__name__)
            return basis(kernel, vectors, start=start)

        monkeypatch.setattr(kernel_type, "basis", counting_basis)


def _recording_prefix_tests(monkeypatch, record):
    """Route every prefix the scan tests through ``record``: a node of k
    digits sums its level's blocks with the scalars ``prefix + (1,)``, one
    ``combine`` call per tested node."""
    for kernel_type in (PackedGF, PackedGF2, MapKernel):
        def recording_combine(kernel, scalars, vectors, combine=kernel_type.combine):
            record(tuple(scalars[:-1]))
            return combine(kernel, scalars, vectors)

        monkeypatch.setattr(kernel_type, "combine", recording_combine)


def _per_level(prefixes, depth: int) -> tuple:
    """How many of the prefixes have each length from 1 to depth."""
    lengths = Counter(map(len, prefixes))
    return tuple(lengths[level] for level in range(1, depth + 1))


def _assert_representatives(field, leaves):
    # over GF(p > 2) the walk tests one beta per orbit of nonzero scalars,
    # the one whose first nonzero digit is 1
    if field.coefficient_pool()[1] and field != GF2:
        assert all(next(filter(None, beta), None) == 1 for beta in leaves), leaves


@pytest.mark.parametrize(
    "field,max_word_len,tests", SOLVE_COUNTS,
    ids=[f"{f.name}-L{length}" for f, length, _ in SOLVE_COUNTS])
def test_dense_scan_solves_once_per_scalar_orbit(
        monkeypatch, field, max_word_len, tests):
    paths = []
    tested = []
    _counting_solves(monkeypatch, paths.append)
    _recording_prefix_tests(monkeypatch, tested.append)
    lefts = left_shape_words(max_word_len, S)
    rights = right_shape_words(max_word_len, S)
    assert analysis._scan_betas(3, field, lefts, rights) is None
    assert paths == [type(field_kernel(field)).__name__] * len(tested)
    assert _per_level(tested, len(rights)) == tests
    _assert_representatives(field, [beta for beta in tested if len(beta) == len(rights)])


def _support_tables(n, field, lefts, rights):
    """(tables, target) over every word of the element products: per right
    word the (row, column, value) entries of its products, a column per
    left word, and 1 - xq over the same rows."""
    _, left_frame, products = _frame_products(n, field, lefts, rights)
    row_of = {}
    for element in itertools.chain([left_frame], *products):
        for word in element.terms():
            row_of.setdefault(word, len(row_of))
    tables = [[(row_of[word], i, c) for i, row_products in enumerate(products)
               for word, c in row_products[j].terms().items()]
              for j in range(len(rights))]
    return tables, [left_frame.coeff(word) for word in row_of]


# (field, max_word_len, n); at n = 2 and length 4 some betas are
# consistent and some are not, at n = 3 none is
CONSISTENCY_CASES = ((GF2, 4, 2), (GF3, 4, 2), (PrimeField(7), 4, 2),
                     (PrimeField(13), 4, 2), (QQ, 4, 2), (GF3, 4, 3),
                     (PrimeField(7), 3, 3), (PrimeField(13), 2, 3),
                     (PrimeField(17), 2, 3))


def _dense_consistent(field, tables, target, width, beta) -> bool:
    """Whether M(beta) alpha = target has a solution, by a dense
    ``linalg.solve`` over every row."""
    matrix = [[field.zero] * width for _ in target]
    for digit, table in zip(beta, tables):
        for r, i, c in table:
            matrix[r][i] = field.add(matrix[r][i], field.mul(digit, c))
    return solve(matrix, target, field) is not None


@pytest.mark.parametrize(
    "field,max_word_len,n", CONSISTENCY_CASES,
    ids=[f"{f.name}-L{length}-n{n}" for f, length, n in CONSISTENCY_CASES])
def test_consistency_test_matches_a_full_solve(field, max_word_len, n):
    # the walk over every beta, not one per orbit, on the rows of every
    # support word and on the scan's identity and C-word rows alike,
    # keeps exactly the betas for which a dense solve over every support
    # row is consistent
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    tables, target = _support_tables(n, field, lefts, rights)
    c_target, c_tables = analysis._search_tables(n, field, lefts, rights)
    pool, _ = field.coefficient_pool()
    expected = [(index, beta) for index, beta in enumerate(
                    itertools.product(pool, repeat=len(rights)))
                if _dense_consistent(field, tables, target, len(lefts), beta)]
    assert list(_beta_walk(field, lefts, tables, target, False)) == expected
    assert list(_beta_walk(field, lefts, c_tables, c_target, False)) == expected
    # at n = 2 some betas are consistent and some are not, at n = 3 none is
    assert (0 < len(expected) < len(pool) ** len(rights)) if n == 2 else not expected


# (field, max_word_len, n, consistent representatives): the n = 2 hits'
# betas survive, and at n >= 3 and on the small n = 2 grids none does
SURVIVOR_CASES = ((GF2, 4, 2, 1), (GF2, 5, 2, 1), (GF3, 4, 2, 2), (GF2, 4, 3, 0),
                  (GF3, 4, 3, 0), (QQ, 3, 2, 0), (QQ, 3, 3, 0), (GF2, 5, 4, 0),
                  (GF5, 3, 2, 0))


@pytest.mark.parametrize(
    "field,max_word_len,n,count", SURVIVOR_CASES,
    ids=[f"{f.name}-L{length}-n{n}" for f, length, n, _ in SURVIVOR_CASES])
def test_pruned_walk_keeps_exactly_the_consistent_betas(field, max_word_len, n, count):
    # a node fails only when the rows it settles are inconsistent, so the
    # walk's survivors are the betas, one per scalar orbit over GF(p), for
    # which a dense solve over every row holds
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    target, tables = analysis._search_tables(n, field, lefts, rights)
    pool, exhaustive = field.coefficient_pool()
    expected = [(index, beta) for index, beta in enumerate(
                    itertools.product(pool, repeat=len(rights)))
                if (not exhaustive or next(filter(None, beta), None) == 1)
                and _dense_consistent(field, tables, target, len(lefts), beta)]
    assert len(expected) == count
    assert list(_beta_walk(field, lefts, tables, target)) == expected


def _per_left_word(tables, width: int) -> list:
    """Tables with a column per left word, one per right word, turned into
    tables with a column per right word, one per left word."""
    turned = [[] for _ in range(width)]
    for j, table in enumerate(tables):
        for r, i, c in table:
            turned[i].append((r, j, c))
    return turned


def _row_basis_verdicts(support, scan, width, field) -> set:
    """Check that the scan's rows, the identity word's and the C-words',
    decide every coefficient vector over the tables exactly as every
    support word's row does; return the verdicts seen.  ``support`` and
    ``scan`` are (tables, target) pairs with the same columns."""
    assert len(scan[1]) < len(support[1])
    pool, _ = field.coefficient_pool()
    verdicts = set()
    for vector in itertools.product(pool, repeat=len(support[0])):
        found = []
        for tables, target in (support, scan):
            matrix = [[field.zero] * width for _ in target]
            for scalar, table in zip(vector, tables):
                for r, column, c in table:
                    matrix[r][column] = field.add(matrix[r][column],
                                                  field.mul(scalar, c))
            found.append(solve(matrix, target, field) is not None)
        assert found[0] == found[1], vector
        verdicts.add(found[0])
    return verdicts


# (field, max_word_len, n, whether some alpha is consistent, whether some
# beta is)
ROW_BASIS_CASES = ((GF3, 4, 2, True, True), (GF3, 3, 3, False, False),
                   (QQ, 2, 2, False, False), (GF2, 4, 2, True, True),
                   (GF2, 3, 3, False, False))


ROW_BASIS_IDS = [f"{f.name}-L{length}-n{n}" for f, length, n, _, _ in ROW_BASIS_CASES]


@pytest.mark.parametrize("field,max_word_len,n,some_alpha,some_beta",
                         ROW_BASIS_CASES, ids=ROW_BASIS_IDS)
def test_row_basis_keeps_every_alphas_verdict(field, max_word_len, n,
                                              some_alpha, some_beta):
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    tables, target = _support_tables(n, field, lefts, rights)
    c_target, c_tables = analysis._search_tables(n, field, lefts, rights)
    verdicts = _row_basis_verdicts(
        (_per_left_word(tables, len(lefts)), target),
        (_per_left_word(c_tables, len(lefts)), c_target), len(rights), field)
    assert (True in verdicts) == some_alpha


@pytest.mark.parametrize("field,max_word_len,n,some_alpha,some_beta",
                         ROW_BASIS_CASES, ids=ROW_BASIS_IDS)
def test_row_basis_keeps_every_betas_verdict(field, max_word_len, n,
                                             some_alpha, some_beta):
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    tables, target = _support_tables(n, field, lefts, rights)
    c_target, c_tables = analysis._search_tables(n, field, lefts, rights)
    verdicts = _row_basis_verdicts((tables, target), (c_tables, c_target),
                                   len(lefts), field)
    assert (True in verdicts) == some_beta


def _packed_rows(tables, target, width, kernel) -> list[int]:
    """Each row of the stacked system (target[r] | T_1[r] | ... | T_m[r])
    as one packed vector, the target at lane 0 and table j's column i at
    lane 1 + j * width + i."""
    size = 1 + len(tables) * width
    lanes = [[(0, c)] for c in target]
    for j, table in enumerate(tables):
        for r, i, c in table:
            lanes[r].append((1 + j * width + i, c))
    return [kernel.pack(row, size) for row in lanes]


@pytest.mark.parametrize("field", [GF2, GF3, PrimeField(7), PrimeField(13)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("n,max_word_len", ((2, 4), (3, 3), (3, 5), (4, 4)))
def test_packed_row_basis_keeps_the_dense_rows(field, n, max_word_len):
    # the scan's rows, the identity word's and the C-words', span the
    # stacked support rows: the packed kernel's echelon basis of the scan's
    # rows has the rank of a dense row reduction of every support row,
    # adding every support row leaves it as it is, and it has a member of
    # top lane 0 (key 1), the target's, exactly when a dense solve finds
    # no joint coefficients for the stacked system
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    width = len(lefts)
    tables, target = _support_tables(n, field, lefts, rights)
    c_target, c_tables = analysis._search_tables(n, field, lefts, rights)
    kernel = packed_kernel(field)
    basis = kernel.basis(_packed_rows(c_tables, c_target, width, kernel))
    stacked = [[field.zero] * (len(tables) * width) for _ in target]
    for j, table in enumerate(tables):
        for r, i, c in table:
            stacked[r][j * width + i] = c
    assert len(basis) == len(row_reduce([[c] + row for c, row in zip(target, stacked)],
                                        field)[1]) <= len(c_target)
    assert kernel.basis(_packed_rows(tables, target, width, kernel), start=basis) == basis
    assert (1 in basis) == (solve(stacked, target, field) is None)


def test_regularity_and_separativity_identities():
    assert check_regularity_identities().passed
    assert check_regularity_identities(n=4).passed
    assert check_separativity_identities().passed
    assert check_separativity_identities(field=GF3).passed


def test_primeness_bounded():
    report = check_primeness_bounded(max_len=4)
    assert report.passed
    with pytest.raises(ValueError):
        check_primeness_bounded(max_len=4, n=2)
