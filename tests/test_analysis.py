"""Interface types, the C-set, the largest-word forms, and the searches."""

import concurrent.futures
import itertools
import random

import pytest

from nilregular import analysis
from nilregular.analysis import (
    COccurrence, _iter_families, _match_form1, _match_form2, _match_form3,
    _pair_contributions, _tau_witness, build_c_set, check_primeness_bounded,
    check_regularity_identities, check_separativity_identities,
    check_tau_forms_families, check_tau_uniqueness_families, check_types_lemma,
    classify_tau_occurrences, closing_argument_margin, find_tau,
    left_shape_words, right_shape_words, search_unit_regular_witness,
    tau_form_of, type_i_word, type_ii_word)
from nilregular.elements import Algebra, linear_combination
from nilregular.fields import GF2, GF3, QQ, PrimeField
from nilregular.rewriting import Word, parse_word, reduce, xq_system

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
        if word is None or word.first_letter != "q" or word.last_letter != "x":
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
                   if word is not None and word.first_letter == "q"
                   and word.last_letter == "x"), key=Word.lex_key)
        assert classification.tau == tau
        assert (classification.occurrences, classification.violations,
                classification.skipped_identity_pairs) \
            == _pairwise_classification(lefts, rights, tau), (lefts, rights)
    assert families == 64 + 1050
    assert classified > 1000


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


def test_unit_regular_search_workers_agree():
    single = search_unit_regular_witness(max_word_len=2, field=GF3)
    fanned = search_unit_regular_witness(max_word_len=2, field=GF3, workers=2)
    assert single.status == fanned.status == "exhausted"
    assert single.candidates_examined == fanned.candidates_examined == 3 ** 6


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the search's process pool with one that maps in this
    process, so no process starts; return the max_workers it was given."""
    started = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    return started


def _without_timing(report) -> dict:
    data = report.to_dict()
    data.pop("elapsed_ms")
    data["parameters"] = dict(data["parameters"], workers=None)
    return data


def test_unit_regular_search_runs_at_most_one_process_per_cpu(in_process_pool):
    # 3^3 = 27 alphas and the fixture reports 4 CPUs: 3 workers make 3
    # blocks of 9, 13 make 4 blocks of at most 7
    single = search_unit_regular_witness(max_word_len=2, field=GF3)
    for workers in (3, 13):
        fanned = search_unit_regular_witness(max_word_len=2, field=GF3,
                                             workers=workers)
        assert fanned.parameters["workers"] == workers
        assert _without_timing(fanned) == _without_timing(single)
    assert in_process_pool == [3, 4]


def test_unit_regular_search_reports_the_first_hit_in_block_order(
        in_process_pool, monkeypatch):
    def scan(n, field, lefts, rights, start, stop):
        return None if start == 0 else start * 3 ** 3

    monkeypatch.setattr(analysis, "_scan_alpha_range", scan)
    report = search_unit_regular_witness(max_word_len=2, field=GF3, workers=3)
    assert report.status == "fail"
    assert report.candidates_examined == 9 * 3 ** 3 + 1


def test_unit_regular_search_rational_grid_is_flagged():
    report = search_unit_regular_witness(max_word_len=1, field=QQ)
    assert report.parameters["pool_exhaustive"] is False
    assert report.status == "exhausted"


def test_unit_regular_search_exhausts_gf2_at_length_5():
    # 2^9 alphas against 2^7 betas: each alpha's system is inconsistent, so
    # no beta is walked
    report = search_unit_regular_witness(max_word_len=5, field=GF2)
    assert report.status == "exhausted"
    assert report.candidates_examined == 65_536
    assert report.parameters["analytic_candidate_count"] == 65_536


def test_unit_regular_search_exhausts_gf2_at_length_7():
    # 2^18 alphas against 2^15 betas, one packed consistency test per alpha
    report = search_unit_regular_witness(max_word_len=7, field=GF2)
    assert report.status == "exhausted"
    assert report.candidates_examined == 2 ** 33
    assert report.parameters["analytic_candidate_count"] == 2 ** 33


def _brute_force_scan(n, field, lefts, rights, start, stop):
    """The oracle: multiply out every beta of every alpha in [start, stop)
    and return the global index of the first product equal to 1 - xq."""
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    left_frame = algebra.one - x * q
    right_frame = algebra.one - q * x
    alpha_units = [left_frame * algebra.word(w) * right_frame for w in lefts]
    beta_units = [right_frame * algebra.word(y) * left_frame for y in rights]
    products = [[a_unit * b_unit for b_unit in beta_units]
                for a_unit in alpha_units]
    pool, _ = field.coefficient_pool()
    beta_count = len(pool) ** len(rights)
    for alpha_index in range(start, stop):
        alpha_vec = analysis._vector_from_index(alpha_index, pool, len(lefts))
        rows = [linear_combination(
                    algebra,
                    ((alpha_vec[i], products[i][j]) for i in range(len(lefts))))
                for j in range(len(rights))]
        for beta_index, beta_vec in enumerate(
                itertools.product(pool, repeat=len(rights))):
            candidate = linear_combination(algebra, zip(beta_vec, rows))
            if candidate == left_frame:
                return alpha_index * beta_count + beta_index
    return None


def _brute_force_search(monkeypatch, **kwargs):
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "_scan_alpha_range", _brute_force_scan)
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


@pytest.mark.parametrize("workers", (1, 3, 13))
def test_n2_witness_is_the_same_across_worker_counts(
        in_process_pool, monkeypatch, workers):
    expected = _brute_force_search(monkeypatch, max_word_len=4, field=GF3, n=2)
    report = search_unit_regular_witness(max_word_len=4, field=GF3, n=2,
                                         workers=workers)
    assert report.parameters["workers"] == workers
    assert _without_timing(report) == _without_timing(expected)


# blocks that start mid-counter, through the in-process pool of 4 CPUs:
# QQ L=1 has 5^2 alphas and GF(3) L=2 has 3^3, and 3 or 7 workers split
# them into 3 or 4 blocks whose first alpha has nonzero digits
MID_COUNTER = ((QQ, 1), (GF3, 2))


@pytest.mark.parametrize("workers", (3, 7))
@pytest.mark.parametrize(
    "field,max_word_len", MID_COUNTER,
    ids=[f"{f.name}-L{length}" for f, length in MID_COUNTER])
def test_blocks_starting_mid_counter_match_the_brute_force_scan(
        in_process_pool, monkeypatch, field, max_word_len, workers):
    expected = _brute_force_search(monkeypatch, max_word_len=max_word_len,
                                   field=field)
    report = search_unit_regular_witness(max_word_len=max_word_len,
                                         field=field, workers=workers)
    assert in_process_pool[-1] == min(workers, 4)
    assert _without_timing(report) == _without_timing(expected)


def test_n2_gf2_hit_in_a_later_block_matches_the_brute_force_scan(
        in_process_pool, monkeypatch):
    # 2^6 alphas in blocks starting at 0, 22 and 44; the hit is alpha 48
    expected = _brute_force_search(monkeypatch, max_word_len=5, field=GF2, n=2)
    report = search_unit_regular_witness(max_word_len=5, field=GF2, n=2,
                                         workers=3)
    assert in_process_pool == [3]
    assert report.candidates_examined == 783
    assert _without_timing(report) == _without_timing(expected)


# n = 2 ranges whose first alpha sits anywhere on the counter, including
# just before a carry through several digits and right after a hit: GF(3)
# L=4 hits at alphas 108, 135, 189 and 216 (of 3^5), the rational grid at
# L=4 at 750, 875, 1375 and 1500 (of 5^5)
COUNTER_RANGES = (
    [(GF3, 4, start, start + 30)
     for start in (0, 80, 107, 108, 109, 134, 160, 188, 213)]
    + [(GF3, 4, 217, 243)]
    + [(QQ, 4, start, start + 8) for start in (742, 749, 751, 874, 1370, 1499)])


@pytest.mark.parametrize(
    "field,max_word_len,start,stop", COUNTER_RANGES,
    ids=[f"{f.name}-L{length}-{start}" for f, length, start, _ in COUNTER_RANGES])
def test_scan_from_any_counter_position_matches_the_brute_force_scan(
        field, max_word_len, start, stop):
    system = xq_system(2)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    args = (2, field, lefts, rights, start, stop)
    assert analysis._scan_alpha_range(*args) == _brute_force_scan(*args)


def test_regularity_and_separativity_identities():
    assert check_regularity_identities().passed
    assert check_regularity_identities(n=4).passed
    assert check_separativity_identities().passed
    assert check_separativity_identities(field=GF3).passed


def test_primeness_bounded():
    report = check_primeness_bounded(max_len=4, random_trials=50)
    assert report.passed
    with pytest.raises(ValueError):
        check_primeness_bounded(max_len=4, n=2)
