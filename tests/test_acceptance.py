"""Acceptance gate: every shipped claim, each at its stated budget.

Each test covers one numbered criterion, prints one pass/fail line, and
fails if the computation is wrong or the budget is blown.  Budgets are
wall-clock seconds on desk hardware.
"""

import itertools
import time

from nilregular.analysis import (
    check_regularity_identities, check_separativity_identities,
    check_tau_forms_families, check_tau_uniqueness_families, check_types_lemma,
    search_unit_regular_witness)
from nilregular.elements import Algebra
from nilregular.fields import GF2, QQ
from nilregular.matrixrep import (
    MatrixModel, check_determinant_obstruction, det2, n2_variant_check,
    pi_eval, verify_phi_faithful)
from nilregular.rewriting import (
    IDENTITY_WORD, Word, ab_system, check_confluence, concat_reduce,
    enumerate_basis, parse_word, reduce, xq_system)

S = xq_system(3)


def _conclude(number: int, label: str, ok: bool, elapsed: float, budget: float):
    within = elapsed < budget
    verdict = "PASS" if (ok and within) else "FAIL"
    print(f"[{verdict}] criterion {number:2d}: {label} "
          f"({elapsed * 1000:.1f} ms, budget {budget * 1000:.0f} ms)")
    assert ok, f"criterion {number} ({label}) failed"
    assert within, (f"criterion {number} ({label}) over budget: "
                    f"{elapsed:.3f}s >= {budget}s")


def test_criterion_01_normal_form_goldens():
    first = parse_word("q^2 x q x q^3 x^2 q")
    left, right = parse_word("q^3 x^2 q"), parse_word("x q^4 x^2")
    started = time.perf_counter()
    ok = (str(reduce(first, S).result) == "q^4 x^2 q"
          and str(concat_reduce(left, right, S).result) == "q^3 x^2 q^4 x^2")
    _conclude(1, "normal-form goldens", ok, time.perf_counter() - started, 0.001)


def test_criterion_02_confluence():
    started = time.perf_counter()
    report = check_confluence(S, max_len=8)
    _conclude(2, "confluence at length <= 8", report.passed,
              time.perf_counter() - started, 5.0)


def test_criterion_03_basis_oracle_equivalence():
    started = time.perf_counter()
    by_length = {0: {IDENTITY_WORD}}
    for length in range(1, 9):
        forms = set()
        for letters in itertools.product(S.letters, repeat=length):
            outcome = reduce(Word.from_letters(letters), S)
            if not outcome.is_zero:
                forms.add(outcome.result)
        by_length[length] = forms
    ok = True
    brute = set()
    for bound in range(9):
        brute |= by_length[bound]
        basis = set(enumerate_basis(bound, S))
        ok = ok and basis == brute and len(basis) == len(brute)
    _conclude(3, "basis equals brute force for L <= 8", ok,
              time.perf_counter() - started, 10.0)


def test_criterion_04_types_lemma():
    started = time.perf_counter()
    report = check_types_lemma(max_len=7)
    _conclude(4, "interface types lemma at length <= 7", report.passed,
              time.perf_counter() - started, 60.0)


def test_criterion_05_tau_lemmas():
    started = time.perf_counter()
    forms = check_tau_forms_families(exhaustive_len=3, random_len=6,
                                     random_trials=10_000, seed=0)
    unique = check_tau_uniqueness_families(exhaustive_len=3, random_len=6,
                                           random_trials=10_000, seed=0)
    _conclude(5, "largest-word forms and uniqueness",
              forms.passed and unique.passed,
              time.perf_counter() - started, 300.0)


def test_criterion_06_unit_regular_search_exhausts():
    started = time.perf_counter()
    report = search_unit_regular_witness(max_word_len=3, field=GF2, n=3)
    ok = (report.status == "exhausted"
          and report.witness is None
          and report.candidates_examined
          == report.parameters["analytic_candidate_count"])
    _conclude(6, "unit-regularity search over GF(2), words <= 3", ok,
              time.perf_counter() - started, 600.0)


def test_criterion_07_identities():
    algebra = Algebra(S, QQ)
    x, q, one = algebra.gen("x"), algebra.gen("q"), algebra.one
    started = time.perf_counter()
    ok = (x * q * x == x and q * x * q == q
          and (x ** 3).is_zero and not (x ** 2).is_zero
          and (one - x * q) + x * (one - x * q) * q
          + x * x * (one - x * q) * q * q == one
          and (one - q * x) + q * (one - q * x) * x
          + q * q * (one - q * x) * x * x == one)
    elapsed = time.perf_counter() - started
    ok = ok and check_regularity_identities().passed \
        and check_separativity_identities().passed
    _conclude(7, "defining and separativity identities", ok, elapsed, 0.001)


def test_criterion_08_matrix_model_evidence():
    started = time.perf_counter()
    model = MatrixModel(3, QQ)
    X, Q = model.x_image, model.q_image
    ok = (X * Q * X == X and Q * X * Q == Q and (X ** 3).is_zero
          and str(model.phi("q x^2")) == "[[a, 0], [0, 0]]"
          and str(model.phi("q^2 x")) == "[[b, 0], [0, 0]]")
    ok = ok and verify_phi_faithful(max_len=6, n=3).passed
    _conclude(8, "matrix model relations and independence at length <= 6",
              ok, time.perf_counter() - started, 60.0)


def test_criterion_09_determinant_obstruction():
    started = time.perf_counter()
    algebra = Algebra(ab_system(2), QQ)
    image = pi_eval(algebra.parse("1 - b a"))
    ok = (image == ((QQ.zero, QQ.zero), (QQ.zero, QQ.one))
          and det2(image, QQ) == QQ.zero
          and check_determinant_obstruction(seed=0).passed)
    _conclude(9, "determinant obstruction", ok,
              time.perf_counter() - started, 1.0)


def test_criterion_10_degenerate_case_versus_n3():
    started = time.perf_counter()
    ok = (n2_variant_check().passed
          and verify_phi_faithful(max_len=6, n=3).passed)
    _conclude(10, "n = 2 central idempotent dies, n = 3 map stays injective",
              ok, time.perf_counter() - started, 10.0)
