"""Shape-constrained supports, the C-set and its largest word, and the
verification harnesses built on them.

Everything here concerns the xq presentation with n = 3: x nilpotent of
index 3, q a freely adjoined generalised inverse.  The idempotents 1 - xq
and 1 - qx frame the inner-inverse question for x: for alpha = (1-xq) u
(1-qx) and beta = (1-qx) v (1-xq) to stand a chance of multiplying to
1 - xq, the support of u may be assumed to consist of words that are 1 or
begin and end in q ("left shape"), and the support of v of words that are
1 or begin and end in x ("right shape").

Expanding alpha * beta without collecting terms contributes eight signed
monomials per support pair (w, y).  The C-set records those whose normal
forms are nonzero, begin in q and end in x; only the type I word w y and
the type II word w qx y can.  Two combinatorial facts about its
lex-largest member tau drive the impossibility searches:

* tau can only arise from a pair (w, y) in one of three restricted ways
  (type I product with or without an interface reduction, or type II), and
* the two reduced ways can happen at most once in total,

so tau cannot cancel out of the expansion, while 1 - xq contains no word
beginning in q.  The checkers below verify the three-form classification
and the uniqueness bound exhaustively at small size and on randomized
families, and the search covers every coefficient assignment over a
finite field to witness exhaustion directly.  With alpha fixed, alpha *
beta = 1 - xq is linear in beta, so one exact consistency test per alpha
settles its whole beta pool.  The search steps alpha as a base-p counter
and updates the summed coefficient table only where a digit changed;
over GF(2) the table is a list of packed column masks, tested by the XOR
basis of ``linalg``, so support length 6 (2^13 alphas) takes about 0.06 s
and length 7 (2^18 alphas, 2^33 candidates) about 1.3 s on a 2-core host.
"""

from __future__ import annotations

# the package, not ProcessPoolExecutor: concurrent.futures loads its
# process submodule, and with it multiprocessing, only on first use, so
# importing nilregular, a single-block search, reduce and basis never do
import concurrent.futures
import itertools
import operator
import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial

from .elements import Algebra, AlgebraElement, linear_combination
from .fields import GF2, QQ
from .linalg import gf2_basis, gf2_reduce, solve
from .rewriting import (
    IDENTITY_WORD,
    ReductionOutcome,
    RewriteSystem,
    Word,
    concat,
    concat_reduce,
    enumerate_basis,
    is_basis_word,
    parse_word,
    reduce,
    xq_system,
)
from .reports import EXHAUSTED, VerificationReport, checklist_report, finish_report

_QX_WORD = Word((("q", 1), ("x", 1)))


def _as_word(value) -> Word:
    return parse_word(value) if isinstance(value, str) else value


def _has_ends(word: Word, end: str) -> bool:
    return word.is_identity or word.first_letter == word.last_letter == end


def _is_shape(word: Word, end: str, system: RewriteSystem) -> bool:
    """1, or a basis word beginning and ending in ``end``: q for the left
    shape (1, q, q^2, q z q), x for the right shape (1, x, x^2, x z x)."""
    return is_basis_word(word, system) and _has_ends(word, end)


def left_shape_words(max_len: int, system: RewriteSystem) -> list[Word]:
    return [w for w in enumerate_basis(max_len, system) if _has_ends(w, "q")]


def right_shape_words(max_len: int, system: RewriteSystem) -> list[Word]:
    return [w for w in enumerate_basis(max_len, system) if _has_ends(w, "x")]


def type_i_word(w, y, system: RewriteSystem) -> ReductionOutcome:
    """The reduced product w*y."""
    return concat_reduce(_as_word(w), _as_word(y), system)


def type_ii_word(w, y, system: RewriteSystem) -> ReductionOutcome:
    """The reduced product w*qx*y; when nonzero it never needs reduction."""
    word = concat(concat(_as_word(w), _QX_WORD), _as_word(y))
    return reduce(word, system)


@dataclass(frozen=True, slots=True)
class COccurrence:
    """One expansion monomial that landed in the C-set."""

    word: Word
    left: Word
    right: Word
    kind: str  # "type-I" or "type-II"
    sign: int  # +1 for type I, -1 for type II
    steps: int = 0  # rule applications that reduced the monomial


@dataclass(frozen=True)
class CSet:
    """The C-words of an expansion, as a multiset with source attribution.

    Multiplicity matters: the impossibility argument counts how often the
    largest word can appear, so occurrences are never collapsed.
    """

    occurrences: tuple[COccurrence, ...]
    system: RewriteSystem

    def __len__(self) -> int:
        return len(self.occurrences)

    @property
    def is_empty(self) -> bool:
        return not self.occurrences

    def occurrences_of(self, word) -> tuple[COccurrence, ...]:
        word = _as_word(word)
        return tuple(occ for occ in self.occurrences if occ.word == word)


@lru_cache(maxsize=None)
def _pair_contributions(system: RewriteSystem, w: Word,
                        y: Word) -> tuple[COccurrence, ...]:
    """The C-members among the monomials (xq)^e1 w (qx)^e2 y (xq)^e3.

    The sign of a member is (-1)^e2.  Reduction keeps the first and last
    letter of a nonzero word, so the six terms with e1 = 1 (first letter
    x) or e3 = 1 (last letter q) never reach C; only the type I word
    (e2 = 0) and the type II word (e2 = 1) are expanded.
    """
    out = []
    for kind, sign, outcome in (("type-I", 1, type_i_word(w, y, system)),
                                ("type-II", -1, type_ii_word(w, y, system))):
        word = outcome.result
        if word is not None and word.first_letter == "q" and word.last_letter == "x":
            out.append(COccurrence(word, w, y, kind, sign, outcome.steps))
    return tuple(out)


def _checked_side(words, side: str, system: RewriteSystem) -> list[Word]:
    """Accepts words or word text; validates shapes and distinctness."""
    end = "q" if side == "left" else "x"
    checked = []
    seen = set()
    for word in map(_as_word, words):
        if not _is_shape(word, end, system):
            raise ValueError(f"{word} is not a {side}-shape word")
        if word in seen:
            raise ValueError(f"duplicate {side} word {word}")
        seen.add(word)
        checked.append(word)
    return checked


def build_c_set(left_words, right_words, system: RewriteSystem) -> CSet:
    """Collect the C-words of the expansion of
    (1-xq)(sum of left words)(1-qx)(sum of right words)(1-xq).

    Only the supports matter: each occurrence carries the sign of its
    monomial, and the coefficients of the sums would only scale it.  Empty
    sides are legal and give an empty C-set.
    """
    lefts = _checked_side(left_words, "left", system)
    rights = _checked_side(right_words, "right", system)
    return CSet(tuple(itertools.chain.from_iterable(
        _pair_contributions(system, w, y) for w in lefts for y in rights)), system)


@dataclass(frozen=True)
class TauForm:
    """The only shape the largest C-word can have when n = 3:
    q^{i1} x^2 q^{i2} x^2 ... q^{ir} x^c with i1 >= 1, later i >= 2,
    c in {1, 2}."""

    q_exponents: tuple[int, ...]
    tail_exponent: int


def tau_form_of(word) -> TauForm | None:
    """Parse a word as a TauForm, or None if it does not fit."""
    word = _as_word(word)
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


def find_tau(c_set: CSet) -> Word:
    """The lex-largest word of a nonempty C-set."""
    if c_set.is_empty:
        raise ValueError("the C-set is empty; there is no largest word")
    tau = max((occ.word for occ in c_set.occurrences),
              key=Word.lex_key)
    if c_set.system.nilpotency_degree == 3 and tau_form_of(tau) is None:
        raise RuntimeError(f"largest C-word {tau} off-form")
    return tau


@dataclass(frozen=True)
class TauOccurrence:
    """One way the largest word arose from a support pair.

    form 1: type I without reduction (split after the r-th q-block);
    form 2: type I with the interface reduction, parameters a, b with
            a + b - 1 = i_r;
    form 3: type II, either splitting before an interior x-block
            ("interior") or with y = x at the very end ("terminal").
    """

    left: Word
    right: Word
    form: int
    r: int
    a: int | None = None
    b: int | None = None
    variant: str | None = None

    def describe(self) -> dict:
        data = {"left": str(self.left), "right": str(self.right),
                "form": self.form, "r": self.r}
        if self.a is not None:
            data["a"] = self.a
        if self.b is not None:
            data["b"] = self.b
        if self.variant is not None:
            data["variant"] = self.variant
        return data


@dataclass
class TauClassification:
    tau: Word
    occurrences: list[TauOccurrence]
    violations: list[dict]
    skipped_identity_pairs: list[tuple[Word, Word]]

    @property
    def reduced_occurrences(self) -> list[TauOccurrence]:
        """The form-2 and form-3 occurrences (at most one expected)."""
        return [occ for occ in self.occurrences if occ.form in (2, 3)]


def _q_block_count(word: Word) -> int:
    return sum(1 for letter, _ in word.blocks if letter == "q")


def _match_form1(w: Word, y: Word) -> TauOccurrence | None:
    # type I equals tau with no reduction: tau splits as w ++ y exactly at
    # a q-block/x-block boundary, so the only datum left is r
    if w.last_letter != "q" or y.first_letter != "x":
        return None
    return TauOccurrence(w, y, form=1, r=_q_block_count(w))


def _match_form2(w: Word, y: Word, tau: Word, form: TauForm) -> TauOccurrence | None:
    # type I with reduction: w = (tau prefix) q^a and y = x q^b (tau tail),
    # the seam deletes one q and one x, and a + b - 1 = i_r; maximality of
    # tau further forces b > 2, or b = 2 with some later group exceeding 2
    if w.last_letter != "q":
        return None
    a = w.blocks[-1][1]
    if len(y.blocks) < 2 or y.blocks[0] != ("x", 1) or y.blocks[1][0] != "q":
        return None
    b = y.blocks[1][1]
    r = _q_block_count(w)
    exponents = form.q_exponents
    if r > len(exponents) or a + b - 1 != exponents[r - 1]:
        return None
    rebuilt = w.blocks[:-1] + (("q", a + b - 1),) + y.blocks[2:]
    if rebuilt != tau.blocks:
        return None
    if not (b > 2 or (b == 2 and any(e > 2 for e in exponents[r:]))):
        return None
    return TauOccurrence(w, y, form=2, r=r, a=a, b=b)


def _match_form3(w: Word, y: Word, tau: Word, form: TauForm) -> TauOccurrence | None:
    # type II equals tau with no reduction: tau is literally w ++ qx ++ y;
    # either y = x closes the final x^2 ("terminal"), or y carries the rest
    # and every q-group after the split must be exactly q^2
    if w.last_letter != "q" or y.first_letter != "x":
        return None
    if w.letters() + ("q", "x") + y.letters() != tau.letters():
        return None
    r = _q_block_count(w)
    exponents = form.q_exponents
    if y == Word((("x", 1),)):
        if r != len(exponents):
            return None
        return TauOccurrence(w, y, form=3, r=r, variant="terminal")
    if r >= len(exponents):
        return None
    if any(e != 2 for e in exponents[r:]):
        return None
    return TauOccurrence(w, y, form=3, r=r, variant="interior")


def classify_tau_occurrences(c_set: CSet) -> TauClassification:
    """Classify every occurrence of the largest word tau of a C-set.

    Pairs involving the identity word are recorded as skipped rather than
    classified: the three-form statement concerns pairs with w != 1 and
    y != 1 (in the cancellation context the identity pairs are ruled out
    separately), so for standalone inputs the classifier states its
    restriction instead of guessing.  Such a pair reaches tau at most
    once, since its type I word is a shape word and never a C-word.
    """
    if c_set.system.nilpotency_degree != 3:
        raise ValueError("the tau classification is specific to n = 3")
    tau = find_tau(c_set)
    form = tau_form_of(tau)
    occurrences: list[TauOccurrence] = []
    violations: list[dict] = []
    skipped: list[tuple[Word, Word]] = []
    for occ in c_set.occurrences_of(tau):
        w, y = occ.left, occ.right
        if w.is_identity or y.is_identity:
            skipped.append((w, y))
            continue
        if occ.kind == "type-II":
            matched = _match_form3(w, y, tau, form)
        elif occ.steps == 0:
            matched = _match_form1(w, y)
        else:
            matched = _match_form2(w, y, tau, form)
        if matched is None:
            violations.append({"left": str(w), "right": str(y),
                               "kind": occ.kind, "steps": occ.steps})
        else:
            occurrences.append(matched)
    return TauClassification(tau, occurrences, violations, skipped)


def _tau_witness(classification: TauClassification,
                 count_reduced: bool) -> dict | None:
    """An unclassifiable occurrence, or (with ``count_reduced``) more than
    one occurrence of the reduced kinds; None if neither."""
    if classification.violations:
        return {"kind": "unclassifiable-occurrence",
                "tau": str(classification.tau),
                "violations": classification.violations}
    reduced = classification.reduced_occurrences
    if count_reduced and len(reduced) > 1:
        return {"kind": "reduced-occurrence-multiplicity",
                "tau": str(classification.tau),
                "occurrences": [occ.describe() for occ in reduced]}
    return None


def _iter_families(exhaustive_len: int, random_len: int, random_trials: int,
                   seed: int, system: RewriteSystem):
    """All subset families at the exhaustive bound, then seeded random
    families drawn from the larger pools."""
    lefts = left_shape_words(exhaustive_len, system)
    rights = right_shape_words(exhaustive_len, system)
    for l_mask in range(1 << len(lefts)):
        chosen_left = [w for i, w in enumerate(lefts) if l_mask >> i & 1]
        for r_mask in range(1 << len(rights)):
            chosen_right = [y for i, y in enumerate(rights) if r_mask >> i & 1]
            yield chosen_left, chosen_right
    left_pool = left_shape_words(random_len, system)
    right_pool = right_shape_words(random_len, system)
    rng = random.Random(seed)
    for _ in range(random_trials):
        left_size = rng.randint(1, min(5, len(left_pool)))
        right_size = rng.randint(1, min(5, len(right_pool)))
        yield rng.sample(left_pool, left_size), rng.sample(right_pool, right_size)


def _sweep_tau_families(check: str, exhaustive_len: int, random_len: int,
                        random_trials: int, seed: int) -> VerificationReport:
    started = time.perf_counter()
    system = xq_system(3)
    parameters = {
        "exhaustive_len": exhaustive_len,
        "random_len": random_len,
        "random_trials": random_trials,
        "seed": seed,
        "n": 3,
    }
    examined = 0
    witness = None
    for left_words, right_words in _iter_families(
            exhaustive_len, random_len, random_trials, seed, system):
        examined += 1
        c_set = build_c_set(left_words, right_words, system)
        if c_set.is_empty:
            continue
        witness = _tau_witness(classify_tau_occurrences(c_set),
                               count_reduced=check == "tau-unique")
        if witness is not None:
            witness["left"] = [str(w) for w in left_words]
            witness["right"] = [str(y) for y in right_words]
            break
    return finish_report(check, parameters, witness, examined, started)


def check_tau_forms_families(exhaustive_len: int = 3, random_len: int = 6,
                             random_trials: int = 10_000,
                             seed: int = 0) -> VerificationReport:
    """Every tau-occurrence across the families matches one of the three
    forms, parameters included."""
    return _sweep_tau_families("tau-forms", exhaustive_len, random_len,
                               random_trials, seed)


def check_tau_uniqueness_families(exhaustive_len: int = 3, random_len: int = 6,
                                  random_trials: int = 10_000,
                                  seed: int = 0) -> VerificationReport:
    """Across the families, form 2 and form 3 occurrences number at most
    one in total."""
    return _sweep_tau_families("tau-unique", exhaustive_len, random_len,
                               random_trials, seed)


def _vector_from_index(index: int, pool, length: int) -> tuple:
    digits = []
    base = len(pool)
    for _ in range(length):
        index, digit = divmod(index, base)
        digits.append(pool[digit])
    return tuple(reversed(digits))


def _scan_alpha_range(n: int, field, lefts, rights, start: int,
                      stop: int) -> int | None:
    """Scan alpha-coefficient vectors with indices in [start, stop); return
    the global candidate index of the first witness, or None.

    The products (1-xq) w (1-qx) * (1-qx) y (1-xq) are built once per call,
    and with them one coefficient table per left word w: a row per word in
    the supports, a column per right word y.  With alpha fixed, alpha * beta
    = 1 - xq is linear in beta, so one consistency test against the summed
    table decides whether any beta works.  The alphas are stepped as a
    base-p counter in index order (the last left word is the least
    significant digit), and each step adds to the summed table only
    delta * table for the digits that changed.  Over GF(2) each column is
    kept as a bit mask over the rows, a step XORs masks, and consistency
    comes from the packed kernel of ``linalg``; other fields keep a dense
    table and call ``solve``.  Only an alpha whose system is consistent has
    its betas walked in index order, which finds the first hit; over the
    rationals the solution may miss the coefficient grid, and the walk then
    comes up empty.
    """
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    left_frame = algebra.one - x * q
    right_frame = algebra.one - q * x
    alpha_units = [left_frame * algebra.word(w) * right_frame for w in lefts]
    beta_units = [right_frame * algebra.word(y) * left_frame for y in rights]
    products = [[a_unit * b_unit for b_unit in beta_units]
                for a_unit in alpha_units]
    zero = field.zero
    # rows are the support words, numbered by first appearance
    row_of: dict[Word, int] = {}
    for element in itertools.chain([left_frame], *products):
        for word in element.terms():
            row_of.setdefault(word, len(row_of))
    target = [left_frame.coeff(word) for word in row_of]
    # each left word's table, kept as its nonzero (row, column, value)
    tables = [[(row_of[word], j, coefficient)
               for j, product in enumerate(row_products)
               for word, coefficient in product.terms().items()]
              for row_products in products]
    if field == GF2:
        masks = [[0] * len(rights) for _ in tables]
        for table_masks, table in zip(masks, tables):
            for r, j, _ in table:
                table_masks[j] |= 1 << r
        columns = [0] * len(rights)
        target_mask = sum(1 << r for r, value in enumerate(target) if value)

        def add(i, delta):
            columns[:] = map(operator.xor, columns, masks[i])

        def consistent():
            return gf2_reduce(gf2_basis(columns), target_mask) == 0
    else:
        system = [[zero] * len(rights) for _ in row_of]

        def add(i, delta):
            for r, j, c in tables[i]:
                row = system[r]
                row[j] = field.add(row[j], field.mul(delta, c))

        def consistent():
            return solve(system, target, field) is not None
    pool, _ = field.coefficient_pool()
    top = len(pool) - 1
    rise = [None] + [field.sub(pool[d], pool[d - 1]) for d in range(1, len(pool))]
    wrap = field.sub(pool[0], pool[top])
    beta_count = len(pool) ** len(rights)
    digits = list(_vector_from_index(start, range(len(pool)), len(lefts)))
    for i, digit in enumerate(digits):
        if pool[digit] != zero:
            add(i, pool[digit])
    for alpha_index in range(start, stop):
        if alpha_index > start:
            i = len(digits) - 1
            while digits[i] == top:
                digits[i] = 0
                add(i, wrap)
                i -= 1
            digits[i] += 1
            add(i, rise[digits[i]])
        if not consistent():
            continue
        alpha_vec = [pool[digit] for digit in digits]
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


def search_unit_regular_witness(max_word_len: int = 3, field=GF2, n: int = 3,
                                workers: int = 1) -> VerificationReport:
    """Exhaust every (alpha, beta) with supports drawn from the shape words
    of length <= max_word_len and coefficients in the field, looking for
    alpha * beta = 1 - xq.

    Over a finite field the enumeration is complete and the report status
    is "exhausted" when nothing is found; over the rationals only a small
    coefficient grid is scanned and the parameters say so.  A hit would be
    a counterexample, reported as a failure with the witness attached.
    """
    if max_word_len < 0:
        raise ValueError("max_word_len must be nonnegative")
    started = time.perf_counter()
    system = xq_system(n)
    lefts = left_shape_words(max_word_len, system)
    rights = right_shape_words(max_word_len, system)
    pool, pool_exhaustive = field.coefficient_pool()
    alpha_count = len(pool) ** len(lefts)
    beta_count = len(pool) ** len(rights)
    total = alpha_count * beta_count
    parameters = {
        "max_word_len": max_word_len,
        "field": field.name,
        "n": n,
        "left_words": [str(w) for w in lefts],
        "right_words": [str(y) for y in rights],
        "coefficient_pool_size": len(pool),
        "pool_exhaustive": pool_exhaustive,
        "analytic_candidate_count": total,
        "workers": workers,
    }
    # The alphas split into one block per worker, at most one per CPU,
    # since each block builds its own products table; the first hit in
    # block order has the smallest index, so the result does not depend on
    # the split.
    blocks = min(workers, os.cpu_count() or 1)
    if blocks <= 1 or alpha_count < 2 * blocks:
        blocks = 1
    step = -(-alpha_count // blocks)
    starts = range(0, alpha_count, step)
    stops = [min(start + step, alpha_count) for start in starts]
    scan = partial(_scan_alpha_range, n, field, lefts, rights)
    if len(starts) == 1:
        hits = list(map(scan, starts, stops))
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(starts)) as executor:
            hits = list(executor.map(scan, starts, stops))
    witness_index = next((hit for hit in hits if hit is not None), None)
    if witness_index is None:
        witness = None
        examined = total
    else:
        alpha_index, beta_index = divmod(witness_index, beta_count)
        alpha_vec = _vector_from_index(alpha_index, pool, len(lefts))
        beta_vec = _vector_from_index(beta_index, pool, len(rights))
        witness = {
            "alpha_coefficients": {str(w): field.to_str(c)
                                   for w, c in zip(lefts, alpha_vec)},
            "beta_coefficients": {str(y): field.to_str(c)
                                  for y, c in zip(rights, beta_vec)},
        }
        examined = witness_index + 1
    return finish_report("unit-regular-search", parameters, witness,
                         examined, started, no_witness_status=EXHAUSTED)


def check_regularity_identities(n: int = 3, field=QQ) -> VerificationReport:
    """x q x = x, q x q = q, x^n = 0, x^(n-1) != 0, and the inner-inverse
    upgrade (q x q) x (q x q) = q x q."""
    started = time.perf_counter()
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    checks = [
        ("xqx = x", x * q * x == x),
        ("qxq = q", q * x * q == q),
        (f"x^{n} = 0", x ** n == algebra.zero),
        (f"x^{n - 1} != 0", x ** (n - 1) != algebra.zero),
        ("(qxq)x(qxq) = qxq", (q * x * q) * x * (q * x * q) == q * x * q),
    ]
    return checklist_report("regularity", {"n": n, "field": field.name},
                            checks, "identity", started)


def check_separativity_identities(field=QQ) -> VerificationReport:
    """The two full-idempotent decompositions of 1 (n = 3):
    (1-xq) + x(1-xq)q + x^2(1-xq)q^2 = 1 = (1-qx) + q(1-qx)x + q^2(1-qx)x^2.
    """
    started = time.perf_counter()
    algebra = Algebra(xq_system(3), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    one = algebra.one
    left_frame = one - x * q
    right_frame = one - q * x
    checks = [
        ("(1-xq) + x(1-xq)q + x^2(1-xq)q^2 = 1",
         left_frame + x * left_frame * q + x * x * left_frame * q * q == one),
        ("(1-qx) + q(1-qx)x + q^2(1-qx)x^2 = 1",
         right_frame + q * right_frame * x + q * q * right_frame * x * x == one),
    ]
    return checklist_report("separativity", {"n": 3, "field": field.name},
                            checks, "identity", started)


def check_primeness_bounded(max_len: int = 6, n: int = 3, field=QQ,
                            random_trials: int = 300,
                            seed: int = 0) -> VerificationReport:
    """No bounded nonzero element is killed on both sides by the
    generators: qz != 0 or xz != 0, and zq != 0 or zx != 0.

    Single-word supports are checked exhaustively, multi-word supports by
    seeded random sampling.  Needs n >= 3: left-multiplying a word that
    starts in x^(n-1) by q involves no reduction then.
    """
    if n < 3:
        raise ValueError("the bounded primeness check needs n >= 3")
    started = time.perf_counter()
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    parameters = {"max_len": max_len, "n": n, "field": field.name,
                  "random_trials": random_trials, "seed": seed}
    witness = None
    examined = 0

    def survives(element: AlgebraElement) -> bool:
        left_alive = not (q * element).is_zero or not (x * element).is_zero
        right_alive = not (element * q).is_zero or not (element * x).is_zero
        return left_alive and right_alive

    for word in algebra.basis_words(max_len):
        if word.is_identity:
            continue
        examined += 1
        if not survives(algebra.word(word)):
            witness = {"element": str(word), "kind": "single-word"}
            break
    if witness is None:
        rng = random.Random(seed)
        for _ in range(random_trials):
            examined += 1
            element = algebra.random_element(rng, max_word_len=max_len,
                                             max_terms=4)
            if not survives(element):
                witness = {"element": str(element), "kind": "random"}
                break
    return finish_report("primeness", parameters, witness, examined, started)


def _ends_with(word: Word, suffix: tuple[str, ...]) -> bool:
    letters = word.letters()
    return len(letters) >= len(suffix) and letters[-len(suffix):] == suffix


def _begins_with(word: Word, prefix: tuple[str, ...]) -> bool:
    letters = word.letters()
    return len(letters) >= len(prefix) and letters[:len(prefix)] == prefix


def check_types_lemma(max_len: int = 7) -> VerificationReport:
    """The four clauses describing type I and II words, over all shape
    pairs with |w|, |y| <= max_len (n = 3):

    1. wy = 0 exactly when w ends in x^2 q and y begins in x^2;
    2. wqxy = 0 exactly when y begins in x^2;
    3. nonzero wy reduces exactly when (w ends in xq and y begins in x) or
       (w ends in q and y begins in xq), and the reduction deletes the
       seam letters q and x;
    4. nonzero wqxy never reduces.
    """
    started = time.perf_counter()
    system = xq_system(3)
    lefts = left_shape_words(max_len, system)
    rights = right_shape_words(max_len, system)
    parameters = {"max_len": max_len, "n": 3,
                  "left_pool": len(lefts), "right_pool": len(rights)}
    examined = 0
    witness = None
    for w in lefts:
        for y in rights:
            examined += 1
            problem = _types_clause_violation(w, y, system)
            if problem is not None:
                witness = {"left": str(w), "right": str(y), "clause": problem}
                break
        if witness is not None:
            break
    return finish_report("types-lemma", parameters, witness, examined, started)


def _types_clause_violation(w: Word, y: Word, system: RewriteSystem) -> str | None:
    first = type_i_word(w, y, system)
    zero_expected = _ends_with(w, ("x", "x", "q")) and _begins_with(y, ("x", "x"))
    if first.is_zero != zero_expected:
        return "type-I zero condition"
    if not first.is_zero:
        reduction_expected = (
            (_ends_with(w, ("x", "q")) and _begins_with(y, ("x",)))
            or (w.last_letter == "q" and _begins_with(y, ("x", "q"))))
        if (first.steps > 0) != reduction_expected:
            return "type-I reduction condition"
        if first.steps > 0:
            expected = Word.from_letters(w.letters()[:-1] + y.letters()[1:])
            if first.result != expected:
                return "type-I reduction shape"
    second = type_ii_word(w, y, system)
    if second.is_zero != _begins_with(y, ("x", "x")):
        return "type-II zero condition"
    if not second.is_zero and second.steps > 0:
        return "type-II never reduces"
    return None


def closing_argument_margin(w: Word, tau: Word,
                            system: RewriteSystem) -> bool:
    """For a form-1 occurrence tau = w*y, the type II word from (w, 1) is
    strictly larger; this is what stops tau from cancelling."""
    competitor = type_ii_word(w, IDENTITY_WORD, system)
    return (not competitor.is_zero
            and competitor.result.lex_key() > tau.lex_key())
