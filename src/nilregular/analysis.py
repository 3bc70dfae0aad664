"""Shape-constrained supports, the C-set and its largest word, and the
verification harnesses built on them.

Everything here concerns the xq presentation: x nilpotent of index n, q a
freely adjoined generalised inverse; the tau analysis and the checks
types-lemma, tau-forms, tau-unique and separativity are stated for n = 3,
while the search, regularity and primeness take n.  The idempotents 1 - xq
and 1 - qx frame the inner-inverse question for x: for alpha = (1-xq) u
(1-qx) and beta = (1-qx) v (1-xq) to stand a chance of multiplying to
1 - xq, the support of u may be assumed to consist of words that are 1 or
begin and end in q ("left shape"), and the support of v of words that are
1 or begin and end in x ("right shape").

Expanding alpha * beta without collecting terms contributes eight signed
monomials per support pair (w, y).  The C-set records those whose normal
forms are nonzero, begin in q and end in x; only the type I word w y and
the type II word w qx y can, and ``pair_products`` reduces both and
checks the seam.  Two combinatorial facts about the C-set's lex-largest
member tau drive the impossibility searches:

* tau can only arise from a pair (w, y) in one of three restricted ways
  (type I product with or without an interface reduction, or type II), and
* the two reduced ways can happen at most once in total,

so tau cannot cancel out of the expansion, while 1 - xq contains no word
beginning in q.  The checkers below verify the three-form classification
and the uniqueness bound exhaustively at small size and on randomized
families.  A sweep enumerates its shape pools once.  ``build_c_set``
checks the shape, side and distinctness of its words on every call,
except for the words a sweep draws from its own pools, which are shape
words and distinct by construction.  The occurrences of a support pair
are built once (a bounded cache), each with its rank in the word order
and its match as tau: an occurrence is classified only when its word is
tau, so its match depends on the occurrence alone.  Picking tau is a max
over the stored ranks, and classifying it reads the stored matches.

The search covers every coefficient assignment over a finite field to
witness exhaustion directly, and reads the same pair records.
(1-xq) x = 0 and q (1-xq) = 0, so (1-xq) w (1-qx) y (1-xq) is
(1-xq) (wy - wqxy) (1-xq), and (1-xq) T (1-xq) is 1 - xq for T = 1,
T - xqT - Txq + xqTxq for a word T from q to x, and 0 for any other word.
Hence alpha * beta = 1 - xq exactly when u_1 v_1 = 1 and, for every
C-word, the signed sum of u_w v_y over its occurrences is 0: the tables
hold a row for the identity word and a row per C-word, and the scan
builds no ``AlgebraElement``; a hit alone is multiplied out in the
algebra before it is reported.  With beta fixed, alpha * beta = 1 - xq
is a linear system in alpha, consistent exactly when no combination of
its augmented rows (target at lane 0, column i at lane i + 1) is nonzero
at lane 0 alone.  One prefix walk decides it for every field, on the
field's ``linalg.field_kernel`` (bits over GF(2), byte lanes over GF(p <=
13), maps from lane to value otherwise).  The betas are walked a digit
per right word; a row of the system settles once the prefix reaches the
last table with an entry in it, and each node adds the rows it settles
to its parent's echelon basis, failing, with every beta that extends it,
as soon as the basis holds a member of top lane 0.  The survivors are
exactly the consistent betas, one per orbit of nonzero scalars over GF(p
> 2).  From a survivor's basis the same walk runs over alpha, a row
alpha_i = digit per level, and its first leaf is the beta's least alpha.
At n = 3, cold through the CLI on a 2-core host, GF(2) exhausts support
length 9 (2^63 candidates) in about 0.1 s and length 10 (2^89) in about
825 ms, and GF(3) length 8 (3^45) in about 0.08 s.  The search runs in one
process: the walk could be split only at its last level, so each share
would walk the whole tree.  Its ``workers`` argument is accepted and
echoed only for the benchmark's call.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random
import re
import time
from dataclasses import dataclass
from functools import lru_cache, partial

from .elements import Algebra, AlgebraElement, linear_combination
from .fields import GF2, QQ
from .linalg import field_kernel
from .rewriting import (
    IDENTITY_WORD,
    ReductionOutcome,
    RewriteSystem,
    Word,
    as_word,
    concat,
    enumerate_basis,
    is_basis_word,
    reduce,
    xq_system,
)
from .reports import EXHAUSTED, VerificationReport, checklist_report, finish_report


def _has_ends(word: Word, end: str) -> bool:
    return not word or word[0] == word[-1] == end


def _shape_pools(max_len: int, system: RewriteSystem) -> tuple[list[Word], list[Word]]:
    """The left and right shape words, from one enumeration of the basis."""
    basis = enumerate_basis(max_len, system)
    return ([w for w in basis if _has_ends(w, "q")],
            [w for w in basis if _has_ends(w, "x")])


def left_shape_words(max_len: int, system: RewriteSystem) -> list[Word]:
    return _shape_pools(max_len, system)[0]


def right_shape_words(max_len: int, system: RewriteSystem) -> list[Word]:
    return _shape_pools(max_len, system)[1]


def pair_products(w, y, system: RewriteSystem) -> tuple[ReductionOutcome, ReductionOutcome]:
    """The reduced type I word w*y and type II word w*qx*y of a support
    pair of words or text.  Of two normal words, a nonzero w*y takes at
    most one step, at the seam, and a nonzero w*qx*y none; the tau forms
    read the type I step count, so more steps raise RuntimeError."""
    w, y = as_word(w), as_word(y)
    first = reduce(concat(w, y), system)
    if not first.is_zero and first.steps > 1:
        raise RuntimeError(f"interface reduction not unique for {w} * {y}")
    return first, reduce(Word(w + "qx" + y), system)


@dataclass(frozen=True, slots=True)
class COccurrence:
    """One expansion monomial that landed in the C-set.

    Whether an occurrence is classified depends on the rest of its C-set,
    but how it classifies does not: it is classified only when its word
    is the largest, so its match is a function of the occurrence alone.
    Both that match and the word's rank in the word order are computed
    once, when the occurrence is built, and are left out of equality and
    repr."""

    word: Word
    left: Word
    right: Word
    kind: str  # "type-I" or "type-II"
    sign: int  # +1 for type I, -1 for type II
    steps: int = 0  # rule applications that reduced the monomial
    # Word.lex_key of the word
    rank: str = dataclasses.field(init=False, compare=False, repr=False)
    # the occurrence classified as one of tau; None if it fits no form, or
    # if a side is the identity
    tau_match: TauOccurrence | None = dataclasses.field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", self.word.lex_key())
        object.__setattr__(self, "tau_match", _match_as_tau(self))


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
        word = as_word(word)
        return tuple(occ for occ in self.occurrences if occ.word == word)


# room for every pair of the length-12 shape pools, 94 x 77 = 7,238
@lru_cache(maxsize=8192)
def _pair_contributions(system: RewriteSystem, w: Word,
                        y: Word) -> tuple[COccurrence, ...]:
    """The C-members among the monomials (xq)^e1 w (qx)^e2 y (xq)^e3, each
    with its rank and its match as tau.

    The sign of a member is (-1)^e2.  Reduction keeps the first and last
    letter of a nonzero word, so the six terms with e1 = 1 (first letter
    x) or e3 = 1 (last letter q) never reach C; only the type I word
    (e2 = 0) and the type II word (e2 = 1) are expanded.
    """
    first, second = pair_products(w, y, system)
    out = []
    for kind, sign, outcome in (("type-I", 1, first), ("type-II", -1, second)):
        word = outcome.result
        if word is not None and word.startswith("q") and word.endswith("x"):
            out.append(COccurrence(word, w, y, kind, sign, outcome.steps))
    return tuple(out)


class _PoolWords(list):
    """Distinct words of one side's shape pool, as ``_iter_families`` draws
    them; ``_checked_side`` takes them unchecked."""

    __slots__ = ()


def _checked_side(words, side: str, system: RewriteSystem) -> list[Word]:
    """Accepts words or word text, distinct, each 1 or a basis word that
    begins and ends in q for the left shape (1, q, q^2, q z q), in x for
    the right shape (1, x, x^2, x z x).  The sweeps' own pool words are
    taken unchecked."""
    if type(words) is _PoolWords:
        return words
    end = "q" if side == "left" else "x"
    checked = []
    seen = set()
    for word in map(as_word, words):
        if not (is_basis_word(word, system) and _has_ends(word, end)):
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
    pairs = itertools.product(lefts, rights)
    return CSet(tuple(itertools.chain.from_iterable(itertools.starmap(
        partial(_pair_contributions, system), pairs))), system)


@dataclass(frozen=True)
class TauForm:
    """The only shape the largest C-word can have when n = 3:
    q^{i1} x^2 q^{i2} x^2 ... q^{ir} x^c with i1 >= 1, later i >= 2,
    c in {1, 2}."""

    q_exponents: tuple[int, ...]
    tail_exponent: int


_TAU_FORM = re.compile(r"q+(?:xxqq+)*xx?")
_Q_RUN = re.compile("q+")


@lru_cache(maxsize=4096)
def tau_form_of(word) -> TauForm | None:
    """Parse a word as a TauForm, or None if it does not fit."""
    word = as_word(word)
    if _TAU_FORM.fullmatch(word) is None:
        return None
    return TauForm(tuple(map(len, _Q_RUN.findall(word))),
                   len(word) - len(word.rstrip("x")))


def find_tau(c_set: CSet) -> Word:
    """The lex-largest word of a nonempty C-set.  At n = 3 every basis word
    from q to x has the :class:`TauForm`, so the off-form error fires only
    on a hand-built C-set holding a non-basis word."""
    if c_set.is_empty:
        raise ValueError("the C-set is empty; there is no largest word")
    # the stored Word.lex_key, with no Python frame per occurrence
    tau = max(c_set.occurrences, key=operator.attrgetter("rank")).word
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
    return len(_Q_RUN.findall(word))


def _match_form1(w: Word, y: Word) -> TauOccurrence | None:
    # type I equals tau with no reduction: tau splits as w ++ y exactly at
    # a q-block/x-block boundary, so the only datum left is r
    if not (w.endswith("q") and y.startswith("x")):
        return None
    return TauOccurrence(w, y, form=1, r=_q_block_count(w))


def _match_form2(w: Word, y: Word, tau: Word, form: TauForm) -> TauOccurrence | None:
    # type I with reduction: w = (tau prefix) q^a and y = x q^b (tau tail),
    # the seam deletes one q and one x, and a + b - 1 = i_r; maximality of
    # tau further forces b > 2, or b = 2 with some later group exceeding 2
    if not (w.endswith("q") and y.startswith("xq")) or w[:-1] + y[1:] != tau:
        return None
    # the seam group is tau's r-th q-group, so a + b - 1 = i_r holds
    a = len(w) - len(w.rstrip("q"))
    b = len(y) - 1 - len(y[1:].lstrip("q"))
    r = _q_block_count(w)
    if not (b > 2 or (b == 2 and any(e > 2 for e in form.q_exponents[r:]))):
        return None
    return TauOccurrence(w, y, form=2, r=r, a=a, b=b)


def _match_form3(w: Word, y: Word, tau: Word, form: TauForm) -> TauOccurrence | None:
    # type II equals tau with no reduction: tau is literally w ++ qx ++ y;
    # either y = x closes the final x^2 ("terminal"), or y carries the rest
    # and every q-group after the split must be exactly q^2
    if not (w.endswith("q") and y.startswith("x")) or w + "qx" + y != tau:
        return None
    r = _q_block_count(w)
    exponents = form.q_exponents
    if y == "x":
        if r != len(exponents):
            return None
        return TauOccurrence(w, y, form=3, r=r, variant="terminal")
    if r >= len(exponents) or any(e != 2 for e in exponents[r:]):
        return None
    return TauOccurrence(w, y, form=3, r=r, variant="interior")


def _match_as_tau(occ: COccurrence) -> TauOccurrence | None:
    """How an occurrence classifies if its word is tau: form 3 for type II,
    form 1 for type I without reduction, form 2 with it.  None for a word
    off the :class:`TauForm` and for a pair with the identity."""
    w, y, tau = occ.left, occ.right, occ.word
    form = tau_form_of(tau)
    if form is None or w.is_identity or y.is_identity:
        return None
    if occ.kind == "type-II":
        return _match_form3(w, y, tau, form)
    if occ.steps == 0:
        return _match_form1(w, y)
    return _match_form2(w, y, tau, form)


def classify_tau_occurrences(c_set: CSet) -> TauClassification:
    """Classify every occurrence of the largest word tau of a C-set.

    Pairs involving the identity word are recorded as skipped rather than
    classified: the three-form statement concerns pairs with w != 1 and
    y != 1 (in the cancellation context the identity pairs are ruled out
    separately), so for standalone inputs the classifier states its
    restriction instead of guessing.  Such a pair reaches tau at most
    once, since its type I word is a shape word and never a C-word.  Each
    occurrence carries its match, computed when it was built.
    """
    if c_set.system.nilpotency_degree != 3:
        raise ValueError("the tau classification is specific to n = 3")
    tau = find_tau(c_set)
    occurrences: list[TauOccurrence] = []
    violations: list[dict] = []
    skipped: list[tuple[Word, Word]] = []
    for occ in c_set.occurrences:
        if occ.word != tau:
            continue
        w, y = occ.left, occ.right
        if w.is_identity or y.is_identity:
            skipped.append((w, y))
        elif occ.tau_match is None:
            violations.append({"left": str(w), "right": str(y),
                               "kind": occ.kind, "steps": occ.steps})
        else:
            occurrences.append(occ.tau_match)
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
    lefts, rights = _shape_pools(exhaustive_len, system)
    for l_mask in range(1 << len(lefts)):
        chosen_left = _PoolWords(w for i, w in enumerate(lefts) if l_mask >> i & 1)
        for r_mask in range(1 << len(rights)):
            chosen_right = _PoolWords(y for i, y in enumerate(rights)
                                      if r_mask >> i & 1)
            yield chosen_left, chosen_right
    left_pool, right_pool = _shape_pools(random_len, system)
    rng = random.Random(seed)
    for _ in range(random_trials):
        left_size = rng.randint(1, min(5, len(left_pool)))
        right_size = rng.randint(1, min(5, len(right_pool)))
        yield (_PoolWords(rng.sample(left_pool, left_size)),
               _PoolWords(rng.sample(right_pool, right_size)))


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


def _search_tables(n: int, field, lefts, rights) -> tuple[list, list]:
    """(target, tables) for the scan: a row for the identity word, with
    target 1, then a row per C-word of the supports, with target 0; per
    right word y the (row, column, value) entries of its pairs, a column
    per left word w.

    (1-xq) x = 0 and q (1-xq) = 0, so (1-xq) w (1-qx) y (1-xq) is
    (1-xq) (wy - wqxy) (1-xq), and (1-xq) T (1-xq) is 1 - xq for T = 1,
    T - xqT - Txq + xqTxq for a word T from q to x, and 0 for any other
    word.  Those four are distinct basis words, with four different pairs
    of first and last letters, and Txq and xqTxq vanish together.  So
    alpha * beta = 1 - xq exactly when u_1 v_1 = 1 and, for every C-word,
    the signed sum of u_w v_y over its occurrences is 0.  The entries are
    1 for the pair (1, 1) on the identity row and each C-occurrence's sign
    from ``_pair_contributions``, mapped into the field; rows after the
    first are numbered by first appearance.
    """
    system = xq_system(n)
    value = {1: field.coerce(1), -1: field.coerce(-1)}
    row_of = {IDENTITY_WORD: 0}
    tables: list[list] = [[] for _ in rights]
    for i, w in enumerate(lefts):
        for y, table in zip(rights, tables):
            if w.is_identity and y.is_identity:
                table.append((0, i, value[1]))
            for occ in _pair_contributions(system, w, y):
                table.append((row_of.setdefault(occ.word, len(row_of)), i,
                              value[occ.sign]))
    return [value[1]] + [field.zero] * (len(row_of) - 1), tables


def _settled_rows(kernel, tables, target, stride: int) -> list:
    """Per level k of the beta walk, (blocks, count) for the ``count`` rows
    that settle at k, or None.  Row r of M(beta) is fixed once the prefix
    reaches the last table with an entry in r, so it settles at 1 + that
    table's index (0 if none).  An augmented row holds the target at lane
    0 and column i at lane i + 1, the rows ``stride`` lanes apart.  Level
    k's blocks are T_j's entries in its rows for each j < k, then their
    targets: ``combine(prefix + (1,), blocks)`` is the rows of a prefix."""
    levels = [0] * len(target)
    for j, table in enumerate(tables):
        for r, _, _ in table:
            levels[r] = j + 1
    counts = [0] * (len(tables) + 1)
    lanes = [[[] for _ in range(level + 1)] for level in range(len(tables) + 1)]
    slots = []
    for level, value in zip(levels, target):
        slots.append(counts[level] * stride)
        counts[level] += 1
        lanes[level][level].append((slots[-1], value))
    for j, table in enumerate(tables):
        for r, i, c in table:
            lanes[levels[r]][j].append((slots[r] + i + 1, c))
    return [([kernel.pack(block) for block in blocks], count)
            if count else None for blocks, count in zip(lanes, counts)]


def _digit_rows(kernel, stride: int) -> list:
    """Per level k of the alpha walk, (blocks, 1) for the row alpha_(k-1) =
    digit: 1 at lane k, and the digit, the prefix's last, at lane 0."""
    zero = kernel.pack(())
    return [None] + [([zero] * (k - 1) + [kernel.pack(((0, 1),)), kernel.pack(((k, 1),))], 1)
                     for k in range(1, stride)]


def _children(index: int, prefix: tuple, basis, digits):
    for position, digit in enumerate(digits, index):
        yield position, prefix + (digit,), basis


def _walk(kernel, levels, stride: int, pool, representatives: bool, basis=None):
    """(index, prefix, basis) for each leaf of a tree of prefixes, a level
    per digit, whose every node passes, in index order (depth first, the
    digits in pool order, the first digit the most significant).  A node
    of k digits adds the rows of ``levels[k]`` to its parent's echelon
    basis and fails, with every extension, when the basis gains a member
    of top lane 0 (key 1): the target is then out of the columns' span.
    With ``representatives`` a prefix of zeros extends by the pool's first
    two digits, 0 and 1, only, so the leaves are the prefixes of first
    nonzero digit 1.  Each node of the current path keeps a generator of
    its children, drawn from one at a time."""
    base = len(pool)
    depth = len(levels) - 1
    stack = [iter(((0, (), basis),))]
    while stack:
        for index, prefix, basis in stack[-1]:
            level = levels[len(prefix)]
            if level is not None:
                blocks, count = level
                basis = kernel.basis(kernel.split(kernel.combine(prefix + (1,), blocks),
                                                  stride, count), start=basis)
                if 1 in basis:
                    continue
            if len(prefix) == depth:
                yield index, prefix, basis
                continue
            digits = pool if any(prefix) or not representatives else pool[:2]
            stack.append(_children(index * base, prefix, basis, digits))
            break
        else:
            stack.pop()


def _scan_betas(n: int, field, lefts, rights) -> tuple | None:
    """(index, alpha, beta) for the witness of least candidate index
    alpha_index * beta_count + beta_index, or None.

    The tables (``_search_tables``) hold one coefficient table T_j per
    right word, a row for the identity word and per C-word, a column per
    left word.  With beta fixed, alpha * beta = 1 - xq is M(beta) alpha =
    target, M(beta) the sum of beta_j T_j.  ``_walk`` over the betas, on
    the field's ``linalg.field_kernel``, keeps exactly the consistent ones,
    one per scalar orbit over GF(p > 2).  From a survivor's basis the same
    walk over alpha, a row alpha_i = digit per level, finds the beta's
    least alpha as its first leaf; over the rationals the walk comes up
    empty when the solutions miss the grid.  The rest of an orbit cannot
    hold a smaller hit.  No rule turns a nonempty
    word into 1, so the empty word's coefficient of alpha * beta is u_1
    v_1, the product of the leading digits, and 1 - xq makes it 1.  A hit
    of a representative (v_1 = 1) thus has alpha leading digit 1, while
    the hits of c beta are the alpha / c, with leading digit 1 / c != 1.
    The leading digit is the most significant of alpha's index, and
    alpha's index outweighs beta's in the candidate index.
    """
    target, tables = _search_tables(n, field, lefts, rights)
    kernel = field_kernel(field)
    pool, exhaustive = field.coefficient_pool()
    beta_count = len(pool) ** len(rights)
    stride = len(lefts) + 1
    digit_rows = None
    best = None
    for beta_index, beta, basis in _walk(
            kernel, _settled_rows(kernel, tables, target, stride), stride, pool,
            exhaustive):
        digit_rows = digit_rows or _digit_rows(kernel, stride)
        hit = next(_walk(kernel, digit_rows, stride, pool, False, basis), None)
        if hit is not None:
            index = hit[0] * beta_count + beta_index
            if best is None or index < best[0]:
                best = index, hit[1], beta
    return best


def _confirm_witness(n: int, field, lefts, rights, alpha, beta) -> None:
    """Multiply the scan's hit out in the algebra, apart from the integer
    tables that found it, and raise RuntimeError unless
    (1-xq) alpha (1-qx) * (1-qx) beta (1-xq) = 1 - xq."""
    algebra = Algebra(xq_system(n), field)
    x = algebra.gen("x")
    q = algebra.gen("q")
    left_frame = algebra.one - x * q
    right_frame = algebra.one - q * x
    left = linear_combination(algebra, zip(alpha, map(algebra.word, lefts)))
    right = linear_combination(algebra, zip(beta, map(algebra.word, rights)))
    product = left_frame * left * right_frame * (right_frame * right * left_frame)
    if product != left_frame:
        raise RuntimeError(f"scan hit alpha={alpha}, beta={beta} gives {product}, not 1 - xq")


def search_unit_regular_witness(max_word_len: int = 3, field=GF2, n: int = 3,
                                workers: int = 1) -> VerificationReport:
    """Exhaust every (alpha, beta) with supports drawn from the shape words
    of length <= max_word_len and coefficients in the field, looking for
    alpha * beta = 1 - xq.

    Over a finite field the enumeration is complete and the report status
    is "exhausted" when nothing is found; over the rationals only a small
    coefficient grid is scanned and the parameters say so.  A hit would be
    a counterexample, reported as a failure with the witness attached,
    once alpha * beta is multiplied out in the algebra and found to be
    1 - xq (RuntimeError otherwise).

    The search runs in this process.  ``workers`` changes nothing: it is
    accepted, checked and echoed in the parameters only because the
    benchmark (``perfbench/workloads.py``) passes ``workers=1``.
    """
    if max_word_len < 0:
        raise ValueError("max_word_len must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be positive")
    started = time.perf_counter()
    system = xq_system(n)
    lefts, rights = _shape_pools(max_word_len, system)
    pool, pool_exhaustive = field.coefficient_pool()
    total = len(pool) ** (len(lefts) + len(rights))
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
    hit = _scan_betas(n, field, lefts, rights)
    if hit is None:
        witness = None
        examined = total
    else:
        witness_index, alpha, beta = hit
        _confirm_witness(n, field, lefts, rights, alpha, beta)
        witness = {
            "alpha_coefficients": {str(w): str(c)
                                   for w, c in zip(lefts, alpha)},
            "beta_coefficients": {str(y): str(c)
                                  for y, c in zip(rights, beta)},
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
                            seed: int = 0) -> VerificationReport:
    """No bounded nonzero element is killed on both sides by the
    generators: qz != 0 or xz != 0, and zq != 0 or zx != 0.

    Single-word supports are checked exhaustively, multi-word supports by
    300 seeded random samples.  Needs n >= 3: left-multiplying a word that
    starts in x^(n-1) by q involves no reduction then.
    """
    if n < 3:
        raise ValueError("the bounded primeness check needs n >= 3")
    started = time.perf_counter()
    random_trials = 300
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
    lefts, rights = _shape_pools(max_len, system)
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
    first, second = pair_products(w, y, system)
    zero_expected = w.endswith("xxq") and y.startswith("xx")
    if first.is_zero != zero_expected:
        return "type-I zero condition"
    if not first.is_zero:
        reduction_expected = (
            (w.endswith("xq") and y.startswith("x"))
            or (w.endswith("q") and y.startswith("xq")))
        if (first.steps > 0) != reduction_expected:
            return "type-I reduction condition"
        if first.steps > 0 and first.result != w[:-1] + y[1:]:
            return "type-I reduction shape"
    if second.is_zero != y.startswith("xx"):
        return "type-II zero condition"
    if not second.is_zero and second.steps > 0:
        return "type-II never reduces"
    return None


def closing_argument_margin(w: Word, tau: Word,
                            system: RewriteSystem) -> bool:
    """For a form-1 occurrence tau = w*y, the type II word from (w, 1) is
    strictly larger; this is what stops tau from cancelling."""
    competitor = pair_products(w, IDENTITY_WORD, system)[1]
    return (not competitor.is_zero
            and competitor.result.lex_key() > tau.lex_key())
