"""Words and monomial rewriting for two fixed families of presentations.

The package works with two kinds of finitely presented algebras:

* the ``xq`` presentation: generators x, q with x^n = 0 (n >= 2),
  xqx = x and qxq = q.  The default n = 3 gives a nilpotent element of
  index 3 together with a freely adjoined generalised inverse.
* the ``ab`` presentation: the free algebra on a, b subject only to
  a^m = 0 (m >= 1).

Every rule rewrites a word to a strictly shorter word or to zero, so
rewriting terminates, and all critical pairs resolve (see
:func:`check_confluence`), so by the diamond lemma (Bergman, Adv. Math.
29, 1978) every word has a unique normal form and the irreducible words
form a linear basis.  The normal form is therefore reached by any
strategy, and :func:`reduce` uses a stack: letters move one at a time onto
an output that is always irreducible, so a new redex can only be a suffix
of it, and each pushed letter costs at most one suffix test per rule.
Reduction is linear in the length of the word.

Words are stored run-length encoded as blocks ``(letter, exponent)``; the
empty block tuple is the identity word.  The letter precedence is q > x
(and b > a), and words compare first by the leftmost letter, with a proper
prefix ordered below its extensions.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from functools import lru_cache

from .reports import VerificationReport, finish_report

_LETTER_RANK = {"x": 0, "q": 1, "a": 0, "b": 1}

# guards parse_word against pathological input like q^999999999999 or
# q^999999 x^999999 ... repeated: it caps the letter count of a whole word,
# so each exponent too
MAX_EXPONENT = 10**6


class WordSyntaxError(ValueError):
    """Raised on malformed word or element text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Word:
    """A word in the generators, run-length encoded.

    ``blocks`` is a tuple of (letter, exponent) pairs with positive
    exponents and distinct adjacent letters, e.g. q^2 x q is
    ``(("q", 2), ("x", 1), ("q", 1))``.  ``Word(())`` is the identity.
    """

    blocks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        previous = None
        for letter, exponent in self.blocks:
            if letter not in _LETTER_RANK:
                raise ValueError(f"unknown letter {letter!r}")
            if exponent < 1:
                raise ValueError("block exponents must be positive")
            if letter == previous:
                raise ValueError("adjacent blocks must use distinct letters")
            previous = letter

    @classmethod
    def from_letters(cls, letters) -> "Word":
        blocks: list[tuple[str, int]] = []
        for letter in letters:
            if blocks and blocks[-1][0] == letter:
                blocks[-1] = (letter, blocks[-1][1] + 1)
            else:
                blocks.append((letter, 1))
        return cls(tuple(blocks))

    def letters(self) -> tuple[str, ...]:
        flat: list[str] = []
        for letter, exponent in self.blocks:
            flat.extend([letter] * exponent)
        return tuple(flat)

    def __len__(self) -> int:
        return sum(exponent for _, exponent in self.blocks)

    @property
    def is_identity(self) -> bool:
        return not self.blocks

    @property
    def first_letter(self) -> str | None:
        return self.blocks[0][0] if self.blocks else None

    @property
    def last_letter(self) -> str | None:
        return self.blocks[-1][0] if self.blocks else None

    def lex_key(self) -> tuple[int, ...]:
        # tuple comparison realizes the word order: leftmost letter first,
        # and a proper prefix sorts below all of its extensions
        return tuple(_LETTER_RANK[letter] for letter in self.letters())

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self), self.lex_key())

    def __str__(self) -> str:
        if not self.blocks:
            return "1"
        return " ".join(
            letter if exponent == 1 else f"{letter}^{exponent}"
            for letter, exponent in self.blocks
        )

    def __repr__(self) -> str:
        return f"Word('{self}')"


IDENTITY_WORD = Word(())


def concat(u: Word, v: Word) -> Word:
    """Concatenation as words, with no rewriting applied."""
    if u.is_identity:
        return v
    if v.is_identity:
        return u
    if u.last_letter == v.first_letter:
        letter, left_exp = u.blocks[-1]
        _, right_exp = v.blocks[0]
        merged = u.blocks[:-1] + ((letter, left_exp + right_exp),) + v.blocks[1:]
        return Word(merged)
    return Word(u.blocks + v.blocks)


_WORD_TOKEN = re.compile(r"([xqab])(?:\s*\^\s*(\d+))?|1|\s+")


def parse_word(text: str) -> Word:
    """Parse word text like ``q^3 x^2 q``; ``1`` denotes the identity.

    Whitespace is ignored and juxtaposition means product, so ``q^3x^2q``
    parses the same.  Raises :class:`WordSyntaxError` on anything else,
    and on a word of more than ``MAX_EXPONENT`` letters.
    """
    blocks: list[tuple[str, int]] = []
    length = 0
    pos = 0
    while pos < len(text):
        match = _WORD_TOKEN.match(text, pos)
        if match is None:
            raise WordSyntaxError("unexpected character", pos)
        letter = match.group(1)
        if letter is not None:
            exponent = int(match.group(2)) if match.group(2) else 1
            if exponent == 0:
                raise WordSyntaxError("exponent must be a positive integer", pos)
            length += exponent
            if length > MAX_EXPONENT:
                raise WordSyntaxError("word too long", pos)
            if blocks and blocks[-1][0] == letter:
                blocks[-1] = (letter, blocks[-1][1] + exponent)
            else:
                blocks.append((letter, exponent))
        pos = match.end()
    return Word(tuple(blocks))


@dataclass(frozen=True)
class Rule:
    """One rewrite rule; ``rhs`` of None sends the word to zero."""

    lhs: tuple[str, ...]
    rhs: tuple[str, ...] | None

    def __str__(self) -> str:
        left = "".join(self.lhs)
        right = "".join(self.rhs) if self.rhs else "0"
        return f"{left} -> {right}"


@dataclass(frozen=True)
class RewriteSystem:
    """A fixed alphabet with length-reducing rules.

    ``letters`` lists the alphabet in increasing precedence.  The
    ``interior_min_exponent`` records the closed form of the irreducible
    words: no interior block may have a smaller exponent (2 for the xq
    family, where interior x or q alone would sit inside xqx or qxq; 1,
    i.e. no constraint, for the ab family).
    """

    label: str
    letters: tuple[str, str]
    nilpotent_letter: str
    nilpotency_degree: int
    rules: tuple[Rule, ...]
    interior_min_exponent: int

    def __str__(self) -> str:
        rules = ", ".join(str(rule) for rule in self.rules)
        return f"{self.label}({rules})"


@lru_cache(maxsize=None)
def xq_system(n: int = 3) -> RewriteSystem:
    """The presentation with x^n = 0, xqx = x, qxq = q."""
    if n < 2:
        raise ValueError("nilpotency degree must be at least 2")
    return RewriteSystem(
        label="S",
        letters=("x", "q"),
        nilpotent_letter="x",
        nilpotency_degree=n,
        rules=(
            Rule(("x",) * n, None),
            Rule(("x", "q", "x"), ("x",)),
            Rule(("q", "x", "q"), ("q",)),
        ),
        interior_min_exponent=2,
    )


@lru_cache(maxsize=None)
def ab_system(m: int = 2) -> RewriteSystem:
    """The free algebra on a, b modulo a^m = 0 only.

    m = 1 is allowed (it collapses a itself to zero, leaving the
    polynomial algebra on b); it is used by the degenerate matrix model.
    """
    if m < 1:
        raise ValueError("nilpotency degree must be at least 1")
    return RewriteSystem(
        label="R",
        letters=("a", "b"),
        nilpotent_letter="a",
        nilpotency_degree=m,
        rules=(Rule(("a",) * m, None),),
        interior_min_exponent=1,
    )


def system_from_label(label: str, n: int = 3) -> RewriteSystem:
    """S -> the xq presentation with x^n = 0; R -> its companion free
    algebra on a, b with a^(n-1) = 0."""
    if label == "S":
        return xq_system(n)
    if label == "R":
        return ab_system(n - 1)
    raise ValueError(f"unknown presentation {label!r}")


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of rewriting: the normal form (None if the word died) and
    how many rule applications the particular run used.

    The result is strategy-independent; the step count is not (a word can
    reach zero in one step or several depending on the order), so only
    ``result`` takes part in equality arguments.
    """

    result: Word | None
    steps: int

    @property
    def is_zero(self) -> bool:
        return self.result is None


def _check_alphabet(word: Word, system: RewriteSystem) -> None:
    for letter, _ in word.blocks:
        if letter not in system.letters:
            raise ValueError(
                f"letter {letter!r} does not belong to presentation {system.label}"
            )


def _redexes(letters: list[str], rules) -> list[tuple[int, Rule]]:
    found = []
    for start in range(len(letters)):
        for rule in rules:
            end = start + len(rule.lhs)
            if end <= len(letters) and tuple(letters[start:end]) == rule.lhs:
                found.append((start, rule))
    return found


@lru_cache(maxsize=None)
def _rules_by_last_letter(system: RewriteSystem) -> dict[str, tuple]:
    """(length, lhs as a list, rhs reversed for pushing) of each rule,
    grouped by the last letter of its left-hand side."""
    table: dict[str, list] = {letter: [] for letter in system.letters}
    for rule in system.rules:
        rhs = None if rule.rhs is None else rule.rhs[::-1]
        table[rule.lhs[-1]].append((len(rule.lhs), list(rule.lhs), rhs))
    return {letter: tuple(rules) for letter, rules in table.items()}


def _stack_reduce(output: list[str], pending: list[str], system: RewriteSystem,
                  unchanged: Word) -> ReductionOutcome:
    """Move the letters of ``pending``, a stack whose top is the next
    letter, onto ``output``, which must be irreducible; ``unchanged`` is
    the word output + pending, returned as is if no rule applies.

    After each push, only a suffix of ``output`` can be a redex, and at
    most one rule matches there since no left-hand side contains another.
    A match is deleted and its right-hand side goes back onto ``pending``.
    Every step shortens the word, so there are at most len(word) steps,
    and the pushes are the word's letters plus the re-pushed right-hand
    sides.  The redex found is always the leftmost one of output +
    pending, so the steps are those of leftmost rewriting.
    """
    rules = _rules_by_last_letter(system)
    steps = 0
    while pending:
        letter = pending.pop()
        output.append(letter)
        for size, lhs, rhs in rules[letter]:
            if output[-size:] == lhs:
                del output[-size:]
                steps += 1
                if rhs is None:
                    return ReductionOutcome(None, steps)
                pending.extend(rhs)
                break
    if not steps:
        return ReductionOutcome(unchanged, 0)
    return ReductionOutcome(Word.from_letters(output), steps)


def reduce(word: Word, system: RewriteSystem, rng: random.Random | None = None) -> ReductionOutcome:
    """Rewrite ``word`` to its normal form.

    By default a stack reducer does it in time linear in the length of the
    word (see the module docstring).  Pass ``rng`` to apply redexes chosen
    at random instead; that strategy rescans the word after every step and
    serves :func:`check_confluence` and the tests as an independent oracle.
    """
    _check_alphabet(word, system)
    letters = list(word.letters())
    if rng is None:
        letters.reverse()
        return _stack_reduce([], letters, system, word)
    steps = 0
    while True:
        found = _redexes(letters, system.rules)
        if not found:
            return ReductionOutcome(Word.from_letters(letters), steps)
        start, rule = found[rng.randrange(len(found))]
        steps += 1
        if rule.rhs is None:
            return ReductionOutcome(None, steps)
        letters[start : start + len(rule.lhs)] = rule.rhs


@lru_cache(maxsize=None)
def concat_reduce(u: Word, v: Word, system: RewriteSystem) -> ReductionOutcome:
    """Normal form of the product of two words already in normal form.

    The letters of ``v`` go onto the stack reducer's output ``u``, which is
    irreducible and so never rescanned.  For the xq family a nonzero
    product needs at most one rule application, always at the seam (it
    deletes the last letter of ``u`` and the first letter of ``v``);
    products that die may take more steps.
    """
    joined = concat(u, v)
    _check_alphabet(joined, system)
    pending = list(v.letters())
    pending.reverse()
    outcome = _stack_reduce(list(u.letters()), pending, system, joined)
    if system.label == "S" and not outcome.is_zero and outcome.steps > 1:
        raise RuntimeError(f"interface reduction not unique for {u} * {v}")
    return outcome


def is_basis_word(word: Word, system: RewriteSystem) -> bool:
    """Closed-form test for irreducibility.

    A word is irreducible exactly when every block of the nilpotent letter
    has exponent below the nilpotency degree and no interior block drops
    below ``interior_min_exponent``.  Agrees with ``reduce`` having
    nothing to do; the equivalence is exercised in the test-suite.
    """
    _check_alphabet(word, system)
    blocks = word.blocks
    for index, (letter, exponent) in enumerate(blocks):
        if letter == system.nilpotent_letter and exponent >= system.nilpotency_degree:
            return False
        if 0 < index < len(blocks) - 1 and exponent < system.interior_min_exponent:
            return False
    return True


def canonical_words(max_len: int, system: RewriteSystem) -> list[Word]:
    """All words over the system's alphabet of length <= max_len, one
    representative per letter string, sorted by (length, word order)."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = [IDENTITY_WORD]

    def extend(blocks: tuple, used: int, last: str | None) -> None:
        for letter in system.letters:
            if letter == last:
                continue
            for exponent in range(1, max_len - used + 1):
                grown = blocks + ((letter, exponent),)
                out.append(Word(grown))
                extend(grown, used + exponent, letter)

    extend((), 0, None)
    # extend reaches itself through its closure cell; drop the name so the
    # function, and with it no cycle, outlives the call
    del extend
    out.sort(key=Word.sort_key)
    return out


def enumerate_basis(max_len: int, system: RewriteSystem) -> list[Word]:
    """All irreducible words of length <= max_len, sorted by
    (length, word order).

    Grows only block sequences that stay irreducible, using the closed
    form of :func:`is_basis_word`: a nilpotent block stops below the
    nilpotency degree, and a block gets a successor only if it is the
    first block or reaches ``interior_min_exponent``.  Every grown
    sequence is an output word, so the cost is linear in the output (plus
    the final sort), not in the 2^(max_len + 1) words over the alphabet.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    cap = system.nilpotency_degree - 1
    out = [IDENTITY_WORD]
    # explicit stack of (blocks, length, last letter), so no recursive
    # closure is left behind in a reference cycle
    stack = [((), 0, None)]
    while stack:
        blocks, used, last = stack.pop()
        for letter in system.letters:
            if letter == last:
                continue
            top = max_len - used
            if letter == system.nilpotent_letter:
                top = min(top, cap)
            for exponent in range(1, top + 1):
                grown = blocks + ((letter, exponent),)
                out.append(Word(grown))
                if used + exponent < max_len and (
                        not blocks or exponent >= system.interior_min_exponent):
                    stack.append((grown, used + exponent, letter))
    out.sort(key=Word.sort_key)
    return out


@dataclass(frozen=True)
class CriticalPair:
    """An overlap of two rule left-hand sides, reduced both ways."""

    overlap: Word
    left: ReductionOutcome
    right: ReductionOutcome

    @property
    def resolves(self) -> bool:
        return self.left.result == self.right.result


def _apply_then_reduce(letters: tuple[str, ...], start: int, rule: Rule,
                       system: RewriteSystem) -> ReductionOutcome:
    if rule.rhs is None:
        return ReductionOutcome(None, 1)
    rest = letters[:start] + rule.rhs + letters[start + len(rule.lhs):]
    outcome = reduce(Word.from_letters(rest), system)
    return ReductionOutcome(outcome.result, outcome.steps + 1)


def critical_pairs(system: RewriteSystem) -> list[CriticalPair]:
    """All overlap ambiguities between left-hand sides.

    Both rule families have no left-hand side contained in another, so
    proper overlaps (a suffix of one LHS equal to a prefix of another) are
    the only ambiguities to resolve.
    """
    pairs = []
    for first in system.rules:
        for second in system.rules:
            for k in range(1, min(len(first.lhs), len(second.lhs))):
                if first.lhs[-k:] != second.lhs[:k]:
                    continue
                overlap = first.lhs + second.lhs[k:]
                left = _apply_then_reduce(overlap, 0, first, system)
                right = _apply_then_reduce(overlap, len(first.lhs) - k, second, system)
                pairs.append(CriticalPair(Word.from_letters(overlap), left, right))
    return pairs


def check_confluence(system: RewriteSystem, max_len: int = 8,
                     orders_per_word: int = 5, seed: int = 0) -> VerificationReport:
    """Resolve every critical pair, then rewrite every word of length
    <= max_len under several randomized strategies and compare against the
    stack reducer's result, which is the leftmost-first one (a witness
    reports it under ``leftmost``)."""
    started = time.perf_counter()
    parameters = {
        "presentation": system.label,
        "nilpotency_degree": system.nilpotency_degree,
        "max_len": max_len,
        "orders_per_word": orders_per_word,
        "seed": seed,
    }
    examined = 0
    witness = None
    for pair in critical_pairs(system):
        examined += 1
        if not pair.resolves:
            witness = {
                "kind": "critical-pair",
                "overlap": str(pair.overlap),
                "left": str(pair.left.result),
                "right": str(pair.right.result),
            }
            break
    if witness is None:
        rng = random.Random(seed)
        for word in canonical_words(max_len, system):
            base = reduce(word, system).result
            for _ in range(orders_per_word):
                examined += 1
                randomized = reduce(word, system, rng=rng).result
                if randomized != base:
                    witness = {
                        "kind": "strategy-dependence",
                        "word": str(word),
                        "leftmost": str(base),
                        "randomized": str(randomized),
                    }
                    break
            if witness is not None:
                break
    return finish_report("confluence", parameters, witness, examined, started)
