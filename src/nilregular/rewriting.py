"""Words and monomial rewriting for two fixed families of presentations.

The package works with two kinds of finitely presented algebras:

* the ``xq`` presentation: generators x, q with x^n = 0 (n >= 2),
  xqx = x and qxq = q.  The default n = 3 gives a nilpotent element of
  index 3 together with a freely adjoined generalised inverse.
* the ``ab`` presentation: the free algebra on a, b subject only to
  a^m = 0 (m >= 1).

Every rule rewrites a word to a strictly shorter word or to zero (a
:class:`RewriteSystem` refuses any other rule), so rewriting terminates,
and all critical pairs resolve (see :func:`check_confluence`), so by
the diamond lemma (Bergman, Adv. Math. 29, 1978) every word has a unique
normal form and the irreducible words form a linear basis: the words in
which no rule's left-hand side occurs, which :func:`enumerate_basis`
grows from the rules alone.  The
normal form is therefore reached by any strategy, and :func:`reduce`
uses a stack: letters move one at a time onto an output that is always
irreducible, so a new redex can only be a suffix of it.  The stack holds
the states of an Aho-Corasick automaton over the left-hand sides, one per
output letter, so a push is one table lookup, and the state names the
longest left-hand side the push completes; that redex is the leftmost one
whenever each left-hand side occurs inside another only as a suffix, as
in both families.  A power rule such as x^n = 0 that outgrows every
other rule by two letters or more is not unrolled into n states: its
chain stops in a state that loops on x, and only pushes into that state
count the run.  Reduction is therefore linear in the length of the word
at every nilpotency degree.

A :class:`Word` is the string of its letters, so hashing, equality and
slicing are ``str``'s own, and a word equals its plain letter string.
The letter precedence is q > x (and b > a), and words compare first by
the leftmost letter, with a proper prefix ordered below its extensions.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .reports import VerificationReport, finish_report

_ALPHABET = "xqab"
_RANKS = str.maketrans("xaqb", "0011")

# guards parse_word against pathological input like q^999999999999 or
# q^999999 x^999999 ... repeated: it caps the letter count of a whole word,
# so each exponent too
MAX_EXPONENT = 10**6


class WordSyntaxError(ValueError):
    """Raised on malformed word or element text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


class Word(str):
    """A word in the generators: the string of its letters.

    ``Word("qqxq")`` is q^2 x q and ``Word()`` is the identity.  A Word is
    equal to its plain letter string and hashes like it.  ``str(word)``
    renders the run-length text ``q^2 x q`` (``1`` for the identity), so
    output must go through ``str()``: ``json.dumps``, ``str.join``, ``+``
    and ``format`` with a non-empty spec see the raw letters.  The
    inherited ``<`` is ASCII order, not the word order; sort with
    :meth:`sort_key`.
    """

    __slots__ = ()

    def __new__(cls, letters: str = "") -> "Word":
        if not isinstance(letters, str):
            raise TypeError(f"a Word is built from a str, not {type(letters).__name__}")
        stray = letters.strip(_ALPHABET)
        if stray:
            raise ValueError(f"unknown letter {stray[0]!r}")
        # str.__new__ of a Word would go through its run-length __str__
        return str.__new__(cls, str.__str__(letters))

    @classmethod
    def from_letters(cls, letters) -> "Word":
        return cls("".join(letters))

    def letters(self) -> tuple[str, ...]:
        return tuple(self)

    @property
    def blocks(self) -> tuple[tuple[str, int], ...]:
        """The run-length form: q^2 x q is ``(("q", 2), ("x", 1), ("q", 1))``."""
        return tuple((letter, len(list(run)))
                     for letter, run in itertools.groupby(self))

    @property
    def is_identity(self) -> bool:
        return not self

    def lex_key(self) -> str:
        # string comparison of the ranks realizes the word order: leftmost
        # letter first, and a proper prefix sorts below all of its extensions
        return self.translate(_RANKS)

    def sort_key(self) -> tuple[int, str]:
        return (len(self), self.translate(_RANKS))

    def __str__(self) -> str:
        if not self:
            return "1"
        return " ".join(
            letter if exponent == 1 else f"{letter}^{exponent}"
            for letter, exponent in self.blocks
        )

    def __repr__(self) -> str:
        return f"Word('{self!s}')"

    def __reduce__(self):
        # pickle protocols 0 and 1 would otherwise rebuild from str(self)
        return (Word, (str.__str__(self),))


# a Word from letters already known to lie in the alphabet, unchecked
_word = str.__new__

IDENTITY_WORD = Word()


def concat(u: Word, v: Word) -> Word:
    """Concatenation as words, with no rewriting applied."""
    return _word(Word, u + v)


_WORD_TOKEN = re.compile(r"([xqab])(?:\s*\^\s*([0-9]+))?|1|\s+")
# text of letters, 1s and blanks only, which is valid as it stands
_PLAIN_WORD = re.compile(r"[xqab1\s]*")
_POWER = re.compile(r"([xqab])\s*\^\s*([0-9]+)")
_MAX_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


def parse_word(text: str) -> Word:
    """Parse word text like ``q^3 x^2 q``, exponents in ASCII digits;
    ``1`` denotes the identity.

    Whitespace is ignored and juxtaposition means product, so ``q^3x^2q``
    parses the same.  Raises :class:`WordSyntaxError` on anything else,
    and on a word of more than ``MAX_EXPONENT`` letters.

    Valid text is checked and expanded by whole-text regex and string
    passes; only text with a fault is scanned token by token, to locate it.
    """
    # other text is valid when it is power tokens and plain text, so that
    # deleting its powers leaves plain text
    if _PLAIN_WORD.fullmatch(text) or _PLAIN_WORD.fullmatch(_POWER.sub("", text)):
        powers = _POWER.findall(text)
        # checked before int(), which refuses over 4,300 digits
        exponents = [int(digits) for _, digits in powers
                     if len(digits) <= _MAX_EXPONENT_DIGITS]
        length = sum(map(text.count, "xqab")) - len(powers) + sum(exponents)
        if len(exponents) == len(powers) and all(exponents) and length <= MAX_EXPONENT:
            if powers:
                text = _POWER.sub(lambda power: power[1] * int(power[2]), text)
            return _word(Word, "".join(text.split()).replace("1", ""))
    _locate_word_fault(text)
    raise RuntimeError("the token scan found no fault in rejected word text")


def _locate_word_fault(text: str) -> None:
    """Scan word text token by token and raise at its first fault."""
    length = 0
    pos = 0
    while pos < len(text):
        match = _WORD_TOKEN.match(text, pos)
        if match is None:
            raise WordSyntaxError("unexpected character", pos)
        letter, digits = match.groups()
        if letter is not None:
            if digits and len(digits) > _MAX_EXPONENT_DIGITS:
                raise WordSyntaxError("exponent too large", pos)
            exponent = int(digits) if digits else 1
            if exponent == 0:
                raise WordSyntaxError("exponent must be a positive integer", pos)
            length += exponent
            if length > MAX_EXPONENT:
                raise WordSyntaxError("word too long", pos)
        pos = match.end()


def as_word(value) -> Word:
    """A :class:`Word` as it stands, or word text through :func:`parse_word`."""
    return value if isinstance(value, Word) else parse_word(value)


@dataclass(frozen=True)
class Rule:
    """One rewrite rule; ``rhs`` of None sends the word to zero."""

    lhs: str
    rhs: str | None

    def __str__(self) -> str:
        # None sends the word to zero, the empty string to the identity
        rhs = "0" if self.rhs is None else self.rhs or "1"
        return f"{self.lhs} -> {rhs}"


@dataclass(frozen=True, eq=False)
class RewriteSystem:
    """A fixed alphabet with length-reducing rules.

    ``letters`` spells the alphabet in increasing precedence.  The rules
    alone define the basis: its words are those in which no left-hand side
    occurs.  A system must have a rule, and each rule a nonempty left-hand
    side over ``letters`` and a right-hand side that is zero or a strictly
    shorter word over them, so that rewriting terminates; any other rule
    set raises ValueError.

    A presentation compares and hashes by identity, so the caches keyed by
    it never rehash its rules; :func:`xq_system` and :func:`ab_system`
    return one object per degree.
    """

    label: str
    letters: str
    nilpotency_degree: int
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not self.rules:
            raise ValueError("a presentation needs at least one rule")
        for rule in self.rules:
            if not rule.lhs:
                raise ValueError(f"rule {rule} has an empty left-hand side")
            if rule.lhs.strip(self.letters) or (rule.rhs or "").strip(self.letters):
                raise ValueError(f"rule {rule} uses a letter outside {self.letters!r}")
            if rule.rhs is not None and len(rule.rhs) >= len(rule.lhs):
                raise ValueError(f"rule {rule} does not shorten the word")

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
        letters="xq",
        nilpotency_degree=n,
        rules=(
            Rule("x" * n, None),
            Rule("xqx", "x"),
            Rule("qxq", "q"),
        ),
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
        letters="ab",
        nilpotency_degree=m,
        rules=(Rule("a" * m, None),),
    )


def system_from_label(label: str, n: int = 3) -> RewriteSystem:
    """S -> the xq presentation with x^n = 0; R -> its companion free
    algebra on a, b with a^(n-1) = 0, so R needs n >= 2 as S does."""
    if label == "S":
        return xq_system(n)
    if label == "R":
        if n < 2:
            raise ValueError(f"presentation R needs n >= 2, not n = {n}")
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
    stray = word.strip(system.letters)
    if stray:
        raise ValueError(
            f"letter {stray[0]!r} does not belong to presentation {system.label}")


@lru_cache(maxsize=None)
def _automaton(system: RewriteSystem) -> tuple:
    """The Aho-Corasick automaton of the left-hand sides, as the tuple
    (table, match, last, cut, floor, power) that :func:`_stack_reduce`
    reads.

    A state is a node of the trie of the left-hand sides, the root 0.
    ``table[letter][state]`` is the state of the longest suffix of the
    state's string plus the letter that is a node.  ``match[state]`` is
    None, or the length and the reversed right-hand side (None for zero)
    of the longest left-hand side that is a suffix of the state's string,
    the first listed among equal ones.  Every letter is a child of the
    root, so the string of the state after a push ends in the pushed
    letter, and ``last[state]``, its last letter, spells the output.  The
    tables are filled breadth first through suffix links, so the build is
    linear in the trie's size times the alphabet's.

    A power rule c^k at least two letters longer than every other
    left-hand side (L letters at most) would cost k states.  Its chain
    stops at ``cut``, the state of c^(L+1) .. c^(k-1): it loops on c,
    leaves on another letter as c^L does, and its match entry is the
    power rule, which applies once the run, counted by the reducer from
    ``floor`` = L + 1, reaches ``power`` = k.  Without such a rule
    ``cut`` is -1, no state.
    """
    rules = system.rules
    *others, longest = sorted(rules, key=lambda rule: len(rule.lhs))
    floor = max((len(rule.lhs) for rule in others), default=0) + 1
    power = len(longest.lhs)
    cuts = power > floor and not longest.lhs.strip(longest.lhs[0])
    depth = floor if cuts else power
    children, match, last = [{}], [None], [""]
    cut = -1
    for lhs, rule in itertools.chain(((letter, None) for letter in system.letters),
                                     ((rule.lhs, rule) for rule in rules)):
        node = 0
        for letter in lhs[:depth]:
            if letter not in children[node]:
                children[node][letter] = len(children)
                children.append({})
                match.append(None)
                last.append(letter)
            node = children[node][letter]
        if rule is not None:
            # only a cut power rule is longer than the trie is deep
            if len(lhs) > depth:
                cut = node
            if match[node] is None:
                match[node] = (len(lhs), None if rule.rhs is None else rule.rhs[::-1])
    table = {letter: [0] * len(children) for letter in system.letters}
    # suffix[state]: the state of the longest proper suffix of its string
    suffix = [0] * len(children)
    order = [0]
    for state in order:
        for letter, row in table.items():
            child = children[state].get(letter)
            if child is None:
                row[state] = row[suffix[state]]
                continue
            row[state] = child
            suffix[child] = row[suffix[state]] if state else 0
            if match[child] is None:
                match[child] = match[suffix[child]]
            order.append(child)
    return table, match, last, cut, floor, power


def _stack_reduce(word: Word, system: RewriteSystem) -> ReductionOutcome:
    """Push the letters of ``word`` one at a time onto an output that
    stays irreducible; ``word`` itself is returned if no rule applies.

    The output is kept as the stack of the states of :func:`_automaton`
    after each of its letters, so a push is one table lookup.  After a
    push only a suffix of the output can be a redex, and the state's
    match entry names the longest left-hand side that ends there, so of
    the redexes that end at the pushed letter the one found starts
    leftmost.  A match is deleted and its right-hand side goes back onto
    the pending letters.  Every step shortens the word, so there are at
    most len(word) steps, and the pushes are the word's letters plus the
    re-pushed right-hand sides.  Only a push into the cut state of a long
    power rule takes a slower path, which counts the run in ``runs``,
    keyed by stack depth.

    The redex found is the leftmost one of output + pending, so the steps
    are those of leftmost rewriting, whenever each left-hand side occurs
    inside another only as a suffix (as in both families, where none
    occurs inside another at all): a redex that started further left and
    ended past the pushed letter would hold the one found other than as
    a suffix, and none ends before it, the output being irreducible.
    """
    table, match, last, cut, floor, power = _automaton(system)
    # the root at the bottom keeps the stack nonempty
    states = [0]
    top = 0
    runs = {}
    pending = list(word[::-1])
    steps = 0
    while pending:
        state = table[pending.pop()][top]
        found = match[state]
        if found is None:
            states.append(state)
            top = state
            continue
        if state == cut:
            depth = len(states)
            run = runs[depth - 1] + 1 if top == cut else floor
            if run < power:
                runs[depth] = run
                states.append(state)
                top = state
                continue
        size, rhs = found
        steps += 1
        if rhs is None:
            return ReductionOutcome(None, steps)
        # the pushed letter is not on the stack, so size - 1 come off
        del states[len(states) + 1 - size:]
        top = states[-1]
        pending.extend(rhs)
    if not steps:
        return ReductionOutcome(word, 0)
    return ReductionOutcome(_word(Word, "".join(map(last.__getitem__, states[1:]))), steps)


def reduce(word: Word, system: RewriteSystem, rng: random.Random | None = None) -> ReductionOutcome:
    """Rewrite ``word`` to its normal form.

    By default a stack reducer does it in time linear in the length of the
    word (see the module docstring).  Pass ``rng`` to apply redexes chosen
    at random instead; that strategy rescans the word after every step and
    serves :func:`check_confluence` and the tests as an independent oracle.
    """
    _check_alphabet(word, system)
    if rng is None:
        return _stack_reduce(word, system)
    # a plain str: _word of a Word would copy its rendered text
    text = word[:]
    steps = 0
    while True:
        found = [(start, rule) for start in range(len(text))
                 for rule in system.rules if text.startswith(rule.lhs, start)]
        if not found:
            return ReductionOutcome(_word(Word, text), steps)
        start, rule = found[rng.randrange(len(found))]
        steps += 1
        if rule.rhs is None:
            return ReductionOutcome(None, steps)
        text = text[:start] + rule.rhs + text[start + len(rule.lhs):]


@lru_cache(maxsize=None)
def concat_reduce(u: Word, v: Word, system: RewriteSystem) -> ReductionOutcome:
    """Normal form of the product of two words already in normal form,
    for element multiplication, which meets the same products again and
    again.  The support pairs of the analysis reduce theirs in
    :func:`nilregular.analysis.pair_products`, which also checks the seam.
    """
    joined = concat(u, v)
    _check_alphabet(joined, system)
    return _stack_reduce(joined, system)


def is_basis_word(word: Word, system: RewriteSystem) -> bool:
    """Irreducibility by definition: no rule's left-hand side occurs in
    the word.  :func:`enumerate_basis` lists exactly these words; the
    test-suite checks the two against each other on every presentation it
    builds, the two families and others."""
    _check_alphabet(word, system)
    return not any(rule.lhs in word for rule in system.rules)


def canonical_words(max_len: int, system: RewriteSystem) -> list[Word]:
    """All words over the system's alphabet of length <= max_len, sorted by
    (length, word order)."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = [_word(Word, "".join(letters)) for length in range(max_len + 1)
           for letters in itertools.product(system.letters, repeat=length)]
    out.sort(key=Word.sort_key)
    return out


def enumerate_basis(max_len: int, system: RewriteSystem) -> list[Word]:
    """All irreducible words of length <= max_len, sorted by
    (length, word order).

    Grows words one letter at a time and keeps a word only if no rule's
    left-hand side is a suffix of it: the word it grew from is
    irreducible, so a new redex can only end at the new letter.  Only
    kept words are grown, so the cost is linear in the output, not in the
    2^(max_len + 1) words over the alphabet.  Each layer is grown in word
    order, the letters taken by rank, so it comes out in word order and
    the layers need no sort.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    lhs = tuple(rule.lhs for rule in system.rules)
    letters = sorted(system.letters, key=lambda letter: letter.translate(_RANKS))
    out = [IDENTITY_WORD]
    layer = [""]
    for _ in range(max_len):
        layer = [grown for text in layer for letter in letters
                 if not (grown := text + letter).endswith(lhs)]
        if not layer:
            break
        out += [_word(Word, text) for text in layer]
    return out


@dataclass(frozen=True)
class CriticalPair:
    """The overlap of ``first.lhs`` ending in ``second.lhs[:k]``, reduced both ways."""

    first: Rule
    second: Rule
    k: int
    left: ReductionOutcome
    right: ReductionOutcome

    @property
    def overlap(self) -> Word:
        return _word(Word, self.first.lhs + self.second.lhs[self.k:])

    @property
    def resolves(self) -> bool:
        return self.left.result == self.right.result


def _apply_then_reduce(rest: str | None, system: RewriteSystem) -> ReductionOutcome:
    """A rule application that left ``rest`` (None: zero), then its reduction."""
    if rest is None:
        return ReductionOutcome(None, 1)
    outcome = reduce(_word(Word, rest), system)
    return ReductionOutcome(outcome.result, outcome.steps + 1)


def critical_pairs(system: RewriteSystem) -> Iterator[CriticalPair]:
    """All overlap ambiguities between left-hand sides, one at a time.

    Both rule families have no left-hand side contained in another, so
    proper overlaps (a suffix of one LHS equal to a prefix of another) are
    the only ambiguities to resolve.  x^n = 0 overlaps itself at each of
    its n - 1 shifts, which a power needs no comparison to see, and its
    sides die without spelling the overlap, so the run is linear in n; the
    other pairs compare at most 3 letters in both families.
    """
    for first in system.rules:
        for second in system.rules:
            power = first is second and not first.lhs.strip(first.lhs[0])
            for k in range(1, min(len(first.lhs), len(second.lhs))):
                if not power and first.lhs[-k:] != second.lhs[:k]:
                    continue
                left = _apply_then_reduce(
                    None if first.rhs is None else first.rhs + second.lhs[k:], system)
                right = _apply_then_reduce(
                    None if second.rhs is None else first.lhs[:-k] + second.rhs, system)
                yield CriticalPair(first, second, k, left, right)


def _normal_form_text(result: Word | None) -> str:
    """A normal form as the reports write it: 0 for a word that died."""
    return "0" if result is None else str(result)


def check_confluence(system: RewriteSystem, max_len: int = 8,
                     seed: int = 0) -> VerificationReport:
    """Resolve every critical pair, then rewrite every word of length
    <= max_len under five randomized strategies and compare against the
    stack reducer's result.  A witness reports that result under
    ``leftmost`` when each left-hand side occurs inside another only as a
    suffix, where it is the leftmost-first one, and under ``stack``
    otherwise."""
    started = time.perf_counter()
    orders_per_word = 5
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
                "left": _normal_form_text(pair.left.result),
                "right": _normal_form_text(pair.right.result),
            }
            break
    if witness is None:
        lhs = [rule.lhs for rule in system.rules]
        strategy = ("stack" if any(inner in outer[:-1] for inner, outer
                                   in itertools.permutations(lhs, 2))
                    else "leftmost")
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
                        strategy: _normal_form_text(base),
                        "randomized": _normal_form_text(randomized),
                    }
                    break
            if witness is not None:
                break
    return finish_report("confluence", parameters, witness, examined, started)
