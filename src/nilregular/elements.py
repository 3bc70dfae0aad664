"""Linear combinations of normal-form words with exact coefficients.

An :class:`Algebra` pairs a rewrite system with a coefficient field and
acts as the element factory; an :class:`AlgebraElement` stores a finite
map from basis words to nonzero coefficients.  Multiplication rewrites
every word product back to normal form, so equality of elements is plain
dictionary equality.
"""

from __future__ import annotations

from fractions import Fraction

import re

from .rewriting import (
    IDENTITY_WORD,
    RewriteSystem,
    Word,
    WordSyntaxError,
    as_word,
    concat_reduce,
    enumerate_basis,
    parse_word,
    reduce,
)


class Algebra:
    """A rewrite system together with a coefficient field."""

    __slots__ = ("system", "field")

    def __init__(self, system: RewriteSystem, field):
        self.system = system
        self.field = field

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Algebra) and other.system == self.system
                                 and other.field == self.field)

    def __hash__(self) -> int:
        return hash((self.system, self.field))

    def __repr__(self) -> str:
        return f"Algebra({self.system}, {self.field.name})"

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    @property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {IDENTITY_WORD: self.field.one})

    def gen(self, letter: str) -> "AlgebraElement":
        return self.word(Word(letter))

    def scalar(self, value) -> "AlgebraElement":
        return self.from_terms({IDENTITY_WORD: value})

    def word(self, word) -> "AlgebraElement":
        """The element of a single word (given as Word or text), rewritten
        to normal form; words that rewrite to zero give the zero element."""
        outcome = reduce(as_word(word), self.system)
        if outcome.is_zero:
            return self.zero
        return AlgebraElement(self, {outcome.result: self.field.one})

    def from_terms(self, terms: dict) -> "AlgebraElement":
        """Build an element from a word -> coefficient map; words may be
        Word values or text and need not be in normal form."""
        total: dict[Word, object] = {}
        for word, coefficient in terms.items():
            coeff = self.field.coerce(coefficient)
            outcome = reduce(as_word(word), self.system)
            if outcome.is_zero or coeff == self.field.zero:
                continue
            _accumulate(total, outcome.result, coeff, self.field)
        return AlgebraElement(self, total)

    def parse(self, text: str) -> "AlgebraElement":
        return parse_element(text, self)

    def basis_words(self, max_len: int) -> list[Word]:
        return enumerate_basis(max_len, self.system)

    def random_element(self, rng, max_word_len: int = 4,
                       max_terms: int = 3) -> "AlgebraElement":
        """A nonzero random element with support drawn from the bounded
        basis and coefficients from the field's coefficient pool (all of
        GF(p); a small grid for the rationals)."""
        pool, _ = self.field.coefficient_pool()
        nonzero = pool[1:]  # the pool's first entry is zero
        words = self.basis_words(max_word_len)
        size = rng.randint(1, max_terms)
        support = rng.sample(words, min(size, len(words)))
        return AlgebraElement(
            self, {word: rng.choice(nonzero) for word in support})


def _accumulate(terms: dict, word: Word, coefficient, field) -> None:
    updated = field.add(terms.get(word, field.zero), coefficient)
    if updated == field.zero:
        terms.pop(word, None)
    else:
        terms[word] = updated


class AlgebraElement:
    """A finite linear combination of basis words.

    The term map is private and never mutated after construction; all
    arithmetic builds fresh elements.  Scalars (int, Fraction, coefficient
    strings) coerce on the fly, so ``1 - x * q`` works as written.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self._terms = terms

    def _coerce_other(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise ValueError("elements live in different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.scalar(other)
        return None

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple[Word, ...]:
        return tuple(sorted(self._terms, key=Word.sort_key))

    def terms(self) -> dict:
        return dict(self._terms)

    def coeff(self, word):
        return self._terms.get(as_word(word), self.algebra.field.zero)

    def degree(self) -> int | None:
        """Length of the longest support word; None for the zero element."""
        if not self._terms:
            return None
        return max(len(word) for word in self._terms)

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        field = self.algebra.field
        total = dict(self._terms)
        for word, coefficient in other._terms.items():
            _accumulate(total, word, coefficient, field)
        return AlgebraElement(self.algebra, total)

    __radd__ = __add__

    def __neg__(self):
        field = self.algebra.field
        return AlgebraElement(
            self.algebra,
            {word: field.neg(c) for word, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")
        field = self.algebra.field
        system = self.algebra.system
        total: dict[Word, object] = {}
        for left_word, left_coeff in self._terms.items():
            for right_word, right_coeff in other._terms.items():
                outcome = concat_reduce(left_word, right_word, system)
                if outcome.is_zero:
                    continue
                _accumulate(total, outcome.result,
                            field.mul(left_coeff, right_coeff), field)
        return AlgebraElement(self.algebra, total)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, scalar):
        field = self.algebra.field
        factor = field.coerce(scalar)
        if factor == field.zero:
            return self.algebra.zero
        return AlgebraElement(
            self.algebra,
            {word: field.mul(factor, c) for word, c in self._terms.items()})

    def __pow__(self, exponent: int):
        return _power(self, exponent, self.algebra.one)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    __hash__ = None

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word in self.support():
            text = str(self._terms[word])
            negative = text.startswith("-")
            magnitude = text.lstrip("-")
            if word.is_identity:
                body = magnitude
            elif magnitude == "1":
                body = str(word)
            else:
                body = f"{magnitude} {word}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.algebra.system.label}/{self.algebra.field.name}: {self}>"

    def to_json_dict(self) -> dict:
        return {str(word): str(self._terms[word]) for word in self.support()}


def _power(base, exponent: int, one):
    """base ** exponent for any multiplication with identity one, by
    square and multiply: about 2 log2(exponent) products, not exponent."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if exponent == 0:
        return one
    half = _power(base, exponent // 2, one)
    return half * half * base if exponent % 2 else half * half


def linear_combination(algebra: Algebra, pairs) -> AlgebraElement:
    """Sum of coefficient * element, skipping zero coefficients.

    One dict accumulates everything, which is cheaper than repeated ``+``
    when membership assembles a factor or the search checks its witness.
    """
    field = algebra.field
    total: dict[Word, object] = {}
    for coefficient, element in pairs:
        coeff = field.coerce(coefficient)
        if coeff == field.zero:
            continue
        if element.algebra != algebra:
            raise ValueError("elements live in different algebras")
        for word, c in element._terms.items():
            _accumulate(total, word, field.mul(coeff, c), field)
    return AlgebraElement(algebra, total)


_NUMBER = re.compile(r"([0-9]+)(?:\s*/\s*([0-9]+))?")
_SPACE = re.compile(r"\s*")
_SIGN = re.compile(r"[+-]")
# CPython's default limit on int() of a digit string
_MAX_DIGITS = 4300


def parse_element(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse element text: signed terms of an optional integer or fraction
    coefficient in ASCII digits followed by an optional word, e.g.
    ``1 - x q + 2 q^2 x``.  Words are rewritten to normal form as read.
    """
    field = algebra.field
    total: dict[Word, object] = {}
    size = len(text)
    pos = _SPACE.match(text).end()
    sign = 1
    if pos < size and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:
        pos = _SPACE.match(text, pos).end()
        if pos >= size:
            raise WordSyntaxError("expected a term", pos)
        term_start = pos
        match = _NUMBER.match(text, pos)
        coefficient_text = None
        if match is not None:
            coefficient_text = match.group(0)
            for group, digits in enumerate(match.groups(), 1):
                if digits is not None and len(digits) > _MAX_DIGITS:
                    raise WordSyntaxError("coefficient has too many digits",
                                          match.start(group))
            pos = _SPACE.match(text, match.end()).end()
        word_start = pos
        sign_match = _SIGN.search(text, pos)
        pos = size if sign_match is None else sign_match.start()
        word_text = text[word_start:pos].strip()
        if coefficient_text is None and not word_text:
            raise WordSyntaxError("expected a coefficient or word", term_start)
        try:
            word = parse_word(word_text) if word_text else IDENTITY_WORD
        except WordSyntaxError as error:
            raise WordSyntaxError(f"bad word in term: {error.reason}",
                                  word_start + error.position) from None
        try:
            coefficient = (field.coerce(coefficient_text)
                           if coefficient_text is not None else field.one)
        except ZeroDivisionError:
            raise WordSyntaxError(
                f"coefficient {coefficient_text} has no value in {field.name}",
                term_start) from None
        if sign < 0:
            coefficient = field.neg(coefficient)
        outcome = reduce(word, algebra.system)
        if not outcome.is_zero and coefficient != field.zero:
            _accumulate(total, outcome.result, coefficient, field)
        if pos >= size:
            break
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    return AlgebraElement(algebra, total)
