"""Reference computations the oracles compare against.

Nothing here imports nilregular: word enumeration uses plain substring
tests on letter strings, and the matrix model is rebuilt from its defining
images with polynomials stored as ``{letters: Fraction}`` dicts.  Words are
letter strings (``"qqxxq"``); the empty string is the identity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def all_words(max_len: int, letters: str) -> list[str]:
    out = []
    for length in range(max_len + 1):
        out.extend("".join(t) for t in itertools.product(letters, repeat=length))
    return out


def s_basis(max_len: int, n: int = 3) -> list[str]:
    """Irreducible words of S (x^n = 0, xqx = x, qxq = q)."""
    return [w for w in all_words(max_len, "xq")
            if "x" * n not in w and "xqx" not in w and "qxq" not in w]


def left_shape(max_len: int, n: int = 3) -> list[str]:
    """Basis words that are empty or begin and end in q."""
    return [w for w in s_basis(max_len, n) if not w or (w[0] == "q" and w[-1] == "q")]


def right_shape(max_len: int, n: int = 3) -> list[str]:
    """Basis words that are empty or begin and end in x."""
    return [w for w in s_basis(max_len, n) if not w or (w[0] == "x" and w[-1] == "x")]


def r_basis(max_len: int) -> list[str]:
    """Irreducible words of R (a^2 = 0), the target of the n = 3 model."""
    return [w for w in all_words(max_len, "ab") if "aa" not in w]


def tau_family_count(exhaustive_len: int, random_trials: int) -> int:
    """Families a tau sweep checks: every subset pair at the exhaustive
    bound, then the random draws."""
    return (2 ** len(left_shape(exhaustive_len))
            * 2 ** len(right_shape(exhaustive_len)) + random_trials)


def unit_search_count(p: int, max_word_len: int, n: int) -> int:
    """p^(|left words| + |right words|): every coefficient vector pair."""
    return p ** (len(left_shape(max_word_len, n)) + len(right_shape(max_word_len, n)))


def word_text(letters: str) -> str:
    """The package's printed form of a word: ``qqxxq`` -> ``q^2 x^2 q``."""
    if not letters:
        return "1"
    runs = ((letter, len(list(group))) for letter, group in itertools.groupby(letters))
    return " ".join(letter if size == 1 else f"{letter}^{size}" for letter, size in runs)


# polynomials over R with a^2 = 0

def padd(p: dict, r: dict, scale=1) -> dict:
    out = dict(p)
    for word, c in r.items():
        value = out.get(word, 0) + scale * c
        if value:
            out[word] = value
        else:
            out.pop(word, None)
    return out


def pmul(p: dict, r: dict) -> dict:
    out: dict = {}
    for u, c in p.items():
        for v, d in r.items():
            word = u + v
            if "aa" not in word:
                out = padd(out, {word: c * d})
    return out


def degree(p: dict) -> int | None:
    return max(map(len, p)) if p else None


ONE_MINUS_BA = {"": Fraction(1), "ba": Fraction(-1)}

_X = (({"a": 1}, {}), ({"": 1}, {}))
_Q = (({"b": 1}, ONE_MINUS_BA), ({}, {}))
_ID = (({"": 1}, {}), ({}, {"": 1}))


def matmul(m1, m2):
    return tuple(tuple(padd(pmul(m1[i][0], m2[0][j]), pmul(m1[i][1], m2[1][j]))
                       for j in (0, 1)) for i in (0, 1))


def phi_word(word: str):
    """Image of an S word: x -> [[a, 0], [1, 0]], q -> [[b, 1 - ba], [0, 0]]."""
    image = _ID
    for letter in word:
        image = matmul(image, _X if letter == "x" else _Q)
    return image


def phi(terms: dict):
    """Image of a linear combination ``{word: coefficient}``."""
    total = (({}, {}), ({}, {}))
    for word, c in terms.items():
        image = phi_word(word)
        total = tuple(tuple(padd(total[i][j], image[i][j], c) for j in (0, 1))
                      for i in (0, 1))
    return total
