"""The 2x2 matrix realization of the xq algebra.

For n >= 3 the xq algebra embeds in 2x2 matrices over the free algebra
R on a, b with a^(n-1) = 0, via

    x  ->  X = [[a, 0], [1, 0]],      q  ->  Q = [[b, 1 - ba], [0, 0]].

Both images are rank one: X = u_x v_x and Q = u_q v_q for the columns
u_x = (a, 1)^T, u_q = (1, 0)^T and the rows v_x = (1, 0), v_q = (b, 1 - ba),
and v_x u_x = a, v_q u_q = b, v_x u_q = v_q u_x = 1.  So a nonempty word
l_1 ... l_k maps to

    phi(l_1 ... l_k) = u_(l_1) m v_(l_k),

where m is the word of R with an a for each adjacent xx and a b for each
adjacent qq, in order.  phi(w) is 0 exactly when m holds a^(n-1), as it
does when w holds x^n.  Each entry is one word of u times m times the at
most two words of an entry of v, so an image takes no matrix products.
:meth:`MatrixModel.image_terms` is the one place this closed form is
written: it gives the four entries as maps from R-word text to
coefficient.  The rest read it: the matrix of a word, phi of an element
and the faithfulness check's corner images (each its words' maps summed
entry by entry, in one loop), and the faithfulness rows (the maps as
sparse rows for ``linalg.rank``, read mod 2 over GF(2), their columns
numbered per slot in the order the words first occur).

The image is the subalgebra of matrices whose (1,2) entry lies in the
right ideal I = R(1 - ba) and whose (2,2) entry lies in F + I.  Membership
in those corners is decided by one small exact linear solve per ba-chain
of the entry.  Appending ba to a basis word of R gives a basis word two
letters longer (the appended b breaks any run of a), so s -> s(1 - ba)
sends a word w to w - w ba.  The basis words therefore fall into chains
r, r ba, r (ba)^2, ..., one per root r that does not end in ba: a word's
root is the word with all its trailing ba stripped.  If s has
coefficients s_0, s_1, ... along a chain, the entry s(1 - ba) has
e_k = s_k - s_(k-1) there, so each chain is solved apart, and the column
of s_k is +1 at r (ba)^k and -1 at r (ba)^(k+1), with no product taken.
Let the entry's words on a chain run from r (ba)^low to r (ba)^high.
Below low, s vanishes; from high up the running sum s_k must already be
0, since s has finitely many words.  So the chain's system has the rows
low..high and the unknowns s_low..s_(high-1), and a chain that the entry
does not meet carries no s at all.  A constant c changes only
e_0 = c + s_0 on the identity's chain, so when one is allowed that chain
always joins, from the identity up, with c's column +1 at the identity.
For n = 2, a = 0 makes ba = 0 and 1 - ba = 1: every chain is one word,
and its one unknown's column is that word alone.

The module also carries the determinant obstruction (the evaluation pi:
a -> e21, b -> e12 into scalar matrices sends 1 - ba to a singular matrix,
so no C (1-ba) D can equal the identity) and the degenerate n = 2 model
M2(F[b]) x F, where the map above acquires a kernel.  pi has a closed form
too: e21 e12 = e22, e12 e21 = e11 and e12 e12 = 0, so over a^2 = 0 a
nonempty basis word maps to 0 if it holds bb and otherwise to e_ij, with
i = 2 if it begins in a (1 if in b) and j = 1 if it ends in a (2 if in b).
"""

from __future__ import annotations

import random
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, takewhile

from .elements import Algebra, AlgebraElement, _accumulate, _power, linear_combination
from .fields import GF2, QQ
from .linalg import rank, solve
from .rewriting import (
    IDENTITY_WORD, Word, _check_alphabet, _word, ab_system, as_word, concat_reduce,
    xq_system)
from .reports import VerificationReport, checklist_report, finish_report


class MatrixElement:
    """A 2x2 matrix with entries in one algebra."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: Algebra, rows):
        entries = tuple(map(tuple, rows))
        if list(map(len, entries)) != [2, 2]:
            raise ValueError("expected a 2x2 entry grid")
        for entry in entries[0] + entries[1]:
            # the identity test spares the equality call in the common case
            if not isinstance(entry, AlgebraElement) or (
                    entry.algebra is not algebra and entry.algebra != algebra):
                raise ValueError("entries must all live in the given algebra")
        self.algebra = algebra
        self.rows = entries

    @classmethod
    def zero(cls, algebra: Algebra) -> "MatrixElement":
        z = algebra.zero
        return cls(algebra, ((z, z), (z, z)))

    @classmethod
    def identity(cls, algebra: Algebra) -> "MatrixElement":
        one, z = algebra.one, algebra.zero
        return cls(algebra, ((one, z), (z, one)))

    def entry(self, i: int, j: int) -> AlgebraElement:
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(entry.is_zero for row in self.rows for entry in row)

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        return MatrixElement(self.algebra, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        return self + -other

    def __neg__(self) -> "MatrixElement":
        return MatrixElement(self.algebra, tuple(
            tuple(-entry for entry in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, MatrixElement):
            self._check(other)
            a, b = self.rows, other.rows
            return MatrixElement(self.algebra, tuple(
                tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1))
                for i in (0, 1)))
        return NotImplemented

    def __pow__(self, exponent: int) -> "MatrixElement":
        return _power(self, exponent, MatrixElement.identity(self.algebra))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return self.algebra == other.algebra and self.rows == other.rows

    __hash__ = None

    def _check(self, other: "MatrixElement") -> None:
        if other.algebra != self.algebra:
            raise ValueError("matrices live over different algebras")

    def __str__(self) -> str:
        (a, b), (c, d) = self.rows
        return f"[[{a}, {b}], [{c}, {d}]]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


# X = u_x v_x and Q = u_q v_q: an entry of a column u is one word of R
# (None for 0), an entry of a row v maps words of R to coefficients
_COLUMNS = {"x": ("a", ""), "q": ("", None)}
_ROWS = {"x": ({"": 1}, {}), "q": ({"b": 1}, {"": 1, "ba": -1})}
# the letters that open a run; the others spell m, with x -> a and q -> b
_RUN_START = re.compile(r"(?<!x)x|(?<!q)q")
_X_TO_A = str.maketrans("xq", "ab")
_QX = Word("qx")  # the corner frame is 1 - qx


class DegreeBoundExceeded(ValueError):
    """The caller capped the membership solve below the degree it needs."""


@dataclass
class TMembership:
    """Membership certificates for the block shape [[R, I], [R, F + I]].

    When in_t holds, entry (1,2) equals top_right_factor * (1 - ba) and
    entry (2,2) equals constant_part + bottom_right_factor * (1 - ba).
    """

    in_t: bool
    top_right_factor: AlgebraElement | None
    constant_part: object | None
    bottom_right_factor: AlgebraElement | None
    failed_entries: tuple[str, ...] = ()


class MatrixModel:
    """The matrix realization for one nilpotency degree and field."""

    def __init__(self, n: int = 3, field=QQ):
        self.n = n
        self.source = Algebra(xq_system(n), field)
        self.target = Algebra(ab_system(n - 1), field)
        a = self.target.gen("a")
        b = self.target.gen("b")
        zero, one = self.target.zero, self.target.one
        self._one_minus_ba = one - b * a
        self.x_image = MatrixElement(self.target, ((a, zero), (one, zero)))
        self.q_image = MatrixElement(self.target, ((b, self._one_minus_ba), (zero, zero)))
        # R's one relation: a word holding it is 0
        self._zero_run = "a" * (n - 1)
        coerce = self.target.field.coerce
        # entry (i, j) of u_first v_last, at slot 2i + j, is u_first's i-th
        # word, if it is not 0, times v_last's j-th map, whose coefficients
        # are taken into the field: one (slot, left, suffix, coefficient)
        # per term of that map
        self._slots = {(first, last): tuple(
            (2 * i + j, left, s, coerce(c))
            for i, left in enumerate(_COLUMNS[first]) if left is not None
            for j, v in enumerate(_ROWS[last]) for s, c in v.items())
            for first in _COLUMNS for last in _ROWS}
        # image_terms's closed form rests on these factorizations
        element = self.target.from_terms
        for letter, image in (("x", self.x_image), ("q", self.q_image)):
            column = [[element({} if t is None else {Word(t): 1}), zero]
                      for t in _COLUMNS[letter]]
            row = [[element({Word(s): c for s, c in v.items()}) for v in _ROWS[letter]],
                   [zero, zero]]
            if (MatrixElement(self.target, column)
                    * MatrixElement(self.target, row) != image):
                raise RuntimeError(f"u_{letter} v_{letter} is not the image of {letter}")

    def image_terms(self, word) -> tuple[dict, dict, dict, dict]:
        """phi(word)'s (1,1), (1,2), (2,1) and (2,2) entries as maps from
        R-word text to coefficient: u_(first letter) m v_(last letter), see
        the module docstring.  A word of R that holds a^(n-1) is 0 there
        and is left out, so every word kept is a basis word of R."""
        word = as_word(word)
        _check_alphabet(word, self.source.system)
        if not word:
            one = self.target.field.one
            return {"": one}, {}, {}, {"": one}
        middle = _RUN_START.sub("", word).translate(_X_TO_A)
        zero_run = self._zero_run
        entries = ({}, {}, {}, {})
        for slot, left, s, c in self._slots[word[0], word[-1]]:
            if zero_run not in (text := left + middle + s):
                entries[slot][text] = c
        return entries

    def phi(self, value) -> MatrixElement:
        """Image of an element, word or word text of the xq algebra: its
        words' image_terms summed by _image_sum, a word being one term with
        coefficient 1, and one element built per entry."""
        if isinstance(value, str):
            terms = {value: self.target.field.one}
        elif value.algebra != self.source:
            raise ValueError("phi expects an element of this model's xq algebra")
        else:
            terms = value.terms()
        e11, e12, e21, e22 = (
            AlgebraElement(self.target, {_word(Word, s): c for s, c in total.items()})
            for total in self._image_sum(terms, self.image_terms))
        return MatrixElement(self.target, ((e11, e12), (e21, e22)))

    def _image_sum(self, terms: dict, image_terms) -> tuple[dict, dict, dict, dict]:
        """phi's four entry maps for a word -> coefficient map: each word's
        image_terms(word) scaled and summed entry by entry."""
        field = self.target.field
        totals = ({}, {}, {}, {})
        for word, c in terms.items():
            for total, entry in zip(totals, image_terms(word)):
                for s, d in entry.items():
                    _accumulate(total, s, field.mul(c, d), field)
        return totals

    def membership(self, matrix: MatrixElement,
                   degree_bound: int | None = None) -> TMembership:
        """Decide the block-shape membership of a matrix over R.

        Entries (1,1) and (2,1) are unconstrained.  Entry (1,2) must lie
        in R(1 - ba) and entry (2,2) in F + R(1 - ba); each is decided by
        one exact linear solve per ba-chain of the entry for the factor s.
        Any s with entry = s(1 - ba) satisfies deg(s) = deg(entry) - 2
        (multiplying a word by ba adds two letters and never cancels), so
        the factor is unique.  On the chain of a root r, where the entry's
        words run from r (ba)^low to r (ba)^high, the unknowns are s at
        r (ba)^low, ..., r (ba)^(high-1), and the rows the words
        r (ba)^low, ..., r (ba)^high; for (2,2) the identity's chain joins
        from the identity up, with the constant (see the module
        docstring).  For n = 2, a = 0 and 1 - ba = 1, so the unknowns are
        the entry's words and deg(s) = deg(entry).

        degree_bound caps the length of the words solved for.  Every
        unknown is at most deg(entry) - 2 letters long, so a bound at
        least that gives the same certificate; a smaller one is an error
        rather than a silent weaker answer.
        """
        if matrix.algebra != self.target:
            raise ValueError("matrix must live over this model's a,b algebra")
        failed = []
        top = self._right_ideal_factor(matrix.entry(0, 1), degree_bound,
                                       with_constant=False)
        if top is None:
            failed.append("(1,2)")
        bottom = self._right_ideal_factor(matrix.entry(1, 1), degree_bound,
                                          with_constant=True)
        if bottom is None:
            failed.append("(2,2)")
        if failed:
            return TMembership(False, None, None, None, tuple(failed))
        return TMembership(True, top[0], bottom[1], bottom[0])

    def _right_ideal_factor(self, entry: AlgebraElement,
                            degree_bound: int | None, with_constant: bool):
        """(s, c) with entry = c + s(1 - ba), c None unless with_constant,
        or None when there is none: one solve per ba-chain of the entry."""
        target = self.target
        field = target.field
        zero, one = field.zero, field.one
        needed = max((entry.degree() or 0) - self._one_minus_ba.degree(), 0)
        if degree_bound is not None and degree_bound < needed:
            raise DegreeBoundExceeded(
                f"membership solve needs degree {needed}, bound is {degree_bound}")
        # root -> {k: coefficient of root (ba)^k in the entry}; the
        # constant sits at the identity's k = 0, so that chain joins
        chains: dict[str, dict[int, object]] = (
            {IDENTITY_WORD: {0: zero}} if with_constant else {})
        for word, coefficient in entry.terms().items():
            root, k = word, 0
            while root.endswith("ba"):
                root, k = root[:-2], k + 1
            chains.setdefault(root, {})[k] = coefficient
        ba_is_zero = self.n == 2
        minus_one = field.neg(one)
        pairs = []
        constant = None
        for root, chain in chains.items():
            low, high = min(chain), max(chain)
            joins = with_constant and not root
            # the unknowns are s at root (ba)^k for low <= k < high, each
            # column +1 at its word and -1 at the next; s vanishes at the
            # top word, where the running sum must already be 0.  For
            # n = 2, ba = 0: the chain is one word, its own unknown, with
            # no -1 row
            width = high - low + ba_is_zero
            rows = [[zero] * (width + joins) for _ in range(high - low + 1)]
            for j in range(width):
                rows[j][j] = one
                if not ba_is_zero:
                    rows[j + 1][j] = minus_one
            if joins:
                rows[0][width] = one
            solution = solve(rows, [chain.get(k, zero) for k in range(low, high + 1)],
                             field)
            if solution is None:
                return None
            if joins:
                constant = solution.pop()
            pairs += ((c, AlgebraElement(target, {_word(Word, root + "ba" * k): one}))
                      for k, c in enumerate(solution, low) if c != zero)
        return linear_combination(target, pairs), constant


@lru_cache(maxsize=None)
def _faithful_model(n: int) -> MatrixModel:
    """The rational model that :func:`verify_phi_faithful` reads, built
    once per degree as :func:`xq_system` gives one system per degree; the
    check only reads it."""
    return MatrixModel(n, QQ)


def verify_phi_faithful(max_len: int = 6, n: int = 3) -> VerificationReport:
    """Linear independence of the images of all basis words of length
    <= max_len, over GF(2) and over the rationals, plus corner spot
    checks.

    Independence of the images is exactly injectivity on the bounded
    slice: a kernel element would be a vanishing linear combination.  The
    model is over the rationals, one per degree, built by the first check
    at that degree and read by every later one, and only the GF(2) rank is
    computed.  The images' coefficients are the integers 1 and -1 and R's
    relation has none, so each image's term maps, read mod 2, are its
    image in the GF(2) model: ``linalg.rank`` over GF(2) takes them as
    they are, its bit kernel setting a bit per nonzero coefficient.  Full
    GF(2) rank means some maximal minor is odd, hence a nonzero integer,
    so the rational rank is full too and the rational verdict is derived
    from that odd minor.

    The corner spot check's words have at most bound = min(max_len, 4)
    letters and their corner elements at most bound + 4: the rank reads
    the images up to that length first and keeps them for the check.
    """
    if n < 3:
        raise ValueError("faithfulness is asserted for n >= 3; "
                         "n = 2 routes to n2_variant_check")
    started = time.perf_counter()
    parameters = {"max_len": max_len, "n": n, "fields": ["gf2", "rational"]}
    model = _faithful_model(n)
    words = model.source.basis_words(max_len)
    bound = min(max_len, 4)
    images = {word: model.image_terms(word)
              for word in takewhile(lambda word: len(word) <= bound + 4, words)}
    matrix_rank = _rank(chain(images.values(), map(
        model.image_terms, islice(words, len(images), None))), GF2)
    if matrix_rank != len(words):
        witness = {"kind": "dependent-images", "field": GF2.name,
                   "words": len(words), "rank": matrix_rank}
        examined = len(words)
    else:
        # one candidate per word and field, the rational one by the odd minor
        witness = _corner_spot_check(
            model, [word for word in images if len(word) <= bound], images)
        examined = 2 * len(words) + 1
    return finish_report("phi-faithful", parameters, witness, examined, started)


def _rank(vectors, field) -> int:
    """Rank of vectors, each the concatenation of a list of term maps (one
    slot per map, one column per slot and word), by ``linalg.rank``.  A
    map sends words to coefficients in the field, or over GF(2) to the
    integers 1 and -1, which its kernel reads mod 2.  Each slot keeps its
    own dict of words, and one running count numbers the columns in the
    order they first occur: one ``setdefault`` per term, whose default is
    the next column, and no (slot, word) key is built."""
    columns = defaultdict(dict)
    width = 0
    rows = []
    for maps in vectors:
        row = []
        for slot, terms in enumerate(maps):
            slot_columns = columns[slot]
            for word, coefficient in terms.items():
                if (column := slot_columns.setdefault(word, width)) == width:
                    width += 1
                row.append((column, coefficient))
        rows.append(row)
    return rank(rows, field)


def _corner_spot_check(model: MatrixModel, words: list, images: dict) -> dict | None:
    """phi carries the (1-qx)-corner onto the e22 corner: the corner frame
    maps to e22 exactly, the corner elements of words land with only the
    (2,2) entry populated, and the corner's dimension is preserved."""
    source = model.source
    frame_image = model.phi(source.one - source.word(_QX))
    expected = MatrixElement(model.target, (
        (model.target.zero, model.target.zero),
        (model.target.zero, model.target.one)))
    if frame_image != expected:
        return {"kind": "corner-frame", "image": str(frame_image)}
    corner = _corner_elements(model, words, images)
    for terms, (e11, e12, e21, _) in corner:
        if e11 or e12 or e21:
            return {"kind": "corner-escape", "element": str(AlgebraElement(source, terms))}
    source_rank = _rank([[terms] for terms, _ in corner], source.field)
    image_rank = _rank([[maps[3]] for _, maps in corner], model.target.field)
    if source_rank != image_rank:
        return {"kind": "corner-dimension", "source_rank": source_rank,
                "image_rank": image_rank}
    for generator_image in (model.x_image, model.q_image):
        if not model.membership(generator_image).in_t:
            return {"kind": "generator-membership"}
    return None


def _corner_elements(model: MatrixModel, words: list, images: dict) -> list:
    """The nonzero corner elements (1 - qx) w (1 - qx) = w - qx w - w qx
    + qx w qx of basis words w, as term maps, each with its image's entry
    maps.  Each product of two basis words is one word or 0 (every rule
    is monomial), read from concat_reduce; the images are summed by
    ``MatrixModel._image_sum`` from images, which maps words to their
    image_terms and gains the words it lacks."""
    system, field = model.source.system, model.source.field
    one, minus_one = field.one, field.neg(field.one)
    corner = []
    for w in words:
        left = concat_reduce(_QX, w, system).result
        both = None if left is None else concat_reduce(left, _QX, system).result
        terms = {}
        for word, c in ((w, one), (left, minus_one),
                        (concat_reduce(w, _QX, system).result, minus_one), (both, one)):
            if word is not None:
                _accumulate(terms, word, c, field)
                if word not in images:
                    images[word] = model.image_terms(word)
        if terms:
            corner.append((terms, model._image_sum(terms, images.__getitem__)))
    return corner


def pi_eval(element: AlgebraElement):
    """Evaluate an a,b element at a -> e21, b -> e12 in 2x2 scalar
    matrices (defined for the m = 2 relation a^2 = 0, which e21 satisfies),
    as a tuple of rows: the identity maps to the identity matrix and every
    other basis word by the closed form in the module docstring."""
    system = element.algebra.system
    if system.letters != "ab" or system.nilpotency_degree != 2:
        raise ValueError("pi is defined on the a,b algebra with a^2 = 0")
    field = element.algebra.field
    total = [[field.zero, field.zero], [field.zero, field.zero]]
    for word, coefficient in element.terms().items():
        if not word:
            cells = ((0, 0), (1, 1))
        elif "bb" in word:
            continue
        else:
            cells = ((word[0] == "a", word[-1] == "b"),)
        for i, j in cells:
            total[i][j] = field.add(total[i][j], coefficient)
    return tuple(map(tuple, total))


def _mat2_mul(a, b, field):
    return tuple(
        tuple(field.add(field.mul(a[i][0], b[0][j]), field.mul(a[i][1], b[1][j]))
              for j in (0, 1))
        for i in (0, 1))


def det2(matrix, field):
    return field.sub(field.mul(matrix[0][0], matrix[1][1]),
                     field.mul(matrix[0][1], matrix[1][0]))


def check_determinant_obstruction(seed: int = 0) -> VerificationReport:
    """1 - ba evaluates to the singular matrix [[0,0],[0,1]], so no
    C (1-ba) D can be the identity; confirmed exactly by the determinant
    and by 1000 seeded random sandwiches over GF(2)."""
    started = time.perf_counter()
    random_trials = 1000
    parameters = {"random_trials": random_trials, "seed": seed, "field": "gf2"}
    witness = None
    examined = 0
    rational_algebra = Algebra(ab_system(2), QQ)
    one_minus_ba = (rational_algebra.one
                    - rational_algebra.gen("b") * rational_algebra.gen("a"))
    image = pi_eval(one_minus_ba)
    examined += 2
    if image != ((QQ.zero, QQ.zero), (QQ.zero, QQ.one)):
        witness = {"kind": "image", "value": [[str(v) for v in row] for row in image]}
    elif det2(image, QQ) != QQ.zero:
        witness = {"kind": "determinant"}
    if witness is None:
        field = GF2
        algebra = Algebra(ab_system(2), field)
        target = pi_eval(algebra.one - algebra.gen("b") * algebra.gen("a"))
        identity = ((field.one, field.zero), (field.zero, field.one))
        rng = random.Random(seed)
        for _ in range(random_trials):
            examined += 1
            c = tuple(tuple(rng.randrange(2) for _ in (0, 1)) for _ in (0, 1))
            d = tuple(tuple(rng.randrange(2) for _ in (0, 1)) for _ in (0, 1))
            sandwich = _mat2_mul(_mat2_mul(c, target, field), d, field)
            if sandwich == identity:
                witness = {"kind": "sandwich", "c": [list(r) for r in c],
                           "d": [list(r) for r in d]}
                break
    return finish_report("determinant", parameters, witness, examined, started)


def n2_variant_check(field=QQ) -> VerificationReport:
    """The degenerate n = 2 picture.

    The standard matrix map acquires a kernel: e = 1 - qx - xq + xq^2 x is
    a central idempotent of the n = 2 algebra (centrality is checked
    against both generators, which generate) and phi(e) = 0.  The repaired
    codomain M2(F[b]) x F sends u to (phi(u), constant term of u), where
    MatrixModel(2) maps q -> [[b, 1], [0, 0]] and x -> [[0, 0], [1, 0]]
    over F[b] (a^1 = 0 kills a).  The F factor is the constant term
    because it is the augmentation x, q -> 0, which satisfies the relations
    trivially and on a normal form reads off the coefficient of the
    identity word.  The pair model sends e to (0, 1), the complement of
    the image of 1 - e.
    """
    started = time.perf_counter()
    model = MatrixModel(2, field)
    source, target = model.source, model.target
    x = source.gen("x")
    q = source.gen("q")
    e = source.one - q * x - x * q + x * q * q * x
    x_image, q_image = model.x_image, model.q_image

    def pair(element: AlgebraElement):
        return model.phi(element), element.coeff(IDENTITY_WORD)

    checks = [
        ("e is idempotent", e * e == e),
        ("e commutes with x", e * x == x * e),
        ("e commutes with q", e * q == q * e),
        ("xqx = x in the pair model", x_image * q_image * x_image == x_image),
        ("qxq = q in the pair model", q_image * x_image * q_image == q_image),
        ("x^2 = 0 in the pair model", (x_image * x_image).is_zero),
        ("e maps to (0, 1)", pair(e) == (MatrixElement.zero(target), field.one)),
        ("1 - e maps to (identity, 0)",
         pair(source.one - e) == (MatrixElement.identity(target), field.zero)),
        ("standard model kills e", model.phi(e).is_zero),
    ]
    return checklist_report("n2-variant", {"n": 2, "field": field.name},
                            checks, "check", started)
