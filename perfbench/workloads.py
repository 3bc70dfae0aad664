"""The benchmark's workloads: seeded inputs, the one timed call, and its oracle.

A workload turns a seed into an endless stream of rounds.  A round is a
fixed list of slots, each slot a size class; the seed fills in what the
slot holds (words, coefficients, per-op seeds, order).  Runs stop only at
the end of a round, so every run has the same mix of sizes, and the slots
are sized so that the median and the 90th-percentile op fall inside one
class rather than on the edge between two.  That keeps both percentiles
steady from seed to seed.

Inputs are plain data.  ``prepare`` turns one into a zero-argument call
into nilregular's public API (the op, which alone is timed) plus what the
oracle needs; ``check`` compares the answer with a result known by
construction and returns ``(ok, work, digest)``.  ``digest`` names the
answer without timing fields, so a traced and an untraced run of the same
ops can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import reference as ref

COEFFICIENTS = ("1", "-1", "2", "-2", "1/2", "3")


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


class Workload:
    name = ""
    unit = ""          # what work_per_s counts
    slots: tuple = ()
    trace_rounds = 1   # rounds in a traced run, fixed so counts compare

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield [self.make(slot, rng) for slot in self.slots]

    def make(self, slot, rng: random.Random) -> dict:
        raise NotImplementedError

    def prepare(self, op: dict, nr, ctx: dict):
        raise NotImplementedError

    def check(self, op: dict, answer, state) -> tuple[bool, int, str]:
        raise NotImplementedError


class TauSweep(Workload):
    """The forms and uniqueness sweeps, alternately, on seeded families."""

    name = "tau_sweep"
    unit = "families"
    EXHAUSTIVE_LEN = 1
    TRIALS = 100
    slots = (("forms", 6), ("unique", 7), ("forms", 8),
             ("unique", 6), ("forms", 7), ("unique", 8))
    trace_rounds = 24

    def make(self, slot, rng):
        check, random_len = slot
        return {"kind": check, "random_len": random_len,
                "exhaustive_len": self.EXHAUSTIVE_LEN,
                "random_trials": self.TRIALS, "seed": rng.randrange(2**31)}

    def prepare(self, op, nr, ctx):
        sweep = (nr.check_tau_forms_families if op["kind"] == "forms"
                 else nr.check_tau_uniqueness_families)
        return (lambda: sweep(exhaustive_len=op["exhaustive_len"],
                              random_len=op["random_len"],
                              random_trials=op["random_trials"],
                              seed=op["seed"])), None

    def check(self, op, report, state):
        families = ref.tau_family_count(op["exhaustive_len"], op["random_trials"])
        ok = report.status == "pass" and report.candidates_examined == families
        return ok, families, _digest([report.status, report.candidates_examined])


class UnitSearch(Workload):
    """Exhaustive GF(p) searches for alpha * beta = 1 - xq."""

    name = "unit_search"
    unit = "candidates"
    # (p, max_word_len, n); the n = 4 GF(2) search is listed twice so the
    # median op sits in the middle of its class.  GF(5) runs at L = 1: at
    # L = 2 one op takes 0.45 s and 100 ops would no longer fit in a run.
    slots = ((5, 1, 3), (2, 4, 3), (3, 3, 3), (2, 4, 4), (2, 4, 4),
             (2, 4, 5), (3, 3, 4))
    trace_rounds = 10

    def rounds(self, seed):
        rng = _rng(self.name, seed)
        while True:
            menu = [dict(zip(("p", "max_word_len", "n"), slot)) for slot in self.slots]
            rng.shuffle(menu)
            yield menu

    def prepare(self, op, nr, ctx):
        field = ctx["fields"][op["p"]]
        return (lambda: nr.search_unit_regular_witness(
            max_word_len=op["max_word_len"], field=field, n=op["n"], workers=1)), None

    def check(self, op, report, state):
        lefts = ref.left_shape(op["max_word_len"], op["n"])
        rights = ref.right_shape(op["max_word_len"], op["n"])
        total = ref.unit_search_count(op["p"], op["max_word_len"], op["n"])
        ok = (report.status == "exhausted" and report.witness is None
              and report.candidates_examined == total
              and len(report.parameters["left_words"]) == len(lefts)
              and len(report.parameters["right_words"]) == len(rights))
        return ok, total, _digest([report.status, report.candidates_examined])


def _fraction_terms(terms: dict) -> dict:
    return {word: Fraction(c) for word, c in terms.items()}


def _entry_terms(element) -> dict:
    """A library element of R as ``{letters: Fraction}``."""
    return {"".join(word.letters()): c for word, c in element.terms().items()}


def _random_r_element(rng, degree: int) -> dict:
    """One R word of exactly this length, maybe one shorter word beside it."""
    words = ref.r_basis(degree)
    top = [w for w in words if len(w) == degree]
    chosen = {rng.choice(top)}
    if degree > 0 and rng.random() < 0.5:
        chosen.add(rng.choice([w for w in words if len(w) < degree]))
    return {w: Fraction(rng.choice(COEFFICIENTS)) for w in chosen}


class MatrixMembership(Workload):
    """Membership in the image of the 2x2 model over R = Q<a, b>/(a^2), plus
    faithfulness sweeps.

    A member is phi(e) for a seeded element e of S, chosen so that the
    (1,2) and (2,2) entries have degrees d and d - 1; the solve's cost is
    set by those degrees.  A non-member plants s(1 - ba) + m in one corner,
    m a word of top degree not ending in ba: every nonzero element of
    R(1 - ba) has only words ending in ba at its top degree, so the planted
    entry cannot lie in the ideal.
    """

    name = "matrix_membership"
    unit = "matrices"
    slots = (("member", 4), ("nonmember", 4), ("faithful", 6),
             ("member", 5), ("nonmember", 5), ("faithful", 7),
             ("faithful", 8), ("member", 6), ("nonmember", 6))
    trace_rounds = 10
    MEMBER_WORD_LEN = 8

    def __init__(self):
        self._images = {w: ref.phi_word(w) for w in ref.s_basis(self.MEMBER_WORD_LEN)}

    def make(self, slot, rng):
        kind, size = slot
        if kind == "member":
            return self._member(rng, size)
        if kind == "nonmember":
            return self._nonmember(rng, size, rng.choice(("(1,2)", "(2,2)")))
        return {"kind": "faithful", "max_len": size}

    def _member(self, rng, d):
        def fits(word):
            image = self._images[word]
            return all(ref.degree(image[i][1]) is None or ref.degree(image[i][1]) <= d - i
                       for i in (0, 1))
        pool = sorted(w for w in self._images if fits(w))
        while True:
            words = rng.sample(pool, rng.randint(1, 3))
            terms = {w: rng.choice(COEFFICIENTS) for w in words}
            image = ref.phi(_fraction_terms(terms))
            if (ref.degree(image[0][1]), ref.degree(image[1][1])) == (d, d - 1):
                return {"kind": "member", "terms": terms, "degrees": [d, d - 1]}

    def _nonmember(self, rng, d, planted):
        top = ref.pmul(_random_r_element(rng, d - 2), ref.ONE_MINUS_BA)
        corner = ref.padd(ref.pmul(_random_r_element(rng, d - 3), ref.ONE_MINUS_BA),
                          {"": Fraction(rng.choice(COEFFICIENTS))})
        m_len = d if planted == "(1,2)" else d - 1
        m = rng.choice([w for w in ref.r_basis(m_len)
                        if len(w) == m_len and not w.endswith("ba")])
        m_term = {m: Fraction(rng.choice(COEFFICIENTS))}
        if planted == "(1,2)":
            top = ref.padd(top, m_term)
        else:
            corner = ref.padd(corner, m_term)
        rows = [[_random_r_element(rng, rng.randint(0, 3)), top],
                [_random_r_element(rng, rng.randint(0, 3)), corner]]
        return {"kind": "nonmember", "planted": planted, "degree": d,
                "rows": [[{w: str(c) for w, c in e.items()} for e in row] for row in rows]}

    def prepare(self, op, nr, ctx):
        model = ctx["model"]
        if op["kind"] == "faithful":
            return (lambda: nr.verify_phi_faithful(max_len=op["max_len"], n=3)), None
        if op["kind"] == "member":
            element = model.source.from_terms(_fraction_terms(op["terms"]))
            matrix = model.phi(element)
        else:
            matrix = nr.MatrixElement(model.target, [
                [model.target.from_terms(_fraction_terms(e)) for e in row]
                for row in op["rows"]])
        return (lambda: model.membership(matrix)), matrix

    def check(self, op, answer, matrix):
        if op["kind"] == "faithful":
            words = len(ref.s_basis(op["max_len"]))
            ok = answer.status == "pass" and answer.candidates_examined == 2 * words + 1
            return ok, words, _digest([answer.status, answer.candidates_examined])
        digest = _digest([answer.in_t, answer.failed_entries,
                          _entry_terms(answer.top_right_factor) if answer.in_t else None,
                          _entry_terms(answer.bottom_right_factor) if answer.in_t else None,
                          answer.constant_part])
        entries = [[_entry_terms(matrix.entry(i, j)) for j in (0, 1)] for i in (0, 1)]
        if op["kind"] == "nonmember":
            ok = (not answer.in_t and op["planted"] in answer.failed_entries
                  and len(answer.failed_entries) == 1)
            return ok, 1, digest
        expected = ref.phi(_fraction_terms(op["terms"]))
        ok = (answer.in_t and entries == [list(row) for row in expected]
              and ref.pmul(_entry_terms(answer.top_right_factor), ref.ONE_MINUS_BA)
              == entries[0][1]
              and ref.padd(ref.pmul(_entry_terms(answer.bottom_right_factor),
                                    ref.ONE_MINUS_BA),
                           {"": answer.constant_part} if answer.constant_part else {})
              == entries[1][1])
        return ok, 1, digest


class LongReduce(Workload):
    """``nilregular reduce --json`` on element literals of long grown words.

    Each term starts as a random basis word and grows by inverse rewrites
    (x -> x q x, q -> q x q) to its slot's length, so its normal form is the
    starting word.  Terms marked zero also get x^3 inserted in their last
    eighth and reduce to 0.
    """

    name = "long_reduce"
    unit = "letters"
    # term lengths per op on a geometric ladder; "z" marks a term that dies
    slots = ((32,), (48, "24z"), (64, 32), (96,), (128, 64, "32z"), (192, 48),
             (256,), (384, "96z"), (512, 128, 64), (1024,), (1024, "32z"))
    trace_rounds = 9

    def make(self, slot, rng):
        terms = []
        expected: dict[str, Fraction] = {}
        letters = 0
        for spec in slot:
            zero = isinstance(spec, str)
            length = int(str(spec).rstrip("z"))
            base = rng.choice([w for w in ref.s_basis(6) if w])
            word = list(base)
            while len(word) < length:
                i = rng.randrange(len(word))
                word[i:i + 1] = ["x", "q", "x"] if word[i] == "x" else ["q", "x", "q"]
            coefficient = rng.choice(COEFFICIENTS)
            if zero:
                i = rng.randrange(len(word) - len(word) // 8, len(word) + 1)
                word[i:i] = ["x", "x", "x"]
            else:
                expected[base] = expected.get(base, 0) + Fraction(coefficient)
            letters += len(word)
            terms.append((coefficient, ref.word_text("".join(word))))
        literal = " + ".join(f"{c} {w}" for c, w in terms).replace("+ -", "- ")
        return {"literal": literal, "letters": letters,
                "expected": {ref.word_text(w): str(c) for w, c in expected.items() if c}}

    def prepare(self, op, nr, ctx):
        cli = ctx["cli"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["reduce", "--json", op["literal"]])
            return code, out.getvalue()
        return call, None

    def check(self, op, answer, state):
        code, out = answer
        ok = code == 0 and json.loads(out)["terms"] == op["expected"]
        return ok, op["letters"], _digest(out)


WORKLOADS = {w.name: w for w in (TauSweep, UnitSearch, MatrixMembership, LongReduce)}
