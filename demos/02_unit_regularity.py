"""Why no inner inverse of x can be invertible: the expansion analysis.

A candidate unit alpha and its inverse beta are written over the corner
frames 1 - xq and 1 - qx with supports drawn from shape words.  The unit
equation forces the expansion of alpha * beta to collect to 1 - xq, but
the largest C-word of the expansion survives collection: it only fits
three rigid forms, at most one occurrence is of the cancelling kind, and
a lone occurrence cannot vanish.  The seeded search at the end confirms
the obstruction exhaustively over GF(2).
"""

import argparse

from nilregular.analysis import (
    build_c_set, classify_tau_occurrences, closing_argument_margin, find_tau,
    left_shape_words, right_shape_words, search_unit_regular_witness,
    tau_form_of)
from nilregular.fields import GF2
from nilregular.rewriting import parse_word, xq_system

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--max-word-len", type=int, default=3)
parser.add_argument("--workers", type=int, default=1)
args = parser.parse_args()

system = xq_system(3)

print("== shape-word pools ==")
print("left  (begin and end in q):",
      ", ".join(str(w) for w in left_shape_words(3, system)))
print("right (begin and end in x):",
      ", ".join(str(y) for y in right_shape_words(3, system)))

print()
print("== the C-set of one family ==")
lefts, rights = ["q", "q^2 x^2 q"], ["x", "x q^3 x"]
c_set = build_c_set(lefts, rights, system)
print(f"families L = {lefts}, R = {rights}: {len(c_set)} occurrences")
for occurrence in c_set.occurrences:
    print(f"  ({occurrence.left}, {occurrence.right}) {occurrence.kind:8s}"
          f" {'+' if occurrence.sign > 0 else '-'}{occurrence.word}")

tau = find_tau(c_set)
form = tau_form_of(tau)
print(f"largest word: {tau}   (q-exponents {form.q_exponents},"
      f" tail x^{form.tail_exponent})")

print()
print("== classifying every occurrence of the largest word ==")
classification = classify_tau_occurrences(c_set)
for occurrence in classification.occurrences:
    print(" ", occurrence.describe())
reduced = classification.reduced_occurrences
print(f"occurrences of the cancelling kinds (form 2 or 3): {len(reduced)}")

print()
print("== the closing step for a plain form-1 occurrence ==")
w = parse_word("q")
tau1 = find_tau(build_c_set(["q"], ["x^2"], system))
print(f"pair (q, x^2) gives {tau1}; its type II companion is larger:",
      closing_argument_margin(w, tau1, system))

print()
print("== exhaustive search over GF(2) ==")
report = search_unit_regular_witness(max_word_len=args.max_word_len,
                                     field=GF2, workers=args.workers)
print(report.summary())
print("candidates:", report.parameters["analytic_candidate_count"],
      "| pool exhaustive:", report.parameters["pool_exhaustive"])
