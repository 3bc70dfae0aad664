"""Normal forms under the shortening rules, and why they are unique.

Every rule (x^3 -> 0, xqx -> x, qxq -> q) strictly shortens a word, so
reduction always terminates; the diamond check below is what guarantees
the endpoint does not depend on the order rules are applied in.
"""

import random

from nilregular.rewriting import (
    canonical_words, check_confluence, critical_pairs, enumerate_basis,
    parse_word, reduce, xq_system)

system = xq_system(3)

print("== one reduction, step by step irrelevant ==")
word = parse_word("q^2 x q x q^3 x^2 q")
outcome = reduce(word, system)
print(f"{word}  ->  {outcome.result}   ({outcome.steps} steps, leftmost)")

rng = random.Random(2024)
for trial in range(3):
    randomized = reduce(word, system, rng=rng)
    print(f"random strategy {trial}: {randomized.result}")

print()
print("== critical pairs ==")
for pair in critical_pairs(system):
    status = "resolves" if pair.resolves else "DIVERGES"
    print(f"overlap {pair.overlap}: {status}")

report = check_confluence(system, max_len=8)
print(report.summary())

print()
print("== the basis ==")
print("basis words: no rule's left-hand side occurs, so x-blocks stay")
print("below 3 and every interior block has exponent 2 or more")
for bound in range(4):
    words = enumerate_basis(bound, system)
    print(f"length <= {bound}: {len(words):3d} words: "
          + ", ".join(str(w) for w in words))
total = len(enumerate_basis(8, system))
candidates = len(canonical_words(8, system))
print(f"length <= 8: {total} basis words out of {candidates} words")
