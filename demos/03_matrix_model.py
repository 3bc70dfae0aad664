"""The 2x2 matrix realization, its membership certificates, and the two
obstructions that live on the free-algebra side.
"""

from nilregular.elements import Algebra
from nilregular.fields import QQ
from nilregular.matrixrep import (
    MatrixElement, MatrixModel, check_determinant_obstruction, det2,
    n2_variant_check, pi_eval, verify_phi_faithful)
from nilregular.rewriting import ab_system, xq_system

model = MatrixModel(3, QQ)

print("== generator images ==")
print("x ->", model.x_image)
print("q ->", model.q_image)
X, Q = model.x_image, model.q_image
print("XQX == X:", X * Q * X == X, "| QXQ == Q:", Q * X * Q == Q,
      "| X^3 == 0:", (X ** 3).is_zero)

print()
print("== some images and their membership certificates ==")
for text in ("q x^2", "q^2 x", "x q", "1 - q x"):
    element = model.source.parse(text)
    image = model.phi(element)
    cert = model.membership(image)
    print(f"phi({text}) = {image}")
    print(f"   in image subalgebra: {cert.in_t}"
          f" | (1,2) factor: {cert.top_right_factor}"
          f" | (2,2) = {cert.constant_part} + ({cert.bottom_right_factor})(1 - ba)")

zero, one = model.target.zero, model.target.one
outside = MatrixElement(model.target, ((zero, one), (zero, zero)))
cert = model.membership(outside, degree_bound=6)
print(f"{outside}: in image subalgebra: {cert.in_t}"
      f" (failed entries {cert.failed_entries})")

print()
print("== faithfulness evidence ==")
print(verify_phi_faithful(max_len=6).summary())

print()
print("== determinant obstruction ==")
free = Algebra(ab_system(2), QQ)
image = pi_eval(free.parse("1 - b a"))
print("pi(1 - ba) =", [[str(v) for v in row] for row in image],
      "det =", det2(image, QQ))
print(check_determinant_obstruction().summary())

print()
print("== the degenerate two-nilpotent case ==")
two = Algebra(xq_system(2), QQ)
x, q = two.gen("x"), two.gen("q")
e = two.one - q * x - x * q + x * q * q * x
print("e = 1 - qx - xq + xq^2x | e^2 == e:", e * e == e,
      "| ex == xe:", e * x == x * e, "| eq == qe:", e * q == q * e)
print("standard model sends e to:", MatrixModel(2, QQ).phi(e))
print(n2_variant_check().summary())
