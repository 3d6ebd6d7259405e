"""A tour of exact finite-field arithmetic.

Elements of GF(p^k) are plain Python integers 0 .. p^k - 1: the base-p
digits of the integer are the coordinates in the polynomial basis of the
canonical modulus.  That makes every field operation exact and every
ordering decision (witness tie-breaks, enumeration order) deterministic.
"""

import sys

from ffcn.gf import embed, make_field
from ffcn.polyring import element_str

F4 = make_field(2, 2)
print("GF(4) uses modulus coefficients", F4.modulus, "(t^2 + t + 1)")
print("elements:", [element_str(F4, a) for a in F4.elements()])

a = 2  # the class of t, written 'a'
print("\nmultiplication table row for a:")
for b in F4.elements():
    print(f"  a * {element_str(F4, b):>3} = {element_str(F4, F4.mul(a, b))}")

print("\na^3 =", element_str(F4, F4.pow(a, 3)), "(the multiplicative group has order 3)")
print("1/a =", element_str(F4, F4.inv(a)))

# Traces decide Artin-Schreier splitting: y^2 + y = c is solvable in the
# field exactly when the absolute trace of c vanishes.
F16 = make_field(2, 4)
zeros = [c for c in F16.elements() if F16.trace(c) == 0]
print("\nGF(16): trace-zero elements:", len(zeros), "of", F16.order)
c = zeros[1]
z = next(z for z in F16.elements() if F16.add(F16.mul(z, z), z) == c)
print(f"solve z^2 + z = {element_str(F16, c)}: z = {element_str(F16, z)}")
if F16.add(F16.mul(z, z), z) != c:
    sys.exit(f"z = {z} does not solve z^2 + z = c")

# Quadratic characters decide Kummer splitting in odd characteristic.
F9 = make_field(3, 2)
squares = sorted({F9.mul(x, x) for x in F9.elements() if x})
print("\nGF(9): the", len(squares), "nonzero squares are", squares)
print("character of 2:", F9.quadratic_character(2))

# Embeddings GF(4) -> GF(16) are ring homomorphisms picked canonically
# (the modulus root maps to its smallest root in the target).
img = embed(a, F4, F16)
print("\nGF(4) generator embeds into GF(16) as", element_str(F16, img))
if embed(F4.mul(a, a), F4, F16) != F16.mul(img, img):
    sys.exit("the embedding does not preserve a * a")
print("embedding preserves products: checked")
