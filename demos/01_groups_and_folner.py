"""
Groups, window families, and almost-invariance
==============================================

Every object in this package lives over a finitely generated group whose
elements are enumerated by nonnegative integers.  This walk-through builds
the three built-in groups, grows window families on them, and measures how
close those windows come to translation invariance.
"""

from fractions import Fraction

from amenlab.folner import (
    builtin_families,
    defect_report,
    description_bits,
    modest_search,
    temperedness_constant,
)
from amenlab.groups import get_group, is_connected_with_identity

# -- group arithmetic through the integer encoding ---------------------------

z2 = get_group("z2")
a = z2.encode((3, -1))
b = z2.encode((-1, 4))
print("element indices:", a, b)
print("product:", z2.decode(z2.multiply(a, b)))
print("inverse:", z2.decode(z2.inverse(a)))
print("canonical forms:", *z2.format_elements([a, b]))

h3 = get_group("h3")
x = h3.encode((1, 0, 0))
y = h3.encode((0, 1, 0))
# the commutator [x,y] lands on the central generator
comm = h3.multiply(h3.multiply(x, y), h3.inverse(h3.multiply(y, x)))
print("h3 commutator [x,y]:", h3.decode(comm))

# -- window families and their translation defects ---------------------------

print()
for gid in ("z", "z2", "h3"):
    group = get_group(gid)
    boxes = builtin_families(group)["boxes"]
    for n in (2, 8, 16):
        rep = defect_report(boxes, n)
        print(f"{gid} box n={n:>2}  |F|={rep.size:>5}  max defect = {rep.max_defect}")

# On abelian boxes the defect is exactly 1/n per generator; the Heisenberg
# boxes need the third side to grow quadratically to keep up.

# -- temperedness: how much past windows can smear the current one ------------

print()
z = get_group("z")
dyadic = builtin_families(z)["dyadic"]
for i in (4, 8, 12):
    k = temperedness_constant(dyadic, i)
    print(f"dyadic prefix up to {i}: temperedness constant {k} = {float(k):.4f}")

# -- windows should also be cheap to describe ---------------------------------

print()
boxes2 = builtin_families(z2)["boxes"]
for n in (8, 32, 64):
    F = boxes2.subset(n)
    bits = description_bits(z2, F)
    print(f"z2 box n={n:>2}: {bits} description bits for {len(F)} sites "
          f"({bits / len(F):.4f} per site)")

print()
print("connected-with-identity check on box members:",
      all(is_connected_with_identity(z2, boxes2.subset(n)) for n in range(1, 9)))

# A small search finds the least window that is (i+1)-fold almost invariant
# in the exact counting sense.
F = modest_search(z, 4)
print("smallest 5-fold almost invariant set on the line:",
      sorted(z.decode(g)[0] for g in F))
