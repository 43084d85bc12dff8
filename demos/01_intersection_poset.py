"""Walk through the intersection poset of a small toric arrangement.

The running example is the arrangement

    { z1 = 1,  z2 = 1,  z1 z2 = 1,  z1 / z2 = 1 }   in (C*)^2.

It is the smallest interesting non-unimodular arrangement: the last two
hypersurfaces meet in the two points (1, 1) and (-1, -1).
"""

from fractions import Fraction

from toricarr import build_poset, intersect_system, is_unimodular, parse
from toricarr.lattice import IntMatrix

TEXT = """\
torus 2
hyp 1 0 @ 0/1
hyp 0 1 @ 0/1
hyp 1 1 @ 0/1
hyp 1 -1 @ 0/1
"""

arr = parse(TEXT)
print("arrangement with", arr.n, "hypersurfaces in a torus of dimension", arr.dim)
print()

print("Is every subset intersection connected (unimodular)?", is_unimodular(arr))
print("Indeed, the last two characters alone cut out two points:")
pair = IntMatrix.from_rows([[1, 1], [1, -1]])
for comp in intersect_system(pair, (Fraction(0), Fraction(0))):
    point = tuple(f"exp(2*pi*i*{u})" for u in comp.witness)
    print("   component of dimension", comp.dim, "through", point)
print()

poset = build_poset(arr)
print("the intersection poset has", len(poset.components), "components;")
print("layer sizes by codimension:", poset.layer_sizes())
print()
for k, comp in enumerate(poset.components, start=1):
    print(f"  [{k}] codim {comp.codim}  characters {comp.sat_basis.entries}"
          f"  values {tuple(str(v) for v in comp.values)}")
print()
print("covering relations (sub < super):")
for i, j in poset.covers:
    print(f"  {i + 1} < {j + 1}")
print()
print("The point (1,1) lies on all four curves; (-1,-1) only on the last two.")
