"""Recover the degree-2 relations among logarithmic 1-forms numerically.

For a deletion-restriction-type arrangement the cohomology of the complement
is generated by the 1-forms dlog z_i (xi) and dlog(chi_j - c_j) (psi), and
every relation among them holds already at the level of differential forms.
So we evaluate all wedge products psi_a ^ psi_b at random sample points and
read the relation space off a singular value decomposition.
"""

import numpy as np

from toricarr import dcp_poincare, degree2_relations, parse, verify_relation
from toricarr.forms import generators, wedge_monomials

FOUR_LINES = ("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
              "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")
arr = parse(FOUR_LINES)

gens = generators(arr)
monos = wedge_monomials(arr.dim, arr.n)
print("generators:", " ".join(g.name() for g in gens))
print("wedge monomials:", len(monos))

basis = degree2_relations(arr, tol=1e-8, seed=0)
print("relation space dimension:", basis.nullity)
print("expected: #monomials - dim H^2 =", len(monos), "-",
      dcp_poincare(arr).coefficient(2), "=",
      len(monos) - dcp_poincare(arr).coefficient(2))

# The first discarded singular value is at noise level, so the printed gap's
# digits can change with the order of floating-point work (the QR fold's
# block size, the BLAS build); the relation count above does not.
print("singular value gap (last kept / first discarded): {:.2e}".format(basis.gap))
print()


def vec(terms):
    out = np.zeros(len(monos), dtype=complex)
    for pair, c in terms.items():
        out[monos.index(pair)] = c
    return out


named = [
    ("xi1^psi1", {(0, 2): 1}),
    ("xi2^psi2", {(1, 3): 1}),
    ("(xi1+xi2)^psi3", {(0, 4): 1, (1, 4): 1}),
    ("(xi1-xi2)^psi4", {(0, 5): 1, (1, 5): -1}),
    ("psi1^psi2 - psi1^psi3 + psi2^psi3 - xi2^psi3",
     {(2, 3): 1, (2, 4): -1, (3, 4): 1, (1, 4): -1}),
    ("psi1^psi4 - psi1^psi3 + psi2^psi3 - xi2^psi3 - psi2^psi4 - xi2^psi1",
     {(2, 5): 1, (2, 4): -1, (3, 4): 1, (1, 4): -1, (3, 5): -1, (1, 2): -1}),
]

print("checking the six classical relations of this complement:")
for name, terms in named:
    ok = verify_relation(arr, vec(terms), seed=0)
    print(f"  {'vanishes' if ok else 'DOES NOT VANISH'}:  {name}")

print()
print("a monomial that is not a relation, for contrast:")
print("  psi1^psi2 alone vanishes?", verify_relation(arr, vec({(2, 3): 1}), seed=0))

print()
print("When no deletion-restriction ordering exists the 1-forms may span")
print("strictly less than H^2.  For {z1 = 1, z1 z2^3 = 1}:")
bad = parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n")
bad_basis = degree2_relations(bad, tol=1e-8, seed=0)
bad_monos = wedge_monomials(bad.dim, bad.n)
print("  wedge monomials:", len(bad_monos),
      " relations:", bad_basis.nullity,
      " -> forms span", len(bad_monos) - bad_basis.nullity,
      "while dim H^2 =", dcp_poincare(bad).coefficient(2))
