"""Compute Poincare polynomials of toric complements by two methods.

Method 1 (dcp): sum over poset components W of |mu(T, W)| times
t^codim * (1+t)^dim, where mu is the Mobius function of the intersection
poset from the full torus T.  Always applies.

Method 2 (dr): peel off hypersurfaces one at a time; each step contributes
t times the Poincare polynomial of the complement restricted to the peeled
hypersurface.  Only justified when, at every step, the earlier hypersurfaces
cut at most i-1 components on the i-th one - the deletion-restriction
condition.  When no ordering satisfies it, the recursion refuses.
"""

from toricarr import (
    DrHypothesisError,
    braid,
    dcp_poincare,
    dr_poincare,
    find_dr_ordering,
    parse,
    weyl,
)

FOUR_LINES = ("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
              "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")
TWO_CURVES = "torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n"

examples = [
    ("four lines, non-unimodular but DR-type", parse(FOUR_LINES)),
    ("braid arrangement in (C*)^3", braid(3)),
    ("toric Weyl arrangement of type B2", weyl("B", 2)),
    ("two curves meeting in three points", parse(TWO_CURVES)),
]

for title, arr in examples:
    print(title)
    print("  dcp:", dcp_poincare(arr))
    report = find_dr_ordering(arr)
    if report.ordering is None:
        print("  dr : no ordering satisfies the deletion-restriction condition")
        try:
            dr_poincare(arr, tuple(range(arr.n)))
        except DrHypothesisError as exc:
            print("       refusal:", exc)
    else:
        shown = ",".join(str(i + 1) for i in report.ordering)
        print(f"  dr : {dr_poincare(arr, report.ordering)}   (ordering {shown},"
              f" step counts {report.step_counts})")
    print()

print("For every arrangement admitting an ordering the two methods agree;")
print("the two-curves example has no valid ordering, since a single curve")
print("already cuts three distinct components on the other.")
