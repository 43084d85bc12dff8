"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 8 compares the 3-strand toric braid arrangement with
the rank-2 type-A Weyl arrangement, its essential version: the layer sizes of
the two intersection posets agree, and the braid complement carries one extra
central torus factor, so Poin(braid(3)) = (1 + t) * Poin(weyl(A, 2)).  Both
sides are also pinned to closed forms that do not come from the program:
(1+t)(1+2t)(1+3t) for the braid arrangement (Fadell-Neuwirth) and
(1+2t)(1+3t) for A2.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from toricarr.arrangement import braid, weyl
from toricarr.cli import main as cli_main
from toricarr.cohomology import dcp_poincare, dr_condition_check, dr_poincare, find_dr_ordering
from toricarr.forms import degree2_relations, verify_relation, wedge_monomials
from toricarr.hyperplane import CentralArrangement, delete, nbc_dimensions, restriction, whitney_poincare
from toricarr.lattice import IntMatrix
from toricarr.polynomial import Polynomial
from toricarr.poset import build_poset, intersect_system

from oracles import (
    FOUR_LINES_RELATIONS,
    FOUR_LINES_TEXT,
    TWO_CURVES_TEXT,
    coeff_vector,
    four_lines,
    grid_component_count,
    poly_add,
    poly_shift,
    random_central_rows,
    random_unimodular_arrangement,
    two_curves,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_poincare_both_methods(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "four_lines.txt"
    path.write_text(FOUR_LINES_TEXT)
    outputs = {}
    for method in ("dcp", "dr"):
        code = cli_main(["poincare", f"--method={method}", str(path)])
        out = capsys.readouterr().out
        outputs[method] = (code, out)
    elapsed = time.monotonic() - start
    ok = all(code == 0 and "poincare: 1 6 9\n" in out
             for code, out in outputs.values()) and elapsed < 1.0
    with capsys.disabled():
        report(1, "poincare-both-methods-1-6-9", ok, f"{elapsed:.2f}s")


def test_criterion_2_two_point_intersection(capsys):
    start = time.monotonic()
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    comps = intersect_system(a, (Fraction(0), Fraction(0)))
    witnesses = {c.witness for c in comps}
    elapsed = time.monotonic() - start
    ok = (len(comps) == 2
          and witnesses == {(Fraction(0), Fraction(0)),
                            (Fraction(1, 2), Fraction(1, 2))}
          and elapsed < 1.0)
    with capsys.disabled():
        report(2, "disconnected-pair-two-points", ok,
               f"witnesses exp(2*pi*i*u) = (1,1) and (-1,-1), {elapsed:.2f}s")


def test_criterion_3_non_dr_rejection(tmp_path, capsys):
    start = time.monotonic()
    arr = two_curves()
    every_ordering_fails = all(
        not dr_condition_check(arr, ordering).verdict
        for ordering in permutations(range(arr.n)))
    search_fails = find_dr_ordering(arr).ordering is None
    path = tmp_path / "two_curves.txt"
    path.write_text(TWO_CURVES_TEXT)
    code = cli_main(["poincare", "--method=dr", str(path)])
    capsys.readouterr()
    elapsed = time.monotonic() - start
    ok = every_ordering_fails and search_fails and code == 2 and elapsed < 1.0
    with capsys.disabled():
        report(3, "non-dr-arrangement-refused", ok,
               f"exit code {code}, {elapsed:.2f}s")


def test_criterion_4_unimodular_suite(capsys):
    start = time.monotonic()
    rng = random.Random(20240)
    failures = []
    for k in range(200):
        arr = random_unimodular_arrangement(rng, max_l=3, max_n=6)
        rep = find_dr_ordering(arr)
        if rep.ordering is None:
            failures.append((k, "no ordering"))
            continue
        if dr_poincare(arr, rep.ordering) != dcp_poincare(arr):
            failures.append((k, "methods disagree"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    with capsys.disabled():
        report(4, "unimodular-implies-dr-200", ok,
               f"200 instances, {elapsed:.1f}s" + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_5_hyperplane_cross_validation(capsys):
    start = time.monotonic()
    rng = random.Random(515)
    checked = 0
    failures = []
    while checked < 100:
        l = rng.randint(1, 4)
        rows = random_central_rows(rng, l, rng.randint(1, 6))
        if not rows:
            continue
        arr = CentralArrangement(l, IntMatrix.from_rows(rows, cols=l))
        checked += 1
        poin = whitney_poincare(arr)
        if nbc_dimensions(arr) != poin.coefficients:
            failures.append((checked, "nbc mismatch"))
        k = rng.randrange(arr.n)
        if poin != poly_add(whitney_poincare(delete(arr, k)),
                            poly_shift(whitney_poincare(restriction(arr, k)), 1)):
            failures.append((checked, "deletion-restriction identity"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    with capsys.disabled():
        report(5, "hyperplane-nbc-whitney-dr-100", ok,
               f"100 instances, {elapsed:.1f}s" + (f"; failures: {failures[:3]}" if failures else ""))


def _grid_budget_ok(a, q, limit=400_000):
    from toricarr.lattice import snf as _snf
    m = q
    for d in _snf(a).divisors():
        m *= d
    return m ** a.cols <= limit


def test_criterion_6_component_count_oracle(capsys):
    start = time.monotonic()
    failures = []
    checked = 0
    # exhaustive sweep over a small sub-box
    fractions_pool = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    from itertools import product as iproduct
    for l in (1, 2):
        rows_pool = [v for v in iproduct((-1, 0, 1), repeat=l)]
        for n in (1, 2):
            for rows in iproduct(rows_pool, repeat=n):
                a = IntMatrix.from_rows(rows, cols=l)
                for b in iproduct(fractions_pool[:3], repeat=n):
                    checked += 1
                    if len(intersect_system(a, b)) != grid_component_count(a, b):
                        failures.append((rows, b))
    # seeded random sample across the full stated bounds
    rng = random.Random(606)
    sampled = 0
    while sampled < 250:
        l = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(l)] for _ in range(n)], cols=l)
        den = rng.choice((1, 2, 3))
        b = tuple(Fraction(rng.randint(0, den - 1), den) for _ in range(n))
        q = 1
        for x in b:
            q = max(q, x.denominator)
        if not _grid_budget_ok(a, q):
            continue
        sampled += 1
        if len(intersect_system(a, b)) != grid_component_count(a, b):
            failures.append((a.entries, b))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    with capsys.disabled():
        report(6, "component-count-vs-torsion-grid", ok,
               f"{checked} exhaustive + {sampled} sampled systems, {elapsed:.1f}s"
               + (f"; failures: {failures[:2]}" if failures else ""))


def test_criterion_7_degree2_relations(capsys):
    start = time.monotonic()
    arr = four_lines()
    basis = degree2_relations(arr, tol=1e-8, seed=0)
    monos = wedge_monomials(arr.dim, arr.n)
    relations_pass = all(verify_relation(arr, coeff_vector(arr, terms), seed=0)
                         for terms in FOUR_LINES_RELATIONS)
    h2 = dcp_poincare(arr).coefficient(2)
    elapsed = time.monotonic() - start
    ok = (basis.nullity == 6 and basis.gap > 1e3 and relations_pass
          and len(monos) - 6 == 9 == h2 and elapsed < 5.0)
    with capsys.disabled():
        report(7, "six-relations-nine-2-forms", ok,
               f"nullity {basis.nullity}, gap {basis.gap:.1e}, {elapsed:.2f}s")


def test_criterion_8_weyl_braid_sanity(capsys):
    start = time.monotonic()
    b3 = braid(3)
    a2 = weyl("A", 2)
    layers_b = sorted(build_poset(b3).layer_sizes())
    layers_a = sorted(build_poset(a2).layer_sizes())
    poly_b = dcp_poincare(b3)
    poly_a = dcp_poincare(a2)
    elapsed = time.monotonic() - start
    # configuration space of 3 points in C*, and its quotient by the central C*
    closed_b = Polynomial((1, 1)) * Polynomial((1, 2)) * Polynomial((1, 3))
    closed_a = Polynomial((1, 2)) * Polynomial((1, 3))
    layers_ok = layers_b == layers_a
    central_ok = poly_b == Polynomial((1, 1)) * poly_a
    closed_ok = poly_b == closed_b and poly_a == closed_a
    ok = layers_ok and central_ok and closed_ok and elapsed < 5.0
    detail = (f"layer sizes {'agree' if layers_ok else 'differ'}; "
              f"dcp braid3 {list(poly_b.coefficients)} "
              f"{'=' if central_ok else '!='} (1+t) * A2 {list(poly_a.coefficients)}; "
              f"closed forms {'match' if closed_ok else 'differ'}; {elapsed:.2f}s")
    with capsys.disabled():
        report(8, "weyl-a2-vs-braid3", ok, detail)
