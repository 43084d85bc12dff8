import random
from fractions import Fraction

import pytest

from toricarr.arrangement import ToricArrangement, braid, parse, weyl
from toricarr.lattice import IntMatrix
from toricarr.poset import (
    build_poset,
    component_contains,
    full_torus,
    intersect_system,
    is_unimodular,
)

from oracles import (
    grid_component_count,
    local_lattice_poincare,
    random_arrangement,
    random_unimodular_arrangement,
    subset_sweep_components,
)


def four_lines():
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
                 "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")


def two_curves():
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n")


# -- intersect_system -------------------------------------------------------------

def test_two_points():
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    comps = intersect_system(a, (Fraction(0), Fraction(0)))
    assert len(comps) == 2
    assert {c.witness for c in comps} == {
        (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))}
    assert all(c.dim == 0 for c in comps)


def test_parallel_translates_empty():
    a = IntMatrix.from_rows([[1, 0], [1, 0]])
    assert intersect_system(a, (Fraction(0), Fraction(1, 3))) == []


def test_three_torsion_points():
    a = IntMatrix.from_rows([[1, 0], [1, 3]])
    comps = intersect_system(a, (Fraction(0), Fraction(0)))
    assert len(comps) == 3
    assert len(comps) == grid_component_count(a, (Fraction(0), Fraction(0)))


def test_single_primitive_row_connected():
    for chi, b in [((1, 0), Fraction(0)), ((2, 3), Fraction(1, 2)),
                   ((1, -1), Fraction(2, 3))]:
        comps = intersect_system(IntMatrix.from_rows([chi]), (b,))
        assert len(comps) == 1
        assert comps[0].dim == 1


def test_empty_system_gives_torus():
    comps = intersect_system(IntMatrix(0, 3, ()), ())
    assert len(comps) == 1
    assert comps[0] == full_torus(3)
    assert comps[0].dim == 3


def test_value_count_mismatch_rejected():
    import pytest
    with pytest.raises(ValueError):
        intersect_system(IntMatrix.from_rows([[1, 0]]), (Fraction(0), Fraction(0)))


def test_witness_satisfies_labels():
    rng = random.Random(3)
    for _ in range(60):
        arr = random_arrangement(rng, max_l=3, max_n=3)
        if arr.n == 0:
            continue
        comps = intersect_system(arr.char_matrix(), arr.b_vector())
        for c in comps:
            for k, h in enumerate(c.sat_basis.entries):
                v = sum((a * b for a, b in zip(h, c.witness)), Fraction(0))
                assert v % 1 == c.values[k]


def test_labels_independent_of_row_order():
    rng = random.Random(9)
    for _ in range(40):
        arr = random_arrangement(rng, max_l=3, max_n=3)
        if arr.n < 2:
            continue
        a, b = arr.char_matrix(), arr.b_vector()
        perm = list(range(arr.n))
        rng.shuffle(perm)
        ap = IntMatrix(arr.n, arr.dim, tuple(a.entries[i] for i in perm))
        bp = tuple(b[i] for i in perm)
        assert set(intersect_system(a, b)) == set(intersect_system(ap, bp))


def test_counts_against_torsion_grid():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        l = rng.randint(1, 3)
        k = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(l)] for _ in range(k)], cols=l)
        den = rng.choice((1, 2, 3))
        b = tuple(Fraction(rng.randint(0, den - 1), den) for _ in range(k))
        q = 1
        for x in b:
            q = max(q, x.denominator)
        # keep the exhaustive grid small
        prod = 1
        from toricarr.lattice import snf
        for d in snf(a).divisors():
            prod *= d
        if (6 * prod) ** l > 300_000:
            continue
        assert len(intersect_system(a, b)) == grid_component_count(a, b)
        checked += 1


# -- build_poset --------------------------------------------------------------------

def test_poset_four_lines():
    poset = build_poset(four_lines())
    assert len(poset.components) == 7
    assert poset.layer_sizes() == (1, 4, 2)
    points = {c.witness: c for c in poset.layer(2)}
    assert set(points) == {(Fraction(0), Fraction(0)),
                           (Fraction(1, 2), Fraction(1, 2))}
    curves = poset.layer(1)
    origin = points[(Fraction(0), Fraction(0))]
    minus = points[(Fraction(1, 2), Fraction(1, 2))]
    assert all(component_contains(origin, c) for c in curves)
    below_minus = [c for c in curves if component_contains(minus, c)]
    assert {c.sat_basis.entries[0] for c in below_minus} == {(1, 1), (1, -1)}


def test_poset_empty_arrangement():
    poset = build_poset(ToricArrangement(2, ()))
    assert len(poset.components) == 1
    assert poset.layer_sizes() == (1,)


def test_poset_two_curves():
    poset = build_poset(two_curves())
    assert poset.layer_sizes() == (1, 2, 3)
    for point in poset.layer(2):
        assert all(component_contains(point, c) for c in poset.layer(1))


def test_poset_matches_subset_sweep():
    rng = random.Random(41)
    for _ in range(30):
        arr = random_arrangement(rng, max_l=3, max_n=4)
        assert set(build_poset(arr).components) == subset_sweep_components(arr)


def test_poset_order_consistent_with_dimension():
    poset = build_poset(four_lines())
    for i, j in poset.strict_below:
        assert poset.components[i].dim < poset.components[j].dim


# -- Poincare polynomial ------------------------------------------------------------

@pytest.mark.parametrize("make", [
    four_lines, two_curves,
    lambda: weyl("A", 2), lambda: weyl("A", 3), lambda: weyl("A", 4),
    lambda: weyl("B", 3), lambda: weyl("C", 3), lambda: weyl("D", 4),
    lambda: weyl("G2", 2), lambda: braid(3), lambda: braid(4),
], ids=["four_lines", "two_curves", "A2", "A3", "A4", "B3", "C3", "D4", "G2",
        "braid3", "braid4"])
def test_poincare_matches_local_lattices(make):
    arr = make()
    assert build_poset(arr).poincare() == local_lattice_poincare(arr)


def test_poincare_matches_local_lattices_random():
    rng = random.Random(44)
    for _ in range(200):
        arr = random_arrangement(rng, max_l=3, max_n=6)
        assert build_poset(arr).poincare() == local_lattice_poincare(arr)


# -- is_unimodular -------------------------------------------------------------------

def test_is_unimodular_fixtures():
    assert not is_unimodular(four_lines())
    assert is_unimodular(braid(3))
    assert is_unimodular(ToricArrangement(2, ()))
    assert not is_unimodular(two_curves())


def test_unimodular_generator_really_unimodular():
    from itertools import combinations
    rng = random.Random(55)
    for _ in range(25):
        arr = random_unimodular_arrangement(rng, max_n=5)
        assert is_unimodular(arr)
        # by definition: every subset intersection has at most one component
        chars, bs = arr.char_matrix(), arr.b_vector()
        for size in range(1, arr.n + 1):
            for subset in combinations(range(arr.n), size):
                sub = IntMatrix(size, arr.dim,
                                tuple(chars.entries[i] for i in subset))
                assert len(intersect_system(sub, tuple(bs[i] for i in subset))) <= 1


def test_unimodular_rank_deficient_disconnected():
    # two curves in a 3-torus with an index-2 joint lattice: all 3x3 minors
    # vanish, but the intersection is disconnected
    arr = parse("torus 3\nhyp 1 1 0 @ 0/1\nhyp 1 -1 0 @ 0/1\n")
    assert not is_unimodular(arr)
