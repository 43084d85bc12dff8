import random
from fractions import Fraction
from itertools import permutations

import pytest

from toricarr.arrangement import parse
from toricarr.hyperplane import (
    CentralArrangement,
    delete,
    intersection_lattice,
    local_arrangement,
    nbc_dimensions,
    restriction,
    top_local_multiplicity,
    whitney_poincare,
)
from toricarr.lattice import IntMatrix
from toricarr.polynomial import Polynomial
from toricarr.poset import build_poset

from oracles import poly_add, poly_shift, random_central_rows


def central(rows, dim=None):
    mat = IntMatrix.from_rows(rows, cols=dim)
    return CentralArrangement(mat.cols, mat)


def concurrent_lines(k):
    """k distinct lines through the origin of C^2."""
    rows = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)][:k]
    return central(rows)


def four_lines():
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
                 "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")


# -- validation -----------------------------------------------------------------

def test_rejects_zero_and_duplicate_normals():
    with pytest.raises(ValueError):
        central([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        central([[1, 2], [-1, -2]])
    with pytest.raises(ValueError):
        central([[1, 0], [2, 0]])  # proportional: same hyperplane


# -- intersection lattice and mobius ----------------------------------------------

def test_boolean_lattice():
    lat = intersection_lattice(central([[1, 0], [0, 1]]))
    assert len(lat.elements) == 4
    assert lat.mobius[0] == 1
    top = max(range(4), key=lat.codim)
    assert lat.codim(top) == 2 and lat.mobius[top] == 1


@pytest.mark.parametrize("k,center_mu", [(3, 2), (4, 3)])
def test_concurrent_lines_mobius(k, center_mu):
    lat = intersection_lattice(concurrent_lines(k))
    assert len(lat.elements) == k + 2  # ambient, k lines, the origin
    top = max(range(len(lat.elements)), key=lat.codim)
    assert lat.mobius[top] == center_mu


def test_mobius_recursion_holds():
    rng = random.Random(13)
    for _ in range(30):
        l = rng.randint(1, 4)
        rows = random_central_rows(rng, l, rng.randint(1, 5))
        if not rows:
            continue
        lat = intersection_lattice(central(rows, dim=l))
        for j in range(1, len(lat.elements)):
            below = [i for i in range(len(lat.elements)) if lat.less_equal(i, j)]
            assert sum(lat.mobius[i] for i in below) == 0


# -- whitney polynomial and nbc ----------------------------------------------------

def test_whitney_examples():
    assert whitney_poincare(central([[1, 0], [0, 1]])) == Polynomial((1, 2, 1))
    assert whitney_poincare(concurrent_lines(3)) == Polynomial((1, 3, 2))
    assert whitney_poincare(concurrent_lines(4)) == Polynomial((1, 4, 3))


def test_nbc_examples():
    assert nbc_dimensions(central([[1, 0], [0, 1]])) == (1, 2, 1)
    assert nbc_dimensions(concurrent_lines(3)) == (1, 3, 2)
    assert nbc_dimensions(concurrent_lines(4)) == (1, 4, 3)


def test_nbc_independent_of_ordering():
    arr = central([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)])
    dims = {nbc_dimensions(arr, perm) for perm in permutations(range(5))}
    assert dims == {(1, 5, 4)}


def test_nbc_matches_whitney_random():
    rng = random.Random(19)
    for _ in range(60):
        l = rng.randint(1, 4)
        rows = random_central_rows(rng, l, rng.randint(1, 6))
        if not rows:
            continue
        arr = central(rows, dim=l)
        assert nbc_dimensions(arr) == whitney_poincare(arr).coefficients


def test_hyperplane_deletion_restriction_identity():
    rng = random.Random(37)
    for _ in range(60):
        l = rng.randint(1, 4)
        rows = random_central_rows(rng, l, rng.randint(1, 6))
        if not rows:
            continue
        arr = central(rows, dim=l)
        k = rng.randrange(arr.n)
        lhs = whitney_poincare(arr)
        rhs = poly_add(whitney_poincare(delete(arr, k)),
                       poly_shift(whitney_poincare(restriction(arr, k)), 1))
        assert lhs == rhs


# -- local arrangements -------------------------------------------------------------

def test_local_arrangement_four_lines():
    arr = four_lines()
    poset = build_poset(arr)
    points = {c.witness: c for c in poset.layer(2)}
    at_origin = local_arrangement(arr, points[(Fraction(0), Fraction(0))])
    assert at_origin.normals == IntMatrix.from_rows(
        [[1, 0], [0, 1], [1, 1], [1, -1]])
    at_minus = local_arrangement(arr, points[(Fraction(1, 2), Fraction(1, 2))])
    assert at_minus.normals == IntMatrix.from_rows([[1, 1], [1, -1]])
    torus = poset.layer(0)[0]
    assert local_arrangement(arr, torus).n == 0


def test_top_local_multiplicity():
    arr = four_lines()
    poset = build_poset(arr)
    points = {c.witness: c for c in poset.layer(2)}
    assert top_local_multiplicity(arr, points[(Fraction(0), Fraction(0))]) == 3
    assert top_local_multiplicity(arr, points[(Fraction(1, 2), Fraction(1, 2))]) == 1
    for curve in poset.layer(1):
        assert top_local_multiplicity(arr, curve) == 1


def test_local_arrangement_rejects_foreign_component():
    arr = four_lines()
    from toricarr.poset import Component
    bad = Component(IntMatrix.from_rows([[1, 0]]), (Fraction(1, 3),),
                    (Fraction(0), Fraction(0)))  # witness does not match value
    with pytest.raises(ValueError):
        local_arrangement(arr, bad)
