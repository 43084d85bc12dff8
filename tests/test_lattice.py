import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from toricarr.lattice import (
    IntMatrix,
    hnf,
    in_row_lattice,
    is_primitive,
    left_kernel,
    pivot_positions,
    rank,
    row_basis,
    saturation,
    snf,
)

from oracles import det, is_unimodular_matrix


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def random_matrix(rng, max_dim=4, bound=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], cols=n)


def lattices_equal(a, b):
    """Row lattices agree: every row of each reduces to zero against the other."""
    ha, hb = row_basis(a), row_basis(b)
    return (all(in_row_lattice(hb, r) for r in a.entries)
            and all(in_row_lattice(ha, r) for r in b.entries))


# -- hnf ---------------------------------------------------------------------

def test_hnf_identity():
    r = hnf(IntMatrix.identity(2))
    assert r.H == IntMatrix.identity(2)
    assert r.U == IntMatrix.identity(2)


def test_hnf_2468():
    a = M([[2, 4], [6, 8]])
    r = hnf(a)
    assert r.U @ a == r.H
    assert lattices_equal(a, r.H)
    # canonical shape: positive pivots, above-entries reduced
    for (i, c) in pivot_positions(r.H):
        p = r.H.entries[i][c]
        assert p > 0
        for k in range(i):
            assert 0 <= r.H.entries[k][c] < p


def test_hnf_zero_row():
    a = M([[0, 0]])
    assert hnf(a).H == a


def test_hnf_canonical_and_lattice_preserving():
    rng = random.Random(7)
    for _ in range(200):
        a = random_matrix(rng)
        r = hnf(a)
        assert r.U @ a == r.H
        assert abs(det(r.U)) == 1
        assert lattices_equal(a, r.H)
        # idempotence: the HNF of a canonical basis is itself
        basis = row_basis(a)
        assert row_basis(basis) == basis


def random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            s = rng.choice((-1, 1))
            for r in range(n):
                u[r][i] += s * u[r][j]
    return IntMatrix.from_rows(u)


def test_hnf_unique_across_generating_sets():
    """Different generating sets of the same lattice must produce the same
    canonical basis (component deduplication relies on this)."""
    rng = random.Random(77)
    for _ in range(150):
        a = random_matrix(rng)
        if a.rows == 0:
            continue
        u = random_unimodular(rng, a.rows)
        assert row_basis(u @ a) == row_basis(a)


# -- snf ---------------------------------------------------------------------

def snf_diag_ok(res):
    d = res.divisors()
    assert all(x > 0 for x in d)
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0
    # off-diagonal zero, nothing after the chain
    for i, row in enumerate(res.D.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
            elif i >= len(d):
                assert x == 0


@pytest.mark.parametrize("rows,expected", [
    ([[1, 0], [1, 3]], (1, 3)),
    ([[1, 0], [0, 1]], (1, 1)),
    ([[2, 4], [6, 8]], (2, 4)),
    ([[1, 1], [1, -1]], (1, 2)),
])
def test_snf_examples(rows, expected):
    a = M(rows)
    res = snf(a)
    assert res.U @ a @ res.V == res.D
    assert res.divisors() == expected
    snf_diag_ok(res)


@pytest.mark.parametrize("rows,D,U,V", [
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
     ((2, 0, 0), (0, 6, 0), (0, 0, 12)),
     ((1, 0, 0), (2, -1, -1), (3, -4, -3)),
     ((1, -2, 2), (0, 1, -2), (0, 0, 1))),
    ([[2, -3], [-1, 2]], ((1, 0), (0, 1)), ((0, -1), (1, 2)), ((1, 2), (0, 1))),
    ([[2, 4, 6], [1, 2, 3]],
     ((1, 0, 0), (0, 0, 0)), ((0, 1), (1, -2)), ((1, -2, -3), (0, 1, 0), (0, 0, 1))),
    ([[0, 3], [6, 0], [0, 0]],
     ((3, 0), (0, 6), (0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1), (1, 0))),
])
def test_snf_exact_transforms(rows, D, U, V):
    """The transforms themselves, not only their properties: ``smith_frame``
    reads V, so the pivot rule and the operation order are pinned."""
    res = snf(M(rows))
    assert (res.D.entries, res.U.entries, res.V.entries) == (D, U, V)


def brute_minor_gcd(a, r):
    g = 0
    for rows in combinations(range(a.rows), r):
        for cols in combinations(range(a.cols), r):
            sub = IntMatrix.from_rows(
                [[a.entries[i][j] for j in cols] for i in rows], cols=r)
            g = gcd(g, abs(det(sub)))
    return g


def test_snf_random_invariants():
    rng = random.Random(11)
    for _ in range(150):
        a = random_matrix(rng)
        res = snf(a)
        assert res.U @ a @ res.V == res.D
        assert abs(det(res.U)) == 1
        assert abs(det(res.V)) == 1
        snf_diag_ok(res)
        d = res.divisors()
        assert len(d) == rank(a)
        # product of divisors = gcd of all maximal minors, by brute force
        if d:
            prod = 1
            for x in d:
                prod *= x
            assert prod == brute_minor_gcd(a, len(d))


# -- kernels and saturation ---------------------------------------------------

def test_left_kernel_equal_rows():
    assert left_kernel(M([[1, 0], [1, 0]])) == M([[1, -1]])


def test_left_kernel_full_rank():
    k = left_kernel(M([[2, 1], [1, 1]]))
    assert k.rows == 0 and k.cols == 2


def test_left_kernel_three_rows():
    a = M([[1, 1], [1, -1], [2, 0]])
    k = left_kernel(a)
    assert k.rows == 1
    assert a.transpose().mul_vec(k.entries[0]) == (0, 0)
    assert in_row_lattice(k, (1, 1, -1))


def test_left_kernel_random():
    rng = random.Random(23)
    for _ in range(150):
        a = random_matrix(rng)
        k = left_kernel(a)
        assert k.rows == a.rows - rank(a)
        for r in k.entries:
            assert a.transpose().mul_vec(r) == (0,) * a.cols
        # kernel lattice is saturated, hence fixed by saturation
        if a.rows:
            assert saturation(k) == k


def test_saturation_examples():
    assert saturation(M([[2, 0]])) == M([[1, 0]])
    assert saturation(M([[1, 1], [1, -1]])) == IntMatrix.identity(2)
    assert saturation(M([[0, -1]])) == M([[0, 1]])
    assert saturation(M([[2, 3]])) == M([[2, 3]])


def test_saturation_idempotent_and_rank_preserving():
    rng = random.Random(31)
    for _ in range(150):
        a = random_matrix(rng)
        s = saturation(a)
        assert saturation(s) == s
        assert rank(s) == rank(a)
        # saturation contains the original rows
        for r in a.entries:
            assert in_row_lattice(s, r) or not any(r)


def test_saturation_of_empty():
    a = IntMatrix(0, 3, ())
    assert saturation(a) == IntMatrix(0, 3, ())


# -- unimodularity and primitivity --------------------------------------------

def test_is_unimodular_matrix():
    assert not is_unimodular_matrix(M([[1, 0], [0, 1], [1, 1], [1, -1]]))
    assert is_unimodular_matrix(M([[1, 0], [0, 1], [1, 1]]))
    assert is_unimodular_matrix(IntMatrix.identity(3))


def test_is_primitive():
    assert is_primitive((1, 3))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 5))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def test_mul_vec_with_fractions():
    a = M([[1, 2], [3, 4]])
    assert a.mul_vec((Fraction(1, 2), Fraction(1, 3))) == (
        Fraction(7, 6), Fraction(17, 6))
