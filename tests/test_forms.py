import random
from fractions import Fraction

import numpy as np
import pytest

from toricarr import forms
from toricarr.arrangement import ToricArrangement, braid, parse, weyl
from toricarr.cohomology import dcp_poincare
from toricarr.forms import (
    FormGenerator,
    RelationBasis,
    _char_values,
    _characters,
    _evaluation_matrix,
    _points,
    degree2_relations,
    eval_generator,
    generators,
    sample_point,
    verify_relation,
    wedge_monomials,
)


from oracles import (
    FOUR_LINES_RELATIONS,
    coeff_vector,
    degree2_relations_reference,
    four_lines,
    monomial_matrix_reference,
    random_arrangement,
)


# -- sampling -------------------------------------------------------------------

def test_sample_point_deterministic():
    arr = four_lines()
    z1 = sample_point(arr, 7)
    z2 = sample_point(arr, 7)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, sample_point(arr, 8))


def test_sample_point_margin():
    arr = four_lines()
    for seed in range(20):
        z = sample_point(arr, seed)
        assert np.all(np.abs(z) >= 0.5) and np.all(np.abs(z) <= 2.0)
        for h in arr.hypersurfaces:
            val = complex(np.prod(z.astype(complex) ** np.array(h.chi)))
            assert abs(val - 1.0) >= 1e-3


def test_sample_point_empty_arrangement():
    z = sample_point(ToricArrangement(2, ()), 0)
    assert z.shape == (2,)


HUGE_EXPONENT = "torus 2\nhyp 1100 1 @ 0/1\nhyp 1 0 @ 0/1\nhyp 1 1 @ 1/3\n"


def test_sample_point_is_first_row_of_points():
    """sample_point is the one-point case of _points; the pinned point, whose
    first draw puts z1^1100 out of floating-point range and is drawn again,
    fixes the public sampler's stream."""
    arr = parse(HUGE_EXPONENT)
    for seed in (0, 7, 34, [3, 5]):
        assert np.array_equal(sample_point(arr, seed), _points(arr, 1, seed)[0][0])
    assert np.array_equal(sample_point(arr, 34),
                          [0.7161016114201834 - 0.6663720411238004j,
                           1.2053688035760652 - 0.8789726684399778j])


# -- generator evaluation ----------------------------------------------------------

def test_eval_coordinate_form():
    z = np.array([2.0 + 0j, 5.0 + 0j])
    v = eval_generator(FormGenerator("coord", 0), z)
    assert np.allclose(v, [0.5, 0.0])


def test_eval_character_form():
    g = FormGenerator("char", 0, (1, 1), Fraction(0))
    v = eval_generator(g, np.array([2.0 + 0j, 3.0 + 0j]))
    assert np.allclose(v, [3 / 5, 2 / 5])


def test_single_variable_character_proportional_to_coordinate():
    g = FormGenerator("char", 0, (1, 0), Fraction(0))
    arr = four_lines()
    for seed in range(5):
        z = sample_point(arr, seed)
        psi = eval_generator(g, z)
        xi = eval_generator(FormGenerator("coord", 0), z)
        assert np.allclose(psi, xi * z[0] / (z[0] - 1.0))


def test_generator_order_and_names():
    gens = generators(four_lines())
    assert [g.name() for g in gens] == ["xi1", "xi2", "psi1", "psi2", "psi3", "psi4"]


# -- relation extraction -------------------------------------------------------------

def test_four_lines_nullity_and_gap():
    arr = four_lines()
    basis = degree2_relations(arr, tol=1e-8, seed=0)
    assert basis.nullity == 6
    assert len(wedge_monomials(arr.dim, arr.n)) == 15
    assert basis.gap > 1e3


def test_empty_arrangement_nullity_zero():
    basis = degree2_relations(ToricArrangement(2, ()), seed=0)
    assert basis.nullity == 0
    assert basis.gap == float("inf")
    # l = 0: no monomials and no samples
    basis = degree2_relations(ToricArrangement(0, ()), seed=0)
    assert (basis.samples, basis.matrix.shape, basis.gap) == (0, (0, 0), float("inf"))


def test_rank_one_torus_every_monomial_is_a_relation():
    """l = 1: Lambda^2 is zero, so the evaluation matrix has no rows."""
    arr = parse("torus 1\nhyp 1 @ 0/1\nhyp 1 @ 1/2\n")
    basis = degree2_relations(arr, seed=0)
    assert len(wedge_monomials(arr.dim, arr.n)) == 3
    assert basis.nullity == 3
    assert basis.matrix.shape == (3, 3)
    assert basis.gap == float("inf")
    assert dcp_poincare(arr).coefficient(2) == 0


def test_gap_is_last_kept_over_first_dropped():
    sing = np.array([5.0, 4.0, 3.0, 2e-9, 1e-10])
    basis = RelationBasis(np.zeros((2, 5), dtype=complex), 1e-8, 20, sing)
    assert basis.gap == 3.0 / 2e-9


def test_braid2_single_relation():
    arr = braid(2)
    basis = degree2_relations(arr, seed=0)
    assert basis.nullity == 1
    # (xi1 - xi2) ^ psi1 vanishes identically
    vec = coeff_vector(arr, {(0, 2): 1, (1, 2): -1})
    assert verify_relation(arr, vec, seed=0)


def test_known_relations_verify():
    arr = four_lines()
    for terms in FOUR_LINES_RELATIONS:
        assert verify_relation(arr, coeff_vector(arr, terms), seed=0)


def test_non_relation_rejected():
    arr = four_lines()
    assert not verify_relation(arr, coeff_vector(arr, {(2, 3): 1}), seed=0)


def test_known_relations_span_computed_null_space():
    arr = four_lines()
    basis = degree2_relations(arr, seed=0)
    listed = np.array([coeff_vector(arr, t) for t in FOUR_LINES_RELATIONS])
    assert np.linalg.matrix_rank(listed, tol=1e-8) == 6
    stacked = np.vstack([basis.matrix, listed])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 6


@pytest.mark.parametrize("make,expected_monos", [
    (four_lines, 15),
    (lambda: braid(2), 3),
    (lambda: braid(3), 15),
    (lambda: weyl("A", 2), 10),
])
def test_dimension_consistency(make, expected_monos):
    arr = make()
    monos = wedge_monomials(arr.dim, arr.n)
    assert len(monos) == expected_monos
    basis = degree2_relations(arr, seed=0)
    h2 = dcp_poincare(arr).coefficient(2)
    assert len(monos) - basis.nullity == h2


@pytest.mark.parametrize("make", [
    four_lines,
    lambda: braid(3),
    lambda: weyl("A", 3),
    lambda: weyl("B", 3),
])
def test_monomial_blocks_match_reference(make):
    """Sample k's rows of the evaluation matrix are the per-entry block at
    row k of _points(arr, samples, seed)."""
    arr = make()
    gens = generators(arr)
    monos = wedge_monomials(arr.dim, arr.n)
    rows = arr.dim * (arr.dim - 1) // 2
    for seed in range(3):
        mat = _evaluation_matrix(arr, 4, seed)
        assert mat.shape == (4 * rows, len(monos))
        z, _ = _points(arr, 4, seed)
        for k in range(4):
            block = mat[k * rows:(k + 1) * rows]
            ref = monomial_matrix_reference(gens, monos, z[k])
            assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_points_redraw_only_failed_rows(monkeypatch):
    """z1^1100 overflows or underflows on some draws of the first round;
    only those rows are drawn again, every returned row passes the draw
    test, and every sample's row of the evaluation matrix (l = 2: one row
    per sample) is the per-entry block at that point."""
    arr = parse(HUGE_EXPONENT)
    gens = generators(arr)
    monos = wedge_monomials(arr.dim, arr.n)
    samples = 4 * len(monos)
    rounds = []

    def recording(z, exps, consts):
        w, ok = _char_values(z, exps, consts)
        rounds.append(ok)
        return w, ok

    monkeypatch.setattr(forms, "_char_values", recording)
    z, w = _points(arr, samples, 0)
    monkeypatch.undo()
    assert len(rounds[0]) == samples and not rounds[0].all()
    for before, after in zip(rounds, rounds[1:]):
        assert len(after) == np.count_nonzero(~before)
    assert rounds[-1].all()
    values, ok = _char_values(z, *_characters(arr))
    assert ok.all() and np.array_equal(values, w)
    mat = _evaluation_matrix(arr, samples, 0)
    for k in range(samples):
        ref = monomial_matrix_reference(gens, monos, z[k])
        assert np.max(np.abs(mat[k:k + 1] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_test_rejects_near_and_out_of_range_draws():
    """Rows: within 1e-3 of z1 = 1; clear of both hypersurfaces; z1^1100
    past the floating-point range."""
    exps = np.array([[1.0, 0.0], [1100.0, 1.0]])
    consts = np.array([1.0, 1.0], dtype=complex)
    z = np.array([[1 + 5e-4, 1.5], [1 + 2e-3, 1.0], [2.0, 1.0]], dtype=complex)
    w, ok = _char_values(z, exps, consts)
    assert ok.tolist() == [False, True, False]
    assert np.isclose(w[1, 1], (1 + 2e-3) ** 1100)


def test_matches_per_sample_reference():
    """Batched evaluation and the SVD of the QR factor against the
    per-sample path, at the same points, with a thin SVD of the whole
    matrix."""
    rng = random.Random(5)
    arrs = [four_lines(), braid(3), braid(4), weyl("A", 3), weyl("B", 3),
            weyl("C", 3), weyl("G2", 2), weyl("D", 4)]
    arrs += [random_arrangement(rng, max_l=3, max_n=6) for _ in range(30)]
    for arr in arrs:
        got = degree2_relations(arr, seed=0)
        ref = degree2_relations_reference(arr, seed=0)
        assert got.nullity == ref.nullity
        assert got.singular_values.shape == ref.singular_values.shape
        if len(ref.singular_values):
            top = ref.singular_values[0]
            assert np.max(np.abs(got.singular_values - ref.singular_values)) <= 1e-10 * top
        proj_got = got.matrix.conj().T @ got.matrix
        proj_ref = ref.matrix.conj().T @ ref.matrix
        assert np.max(np.abs(proj_got - proj_ref), initial=0.0) <= 1e-8


def test_b3_basis_shape_and_rows_are_relations():
    arr = weyl("B", 3)
    n_monos = len(wedge_monomials(arr.dim, arr.n))
    basis = degree2_relations(arr, seed=0)
    assert basis.matrix.shape == (basis.nullity, n_monos)
    assert len(basis.singular_values) == n_monos
    assert n_monos - basis.nullity == dcp_poincare(arr).coefficient(2)
    for row in basis.matrix:
        assert verify_relation(arr, row, seed=5)


def test_null_basis_rows_are_relations():
    arr = four_lines()
    basis = degree2_relations(arr, seed=0)
    for row in basis.matrix:
        assert verify_relation(arr, row, seed=11)


def test_seed_determinism():
    arr = four_lines()
    a = degree2_relations(arr, seed=3)
    b = degree2_relations(arr, seed=3)
    assert a.nullity == b.nullity
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.singular_values, b.singular_values)


def test_tolerance_robustness():
    for arr in [four_lines(), braid(2), braid(3), weyl("A", 2)]:
        dims = {degree2_relations(arr, tol=t, seed=0).nullity
                for t in (1e-10, 1e-8, 1e-6)}
        assert len(dims) == 1
        assert degree2_relations(arr, seed=0).gap > 1e3


def test_samples_precondition():
    arr = braid(2)
    with pytest.raises(ValueError):
        degree2_relations(arr, samples=5)


@pytest.mark.parametrize("bad", [{"samples": 0}, {"samples": 29}, {"tol": 0.0},
                                 {"tol": -1e-8}, {"tol": 1.0}])
def test_verify_relation_checks_samples_and_tol(bad):
    # A2 has 10 wedge monomials, so 30 samples is the least allowed; with
    # samples=0 the check used to pass every form
    arr = weyl("A", 2)
    e0 = np.eye(len(wedge_monomials(arr.dim, arr.n)))[0]
    assert not verify_relation(arr, e0, samples=30, seed=0)
    with pytest.raises(ValueError):
        verify_relation(arr, e0, seed=0, **bad)


def test_torsion_constant_consistency():
    """A root-of-unity constant exercised end to end: {z1=1, z2=1, z1z2=-1}."""
    arr = parse("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\nhyp 1 1 @ 1/2\n")
    basis = degree2_relations(arr, seed=0)
    monos = wedge_monomials(arr.dim, arr.n)
    assert len(monos) - basis.nullity == dcp_poincare(arr).coefficient(2) == 7


def test_non_dr_forms_span_less_than_h2():
    """On {z1 = 1, z1 z2^3 = 1} the pointwise relations are only xi1^psi1 and
    (xi1 + 3 xi2)^psi2, so the 2-forms span a 4-dimensional space while H^2
    has dimension 6: degree-1 generation genuinely fails."""
    arr = parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n")
    basis = degree2_relations(arr, seed=0)
    assert basis.nullity == 2
    assert verify_relation(arr, coeff_vector(arr, {(0, 2): 1}), seed=0)
    assert verify_relation(arr, coeff_vector(arr, {(0, 3): 1, (1, 3): 3}), seed=0)
    monos = wedge_monomials(arr.dim, arr.n)
    assert len(monos) - basis.nullity == 4 < dcp_poincare(arr).coefficient(2) == 6
