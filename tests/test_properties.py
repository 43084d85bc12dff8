"""Property tests for the integer kernel built on ``hnf_add_row`` (``hnf``,
``row_basis``, ``rank``, ``left_kernel``, ``in_row_lattice``) against the
classical elimination ``hnf_reference``, for ``snf`` against sympy, for
``completion``, the ``LocalFrame`` steps (``trace``, ``lift``, ``child``),
the parse/serialize round trip and the invariance of the poset and of the
deletion-restriction verdict under isomorphism."""

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import mul

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from toricarr.arrangement import (
    Hypersurface,
    ToricArrangement,
    mod1,
    parse,
    serialize,
)
from toricarr.lattice import (
    IntMatrix,
    completion,
    hnf,
    hnf_add_row,
    in_row_lattice,
    left_kernel,
    rank,
    row_basis,
    saturation,
    snf,
)

from toricarr.cohomology import DrHypothesisError, dr_poincare, find_dr_ordering
from toricarr.poset import build_poset, is_unimodular

from oracles import det, hnf_reference, intersect_system_reference, smith_frame

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

values = st.builds(Fraction, st.integers(-6, 12), st.integers(1, 6))


@st.composite
def matrices(draw, max_rows=4, bound=4):
    l = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=l, max_size=l),
                         max_size=max_rows))
    return IntMatrix(len(rows), l, tuple(map(tuple, rows)))


@st.composite
def basis_and_row(draw):
    h = row_basis(draw(matrices()))
    return h, draw(st.lists(st.integers(-6, 6), min_size=h.cols, max_size=h.cols))


@st.composite
def component_and_row(draw):
    """A component {S @ u = values} (the full torus when S has no rows) and
    a row k * chi0 with value b; the row may be zero or non-primitive."""
    s = saturation(draw(matrices(max_rows=3, bound=3)))
    vals = tuple(mod1(x) for x in draw(st.lists(values, min_size=s.rows, max_size=s.rows)))
    k = draw(st.integers(1, 3))
    chi = [k * x for x in draw(st.lists(st.integers(-3, 3), min_size=s.cols,
                                        max_size=s.cols))]
    return s, vals, chi, mod1(draw(values))


@PROPERTY
@given(basis_and_row())
def test_hnf_add_row_is_row_basis(case):
    h, v = case
    ref = hnf_reference(h.with_row(v)).H
    assert hnf_add_row(h, v) == IntMatrix.from_rows([r for r in ref.entries if any(r)], h.cols)


@PROPERTY
@given(matrices())
def test_hnf_matches_reference(a):
    res = hnf(a)
    assert res.H == hnf_reference(a).H
    assert res.U @ a == res.H
    assert abs(det(res.U)) == 1


@PROPERTY
@given(matrices())
def test_left_kernel_annihilates(a):
    k = left_kernel(a)
    assert k.rows == a.rows - rank(a)
    assert all(not any(r) for r in (k @ a).entries)


@PROPERTY
@given(matrices(), st.data())
def test_combinations_of_rows_lie_in_row_lattice(a, data):
    x = IntMatrix(1, a.rows, (tuple(data.draw(st.lists(
        st.integers(-5, 5), min_size=a.rows, max_size=a.rows))),))
    assert in_row_lattice(row_basis(a), (x @ a).entries[0])


def test_hnf_transform_is_canonical():
    """On a rank-1 matrix U is the canonical basis of the rows of [a | I]:
    (0, 1, 0) is reduced against the kernel basis (1, 1, -1), (0, 3, -1)."""
    a = IntMatrix.from_rows([[2, 4], [1, 2], [3, 6]])
    res = hnf(a)
    assert res.H == IntMatrix.from_rows([[1, 2], [0, 0], [0, 0]])
    assert res.U == IntMatrix.from_rows([[0, 1, 0], [1, 1, -1], [0, 3, -1]])
    assert left_kernel(a) == IntMatrix.from_rows([[1, 1, -1], [0, 3, -1]])


@PROPERTY
@given(matrices())
def test_snf_divisors_match_sympy(a):
    d = smith_normal_form(Matrix(a.rows, a.cols, [x for r in a.entries for x in r]), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(a.rows, a.cols))]
    assert snf(a).divisors() == tuple(x for x in diag if x)


@st.composite
def arrangements(draw):
    """Normalized arrangements: primitive characters, constants in [0, 1),
    no repeated hypersurface."""
    l = draw(st.integers(0, 4))
    hyps = {}
    if l:
        for _ in range(draw(st.integers(0, 6))):
            chi = draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
            g = gcd(*chi)
            if g:
                h = Hypersurface(tuple(x // g for x in chi), draw(values))
                hyps[(h.chi, h.b)] = h
    return ToricArrangement(l, tuple(hyps.values()))


@PROPERTY
@given(arrangements())
def test_parse_serialize_round_trip(arr):
    assert parse(serialize(arr)) == arr


@st.composite
def isomorphic_copies(draw):
    """An arrangement and its image under a unimodular change of characters
    (elementary column operations), a translation by a 6-torsion point, and
    a shuffle of the hypersurfaces."""
    arr = draw(arrangements())
    l = arr.dim
    u = [[int(i == j) for j in range(l)] for i in range(l)]
    for _ in range(draw(st.integers(0, 6)) if l > 1 else 0):
        i, j = draw(st.permutations(range(l)))[:2]
        q = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in u:
            row[i] += q * row[j]
    shift = [Fraction(draw(st.integers(0, 5)), 6) for _ in range(l)]
    hyps = []
    for h in arr.hypersurfaces:
        chi = tuple(sum(h.chi[k] * u[k][j] for k in range(l)) for j in range(l))
        hyps.append(Hypersurface(chi, h.b + sum(c * t for c, t in zip(chi, shift))))
    return arr, ToricArrangement(l, tuple(draw(st.permutations(hyps))))


def _invariants(arr):
    poset = build_poset(arr)
    return (poset.layer_sizes(), len(poset.covers), Counter(poset.mobius), poset.poincare(),
            poset.unimodular, is_unimodular(arr))


@settings(PROPERTY, max_examples=150)
@given(isomorphic_copies())
def test_poset_invariant_under_isomorphism(pair):
    """Layer sizes, cover count, the multiset of mu, P and the unimodular
    verdicts (of the poset and of ``is_unimodular``) are the same on an
    isomorphic copy, whose sweep meets its components in another order."""
    arr, copy = pair
    assert _invariants(copy) == _invariants(arr)


@settings(PROPERTY, max_examples=150)
@given(isomorphic_copies())
def test_dr_invariant_under_isomorphism(pair):
    """The DR verdict, a property of the set of step counts, is the same on
    an isomorphic copy, and wherever ``dr_poincare`` answers on either copy
    its P is the dcp P.  Refusals are not compared: they depend on the
    orderings that the nested searches find."""
    reports = [find_dr_ordering(a) for a in pair]
    assert reports[0].verdict == reports[1].verdict
    for a, rep in zip(pair, reports):
        if rep.ordering is None:
            continue
        try:
            poly = dr_poincare(a, rep.ordering)
        except DrHypothesisError:
            continue
        assert poly == build_poset(a).poincare()


@PROPERTY
@given(st.lists(st.integers(-60, 60), max_size=6))
def test_completion_is_unimodular(v):
    cols = completion(v)
    assert len(cols) == len(v)
    images = [sum(a * b for a, b in zip(v, col)) for col in cols]
    assert images == ([gcd(*v)] + [0] * (len(v) - 1) if v else [])
    if v:
        assert abs(det(IntMatrix.from_rows(zip(*cols)))) == 1


@PROPERTY
@given(component_and_row())
def test_frame_step_matches_reference(case):
    """Where the row is not constant on the component (c != 0): the lifted
    row completes the label to the saturation of [S; chi], the trace has as
    many pieces as the system has components, and the points of the pieces
    lie one on each component."""
    s, vals, chi, b = case
    frame = smith_frame(s, vals)
    tr = frame.trace(chi, b.numerator, b.denominator)
    assume(tr is not None)
    local, pairs = tr
    lifted = frame.lift(chi)
    label = hnf_add_row(s, lifted)
    assert label == saturation(s.with_row(chi))
    ref = intersect_system_reference(s.with_row(chi), vals + (b,))
    assert len(pairs) == len(ref)
    assert {r.sat_basis for r in ref} == {label}
    on = set()
    for num, d in pairs:
        u, m = frame.child(lifted, local, num, d).point
        point = [Fraction(x, m) for x in u]
        on.add(tuple(mod1(sum(x * y for x, y in zip(point, h))) for h in label.entries))
    assert on == {r.values for r in ref}


def _on(point, rows, vals) -> bool:
    return all(mod1(sum(x * y for x, y in zip(point, h))) == v for h, v in zip(rows, vals))


def _cut(frame, label, chi, tr):
    """The label of the pieces of a trace and the set of their values, read
    at the points the frame gives."""
    local, pairs = tr
    lifted = frame.lift(chi)
    basis = hnf_add_row(label, lifted)
    points = (frame.child(lifted, local, num, d).point for num, d in pairs)
    return basis, {tuple(Fraction(sum(map(mul, h, u)) % m, m) for h in basis.entries)
                   for u, m in points}


@PROPERTY
@given(component_and_row(), st.data())
def test_child_frame_matches_smith_frame(case, data):
    """The frame carried to each piece of a trace (``child``) against the
    Smith frame of the piece's label and values: each piece's point lies on
    the component and on its own piece, the lift completes the label to the
    saturation of [S; chi], and a second row traced on either frame cuts
    as many pieces, with the same lifted label and the same values."""
    s, vals, chi, b = case
    frame = smith_frame(s, vals)
    tr = frame.trace(chi, b.numerator, b.denominator)
    assume(tr is not None)
    row = data.draw(st.lists(st.integers(-3, 3), min_size=s.cols, max_size=s.cols))
    value = mod1(data.draw(values))
    local, pairs = tr
    lifted = frame.lift(chi)
    label = hnf_add_row(s, lifted)
    assert label == saturation(s.with_row(chi))
    pieces = set()
    for num, d in pairs:
        child = frame.child(lifted, local, num, d)
        u, m = child.point
        point = [Fraction(x, m) for x in u]
        assert _on(point, s.entries + (tuple(chi),), vals + (b,))
        piece = tuple(mod1(sum(x * y for x, y in zip(point, h))) for h in label.entries)
        pieces.add(piece)
        smith = smith_frame(label, piece)
        got, want = (f.trace(row, value.numerator, value.denominator) for f in (child, smith))
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got[1]) == len(want[1])
            assert _cut(child, label, row, got) == _cut(smith, label, row, want)
    assert len(pieces) == len(pairs)
