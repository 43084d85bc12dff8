"""Property tests for the integer kernel built on ``hnf_add_row`` (``hnf``,
``row_basis``, ``rank``, ``left_kernel``, ``in_row_lattice``) against the
classical elimination ``hnf_reference``, for ``snf`` against sympy, for
``bezout``, the ``LocalFrame`` step (``trace``, ``lift``, ``points``) and
the parse/serialize round trip."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from toricarr.arrangement import (
    Hypersurface,
    LocalFrame,
    ToricArrangement,
    mod1,
    parse,
    serialize,
)
from toricarr.lattice import (
    IntMatrix,
    bezout,
    hnf,
    hnf_add_row,
    in_row_lattice,
    left_kernel,
    rank,
    row_basis,
    saturation,
    snf,
)

from oracles import det, hnf_reference, intersect_system_reference

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


@PROPERTY
@given(st.lists(st.integers(-60, 60), max_size=6))
def test_bezout_gives_gcd(v):
    y = bezout(v)
    assert len(y) == len(v)
    assert sum(a * b for a, b in zip(v, y)) == gcd(*v)


@PROPERTY
@given(component_and_row())
def test_frame_step_matches_reference(case):
    """Where the row is not constant on the component (c != 0): the lifted
    row completes the label to the saturation of [S; chi], the trace has as
    many pieces as the system has components, and the points of the pieces
    lie one on each component."""
    s, vals, chi, b = case
    frame = LocalFrame(s, vals)
    tr = frame.trace(chi, b.numerator, b.denominator)
    assume(tr is not None)
    local, pairs = tr
    label = hnf_add_row(s, frame.lift(chi))
    assert label == saturation(s.with_row(chi))
    ref = intersect_system_reference(s.with_row(chi), vals + (b,))
    assert len(pairs) == len(ref)
    assert {r.sat_basis for r in ref} == {label}
    on = set()
    for u, m in frame.points(local, pairs):
        point = [Fraction(x, m) for x in u]
        on.add(tuple(mod1(sum(x * y for x, y in zip(point, h))) for h in label.entries))
    assert on == {r.values for r in ref}
