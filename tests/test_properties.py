"""Property tests for the primitives that cut a component: ``hnf_add_row``,
``bezout`` and the ``LocalFrame`` step (``trace``, ``lift``, ``points``)."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricarr.arrangement import LocalFrame, mod1
from toricarr.lattice import IntMatrix, bezout, hnf_add_row, row_basis, saturation

from oracles import intersect_system_reference

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
    assert hnf_add_row(h, v) == row_basis(h.with_row(v))


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
    tr = frame.trace(chi, b)
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
