import random
import sys
from fractions import Fraction

import pytest

from toricarr.arrangement import (
    Hypersurface,
    LocalFrame,
    ParseError,
    ToricArrangement,
    braid,
    parse,
    positive_roots,
    restrict,
    serialize,
    _keys,
    _traces,
    weyl,
)
from toricarr.lattice import IntMatrix, is_primitive
from toricarr.poset import build_poset

from oracles import pair_step_counts, random_arrangement, traces_reference

EX_FOUR_LINES = """\
torus 2
hyp 1 0 @ 0/1
hyp 0 1 @ 0/1
hyp 1 1 @ 0/1
hyp 1 -1 @ 0/1
"""


def four_lines():
    return parse(EX_FOUR_LINES)


def two_curves():
    # {z1 = 1, z1 z2^3 = 1}: not of deletion-restriction type
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n")


# -- data model ----------------------------------------------------------------

def test_hypersurface_normalization():
    h = Hypersurface((-1, 1), Fraction(1, 3))
    assert h.chi == (1, -1)
    assert h.b == Fraction(2, 3)


def test_hypersurface_rejects_nonprimitive():
    with pytest.raises(ValueError):
        Hypersurface((2, 4), Fraction(0))
    with pytest.raises(ValueError):
        Hypersurface((0, 0), Fraction(0))


def test_arrangement_rejects_duplicates_up_to_flip():
    a = Hypersurface((1, -1), Fraction(1, 3))
    b = Hypersurface((-1, 1), Fraction(2, 3))  # same hypersurface
    with pytest.raises(ValueError):
        ToricArrangement(2, (a, b))


# -- parse / serialize -----------------------------------------------------------

def test_parse_single():
    arr = parse("torus 2\nhyp 1 0 @ 0/1\n")
    assert arr.dim == 2
    assert arr.n == 1
    assert arr.hypersurfaces[0].chi == (1, 0)
    assert arr.hypersurfaces[0].b == 0


def test_parse_four_lines_matrix():
    arr = four_lines()
    assert arr.char_matrix() == IntMatrix.from_rows(
        [[1, 0], [0, 1], [1, 1], [1, -1]])
    assert all(h.b == 0 for h in arr.hypersurfaces)


def test_parse_nonprimitive_error():
    with pytest.raises(ParseError) as e:
        parse("torus 2\nhyp 2 4 @ 0/1\n")
    assert e.value.code == "nonprimitive"
    assert e.value.line_no == 2


def test_parse_error_codes():
    with pytest.raises(ParseError) as e:
        parse("taurus 2\n")
    assert e.value.code == "malformed" and e.value.line_no == 1
    with pytest.raises(ParseError) as e:
        parse("torus 2\nhyp 1 @ 0/1\n")
    assert e.value.code == "dimension" and e.value.line_no == 2
    with pytest.raises(ParseError) as e:
        parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 0 @ 0/1\n")
    assert e.value.code == "duplicate" and e.value.line_no == 3
    with pytest.raises(ParseError) as e:
        parse("torus 2\nhyp 1 0 @ 3/2\n")
    assert e.value.code == "malformed"
    with pytest.raises(ParseError):
        parse("# only a comment\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("line, message", [
    ("hyp {big} 1 @ 0/1", "exponents must be integers"),
    ("hyp 1 0 @ 0/{big}", "bad constant"),
    ("hyp 1 0 @ {big}/7", "bad constant"),
])
def test_parse_names_the_digit_limit(line, message):
    limit = sys.get_int_max_str_digits()
    big = "1" * (limit + 700)
    with pytest.raises(ParseError) as e:
        parse(f"torus 2\nhyp 0 1 @ 0/1\n{line.format(big=big)}\n")
    assert e.value.code == "malformed" and e.value.line_no == 3
    text = str(e.value)
    assert f"integer of {limit + 700} digits" in text and f"limit of {limit}" in text
    assert message not in text and big not in text
    # a token that is no integer keeps its message, however long it is
    with pytest.raises(ParseError, match=message):
        parse(f"torus 2\n{line.format(big=big + 'x')}\n")


def test_parse_comments_and_blanks():
    arr = parse("# heading\n\ntorus 2\nhyp 1 0 @ 0/1  # the first axis\n")
    assert arr.n == 1


def test_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        arr = random_arrangement(rng)
        assert parse(serialize(arr)) == arr
    assert serialize(four_lines()) == EX_FOUR_LINES


# -- braid / weyl families --------------------------------------------------------

def test_braid_small():
    b2 = braid(2)
    assert b2.n == 1 and b2.hypersurfaces[0].chi == (1, -1)
    assert braid(3).n == 3
    b4 = braid(4)
    assert b4.n == 6
    assert all(is_primitive(h.chi) for h in b4.hypersurfaces)
    with pytest.raises(ValueError):
        braid(1)


def test_weyl_a2():
    arr = weyl("A", 2)
    assert arr.dim == 2
    assert {h.chi for h in arr.hypersurfaces} == {(1, 0), (0, 1), (1, 1)}
    assert all(h.b == 0 for h in arr.hypersurfaces)


def test_weyl_b2_c2_g2():
    assert {h.chi for h in weyl("B", 2).hypersurfaces} == {
        (1, 0), (0, 1), (1, 1), (1, 2)}
    assert {h.chi for h in weyl("C", 2).hypersurfaces} == {
        (1, 0), (0, 1), (1, 1), (2, 1)}
    assert {h.chi for h in weyl("G2", 2).hypersurfaces} == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_weyl_a1_and_counts():
    a1 = weyl("A", 1)
    assert a1.dim == 1 and a1.n == 1 and a1.hypersurfaces[0].chi == (1,)
    assert weyl("A", 3).n == 6
    assert weyl("B", 3).n == 9
    assert weyl("C", 3).n == 9
    assert weyl("D", 3).n == 6
    assert weyl("D", 4).n == 12


def test_weyl_invalid_ranks():
    for family, rank_ in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("G2", 3)]:
        with pytest.raises(ValueError):
            weyl(family, rank_)
    with pytest.raises(ValueError):
        weyl("E", 6)


def test_weyl_simple_only_is_coordinate_arrangement():
    arr = weyl("B", 3, simple_only=True)
    assert {h.chi for h in arr.hypersurfaces} == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_positive_roots_primitive():
    for family, rank_ in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]:
        for r in positive_roots(family, rank_):
            assert is_primitive(r)


# -- restriction ------------------------------------------------------------------

def test_restrict_four_lines_last():
    arr = four_lines()
    amb = restrict(arr, 3, {0, 1, 2})
    assert amb.dim == 1
    assert {(h.chi, h.b) for h in amb.hypersurfaces} == {
        ((1,), Fraction(0)), ((1,), Fraction(1, 2))}
    # the point w = 1 is cut by all three predecessors, w = -1 only by the third
    by_b = {h.b: [r for r in range(3) if h in restrict(arr, 3, [r]).hypersurfaces]
            for h in amb.hypersurfaces}
    assert by_b == {Fraction(0): [0, 1, 2], Fraction(1, 2): [2]}


def test_restrict_empty_prefix():
    arr = four_lines()
    amb = restrict(arr, 0, set())
    assert amb.dim == 1 and amb.n == 0


def test_restrict_disconnected_trace():
    amb = restrict(two_curves(), 1, {0})
    assert amb.dim == 1 and amb.n == 3
    assert {h.b for h in amb.hypersurfaces} == {
        Fraction(0), Fraction(1, 3), Fraction(2, 3)}


def test_traces_entries():
    arr = two_curves()
    assert _traces(_keys(arr), 1)[1] == ()
    assert {(h.chi, h.b) for h in restrict(arr, 1, [0]).hypersurfaces} == {
        ((1,), Fraction(k, 3)) for k in range(3)}
    # parallel hypersurfaces are disjoint
    parallel = parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 0 @ 1/2\n")
    assert _traces(_keys(parallel), 0) == ((), ())
    assert restrict(parallel, 0, [1]).hypersurfaces == ()


def _trace_corpus():
    rng = random.Random(5)
    arrs = [four_lines(), two_curves(), weyl("G2", 2), weyl("B", 3), weyl("C", 3),
            weyl("D", 4), braid(4)]
    return arrs + [random_arrangement(rng, max_l=4, max_n=7) for _ in range(300)]


def test_traces_match_reference():
    """The trace of K_r on K_i, read as ``restrict(arr, i, [r])``, has the
    same entries in the same order as the completion-to-basis frame of
    ``traces_reference``, component t at position t."""
    for arr in _trace_corpus():
        for i in range(arr.n):
            reference = traces_reference(arr, i)
            assert _traces(_keys(arr), i)[i] == reference[i] == ()
            for r in range(arr.n):
                if r != i:
                    assert restrict(arr, i, [r]).hypersurfaces == reference[r]


def test_dr_frame_is_the_sweep_frame():
    """The deletion-restriction traces on K_i are read in the frame the poset
    sweep gives the codim-1 component K_i: same keys, same piece order."""
    for arr in _trace_corpus():
        keys = _keys(arr)
        torus = LocalFrame.torus(arr.dim)
        for i, (chi, (num, den)) in enumerate(keys):
            frame = torus.child(chi, chi, num, den)
            swept = tuple(() if tr is None else tuple((tr[0], pair) for pair in tr[1])
                          for tr in (frame.trace(c, p, q) for c, (p, q) in keys))
            assert _traces(keys, i) == swept


def test_restrict_is_union_of_traces():
    """restrict is the union of the one-hypersurface restrictions over the
    prefix: each component once, in order of first occurrence over the
    sorted prefix."""
    rng = random.Random(18)
    arrs = [random_arrangement(rng, max_l=4, max_n=6) for _ in range(60)]
    arrs += [four_lines(), two_curves(), weyl("G2", 2), weyl("B", 3), braid(4)]
    for arr in arrs:
        for i in range(arr.n):
            prefix = [r for r in range(arr.n) if r != i and rng.random() < 0.6]
            rng.shuffle(prefix)
            union = []
            for r in sorted(prefix):
                union += [h for h in restrict(arr, i, [r]).hypersurfaces if h not in union]
            assert restrict(arr, i, prefix) == ToricArrangement(arr.dim - 1, tuple(union))


def test_restrict_errors():
    arr = four_lines()
    with pytest.raises(ValueError):
        restrict(arr, 0, {0})
    with pytest.raises(ValueError):
        restrict(arr, 9, set())


def test_restrict_output_primitive_and_counts():
    """Restricted characters are primitive; the hypersurface count equals the
    number of distinct components among the pairwise traces."""
    rng = random.Random(17)
    for _ in range(40):
        arr = random_arrangement(rng, max_l=3, max_n=4)
        if arr.n < 2:
            continue
        i = rng.randrange(arr.n)
        prefix = [r for r in range(arr.n) if r != i and rng.random() < 0.7]
        res = restrict(arr, i, prefix)
        assert res.dim == arr.dim - 1
        for h in res.hypersurfaces:
            assert is_primitive(h.chi)
        counts = pair_step_counts(arr, (*prefix, i))
        assert res.n == (counts[-1] if prefix else 0)


def test_weyl_a_matches_braid_layers():
    """weyl(A, l-1) is the essential braid arrangement: identical poset
    rank-generating functions for l = 3, 4."""
    for l in (3, 4):
        sizes_braid = build_poset(braid(l)).layer_sizes()
        sizes_weyl = build_poset(weyl("A", l - 1)).layer_sizes()
        assert sizes_braid == sizes_weyl
