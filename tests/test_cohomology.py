import random
from itertools import permutations
from math import factorial

import pytest

from toricarr import cohomology
from toricarr.arrangement import ToricArrangement, _keys, braid, parse, weyl
from toricarr.cohomology import (
    DrHypothesisError,
    dcp_poincare,
    dr_condition_check,
    dr_poincare,
    find_dr_ordering,
)
from toricarr.polynomial import Polynomial
from toricarr.poset import is_unimodular

from oracles import (
    chromatic_poincare,
    dr_poincare_reference,
    find_dr_ordering_reference,
    graphic,
    pair_step_counts,
    random_arrangement,
    random_unimodular_arrangement,
    weyl_poincare_closed_form,
    whitney_poincare,
)


def four_lines():
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
                 "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")


def two_curves():
    return parse("torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n")


def prefix_arrangement(arr, ordering, k):
    return ToricArrangement(arr.dim, tuple(arr.hypersurfaces[i] for i in ordering[:k]))


# -- dcp method -----------------------------------------------------------------

def test_dcp_four_lines():
    assert dcp_poincare(four_lines()) == Polynomial((1, 6, 9))


def test_dcp_empty():
    assert dcp_poincare(ToricArrangement(2, ())) == Polynomial((1, 2, 1))


def test_dcp_braid2():
    assert dcp_poincare(braid(2)) == Polynomial((1, 3, 2))


# -- the deletion-restriction condition --------------------------------------------

def test_condition_four_lines_identity():
    rep = dr_condition_check(four_lines(), (0, 1, 2, 3))
    assert rep.verdict
    assert rep.step_counts == (1, 1, 2)


def test_condition_two_curves_all_orderings():
    arr = two_curves()
    for ordering in permutations(range(2)):
        rep = dr_condition_check(arr, ordering)
        assert not rep.verdict
        assert rep.step_counts == (3,)


def test_condition_single_hypersurface():
    arr = parse("torus 1\nhyp 1 @ 0/1\n")
    rep = dr_condition_check(arr, (0,))
    assert rep.verdict and rep.step_counts == ()


def test_condition_invalid_permutation():
    with pytest.raises(ValueError):
        dr_condition_check(four_lines(), (0, 1, 2))


def test_step_counts_match_pair_components():
    """Step counts equal the distinct pairwise poset components, and the
    search returns the lexicographically first ordering that passes."""
    rng = random.Random(29)
    arrs = [random_arrangement(rng, max_l=4, max_n=6) for _ in range(60)]
    arrs += [weyl("B", 3), two_curves()]
    for arr in arrs:
        for _ in range(5):
            p = tuple(rng.sample(range(arr.n), arr.n))
            assert dr_condition_check(arr, p).step_counts == pair_step_counts(arr, p)
        passing = (p for p in permutations(range(arr.n))
                   if all(c <= k for k, c in enumerate(pair_step_counts(arr, p), start=1)))
        assert find_dr_ordering(arr).ordering == next(passing, None)


def test_find_ordering():
    assert find_dr_ordering(four_lines()).ordering == (0, 1, 2, 3)
    assert find_dr_ordering(two_curves()).ordering is None
    rep = find_dr_ordering(braid(3))
    assert rep.verdict and rep.ordering is not None


# -- dr method ----------------------------------------------------------------------

def test_dr_four_lines_chain():
    arr = four_lines()
    expected = [Polynomial((1, 2, 1)), Polynomial((1, 3, 2)), Polynomial((1, 4, 4)),
                Polynomial((1, 5, 6)), Polynomial((1, 6, 9))]
    for k in range(5):
        prefix = prefix_arrangement(arr, (0, 1, 2, 3), k)
        assert dr_poincare(prefix, tuple(range(k))) == expected[k]


def test_dr_single_point_in_torus():
    arr = parse("torus 1\nhyp 1 @ 0/1\n")
    assert dr_poincare(arr, (0,)) == Polynomial((1, 2))


def test_dr_empty():
    assert dr_poincare(ToricArrangement(3, ()), ()) == Polynomial((1, 3, 3, 1))


def test_dr_refuses_two_curves():
    arr = two_curves()
    for ordering in permutations(range(2)):
        with pytest.raises(DrHypothesisError):
            dr_poincare(arr, ordering)


def _outcome(poincare, arr, ordering):
    try:
        return poincare(arr, ordering)
    except (DrHypothesisError, ValueError) as exc:
        return type(exc), str(exc)


def test_dr_layer_matches_reference():
    """The dead-set search and the memoized recursion agree with the plain
    search and the unmemoized, re-checking recursion: same ordering, counts
    and verdict, and the same polynomial or refusal along the found and the
    identity ordering."""
    rng = random.Random(0)
    arrs = [random_arrangement(rng, max_l=4, max_n=8) for _ in range(300)]
    arrs += [weyl("A", 4), weyl("B", 3), weyl("C", 3), weyl("D", 4), weyl("G2", 2), braid(5)]
    non_dr = refusals = 0
    for arr in arrs:
        expected = find_dr_ordering_reference(arr)
        assert find_dr_ordering(arr) == expected
        non_dr += expected.ordering is None
        for ordering in {expected.ordering, tuple(range(arr.n))} - {None}:
            result = _outcome(dr_poincare, arr, ordering)
            assert result == _outcome(dr_poincare_reference, arr, ordering)
            refusals += isinstance(result, tuple)
    assert non_dr >= 100 and refusals >= 100


def test_dr_along_shuffled_orderings_matches_reference():
    """Along passing orderings in no sorted order, the recursion restricts to
    ``restrict(arr, i, prefix)``, the union over the sorted prefix: the nested
    searches, and so the polynomials and refusals, agree with the reference."""
    rng = random.Random(3)
    cases = refusals = 0
    for _ in range(300):
        arr = random_arrangement(rng, max_l=5, max_n=8)
        for _ in range(3):
            ordering = tuple(rng.sample(range(arr.n), arr.n))
            if not dr_condition_check(arr, ordering).verdict:
                continue
            result = _outcome(dr_poincare, arr, ordering)
            assert result == _outcome(dr_poincare_reference, arr, ordering)
            cases += 1
            refusals += isinstance(result, tuple)
    assert cases >= 400 and refusals >= 50


# -- betti and method agreement -------------------------------------------------------

def test_betti_examples():
    assert dcp_poincare(four_lines()).coefficients == (1, 6, 9)
    assert dcp_poincare(ToricArrangement(3, ())).coefficients == (1, 3, 3, 1)
    factored = Polynomial((1, 1)) * Polynomial((1, 2)) * Polynomial((1, 3))
    b3 = braid(3)
    assert dcp_poincare(b3).coefficients == factored.coefficients
    rep = find_dr_ordering(b3)
    assert dr_poincare(b3, rep.ordering) == factored


def test_generator_count_four_lines():
    # degree-1 classes: 2 coordinate forms plus 4 character forms
    assert dcp_poincare(four_lines()).coefficient(1) == 6


def test_methods_agree_when_ordering_found():
    """Whenever the recursion is justified all the way down, it must agree
    with the Mobius sum over the poset exactly.  A passing top-level ordering
    does not guarantee that every restriction admits one of its own; that
    case surfaces as the documented refusal and is tolerated here."""
    rng = random.Random(71)
    agreements = 0
    for _ in range(40):
        arr = random_arrangement(rng, max_l=3, max_n=4)
        rep = find_dr_ordering(arr)
        if rep.ordering is None:
            continue
        try:
            poly = dr_poincare(arr, rep.ordering)
        except DrHypothesisError:
            continue
        assert poly == dcp_poincare(arr)
        agreements += 1
    assert agreements >= 10


def test_restriction_may_fail_dr_even_if_parent_passes():
    """The count condition can hold for the parent while a restriction is
    disconnected beyond repair; the recursion must refuse, not guess."""
    arr = parse("torus 3\nhyp 1 -2 2 @ 1/3\nhyp 2 0 1 @ 0/1\nhyp 1 2 1 @ 0/1\n")
    rep = find_dr_ordering(arr)
    assert rep.ordering == (0, 1, 2)
    with pytest.raises(DrHypothesisError):
        dr_poincare(arr, rep.ordering)


def test_b4_refusal_depends_on_the_nested_orderings():
    """Along the identity ordering of B4 a nested restriction,
    {(1,2) @ 0, (1,0) @ 0} in dimension 2, admits no ordering, so the
    recursion refuses.  It is met along some nested orderings and not
    others: a memo keyed on sorted hypersurfaces would reuse a polynomial
    reached along another one and answer 1 20 146 460 525 (the dcp value)."""
    with pytest.raises(DrHypothesisError, match="restriction to hypersurface 3 admits no "
                                                "deletion-restriction ordering"):
        dr_poincare(weyl("B", 4), tuple(range(16)))


def test_search_and_recursion_share_the_top_level_traces(monkeypatch):
    """``find_dr_ordering`` then ``dr_poincare`` on one object, as
    ``analyze`` and ``poincare --method=dr`` call them, build each trace of
    the top-level arrangement once; another object builds its own."""
    arr = weyl("B", 3)
    keys = _keys(arr)
    calls = []
    traces_of = cohomology._traces

    def counted(k, i):
        if k == keys:
            calls.append(i)
        return traces_of(k, i)

    monkeypatch.setattr(cohomology, "_traces", counted)
    dr_poincare(arr, find_dr_ordering(arr).ordering)
    assert calls and len(calls) == len(set(calls))
    first = len(calls)
    find_dr_ordering(weyl("B", 3))
    assert len(calls) > first


def test_dr_steps_monotone():
    """Along a passing ordering, each step only adds cohomology."""
    rng = random.Random(83)
    for _ in range(20):
        arr = random_unimodular_arrangement(rng, max_l=3, max_n=4)
        rep = find_dr_ordering(arr)
        if rep.ordering is None:
            continue
        prev = dr_poincare(prefix_arrangement(arr, rep.ordering, 0), ())
        for k in range(1, arr.n + 1):
            cur = dr_poincare(prefix_arrangement(arr, rep.ordering, k), tuple(range(k)))
            for deg in range(max(prev.degree, cur.degree) + 1):
                assert cur.coefficient(deg) >= prev.coefficient(deg)
            prev = cur


def test_unimodular_arrangements_are_dr_type():
    rng = random.Random(97)
    for _ in range(30):
        arr = random_unimodular_arrangement(rng)
        rep = find_dr_ordering(arr)
        assert rep.ordering is not None
        assert dr_poincare(arr, rep.ordering) == dcp_poincare(arr)


# -- graphic arrangements: chi is the chromatic polynomial -----------------------

def _cycle(nv):
    return [(i, (i + 1) % nv) for i in range(nv)]


def _random_graphs(count, seed=15):
    """Seeded graphs on at most 7 vertices with at most 12 edges (the search limit)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(4, 7)
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        out.append((nv, rng.sample(pairs, rng.randint(nv - 1, min(12, len(pairs))))))
    return out


GRAPHS = {
    "C4": (4, _cycle(4)),
    "C5": (5, _cycle(5)),
    "K4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "K4-e": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "C6+chord": (6, _cycle(6) + [(0, 3)]),
    "W5": (6, _cycle(5) + [(5, i) for i in range(5)]),
    "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    **{f"random-{k}": g for k, g in enumerate(_random_graphs(12))},
}


@pytest.mark.parametrize("name,expected", [
    ("C6+chord", (1, 13, 71, 207, 337, 287, 98)),
    ("W5", (1, 16, 105, 360, 674, 644, 240)),
    ("K33", (1, 15, 96, 329, 624, 607, 230)),
])
def test_chromatic_closed_form_values(name, expected):
    assert chromatic_poincare(*GRAPHS[name]).coefficients == expected


@pytest.mark.parametrize("name", GRAPHS)
def test_graphic_arrangements_match_the_chromatic_closed_form(name):
    """A graph's incidence matrix is totally unimodular, so its arrangement
    is unimodular and every ordering passes; both methods give the closed form."""
    nv, edges = GRAPHS[name]
    arr, expected = graphic(nv, edges), chromatic_poincare(nv, edges)
    assert dcp_poincare(arr) == expected
    assert is_unimodular(arr)
    rep = find_dr_ordering(arr)
    assert rep.verdict
    assert dr_poincare(arr, rep.ordering) == expected
    rng = random.Random(name)
    for _ in range(3):
        ordering = tuple(rng.sample(range(arr.n), arr.n))
        assert dr_condition_check(arr, ordering).verdict
        assert dr_poincare(arr, ordering) == expected


def test_petersen_graph_dcp():
    """n = 15 is past the ordering search, so only dcp is checked."""
    outer = _cycle(5)
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = outer + inner + [(i, i + 5) for i in range(5)]
    expected = (1, 25, 285, 1955, 8948, 28556, 64250, 100260, 103156, 62524, 16680)
    assert chromatic_poincare(10, edges).coefficients == expected
    assert dcp_poincare(graphic(10, edges)) == Polynomial(expected)


def test_weyl_a2_poincare():
    assert dcp_poincare(weyl("A", 2)).coefficients == (1, 5, 6)


def test_braid_product_formula():
    """Configuration spaces of points in C*: Poin(braid(l)) = prod (1 + kt)."""
    for l in (2, 3, 4, 5, 6):
        expected = Polynomial((1,))
        for k in range(1, l + 1):
            expected = expected * Polynomial((1, k))
        arr = braid(l)
        assert dcp_poincare(arr) == expected
        # the type-A Weyl arrangement is the essential quotient
        assert Polynomial((1, 1)) * dcp_poincare(weyl("A", l - 1)) == expected
        if l >= 5:
            # braid(6) has 15 hypersurfaces, past the search limit: identity ordering
            ordering = find_dr_ordering(arr).ordering if l == 5 else tuple(range(arr.n))
            assert dr_poincare(arr, ordering) == expected


def test_dcp_matches_whitney_subset_formula():
    """dcp_poincare against the characteristic polynomial summed over all
    2^n subsets of hypersurfaces, which builds no poset."""
    rng = random.Random(41)
    arrs = [weyl("G2", 2), weyl("A", 3), weyl("B", 3), weyl("C", 3), weyl("D", 4), braid(4)]
    arrs += [random_arrangement(rng, max_l=3, max_n=6) for _ in range(50)]
    for arr in arrs:
        assert whitney_poincare(arr) == dcp_poincare(arr)


def test_h2_from_identity_step_counts():
    """b_2 without a poset: C(l, 2) from the torus, l - 1 per hypersurface,
    and |mu(W)| = m - 1 for a codim-2 component W in m hypersurfaces, which
    the identity ordering counts once on each of the last m - 1 of them."""
    arrs = [weyl("A", r) for r in (2, 3, 4, 5)] + [weyl("B", r) for r in (2, 3, 4)]
    arrs += [weyl("C", 3), weyl("D", 4), weyl("G2", 2)] + [braid(l) for l in (3, 4, 5)]
    arrs += [graphic(*g) for name, g in GRAPHS.items() if not name.startswith("random-")]
    rng = random.Random(3)
    arrs += [random_arrangement(rng, max_l=4, max_n=7) for _ in range(150)]
    for arr in arrs:
        l, n = arr.dim, arr.n
        steps = sum(dr_condition_check(arr, range(n)).step_counts)
        assert l * (l - 1) // 2 + n * (l - 1) + steps == dcp_poincare(arr).coefficient(2)
    assert dcp_poincare(weyl("G2", 2)).coefficient(2) == 19
    assert dcp_poincare(graphic(*GRAPHS["C6+chord"])).coefficient(2) == 71


# order of the Weyl group, and index of connection (determinant of the Cartan matrix)
_WEYL_ORDER = {"A": lambda r: factorial(r + 1), "B": lambda r: 2 ** r * factorial(r),
               "C": lambda r: 2 ** r * factorial(r), "D": lambda r: 2 ** (r - 1) * factorial(r),
               "G2": lambda r: 12}
_CONNECTION_INDEX = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2,
                     "D": lambda r: 4, "G2": lambda r: 1}


@pytest.mark.parametrize("family, rank_", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("B", 5), ("G2", 2)])
def test_weyl_euler_characteristic(family, rank_):
    """Toric Weyl arrangements: P(-1) = (-1)^l |W| / f, with W the Weyl
    group and f the index of connection."""
    arr = weyl(family, rank_)
    expected = (-1) ** rank_ * _WEYL_ORDER[family](rank_) // _CONNECTION_INDEX[family](rank_)
    polys = [dcp_poincare(arr)]
    if arr.n <= 12:
        rep = find_dr_ordering(arr)
        if rep.ordering is not None:
            polys.append(dr_poincare(arr, rep.ordering))
    for poly in polys:
        assert sum((-1) ** k * c for k, c in enumerate(poly.coefficients)) == expected


@pytest.mark.parametrize("family, rank_, by_dr", [
    ("A", 2, True), ("A", 3, True), ("A", 4, True), ("A", 5, False), ("B", 2, True),
    ("B", 3, True), ("B", 4, False), ("C", 3, True), ("C", 4, False), ("D", 4, True),
    ("D", 5, False), ("G2", 2, True)])
def test_weyl_poincare_matches_closed_form(family, rank_, by_dr):
    """dcp, and dr along the ordering ``find_dr_ordering`` finds where DR
    answers, against the point count over the fundamental alcove."""
    arr = weyl(family, rank_)
    expected = weyl_poincare_closed_form(family, rank_)
    assert dcp_poincare(arr) == expected
    if by_dr:
        rep = find_dr_ordering(arr)
        assert rep.ordering is not None
        assert dr_poincare(arr, rep.ordering) == expected


def test_torsion_constants_fixture():
    """{z1 = 1, z2 = 1, z1 z2 = -1}: three double points, both methods."""
    arr = parse("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\nhyp 1 1 @ 1/2\n")
    assert dcp_poincare(arr) == Polynomial((1, 5, 7))
    rep = find_dr_ordering(arr)
    assert rep.ordering is not None
    assert dr_poincare(arr, rep.ordering) == Polynomial((1, 5, 7))


def test_points_in_punctured_line_are_wedges_of_circles():
    """C* minus k points is homotopy equivalent to a wedge of k+1 circles."""
    for k, bs in [(1, ["0/1"]), (2, ["0/1", "1/2"]), (3, ["0/1", "1/3", "2/3"]),
                  (4, ["0/1", "1/2", "1/3", "2/3"])]:
        text = "torus 1\n" + "".join(f"hyp 1 @ {b}\n" for b in bs)
        arr = parse(text)
        expected = Polynomial((1, k + 1))
        assert dcp_poincare(arr) == expected
        assert dr_poincare(arr, tuple(range(k))) == expected
        from toricarr.poset import build_poset
        assert build_poset(arr).layer_sizes() == (1, k)
