import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from toricarr.arrangement import Hypersurface, ToricArrangement, braid, parse, weyl
from toricarr.lattice import IntMatrix, rank, saturation, snf
from toricarr.poset import (
    build_poset,
    component_contains,
    full_torus,
    intersect_system,
    is_unimodular,
    _holds,
)

from oracles import (
    grid_component_count,
    intersect_system_reference,
    is_unimodular_matrix,
    local_lattice_poincare,
    mobius_by_ancestors,
    poset_reference,
    random_arrangement,
    random_unimodular_arrangement,
    saturation_reference,
    subset_sweep_components,
    unimodular_by_definition,
    unimodular_by_subsets,
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


def _assert_same_components(comps, ref):
    """The same components as the reference, as sets, each of the right
    dimension and with its witness on it (every label row takes its value
    there).  Witnesses of positive-dimensional components and the list
    order may differ from the reference's."""
    assert len(comps) == len(ref)
    assert set(comps) == set(ref)
    for c in comps:
        assert c.dim == c.sat_basis.cols - c.codim
        for h, value in zip(c.sat_basis.entries, c.values):
            assert sum((a * b for a, b in zip(h, c.witness)), Fraction(0)) % 1 == value


def _system_kinds(a, b):
    """The kinds of character system a test set must include."""
    return Counter({"zero rows": a.rows == 0,
                    "inconsistent": not intersect_system_reference(a, b),
                    "torsion": any(d > 1 for d in snf(a).divisors()),
                    "rank deficient": rank(a) < a.rows})


def _assert_all_kinds(kinds, least):
    assert min(kinds[k] for k in ("zero rows", "inconsistent", "torsion",
                                  "rank deficient")) >= least, kinds


def _random_system(rng):
    l = rng.randint(1, 3)
    k = rng.randint(0, 4)
    a = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(l)] for _ in range(k)], cols=l)
    den = rng.choice((1, 2, 3, 4, 6))
    # values outside [0, 1) too: both sides reduce them mod 1
    b = tuple(Fraction(rng.randint(-den, 2 * den), den) for _ in range(k))
    return a, b


def test_intersect_system_matches_reference_random():
    rng = random.Random(61)
    kinds = Counter()
    for _ in range(600):
        a, b = _random_system(rng)
        _assert_same_components(intersect_system(a, b), intersect_system_reference(a, b))
        kinds += _system_kinds(a, b)
    _assert_all_kinds(kinds, 20)


def test_intersect_system_integer_values():
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    _assert_same_components(intersect_system(a, (0, 1)),
                            intersect_system_reference(a, (Fraction(0), Fraction(0))))


def test_saturation_matches_reference_random():
    rng = random.Random(62)
    for _ in range(300):
        l = rng.randint(1, 4)
        k = rng.randint(0, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(l)] for _ in range(k)], cols=l)
        assert saturation(a) == saturation_reference(a)


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


POSET_CORPUS = [
    four_lines, two_curves,
    lambda: weyl("A", 2), lambda: weyl("A", 3), lambda: weyl("A", 4),
    lambda: weyl("A", 5), lambda: weyl("B", 3), lambda: weyl("B", 4),
    lambda: weyl("C", 3), lambda: weyl("D", 4), lambda: weyl("G2", 2),
    lambda: braid(3), lambda: braid(4), lambda: braid(5),
]
POSET_IDS = ["four_lines", "two_curves", "A2", "A3", "A4", "A5", "B3", "B4",
             "C3", "D4", "G2", "braid3", "braid4", "braid5"]


def _assert_mobius_alternates(poset):
    # [T, W] is the lattice of flats of W's local central arrangement, in
    # which mu(T, W) is nonzero with the sign (-1)^rank
    for mu, comp in zip(poset.mobius, poset.components):
        assert (-1) ** comp.codim * mu > 0


def _assert_poset_matches_reference(arr):
    """Labels, dims, order, covers, mu and the verdict exactly; witnesses
    only as points: each lies on its component (every label row takes its
    value there) and sees the same hypersurfaces as the reference's.  mu
    alternates in sign."""
    poset, ref = build_poset(arr), poset_reference(arr)
    _assert_mobius_alternates(poset)
    assert poset.components == ref.components
    assert [c.dim for c in poset.components] == [c.dim for c in ref.components]
    assert poset.covers == ref.covers
    assert poset.mobius == ref.mobius
    assert poset.unimodular == ref.unimodular
    for comp, other in zip(poset.components, ref.components):
        for h, value in zip(comp.sat_basis.entries, comp.values):
            assert sum((a * b for a, b in zip(h, comp.witness)), Fraction(0)) % 1 == value
        for h in arr.hypersurfaces:
            assert _holds(comp, h.chi, h.b) == _holds(other, h.chi, h.b)


@pytest.mark.parametrize("make", POSET_CORPUS, ids=POSET_IDS)
def test_poset_matches_reference(make):
    _assert_poset_matches_reference(make())


def test_poset_matches_reference_random():
    rng = random.Random(63)
    kinds = Counter()
    for _ in range(200):
        arr = random_arrangement(rng, max_l=3, max_n=6)
        _assert_poset_matches_reference(arr)
        kinds += _system_kinds(arr.char_matrix(), arr.b_vector())
    _assert_all_kinds(kinds, 5)
    # rank 4: curves of codimension 3 are expanded in frames of their own
    rng = random.Random(64)
    for _ in range(60):
        _assert_poset_matches_reference(random_arrangement(rng, max_l=4, max_n=6))


def test_poset_order_consistent_with_dimension():
    poset = build_poset(four_lines())
    for i, j in poset.covers:
        assert poset.components[i].dim + 1 == poset.components[j].dim


def _weyl_from_cartan(cartan, positive):
    """Toric Weyl arrangement from a Cartan matrix c[i][j] = <alpha_j,
    alpha_i^vee> (``weyl`` has no exceptional types): the positive roots by
    reflection closure of the simple roots, ``positive`` of them."""
    rank_ = len(cartan)
    roots = {tuple(int(j == i) for j in range(rank_)) for i in range(rank_)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, row in enumerate(cartan):
                pairing = sum(map(operator.mul, beta, row))
                refl = tuple(x - pairing if j == i else x for j, x in enumerate(beta))
                if refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        frontier = nxt
    pos = sorted(r for r in roots if min(r) >= 0)
    assert len(pos) == positive
    return ToricArrangement(rank_, tuple(Hypersurface(r, Fraction(0)) for r in pos))


def f4():
    """F4, alpha_3 and alpha_4 short."""
    return _weyl_from_cartan([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], 24)


def e6():
    """E6 in Bourbaki's numbering: alpha_2 joins alpha_4 of the chain
    alpha_1 - alpha_3 - alpha_4 - alpha_5 - alpha_6."""
    cartan = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
        cartan[i][j] = cartan[j][i] = -1
    return _weyl_from_cartan(cartan, 36)


def test_poset_f4():
    poset = build_poset(f4())
    assert len(poset.components) == 441
    assert poset.mobius == mobius_by_ancestors(poset)
    assert poset.layer_sizes() == (1, 24, 140, 204, 72)
    poincare = poset.poincare()
    assert poincare.coefficients == (1, 28, 286, 1260, 2153)
    assert sum((-1) ** k * c for k, c in enumerate(poincare.coefficients)) == 1152


def test_poset_e6():
    """|W(E6)|/f = 51840/3 = 17280 = P(-1).  Components sharing their set of
    containing hypersurfaces must stay apart: 5,119 components have 5,079
    such sets, 40 of them holding two components each (read off the covers:
    a component lies in the hypersurfaces of codim 1 above it)."""
    poset = build_poset(e6())
    assert len(poset.components) == 5119
    assert poset.mobius == mobius_by_ancestors(poset)
    assert poset.layer_sizes() == (1, 36, 390, 1530, 2136, 909, 117)
    poincare = poset.poincare()
    assert poincare.coefficients == (1, 42, 705, 6020, 27459, 63378, 58555)
    assert sum((-1) ** k * c for k, c in enumerate(poincare.coefficients)) == 17280
    within = [1 << k if comp.codim == 1 else 0 for k, comp in enumerate(poset.components)]
    for i, j in sorted(poset.covers, key=lambda cover: poset.components[cover[0]].codim):
        within[i] |= within[j]
    assert sorted(Counter(Counter(within).values()).items()) == [(1, 5039), (2, 40)]


@pytest.mark.parametrize("make", [f4, lambda: weyl("B", 5)], ids=["F4", "B5"])
def test_mobius_alternates(make):
    poset = build_poset(make())
    _assert_mobius_alternates(poset)
    assert poset.mobius == mobius_by_ancestors(poset)


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


# two curves in a 3-torus with an index-2 joint lattice: all 3x3 minors
# vanish, but the intersection is disconnected
RANK_DEFICIENT_DISCONNECTED = "torus 3\nhyp 1 1 0 @ 0/1\nhyp 1 -1 0 @ 0/1\n"


def test_unimodular_rank_deficient_disconnected():
    arr = parse(RANK_DEFICIENT_DISCONNECTED)
    assert not is_unimodular(arr)


@pytest.mark.parametrize("make", [
    lambda: braid(5),  # rank 4 in a 5-torus: the minor criterion does not apply
    lambda: parse(RANK_DEFICIENT_DISCONNECTED),
    four_lines, two_curves, lambda: weyl("A", 3), lambda: weyl("B", 2),
], ids=["braid5", "rank_deficient_disconnected", "four_lines", "two_curves",
        "A3", "B2"])
def test_is_unimodular_matches_definition(make):
    arr = make()
    assert is_unimodular(arr) == unimodular_by_definition(arr)


def test_is_unimodular_matches_definition_random():
    rng = random.Random(64)
    verdicts = Counter()
    for k in range(160):
        if k % 4:
            arr = random_arrangement(rng, max_l=3, max_n=5)
        else:
            arr = random_unimodular_arrangement(rng, max_n=5)
        verdict = is_unimodular(arr)
        assert verdict == unimodular_by_definition(arr)
        verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


SWEEP_FAMILIES = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                  ("B", 5), ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5), ("G2", 2)]


@pytest.mark.parametrize("make", [lambda f=f, r=r: weyl(f, r) for f, r in SWEEP_FAMILIES]
                         + [lambda n=n: braid(n) for n in range(3, 7)],
                         ids=[f"{f}{r}" for f, r in SWEEP_FAMILIES]
                         + [f"braid{n}" for n in range(3, 7)])
def test_sweep_verdict_matches_subsets(make):
    arr = make()
    assert build_poset(arr).unimodular == is_unimodular(arr) == unimodular_by_subsets(arr)


def test_sweep_verdict_matches_subsets_random():
    rng = random.Random(66)
    verdicts = Counter()
    for k in range(320):
        if k % 3:
            arr = random_arrangement(rng, max_l=4, max_n=7)
        else:
            arr = random_unimodular_arrangement(rng, max_l=4, max_n=7)
        verdict = unimodular_by_subsets(arr)
        assert build_poset(arr).unimodular == is_unimodular(arr) == verdict
        verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_is_unimodular_stops_at_first_split(monkeypatch):
    """B5: the torus and the first component are the only components
    expanded, since that component is split; the full sweep expands 932 (one
    per component of positive dimension)."""
    import toricarr.poset as poset_module

    expanded = []
    sweep = poset_module._sweep

    def counted(arr, found, *rest):
        for split in sweep(arr, found, *rest):
            expanded.append(found[len(expanded)].dim)
            yield split

    monkeypatch.setattr(poset_module, "_sweep", counted)
    assert not is_unimodular(weyl("B", 5))
    assert len(expanded) == 2
    expanded.clear()
    build_poset(weyl("B", 5))
    assert sum(dim > 0 for dim in expanded) == 932


def test_sweep_solves_no_system(monkeypatch):
    """The sweep builds every child from its parent's frame."""
    import toricarr.poset as poset_module

    def refuse(a, b):
        raise AssertionError("intersect_system reached from the sweep")

    monkeypatch.setattr(poset_module, "intersect_system", refuse)
    rng = random.Random(67)
    arrs = [weyl("B", 4), weyl("D", 4), weyl("G2", 2), braid(5)]
    arrs += [random_arrangement(rng, max_l=4, max_n=6) for _ in range(40)]
    for arr in arrs:
        build_poset(arr)
        is_unimodular(arr)


def test_sweep_completes_each_piece_once(monkeypatch):
    """Type A is unimodular, so every containing set is connected and names
    its one component: each new component takes one completion, the one
    that builds its frame, and a repeat cover takes none."""
    import toricarr.arrangement as arrangement_module

    calls = []
    completion = arrangement_module.completion

    def counted(v):
        calls.append(v)
        return completion(v)

    monkeypatch.setattr(arrangement_module, "completion", counted)
    for rank_, new in ((4, 51), (5, 202)):
        calls.clear()
        poset = build_poset(weyl("A", rank_))
        assert len(calls) == len(poset.components) - 1 == new


def test_is_unimodular_matches_maximal_minors():
    """On a full-rank character matrix, every subset intersection is empty or
    connected iff every maximal minor lies in {-1, 0, 1}."""
    rng = random.Random(65)
    arrs = [weyl(f, r) for f, r in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2),
                                    ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                                    ("G2", 2)]]
    arrs += [random_arrangement(rng, max_l=4, max_n=6) for _ in range(200)]
    verdicts = Counter()
    for arr in arrs:
        chars = arr.char_matrix()
        if rank(chars) < arr.dim:
            continue
        verdict = is_unimodular(arr)
        assert verdict == is_unimodular_matrix(chars), chars.entries
        verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts
