"""Independent brute-force oracles, fixtures, and random instance generators."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product, zip_longest
from math import comb, factorial, gcd, lcm, prod
from operator import mul

import numpy as np

from toricarr.arrangement import (
    Hypersurface,
    LocalFrame,
    ToricArrangement,
    mod1,
    parse,
    positive_roots,
)
from toricarr.cohomology import DrHypothesisError, DrReport
from toricarr.forms import (
    RelationBasis,
    _points,
    eval_generator,
    generators,
    wedge_monomials,
)
from toricarr.hyperplane import top_local_multiplicity
from toricarr.lattice import (
    HNFResult,
    IntMatrix,
    _freeze,
    completion,
    left_kernel,
    snf,
)
from toricarr.polynomial import Polynomial
from toricarr.poset import (
    Component,
    IntersectionPoset,
    build_poset,
    full_torus,
)


def poly_add(p, q):
    """p + q."""
    return Polynomial(tuple(map(sum, zip_longest(p.coefficients, q.coefficients, fillvalue=0))))


def poly_shift(p, k):
    """t^k * p."""
    return Polynomial((0,) * k + p.coefficients)


def binomial(k):
    """(1 + t)^k."""
    return Polynomial(tuple(comb(k, j) for j in range(k + 1)))


FOUR_LINES_TEXT = ("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
                   "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")
TWO_CURVES_TEXT = "torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n"


def four_lines():
    """{z1 = 1, z2 = 1, z1 z2 = 1, z1/z2 = 1}: non-unimodular, DR-type."""
    return parse(FOUR_LINES_TEXT)


def two_curves():
    """{z1 = 1, z1 z2^3 = 1}: not of deletion-restriction type."""
    return parse(TWO_CURVES_TEXT)


# The six degree-2 relations of the four-lines complement, as coefficient
# dictionaries over generator index pairs (xi1 xi2 psi1 psi2 psi3 psi4).
FOUR_LINES_RELATIONS = [
    {(0, 2): 1},                                                    # xi1 psi1
    {(1, 3): 1},                                                    # xi2 psi2
    {(0, 4): 1, (1, 4): 1},                                         # (xi1+xi2) psi3
    {(0, 5): 1, (1, 5): -1},                                        # (xi1-xi2) psi4
    {(2, 3): 1, (2, 4): -1, (3, 4): 1, (1, 4): -1},
    {(2, 5): 1, (2, 4): -1, (3, 4): 1, (1, 4): -1, (3, 5): -1, (1, 2): -1},
]


def coeff_vector(arr, terms):
    """Coefficient vector over the wedge monomials from {(a, b): coeff}."""
    monos = wedge_monomials(arr.dim, arr.n)
    out = np.zeros(len(monos), dtype=complex)
    for pair, c in terms.items():
        out[monos.index(pair)] = c
    return out


def monomial_matrix_reference(gens, monos, z):
    """Wedge-monomial evaluation block by a per-entry loop: rows are the
    pairs p < q of Lambda^2 components, columns the monomials (a, b)."""
    l = len(z)
    covs = [eval_generator(g, z) for g in gens]
    pairs = [(p, q) for p in range(l) for q in range(p + 1, l)]
    out = np.zeros((len(pairs), len(monos)), dtype=complex)
    for col, (a, b) in enumerate(monos):
        va, vb = covs[a], covs[b]
        for row, (p, q) in enumerate(pairs):
            out[row, col] = va[p] * vb[q] - va[q] * vb[p]
    return out


def degree2_relations_reference(arr, samples=None, tol=1e-8, seed=0):
    """``degree2_relations`` by the per-sample path: at each of the points
    ``_points(arr, samples, seed)``, one ``eval_generator`` per generator,
    the blocks stacked, and the thin SVD of the whole tall matrix."""
    gens = generators(arr)
    monos = wedge_monomials(arr.dim, arr.n)
    if samples is None:
        samples = 4 * len(monos)
    p, q = np.triu_indices(arr.dim, 1)
    a, b = np.triu_indices(len(gens), 1)
    blocks = []
    for z in _points(arr, samples, seed)[0]:
        covs = np.array([eval_generator(g, z) for g in gens]).reshape(len(gens), arr.dim)
        va, vb = covs[a], covs[b]
        blocks.append((va[:, p] * vb[:, q] - va[:, q] * vb[:, p]).T)
    mat = np.vstack(blocks) if blocks else np.zeros((0, len(monos)), dtype=complex)
    if mat.shape[0] == 0 or not monos:
        return RelationBasis(np.eye(len(monos), dtype=complex), tol, samples, np.zeros(0))
    _, sing, vh = np.linalg.svd(mat, full_matrices=False)
    kept = int(np.sum(sing > tol * sing[0]))
    return RelationBasis(np.conj(vh[kept:]), tol, samples, sing)


def whitney_poincare(arr):
    """Poincare polynomial from Whitney's subset formula for the
    characteristic polynomial, chi(t) = sum over subsets S of the
    hypersurfaces of (-1)^|S| m(S) t^(l - rk S), where the intersection of S
    has m(S) components, each of codimension rk S (m = 0 when it is empty);
    then P(t) = (-t)^l chi(-(1 + t)/t).  Sums 2^n Smith forms, so n <= 12."""
    if arr.n > 12:
        raise ValueError("the subset sum is limited to n <= 12")
    chars = arr.char_matrix()
    bs = arr.b_vector()
    chi = [0] * (arr.dim + 1)           # chi[c]: coefficient of t^(l - c)
    chi[0] = 1
    for size in range(1, arr.n + 1):
        for subset in combinations(range(arr.n), size):
            res = snf(IntMatrix(size, arr.dim, tuple(chars.entries[i] for i in subset)))
            d = res.divisors()
            beta = res.U.mul_vec(tuple(bs[i] for i in subset))
            if any(mod1(x) != 0 for x in beta[len(d):]):
                continue
            chi[len(d)] += (-1) ** size * prod(d)
    # (-t)^l chi(-(1+t)/t) = sum_c chi[c] (-t)^l (-(1+t)/t)^(l-c)
    #                      = sum_c chi[c] (-1)^c t^c (1+t)^(l-c)
    total = Polynomial((0,))
    for c, coeff in enumerate(chi):
        total = poly_add(total, poly_shift((-1) ** c * coeff * binomial(arr.dim - c), c))
    return total


def local_lattice_poincare(arr):
    """Poincare polynomial from a fresh local lattice at every component:
    each poset component W contributes the top Betti number of the local
    central arrangement at W times t^codim(W) * (1 + t)^dim(W)."""
    total = Polynomial((0,))
    for comp in build_poset(arr).components:
        mult = top_local_multiplicity(arr, comp)
        total = poly_add(total, poly_shift(mult * binomial(comp.dim), comp.codim))
    return total


def _alcove_count(c, total):
    """#{a in Z^l : a_i >= 1, sum c_i a_i <= total}, by coin change on a_i - 1."""
    if total < sum(c):
        return 0
    ways = [1] + [0] * (total - sum(c))
    for ci in c:
        for s in range(ci, len(ways)):
            ways[s] += ways[s - ci]
    return sum(ways)


def weyl_poincare_closed_form(family, rank_):
    """Poincare polynomial of ``weyl(family, rank_)`` by counting points.

    With c the highest root in simple-root coordinates, the q-torsion
    points off every hypersurface number chi(q) = l! * prod(c) *
    #{a_i >= 1 : sum c_i a_i <= q - 1} when lcm(c) divides q (points of
    the open fundamental alcove, |W| / f of them per alcove point).
    chi is interpolated exactly at l + 1 such q, and P(t) =
    (-t)^l chi(-(1 + t) / t).
    """
    c = max(positive_roots(family, rank_), key=sum)
    l, step = rank_, lcm(*c)
    qs = [step * (j + 1) for j in range(l + 1)]
    ys = [factorial(l) * prod(c) * _alcove_count(c, q - 1) for q in qs]
    chi = [Fraction(0)] * (l + 1)   # coefficients of q^k
    for j, (qj, yj) in enumerate(zip(qs, ys)):
        basis = [Fraction(yj)]
        for m, qm in enumerate(qs):
            if m != j:
                basis = [a - qm * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                basis = [x / (qj - qm) for x in basis]
        chi = [a + b for a, b in zip(chi, basis)]
    return _poincare_from_count(chi, l)


def _poincare_from_count(chi, l):
    """P(t) = (-t)^l chi(-(1 + t) / t), chi(q) given by its coefficients of q^k."""
    # (-t)^l (-(1+t)/t)^k = (-1)^(l+k) (1+t)^k t^(l-k)
    poly = [Fraction(0)] * (l + 1)
    for k, a in enumerate(chi):
        for j in range(k + 1):
            poly[l - k + j] += (-1) ** (l + k) * a * comb(k, j)
    assert all(x.denominator == 1 for x in poly)
    return Polynomial(tuple(int(x) for x in poly))


def graphic(nv, edges):
    """The graphic toric arrangement of a graph on the vertices 0 .. nv - 1:
    one hypersurface z_i z_j^-1 = 1 per edge (i, j)."""
    return ToricArrangement(nv, tuple(
        Hypersurface(tuple((k == i) - (k == j) for k in range(nv)), Fraction(0))
        for i, j in edges))


def chromatic_poincare(nv, edges):
    """Poincare polynomial of ``graphic(nv, edges)`` by its closed form.

    The q-torsion points off every hypersurface are the proper q-colourings
    of the graph, so chi(q) = chi_G(q) = sum_k a_k q(q - 1)...(q - k + 1),
    with a_k the number of partitions of the vertices into k independent
    sets.  A programme over vertex subsets finds the a_k in 3^nv steps: the
    block holding a set's lowest vertex is an independent set containing it.
    """
    adj = [0] * nv
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    independent = [not any(s >> v & 1 and adj[v] & s for v in range(nv)) for s in range(1 << nv)]
    parts = [[1]]   # parts[s][k]: partitions of the set s into k independent sets
    for s in range(1, 1 << nv):
        low = s & -s
        rest = b = s ^ low
        counts = [0] * (bin(s).count("1") + 1)
        while True:
            if independent[b | low]:
                for k, x in enumerate(parts[rest ^ b]):
                    counts[k + 1] += x
            if not b:
                break
            b = (b - 1) & rest
        parts.append(counts)
    chi, falling = [0] * (nv + 1), [1]   # falling: q(q - 1)...(q - k + 1)
    for k, a in enumerate(parts[-1]):
        for d, x in enumerate(falling):
            chi[d] += a * x
        falling = [lo - k * hi for lo, hi in zip([0] + falling, falling + [0])]
    return _poincare_from_count(chi, nv)


@lru_cache(maxsize=None)
def _pair_labels(ha, hb):
    sys_a = IntMatrix(2, len(ha.chi), (ha.chi, hb.chi))
    return frozenset(intersect_system_reference(sys_a, (ha.b, hb.b)))


def pair_step_counts(arr, ordering):
    """Deletion-restriction step counts from the poset labels: at step k,
    the number of distinct components of the 2-row systems
    {ordering[r], ordering[k]}, r < k, for k = 1 .. len(ordering) - 1."""
    hyps = [arr.hypersurfaces[i] for i in ordering]
    counts = []
    for k in range(1, len(hyps)):
        labels = set()
        for hr in hyps[:k]:
            labels |= _pair_labels(hr, hyps[k])
        counts.append(len(labels))
    return tuple(counts)


def _step_count_reference(arr, cache, i, prefix):
    sets = cache.get(i)
    if sets is None:
        sets = cache[i] = tuple(frozenset(t) for t in traces_reference(arr, i))
    return len(frozenset().union(*[sets[r] for r in prefix]))


def _restriction_reference(arr, i, prefix):
    """The arrangement traced on K_i by ``prefix``, from ``traces_reference``:
    each component once, in order of first occurrence over the sorted
    prefix."""
    trace = traces_reference(arr, i)
    hyps = []
    for r in sorted(prefix):
        hyps += [h for h in trace[r] if h not in hyps]
    return ToricArrangement(arr.dim - 1, tuple(hyps))


def find_dr_ordering_reference(arr):
    """First passing ordering by the plain depth-first search over
    permutations, pruning only prefixes whose last step fails."""
    n = arr.n
    if n > 12:
        raise ValueError("ordering search is factorial; limited to n <= 12")
    cache: dict = {}
    chosen: list[int] = []
    counts: list[int] = []
    used = [False] * n

    def dfs() -> bool:
        pos = len(chosen)
        if pos == n:
            return True
        for cand in range(n):
            if used[cand]:
                continue
            if pos:
                count = _step_count_reference(arr, cache, cand, chosen)
                if count > pos:
                    continue
                counts.append(count)
            chosen.append(cand)
            used[cand] = True
            if dfs():
                return True
            used[cand] = False
            chosen.pop()
            if pos:
                counts.pop()
        return False

    if dfs():
        return DrReport(tuple(chosen), tuple(counts), True)
    return DrReport(None, (), False)


def dr_poincare_reference(arr, ordering):
    """Deletion-restriction recursion with no memo: every restriction is
    built from ``traces_reference``, searched and its ordering checked
    again, at every occurrence."""
    cache: dict = {}
    counts = [_step_count_reference(arr, cache, ordering[k], ordering[:k])
              for k in range(1, len(ordering))]
    bad = next((k for k, c in enumerate(counts) if c > k + 1), None)
    if bad is not None:
        raise DrHypothesisError(
            f"ordering {tuple(x + 1 for x in ordering)} cuts "
            f"{counts[bad]} components at step {bad + 2}; "
            "the deletion-restriction recursion does not apply")
    total = binomial(arr.dim)
    for pos, idx in enumerate(ordering):
        sub = _restriction_reference(arr, idx, ordering[:pos])
        sub_report = find_dr_ordering_reference(sub)
        if sub_report.ordering is None:
            raise DrHypothesisError(
                f"restriction to hypersurface {idx + 1} admits no "
                "deletion-restriction ordering")
        total = poly_add(total, poly_shift(dr_poincare_reference(sub, sub_report.ordering), 1))
    return total


def _completion_to_basis(chi):
    """Unimodular V with chi @ V = (1, 0, ..., 0), for primitive chi: the
    columns of :func:`~toricarr.lattice.completion`, whose frame the poset
    sweep gives K_i as well."""
    if gcd(*chi) != 1:
        raise ValueError(f"character {chi} is not primitive")
    return IntMatrix.from_rows(zip(*completion(chi)))


def _trace(arr, i, v, r):
    """Components of K_r ∩ K_i as hypersurfaces of K_i, in the coordinates
    of ``v = _completion_to_basis(chi_i)``: component t of the g = gcd of
    the tail of chi_r @ V at position t; empty for r == i and for K_r
    parallel to K_i."""
    hi, hr = arr.hypersurfaces[i], arr.hypersurfaces[r]
    prime = v.transpose().mul_vec(hr.chi)
    head, tail = prime[0], prime[1:]
    b = mod1(hr.b - head * hi.b)
    if not any(tail):
        # K_r is K_i or parallel to it; a parallel one is distinct, so disjoint
        assert r == i or b != 0, "duplicate hypersurface escaped arrangement validation"
        return ()
    g = gcd(*tail)
    chi0 = tuple(x // g for x in tail)
    return tuple(Hypersurface(chi0, Fraction(b + t, g)) for t in range(g))


def traces_reference(arr, i):
    """The trace of every hypersurface on K_i, through a completion of chi_i
    to a unimodular basis: V with chi_i @ V = e_1 maps K_i onto the torus of
    the last dim - 1 coordinates, and entry r lists the g components of
    K_r ∩ K_i (g the gcd of the tail of chi_r @ V) as hypersurfaces of that
    torus, component t at position t; it is empty for r == i and for K_r
    parallel to K_i.  Entry r != i is ``restrict(arr, i, [r]).hypersurfaces``."""
    v = _completion_to_basis(arr.hypersurfaces[i].chi)
    return tuple(_trace(arr, i, v, r) for r in range(arr.n))


def smith_frame(basis, values):
    """The :class:`~toricarr.arrangement.LocalFrame` of {S @ u = values},
    read off the Smith form U @ S @ V = [I_k | 0] of a saturated label
    basis S: w = V[:, :k] @ U @ values, the q_j are the columns of
    V[:, :k] @ U and the r_j the rows of S, as V^-1 = [U @ S; R]."""
    k = basis.rows
    res = snf(basis)
    den = lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (den // x.denominator) for x in values]
    y = [sum(map(mul, row, scaled)) for row in res.U.entries]
    head = [row[:k] for row in res.V.entries]
    return LocalFrame(den, [sum(map(mul, row, y)) for row in head],
                      list(zip(*(row[k:] for row in res.V.entries))),
                      tuple([sum(map(mul, row, col)) for row in head] for col in zip(*res.U.entries)),
                      basis.entries)


def subset_sweep_components(arr):
    """Every component of every subset intersection, by the 2^n sweep."""
    chars = arr.char_matrix()
    bs = arr.b_vector()
    found = {full_torus(arr.dim)}
    for size in range(1, arr.n + 1):
        for subset in combinations(range(arr.n), size):
            sub = IntMatrix(size, arr.dim, tuple(chars.entries[i] for i in subset))
            found.update(intersect_system_reference(sub, tuple(bs[i] for i in subset)))
    return found


def grid_component_count(a: IntMatrix, b) -> int:
    """Count components of a character system by exhaustive torsion-grid search.

    Enumerates candidate points x = k/m (componentwise, mod 1) on the grid of
    denominator m = lcm(denominators) * prod(elementary divisors), keeps the
    solutions of A x = b (mod 1), and groups them by the values of the
    saturated character lattice.  Witnesses of every component live on this
    grid, so the class count equals the component count.
    """
    b = tuple(Fraction(x) % 1 for x in b)
    l = a.cols
    q = 1
    for x in b:
        q = lcm(q, x.denominator)
    big = 1
    for d in snf(a).divisors():
        big *= d
    m = q * big
    target = np.array([int(x * m) % m for x in b], dtype=np.int64)
    grid = np.indices((m,) * l, dtype=np.int64).reshape(l, -1).T  # (m^l, l)
    if a.rows:
        lhs = grid @ np.array(a.entries, dtype=np.int64).T
        mask = np.all(lhs % m == target, axis=1)
        sols = grid[mask]
    else:
        sols = grid
    if len(sols) == 0:
        return 0
    sat = saturation_reference(a)
    if sat.rows == 0:
        return 1
    vals = (sols @ np.array(sat.entries, dtype=np.int64).T) % m
    classes, counts = np.unique(vals, axis=0, return_counts=True)
    assert len(set(counts.tolist())) == 1, "unequal component classes on the grid"
    return len(classes)


# -- in-place helpers on list-of-list matrices, for hnf_reference ------------

def _identity_list(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m, u, i, j):
    if i != j:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]


def _negate_row(m, u, i):
    m[i] = [-x for x in m[i]]
    u[i] = [-x for x in u[i]]


def _row_sub(m, u, i, k, q):
    """row_i -= q * row_k"""
    if q:
        m[i] = [a - q * b for a, b in zip(m[i], m[k])]
        u[i] = [a - q * b for a, b in zip(u[i], u[k])]


def hnf_reference(a: IntMatrix) -> HNFResult:
    """Row-style Hermite normal form with unimodular transform, by the
    classical column-by-column elimination (the old ``lattice.hnf``).

    Pivots are positive, entries above each pivot lie in [0, pivot), zero
    rows sink to the bottom.  The nonzero rows of H are the unique canonical
    basis of the row lattice of ``a``.
    """
    m, n = a.rows, a.cols
    H = [list(r) for r in a.entries]
    U = _identity_list(m)
    pivots: list[tuple[int, int]] = []
    pr = 0
    for c in range(n):
        if pr == m:
            break
        nz = [i for i in range(pr, m) if H[i][c] != 0]
        if not nz:
            continue
        while True:
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            _swap_rows(H, U, pr, i0)
            if H[pr][c] < 0:
                _negate_row(H, U, pr)
            clean = True
            for i in range(pr + 1, m):
                if H[i][c]:
                    _row_sub(H, U, i, pr, H[i][c] // H[pr][c])
                    if H[i][c]:
                        clean = False
            if clean:
                break
            nz = [i for i in range(pr, m) if H[i][c] != 0]
        pivots.append((pr, c))
        pr += 1
    # second pass: reduce entries above each pivot into [0, pivot)
    for r, c in pivots:
        for i in range(r):
            _row_sub(H, U, i, r, H[i][c] // H[r][c])
    return HNFResult(_freeze(H, n), _freeze(U, m))


def saturation_reference(a):
    """Saturation of the row lattice as the double orthogonal complement:
    the integer left kernel of the integer right kernel of ``a``."""
    ker = left_kernel(a.transpose())     # integer right kernel of a, as rows
    return left_kernel(ker.transpose())


def _fraction_dot(ints, fracs):
    return sum((x * y for x, y in zip(ints, fracs)), Fraction(0))


def intersect_system_reference(a, b):
    """Components of a character system in ``Fraction`` arithmetic: Smith
    back-substitution with free coordinates pinned to zero, the label lattice
    from :func:`saturation_reference`.  Same components as
    ``intersect_system``; the witnesses of positive-dimensional components
    and the list order may differ."""
    b = tuple(mod1(x) for x in b)
    if len(b) != a.rows:
        raise ValueError("one value per character row is required")
    l = a.cols
    res = snf(a)
    d = res.divisors()
    r = len(d)
    beta = res.U.mul_vec(b) if a.rows else ()
    if any(mod1(beta[j]) != 0 for j in range(r, a.rows)):
        return []
    sat = saturation_reference(a)
    out = []
    for t in product(*(range(dj) for dj in d)):
        w = [Fraction(0)] * l
        for j in range(r):
            w[j] = Fraction(beta[j] + t[j], d[j])
        u = tuple(mod1(x) for x in res.V.mul_vec(w))
        values = tuple(mod1(_fraction_dot(h, u)) for h in sat.entries)
        out.append(Component(sat, values, u))
    return out


def _label_test(comp):
    """Whether a row with a value holds on ``comp`` (is constant on it with
    that value), from its label and witness alone.  The label lattice is
    saturated, so a row lies in it iff it is orthogonal to an integer basis
    of the label's kernel, found once here; the value is read at the
    witness, scaled to integers over a common denominator ``m``."""
    kernel = left_kernel(comp.sat_basis.transpose()).entries
    m = lcm(*(x.denominator for x in comp.witness))
    point = [x.numerator * (m // x.denominator) for x in comp.witness]

    def holds(chi, b):
        if any(sum(map(mul, chi, k)) for k in kernel):
            return False
        x = sum(map(mul, chi, point))   # chi @ witness = x / m
        return (x * b.denominator - b.numerator * m) % (m * b.denominator) == 0

    return holds


def poset_reference(arr):
    """The intersection poset by the layered sweep with
    :func:`intersect_system_reference`, ordered by all-pairs containment
    tests: W lies in C iff every label row of C holds on W
    (:func:`_label_test` of W).  The covers are the comparable pairs with
    no component strictly between, and mu(T, W) is minus the sum of mu over
    the components strictly containing W."""
    torus = full_torus(arr.dim)
    seen = {torus}
    frontier = [torus]
    while frontier:
        nxt = []
        for comp in frontier:
            holds = _label_test(comp)
            for h in arr.hypersurfaces:
                if holds(h.chi, h.b):
                    continue
                sys_a = comp.sat_basis.with_row(h.chi)
                for w in intersect_system_reference(sys_a, comp.values + (h.b,)):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    comps = tuple(sorted(seen, key=lambda c: (c.codim, c.sat_basis.entries, c.values)))
    tests = [_label_test(c) for c in comps]
    below = frozenset((i, j) for i, ci in enumerate(comps) for j, cj in enumerate(comps)
                      if ci.codim > cj.codim
                      and all(map(tests[i], cj.sat_basis.entries, cj.values)))
    covers = tuple((i, j) for i, j in sorted(below)
                   if not any((i, k) in below and (k, j) in below for k in range(len(comps))))
    mobius: list[int] = []
    for i in range(len(comps)):
        mobius.append(-sum(mobius[j] for j in range(i) if (i, j) in below) if i else 1)
    return IntersectionPoset(arr.dim, comps, covers, tuple(mobius), unimodular_by_subsets(arr))


def mobius_by_ancestors(poset):
    """mu(T, W) as minus the sum of mu over all of W's strict ancestors,
    which a walk up ``poset.covers`` from W visits once each."""
    parents = [set() for _ in poset.components]
    for i, j in poset.covers:
        parents[i].add(j)
    mobius = [1]
    for k in range(1, len(parents)):
        seen, stack = set(), [k]
        while stack:
            new = parents[stack.pop()] - seen
            seen |= new
            stack.extend(new)
        mobius.append(-sum(mobius[p] for p in seen))
    return tuple(mobius)


def unimodular_by_definition(arr):
    """True iff every subset system has at most one component, by
    :func:`intersect_system_reference` on all 2^n subsets."""
    chars, bs = arr.char_matrix(), arr.b_vector()
    for size in range(1, arr.n + 1):
        for subset in combinations(range(arr.n), size):
            sub = IntMatrix(size, arr.dim, tuple(chars.entries[i] for i in subset))
            if len(intersect_system_reference(sub, tuple(bs[i] for i in subset))) > 1:
                return False
    return True


def unimodular_by_subsets(arr):
    """True iff no subset of at most ``dim`` hypersurfaces has a disconnected
    intersection.  A larger subset spans the same saturated lattice as a
    maximal independent subset of itself, whose intersection is a union of
    the same cosets.  A subset system has no component when inconsistent
    and otherwise as many as the product of its Smith divisors, so the
    components are counted, not built."""
    chars, bs = arr.char_matrix(), arr.b_vector()
    for size in range(1, min(arr.n, arr.dim) + 1):
        for subset in combinations(range(arr.n), size):
            sub = IntMatrix(size, arr.dim, tuple(chars.entries[i] for i in subset))
            res = snf(sub)
            d = res.divisors()
            beta = res.U.mul_vec(tuple(bs[i] for i in subset))
            if prod(d) > 1 and all(mod1(x) == 0 for x in beta[len(d):]):
                return False
    return True


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    M = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def is_unimodular_matrix(a: IntMatrix) -> bool:
    """True iff every maximal (cols x cols) minor of ``a`` lies in {-1, 0, 1}."""
    k = a.cols
    if a.rows < k:
        return True
    for rows in combinations(range(a.rows), k):
        sub = IntMatrix(k, k, tuple(a.entries[i] for i in rows))
        if abs(det(sub)) > 1:
            return False
    return True


def _random_primitive(rng, l, bound):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(l))
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 0:
            continue
        return tuple(x // g for x in v)


def random_arrangement(rng, max_l=3, max_n=4, bound=2, max_den=3):
    l = rng.randint(1, max_l)
    n = rng.randint(0, max_n)
    hyps = []
    seen = set()
    guard = 0
    while len(hyps) < n and guard < 200:
        guard += 1
        chi = _random_primitive(rng, l, bound)
        den = rng.randint(1, max_den)
        h = Hypersurface(chi, Fraction(rng.randint(0, den - 1), den))
        if (h.chi, h.b) in seen:
            continue
        seen.add((h.chi, h.b))
        hyps.append(h)
    return ToricArrangement(l, tuple(hyps))


def _interval_vectors(l):
    out = []
    for i in range(l):
        for j in range(i, l):
            out.append(tuple(1 if i <= k <= j else 0 for k in range(l)))
    return out


def random_unimodular_arrangement(rng, max_l=3, max_n=6, max_den=3):
    """Unimodular by construction: interval 0/1 characters (a totally
    unimodular family) pushed through a random integer basis change."""
    l = rng.randint(1, max_l)
    intervals = _interval_vectors(l)
    n = rng.randint(1, min(max_n, len(intervals)))
    rows = rng.sample(intervals, n)
    u = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    for _ in range(4):
        i, j = rng.randrange(l), rng.randrange(l)
        if i == j:
            continue
        s = rng.choice((-1, 1))
        for r in range(l):
            u[r][j] += s * u[r][i]
    hyps = []
    for row in rows:
        chi = tuple(sum(row[k] * u[k][j] for k in range(l)) for j in range(l))
        den = rng.randint(1, max_den)
        hyps.append(Hypersurface(chi, Fraction(rng.randint(0, den - 1), den)))
    return ToricArrangement(l, tuple(hyps))


def random_central_rows(rng, l, n, bound=3):
    """Distinct primitive normals, no two proportional."""
    rows = []
    seen = set()
    guard = 0
    while len(rows) < n and guard < 300:
        guard += 1
        v = _random_primitive(rng, l, bound)
        lead = next(x for x in v if x)
        if lead < 0:
            v = tuple(-x for x in v)
        if v in seen:
            continue
        seen.add(v)
        rows.append(v)
    return rows
