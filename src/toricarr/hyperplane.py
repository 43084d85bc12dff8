"""Local central hyperplane arrangements at poset components.

Betti numbers of hyperplane complements are computed twice and
cross-checked: once through the Mobius function of the intersection lattice
(Whitney-style sum) and once by counting broken-circuit-free sets.
It is not on the production path: the test suite uses it as the
independent cross-check of the Mobius sum over the toric poset.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .arrangement import ToricArrangement, mod1
from .lattice import Frozen, IntMatrix, in_row_lattice, left_kernel, rank, saturation
from .polynomial import Polynomial
from .poset import Component, _dot, _holds


def _primitive_signed(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    v = tuple(x // g for x in v)
    lead = next((x for x in v if x), 0)
    return tuple(-x for x in v) if lead < 0 else v


class CentralArrangement(Frozen):
    """Finite set of hyperplanes through the origin of C^dim, one normal per row."""

    __slots__ = ("dim", "normals")

    def __init__(self, dim: int, normals: IntMatrix):
        if normals.cols != dim:
            raise ValueError("normal length must equal the ambient dimension")
        seen = set()
        for r in normals.entries:
            if not any(r):
                raise ValueError("zero normal vector")
            key = _primitive_signed(r)
            if key in seen:
                raise ValueError(f"duplicate hyperplane with normal {r}")
            seen.add(key)
        Frozen.__init__(self, dim, normals)

    @property
    def n(self) -> int:
        return self.normals.rows


class SubspaceLattice(Frozen):
    """Intersection lattice of a central arrangement.

    Elements are subspaces, each labeled by the saturated HNF basis of the
    lattice of normals vanishing on it, sorted by (codimension, label).  The
    order is reverse inclusion of subspaces, so element 0 is the ambient
    space.  ``mobius[k]`` is the Mobius value from the bottom to element k.
    """

    __slots__ = ("dim", "elements", "strict_below", "mobius")

    def codim(self, k: int) -> int:
        return self.elements[k].rows

    def less_equal(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.strict_below


def intersection_lattice(arr: CentralArrangement) -> SubspaceLattice:
    """All distinct subspace intersections with Mobius values."""
    bottom = IntMatrix(0, arr.dim, ())
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for elem in frontier:
            for h in arr.normals.entries:
                if in_row_lattice(elem, h):
                    continue
                grown = saturation(elem.with_row(h))
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    elements = tuple(sorted(seen, key=lambda e: (e.rows, e.entries)))
    below = set()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if a.rows < b.rows and all(in_row_lattice(b, r) for r in a.entries):
                below.add((i, j))
    mobius = [0] * len(elements)
    for j in range(len(elements)):
        if j == 0:
            mobius[0] = 1
            continue
        mobius[j] = -sum(mobius[i] for i in range(j) if (i, j) in below)
    return SubspaceLattice(arr.dim, elements, frozenset(below), tuple(mobius))


def whitney_poincare(arr: CentralArrangement) -> Polynomial:
    """Poincare polynomial of the hyperplane complement via Mobius values."""
    lat = intersection_lattice(arr)
    coeffs = [0] * (max((e.rows for e in lat.elements), default=0) + 1)
    for k, e in enumerate(lat.elements):
        coeffs[e.rows] += abs(lat.mobius[k])
    return Polynomial(tuple(coeffs))


def _independent(normals: IntMatrix, subset) -> bool:
    sub = IntMatrix(len(subset), normals.cols, tuple(normals.entries[i] for i in subset))
    return rank(sub) == len(subset)


def nbc_dimensions(arr: CentralArrangement, ordering=None) -> tuple[int, ...]:
    """Graded dimensions of the hyperplane complement cohomology by nbc counts.

    ``ordering`` is a total order on the hyperplanes (a permutation of their
    indices, smallest first); the resulting dimension vector does not depend
    on it.  Circuits are found by exact rank tests over subsets.
    """
    n = arr.n
    if ordering is None:
        ordering = tuple(range(n))
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of the hyperplane indices")
    position = {h: k for k, h in enumerate(ordering)}
    r = rank(arr.normals)
    broken: list[frozenset] = []
    for size in range(2, r + 2):
        for subset in combinations(range(n), size):
            if _independent(arr.normals, subset):
                continue
            if all(_independent(arr.normals, subset[:k] + subset[k + 1:])
                   for k in range(size)):
                least = min(subset, key=position.__getitem__)
                broken.append(frozenset(subset) - {least})
    dims = [0] * (r + 1)
    for size in range(r + 1):
        for subset in combinations(range(n), size):
            if not _independent(arr.normals, subset):
                continue
            s = frozenset(subset)
            if not any(bc <= s for bc in broken):
                dims[size] += 1
    return tuple(dims)


def local_arrangement(arr: ToricArrangement, comp: Component) -> CentralArrangement:
    """Tangent-space hyperplanes of the hypersurfaces containing a component."""
    if comp.sat_basis.cols != arr.dim:
        raise ValueError("component does not live in this torus")
    if saturation(comp.sat_basis) != comp.sat_basis:
        raise ValueError("component label is not a saturated HNF basis")
    for k, h in enumerate(comp.sat_basis.entries):
        if mod1(_dot(h, comp.witness)) != comp.values[k]:
            raise ValueError("component witness does not match its values")
    normals = tuple(h.chi for h in arr.hypersurfaces if _holds(comp, h.chi, h.b))
    return CentralArrangement(arr.dim, IntMatrix(len(normals), arr.dim, normals))


def top_local_multiplicity(arr: ToricArrangement, comp: Component) -> int:
    """Top Betti number of the local hyperplane complement at a component."""
    return whitney_poincare(local_arrangement(arr, comp)).coefficient(comp.codim)


def delete(arr: CentralArrangement, k: int) -> CentralArrangement:
    """Arrangement with hyperplane ``k`` removed."""
    rows = tuple(r for i, r in enumerate(arr.normals.entries) if i != k)
    return CentralArrangement(arr.dim, IntMatrix(len(rows), arr.dim, rows))


def restriction(arr: CentralArrangement, k: int) -> CentralArrangement:
    """Arrangement traced on hyperplane ``k``, in coordinates on it.

    Together with :func:`delete` this realizes the classical
    deletion-restriction identity poin(A) = poin(A') + t * poin(A''), used as
    a cross-check in the test suite.
    """
    if not 0 <= k < arr.n:
        raise ValueError(f"hyperplane index {k} out of range")
    col = IntMatrix.from_rows([arr.normals.entries[k]]).transpose()
    basis = left_kernel(col)  # saturated basis of the hyperplane, (dim-1) x dim
    seen = []
    for i, m in enumerate(arr.normals.entries):
        if i == k:
            continue
        traced = basis.mul_vec(m)
        assert any(traced), "proportional normals escaped validation"
        key = _primitive_signed(tuple(traced))
        if key not in seen:
            seen.append(key)
    return CentralArrangement(arr.dim - 1, IntMatrix(len(seen), arr.dim - 1, tuple(seen)))
