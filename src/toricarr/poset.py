"""Connected components of intersections and the intersection poset.

A component is canonically labeled by the saturated sublattice of characters
that are constant on it (HNF basis) together with their values in Q/Z.  Two
components are equal iff those labels agree; the stored witness point is a
convenience and never takes part in comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .arrangement import Hypersurface, ToricArrangement, mod1
from .lattice import IntMatrix, in_row_lattice, is_unimodular_matrix, rank, saturation, snf
from .polynomial import Polynomial


class UnimodularityMismatch(RuntimeError):
    """The subset-connectivity and maximal-minor unimodularity tests disagree.

    For a full-rank character matrix the two conditions are equivalent, so a
    mismatch means the implementation is defective.
    """


def _dot(ints, fracs) -> Fraction:
    return sum((a * b for a, b in zip(ints, fracs)), Fraction(0))


@dataclass(frozen=True)
class Component:
    """Connected component of an intersection of toric hypersurfaces.

    ``sat_basis`` is the canonical HNF basis of the saturated lattice of
    characters constant on the component, ``values`` their arguments in Q/Z,
    ``witness`` a rational point in log coordinates (z = exp(2*pi*i*u)).
    """

    sat_basis: IntMatrix
    values: tuple[Fraction, ...]
    dim: int = field(compare=False)
    witness: tuple[Fraction, ...] = field(compare=False)

    @property
    def codim(self) -> int:
        return self.sat_basis.rows


def full_torus(dim: int) -> Component:
    return Component(IntMatrix(0, dim, ()), (), dim, (Fraction(0),) * dim)


def component_contains(inner: Component, outer: Component) -> bool:
    """True iff ``inner`` is a subset of ``outer``.

    Containment holds when every character constant on ``outer`` is constant
    on ``inner`` with the same value.
    """
    if not all(in_row_lattice(inner.sat_basis, h) for h in outer.sat_basis.entries):
        return False
    return all(mod1(_dot(h, inner.witness)) == outer.values[k]
               for k, h in enumerate(outer.sat_basis.entries))


def hypersurface_contains(comp: Component, h: Hypersurface) -> bool:
    """True iff the hypersurface contains the whole component."""
    return (in_row_lattice(comp.sat_basis, h.chi)
            and mod1(_dot(h.chi, comp.witness)) == h.b)


def intersect_system(a: IntMatrix, b) -> list[Component]:
    """Connected components of {z : z^(row_i) = exp(2*pi*i*b_i) for all i}.

    Returns the empty list when the system is inconsistent (some integer
    left-kernel combination of the rows has a non-integral value).  Otherwise
    the component count is the product of the elementary divisors of ``a``,
    and witnesses come from Smith-form back-substitution with free
    coordinates pinned to zero.
    """
    b = tuple(mod1(x) for x in b)
    if len(b) != a.rows:
        raise ValueError("one value per character row is required")
    l = a.cols
    res = snf(a)
    d = res.divisors()
    r = len(d)
    beta = res.U.mul_vec(b) if a.rows else ()
    for j in range(r, a.rows):
        if mod1(beta[j]) != 0:
            return []
    sat = saturation(a)
    out = []
    for t in product(*(range(dj) for dj in d)):
        w = [Fraction(0)] * l
        for j in range(r):
            w[j] = Fraction(beta[j] + t[j], d[j])
        u = tuple(mod1(x) for x in res.V.mul_vec(w))
        values = tuple(mod1(_dot(h, u)) for h in sat.entries)
        out.append(Component(sat, values, l - sat.rows, u))
    return out


@dataclass(frozen=True)
class IntersectionPoset:
    """All components of all intersections, ordered by inclusion.

    ``components`` is sorted by (codim, label); ``strict_below`` holds the
    index pairs (i, j) with components[i] a proper subset of components[j].
    Layers are indexed by codimension, the full torus being the single
    codimension-0 element.
    """

    dim: int
    components: tuple[Component, ...]
    strict_below: frozenset[tuple[int, int]]

    def layer(self, codim: int) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.codim == codim)

    def layer_sizes(self) -> tuple[int, ...]:
        top = max((c.codim for c in self.components), default=0)
        sizes = [0] * (top + 1)
        for c in self.components:
            sizes[c.codim] += 1
        return tuple(sizes)

    def poincare(self) -> Polynomial:
        """Poincare polynomial of the complement: the sum over components W
        of |mu(T, W)| * t^codim(W) * (1 + t)^dim(W), with mu the Mobius
        function from the full torus T = components[0].  The components are
        sorted by codim, so all those containing components[i] precede it.
        """
        mu: list[int] = []
        total = Polynomial.zero()
        for i, comp in enumerate(self.components):
            mu.append(1 if i == 0 else
                      -sum(mu[j] for j in range(i) if (i, j) in self.strict_below))
            total = total + (abs(mu[i]) * Polynomial.binomial(comp.dim)).shift(comp.codim)
        return total

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j): components[i] covered by components[j] (nothing between)."""
        out = []
        for i, j in sorted(self.strict_below):
            if not any((i, k) in self.strict_below and (k, j) in self.strict_below
                       for k in range(len(self.components))):
                out.append((i, j))
        return tuple(out)


def _label_key(c: Component):
    return (c.codim, c.sat_basis.entries, c.values)


def build_poset(arr: ToricArrangement) -> IntersectionPoset:
    """Enumerate every connected component of every intersection.

    Works layer by layer: each known component is intersected with each
    hypersurface not already containing it, and the resulting components are
    deduplicated by canonical label.  This reaches every component of every
    subset intersection (the exhaustive subset sweep is kept in the test
    suite as an oracle).
    """
    torus = full_torus(arr.dim)
    seen = {torus}
    frontier = [torus]
    while frontier:
        nxt = []
        for comp in frontier:
            for h in arr.hypersurfaces:
                if hypersurface_contains(comp, h):
                    continue
                sys_a = comp.sat_basis.with_row(h.chi)
                sys_b = comp.values + (h.b,)
                for w in intersect_system(sys_a, sys_b):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    comps = tuple(sorted(seen, key=_label_key))
    below = set()
    for i, ci in enumerate(comps):
        for j, cj in enumerate(comps):
            if ci.codim > cj.codim and component_contains(ci, cj):
                below.add((i, j))
    return IntersectionPoset(arr.dim, comps, frozenset(below))


def is_unimodular(arr: ToricArrangement) -> bool:
    """True iff every subset intersection is empty or connected.

    Subsets of size at most ``dim`` suffice: a larger subset spans the same
    saturated lattice as a maximal independent subset of itself.  When the
    character matrix has full rank the verdict is cross-checked against the
    maximal-minor criterion; disagreement raises
    :class:`UnimodularityMismatch`.
    """
    chars = arr.char_matrix()
    bs = arr.b_vector()
    verdict = True
    for size in range(1, min(arr.n, arr.dim) + 1):
        for subset in combinations(range(arr.n), size):
            sub = IntMatrix(size, arr.dim, tuple(chars.entries[i] for i in subset))
            if len(intersect_system(sub, tuple(bs[i] for i in subset))) > 1:
                verdict = False
                break
        if not verdict:
            break
    if rank(chars) == arr.dim:
        if verdict != is_unimodular_matrix(chars):
            raise UnimodularityMismatch(
                "subset-connectivity and minor tests disagree on a full-rank "
                f"character matrix {chars.entries}")
    return verdict
