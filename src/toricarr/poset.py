"""Connected components of intersections and the intersection poset.

A component is canonically labeled by the saturated sublattice of characters
that are constant on it (HNF basis) together with their values in Q/Z.  Two
components are equal iff those labels agree; the stored witness point is a
convenience and never takes part in comparisons.

One Smith normal form per character system gives everything: consistency
and the component count (the product of the divisors), the witnesses by
back-substitution in integers over one common denominator, and the label
lattice (:func:`~toricarr.lattice.saturation_from_snf`); that is
:func:`intersect_system`.  The poset needs no system solved: the order
comes from the layered sweep of :func:`build_poset`, which records each
component as a child of the components it was cut from; no pair of
components is compared for containment.  Those edges are the covers of the
poset, and the Mobius values from the full torus are summed along them, so
the poset stores both and never builds its set of comparable pairs.

The sweep looks at each component C in its own coordinates: the
:class:`~toricarr.arrangement.LocalFrame` of C (one Smith form of C's label
basis, the same routine that gives the deletion-restriction traces) makes
C a torus, and each hypersurface restricts to a character c of it.  A
hypersurface with c = 0 contains C or misses it; otherwise it traces
g = gcd(c) local hypersurfaces, each of them a child of C, and the frame
gives each child's label (one row added to C's HNF basis) and a point on
it.  A local hypersurface that an earlier hypersurface already traced on C
is skipped.

The same frame decides unimodularity (every subset intersection empty or
connected): the arrangement is unimodular iff no hypersurface K splits a
component C, i.e. no c != 0 has g = gcd(c) > 1.  C is a component of the
intersection of the hypersurfaces containing it, so when g > 1 the g
components of C ∩ K are components of that subset intersection with K
added.  Conversely, take a minimal subset S' ∪ {K} whose intersection is
disconnected: the intersection of S' is connected, one component C', and
C' ∩ K has g(C', K) > 1 components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .arrangement import Hypersurface, LocalFrame, ToricArrangement, mod1
from .lattice import IntMatrix, hnf_add_row, in_row_lattice, saturation_from_snf, snf
from .polynomial import Polynomial


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

    Solves one system from scratch; the sweep of :func:`build_poset` does
    not call it.  Returns the empty list when the system is inconsistent
    (some integer left-kernel combination of the rows has a non-integral
    value).  Otherwise the component count is the product of the elementary
    divisors of ``a``, and witnesses come from Smith-form back-substitution
    with free coordinates pinned to zero, in integers over the one
    denominator den * lcm(d), den being the lcm of the denominators of
    ``b``; each ``Fraction`` is built once, for the ``Component``.  The
    saturated label lattice comes from the same Smith form.
    """
    if len(b) != a.rows:
        raise ValueError("one value per character row is required")
    den = lcm(*(x.denominator for x in b))
    scaled = [x.numerator * (den // x.denominator) % den for x in b]
    res = snf(a)
    d = res.divisors()
    beta = [sum(map(mul, row, scaled)) for row in res.U.entries]
    if any(x % den for x in beta[len(d):]):
        return []
    sat = saturation_from_snf(a, res)
    big = den * lcm(*d)
    scale = [big // (den * dj) for dj in d]
    v = [row[:len(d)] for row in res.V.entries]
    out = []
    for t in product(*(range(dj) for dj in d)):
        w = [(bj + tj * den) * s for bj, tj, s in zip(beta, t, scale)]
        u = [sum(x * y for x, y in zip(row, w)) % big for row in v]
        values = tuple(Fraction(sum(x * y for x, y in zip(h, u)) % big, big)
                       for h in sat.entries)
        out.append(Component(sat, values, a.cols - sat.rows,
                             tuple(Fraction(x, big) for x in u)))
    return out


@dataclass(frozen=True)
class IntersectionPoset:
    """All components of all intersections, ordered by inclusion.

    ``components`` is sorted by (codim, label).  ``covers`` holds the sorted
    index pairs (i, j) with components[i] covered by components[j] (a
    proper subset, nothing between); the order is their transitive closure.
    ``mobius[i]`` is mu(T, components[i]), T = components[0] being the full
    torus.  Layers are indexed by codimension, the full torus being the
    single codimension-0 element.  ``unimodular`` is the verdict of
    :func:`is_unimodular`, read off the same sweep.
    """

    dim: int
    components: tuple[Component, ...]
    covers: tuple[tuple[int, int], ...]
    mobius: tuple[int, ...]
    unimodular: bool

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
        of |mu(T, W)| * t^codim(W) * (1 + t)^dim(W)."""
        total = Polynomial.zero()
        for mu, comp in zip(self.mobius, self.components):
            total = total + (abs(mu) * Polynomial.binomial(comp.dim)).shift(comp.codim)
        return total


def _label_key(c: Component):
    return (c.codim, c.sat_basis.entries, c.values)


def _reduced(x: int, m: int) -> tuple[int, int]:
    x %= m
    r = gcd(x, m)
    return x // r, m // r


def _sweep(arr: ToricArrangement, found: list[Component], parents: list[set[int]]):
    """Expand every component of ``arr`` layer by layer, from the full torus
    ``found == [full_torus(arr.dim)]``.

    Each component C is expanded in its :class:`~toricarr.arrangement.LocalFrame`,
    where each hypersurface K with c != 0 traces g = gcd(c) local
    hypersurfaces (c', value).  Yields whether some K splits C (g > 1)
    before C's children are built.  A local key (c', value) that an earlier
    K already traced is left out; each other one names a child W of C: its
    label basis is the HNF of [S; chi'] (``hnf_add_row``, chi' = chi_K when
    g = 1, else ``lift``), a point of it comes from ``points``, and its
    values are the label rows at that point.  W is looked up by its integer
    label; on first sight its ``Component`` is appended to ``found``, with
    an empty set in ``parents``.  C's index is added to the parents of W.
    """
    hyps = arr.hypersurfaces
    index = {((), ()): 0}
    frontier = [0]
    while frontier:
        nxt = []
        for p in frontier:
            comp = found[p]
            if comp.dim == 0:
                yield False
                continue
            frame = LocalFrame(comp.sat_basis, comp.values)
            steps = [(h, tr) for h in hyps if (tr := frame.trace(h)) is not None]
            yield any(len(pairs) > 1 for _, (_, pairs) in steps)
            seen: set = set()
            for h, (local, pairs) in steps:
                new = [pair for pair in pairs if (local, pair) not in seen]
                if not new:
                    continue
                seen.update((local, pair) for pair in new)
                chi = h.chi if len(pairs) == 1 else frame.lift(h.chi)
                basis = hnf_add_row(comp.sat_basis, chi)
                for u, m in frame.points(local, new):
                    values = tuple(_reduced(sum(map(mul, row, u)), m)
                                   for row in basis.entries)
                    key = (basis.entries, values)
                    k = index.get(key)
                    if k is None:
                        k = index[key] = len(found)
                        found.append(Component(
                            basis, tuple(Fraction(x, d) for x, d in values), comp.dim - 1,
                            tuple(Fraction(x % m, m) for x in u)))
                        parents.append(set())
                        nxt.append(k)
                    parents[k].add(p)
        frontier = nxt


def build_poset(arr: ToricArrangement) -> IntersectionPoset:
    """Enumerate every connected component of every intersection.

    Works layer by layer (:func:`_sweep`): each known component C is
    intersected with each hypersurface K in the frame of C, and each
    component of C ∩ K, read off the frame, is deduplicated by canonical
    label.  This reaches every component of every subset intersection (the
    exhaustive subset sweep is kept in the test suite as an oracle).  K
    adds nothing when it contains C or misses it, and a component of C ∩ K
    is left out when it is, as a local hypersurface of C, a component of
    C ∩ K' for an earlier K': that step recorded it, with its edge to C.
    The components and their order are therefore those of the full sweep;
    each witness is the point the frame gives on the first sight of its
    component.  Each component W of C ∩ K is recorded as a child of C, on
    the canonical instance of W, and has codim(C) + 1.  When W ⊊ C, some K
    contains W but not C, and W lies in a component of C ∩ K; so every
    strict containment is a chain of such edges, and the edges are exactly
    the covers.  Over the codimension-sorted components, one bitmask per
    component holds its strict ancestors (the union over its cover parents
    p of p and p's ancestors), and mu(T, W) is minus the sum of mu over W's
    ancestors.

    The sweep expands every component, so it also gives the unimodularity
    verdict: the arrangement is unimodular iff no hypersurface K splits a
    component C into g = gcd(c) > 1 pieces (c being K's character
    restricted to C's torus).  If g > 1, the pieces of C ∩ K are components
    of the intersection of K and the hypersurfaces containing C; and a
    minimal disconnected subset S' ∪ {K} has one component C' of ∩S', which
    K splits.
    """
    found = [full_torus(arr.dim)]
    parents: list[set[int]] = [set()]
    splits = list(_sweep(arr, found, parents))
    order = sorted(range(len(found)), key=lambda k: _label_key(found[k]))
    pos = [0] * len(found)
    for i, k in enumerate(order):
        pos[k] = i
    above = []
    mobius = []
    for i, k in enumerate(order):
        mask = 0
        for p in parents[k]:
            mask |= above[pos[p]] | (1 << pos[p])
        above.append(mask)
        mu = 0
        while mask:
            low = mask & -mask
            mu -= mobius[low.bit_length() - 1]
            mask ^= low
        mobius.append(mu if i else 1)
    covers = sorted((pos[k], pos[p]) for k in range(len(found)) for p in parents[k])
    return IntersectionPoset(arr.dim, tuple(found[k] for k in order), tuple(covers),
                             tuple(mobius), not any(splits))


def is_unimodular(arr: ToricArrangement) -> bool:
    """True iff every subset intersection is empty or connected.

    That holds iff no hypersurface K splits a component C of the poset,
    i.e. iff gcd(c) <= 1 for K's character c restricted to C's torus.  When
    g = gcd(c) > 1, C is a component of the intersection of the
    hypersurfaces containing it, so the g components of C ∩ K are
    components of that intersection with K added.  Conversely, a minimal
    subset S' ∪ {K} with a disconnected intersection has ∩S' connected,
    one component C', and C' ∩ K has g(C', K) > 1 components.  The sweep
    of :func:`build_poset` is run until the first split.
    """
    return not any(_sweep(arr, [full_torus(arr.dim)], [set()]))
