"""Connected components of intersections and the intersection poset.

A component is canonically labeled by the saturated sublattice of characters
that are constant on it (HNF basis) together with their values in Q/Z.  Two
components are equal iff those labels agree; the stored witness point is a
convenience and never takes part in comparisons.

One Smith normal form per character system gives everything: consistency
and the component count (the product of the divisors), the witnesses by
back-substitution in integers over one common denominator, and the label
lattice (:func:`~toricarr.lattice.saturation_from_snf`).  The order comes
from the layered sweep of :func:`build_poset`, which records each component
as a child of the components it was cut from; no pair of components is
compared for containment.  Those edges are the covers of the poset, and the
Mobius values from the full torus are summed along them, so the poset
stores both and never builds its set of comparable pairs.

The sweep looks at each component C in its own coordinates: the frame of
:func:`~toricarr.arrangement.local_traces` (one Smith form of C's label
basis, the same routine that gives the deletion-restriction traces) makes
C a torus, and each hypersurface restricts to a character c of it.  A
hypersurface with c = 0 contains C or misses it, and one whose trace on C
consists of local hypersurfaces that earlier hypersurfaces already cut is
skipped; only the other steps solve a character system.

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
from math import lcm
from operator import mul

from .arrangement import Hypersurface, ToricArrangement, local_traces, mod1
from .lattice import IntMatrix, in_row_lattice, saturation_from_snf, snf
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

    Returns the empty list when the system is inconsistent (some integer
    left-kernel combination of the rows has a non-integral value).  Otherwise
    the component count is the product of the elementary divisors of ``a``,
    and witnesses come from Smith-form back-substitution with free
    coordinates pinned to zero, in integers over the one denominator
    den * lcm(d), den being the lcm of the denominators of ``b``; each
    ``Fraction`` is built once, for the ``Component``.  The saturated label
    lattice comes from the same Smith form.
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


def _steps(comp: Component, hyps) -> tuple[bool, list[Hypersurface]]:
    """Whether some hypersurface splits ``comp``, and the hypersurfaces whose
    step on ``comp`` may record something new.

    In the frame of :func:`~toricarr.arrangement.local_traces` a
    hypersurface with c = 0 contains ``comp`` or misses it, and otherwise
    its trace is g = gcd(c) local hypersurfaces; it splits ``comp`` when
    g > 1.  A step whose local hypersurfaces all came from earlier steps is
    left out.
    """
    if comp.dim == 0:
        return False, []
    split = False
    seen: set = set()
    out = []
    for h, trace in zip(hyps, local_traces(comp.sat_basis, comp.values, hyps)):
        if trace is None:
            continue
        local, pairs = trace
        split = split or len(pairs) > 1
        keys = [(local, pair) for pair in pairs]
        if seen.issuperset(keys):
            continue
        seen.update(keys)
        out.append(h)
    return split, out


def _sweep(arr: ToricArrangement, found: list[Component], parents: list[set[int]]):
    """Expand every component of ``arr`` layer by layer, from ``found[0]``.

    For each component C in turn, yields whether some hypersurface splits C
    (:func:`_steps`), before solving C's steps.  Each component W of a step
    C ∩ K is appended to ``found`` on first sight, with an empty set in
    ``parents``, and C's index is added to the parents of W.
    """
    index = {c: k for k, c in enumerate(found)}
    frontier = [0]
    while frontier:
        nxt = []
        for p in frontier:
            comp = found[p]
            split, steps = _steps(comp, arr.hypersurfaces)
            yield split
            for h in steps:
                sys_a = comp.sat_basis.with_row(h.chi)
                sys_b = comp.values + (h.b,)
                for w in intersect_system(sys_a, sys_b):
                    k = index.get(w)
                    if k is None:
                        k = index[w] = len(found)
                        found.append(w)
                        parents.append(set())
                        nxt.append(k)
                    parents[k].add(p)
        frontier = nxt


def build_poset(arr: ToricArrangement) -> IntersectionPoset:
    """Enumerate every connected component of every intersection.

    Works layer by layer (:func:`_sweep`): each known component C is
    intersected with each hypersurface K in the frame of C (:func:`_steps`),
    and the components of C ∩ K found by :func:`intersect_system` are
    deduplicated by canonical label.  This reaches every component of every
    subset intersection (the exhaustive subset sweep is kept in the test
    suite as an oracle).  A step is left out when K contains C or misses
    it, and when each component of C ∩ K is, as a local hypersurface of C,
    a component of C ∩ K' for an earlier K': that step of K' recorded it
    (or, left out itself, an earlier one did), with its edge to C, so the
    step of K would record nothing new.  The components, their witnesses
    and their order are therefore those of the full sweep.  Each component
    W of C ∩ K is recorded as a child of C, on the canonical instance of W,
    and has codim(C) + 1.  When W ⊊ C, some K contains W but not C, and W
    lies in a component of C ∩ K; so every strict containment is a chain of
    such edges, and the edges are exactly the covers.  Over the
    codimension-sorted components, one bitmask per component holds its
    strict ancestors (the union over its cover parents p of p and p's
    ancestors), and mu(T, W) is minus the sum of mu over W's ancestors.

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
