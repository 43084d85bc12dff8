"""Connected components of intersections and the intersection poset.

A component is canonically labeled by the saturated sublattice of characters
that are constant on it (HNF basis) together with their values in Q/Z.  Two
components are equal iff those labels agree; the stored witness point is a
convenience and never takes part in comparisons.

A component C is cut by one step, in its own coordinates: the
:class:`~toricarr.arrangement.LocalFrame` of C (the same class gives the
deletion-restriction traces) makes C a torus, and a row chi restricts to a
character c of it.  A row with c = 0 is constant on C, so C lies in the
level set or misses it; otherwise the level set cuts g = gcd(c) pieces, and
the frame gives each piece's label (the lifted row added to C's HNF basis)
and, from one completion of the local character, its own frame, whose
point lies on the piece.  Every frame here comes from ``LocalFrame.torus``
and ``LocalFrame.child``, so no Smith form is taken.  :func:`intersect_system`
is that step folded over the rows of a system, from the full torus.

The poset needs no system solved: the layered sweep of :func:`build_poset`
takes the step for each component and each hypersurface that is not
constant on its parent, and records each piece as a child of the component
it was cut from; no pair of components is compared for containment.  Those
edges are the covers of the poset, which stores them alone and never its
set of comparable pairs.  A child is keyed on the set X(W) of hypersurfaces
containing it, with its values only when that set's intersection may be
disconnected, and the label of each set is computed once (see
:func:`_sweep`).  The covers and those sets give mu by Weisner's theorem
(Weisner 1935; Stanley, EC1 3.9): [T, W] is the lattice of flats of the
local central arrangement at W, so it is geometric; with K the lowest
hypersurface containing W, mu(T, W) is minus the sum of mu(T, p) over W's
cover parents p with p v K = W, i.e. with K not in X(p).

The same sweep decides unimodularity (every subset intersection empty or
connected): the arrangement is unimodular iff no hypersurface K splits a
component C, i.e. no c != 0 has g = gcd(c) > 1.  C is a component of the
intersection of the hypersurfaces containing it, so when g > 1 the g
components of C ∩ K are components of that subset intersection with K
added.  Conversely, take a minimal subset S' ∪ {K} whose intersection is
disconnected: the intersection of S' is connected, one component C', and
C' ∩ K has g(C', K) > 1 components.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import mul

from .arrangement import LocalFrame, ToricArrangement, _keys, _reduced, mod1
from .lattice import Frozen, IntMatrix, hnf_add_row, in_row_lattice
from .lattice import snf  # noqa: F401  (toricarr.poset.snf is looked up by bench/)
from .polynomial import Polynomial


def _dot(ints, fracs) -> Fraction:
    return sum((a * b for a, b in zip(ints, fracs)), Fraction(0))


class Component(Frozen):
    """Connected component of an intersection of toric hypersurfaces.

    ``sat_basis`` is the canonical HNF basis of the saturated lattice of
    characters constant on the component, ``values`` their arguments in Q/Z,
    ``witness`` a rational point in log coordinates (z = exp(2*pi*i*u)); the
    label ``(sat_basis, values)`` alone decides equality and the hash.
    """

    __slots__ = ("sat_basis", "values", "witness")

    def _key(self) -> tuple:
        return self.sat_basis, self.values

    @property
    def codim(self) -> int:
        return self.sat_basis.rows

    @property
    def dim(self) -> int:
        return self.sat_basis.cols - self.sat_basis.rows


def full_torus(dim: int) -> Component:
    return Component(IntMatrix(0, dim, ()), (), (Fraction(0),) * dim)


def _holds(comp: Component, chi, b) -> bool:
    """True iff the row ``chi`` is constant on ``comp`` with value ``b`` mod 1."""
    return in_row_lattice(comp.sat_basis, chi) and mod1(_dot(chi, comp.witness)) == b


def component_contains(inner: Component, outer: Component) -> bool:
    """True iff ``inner`` is a subset of ``outer``: every label row of
    ``outer`` holds on ``inner``."""
    return all(_holds(inner, h, b) for h, b in zip(outer.sat_basis.entries, outer.values))


def _values(basis: IntMatrix, u, m) -> tuple:
    """The label's values at the point u/m, as reduced pairs (num, den)."""
    return tuple(_reduced(sum(map(mul, row, u)), m) for row in basis.entries)


def _component(basis: IntMatrix, values, u, m) -> Component:
    return Component(basis, tuple(Fraction(x, d) for x, d in values),
                     tuple(Fraction(x % m, m) for x in u))


def intersect_system(a: IntMatrix, b) -> list[Component]:
    """Connected components of {z : z^(row_i) = exp(2*pi*i*b_i) for all i}.

    The rows are taken one at a time from the full torus, each by the
    sweep's step: a row constant on a component keeps it or drops it, and
    any other row cuts it into the pieces its trace names, each with the
    frame :meth:`~toricarr.arrangement.LocalFrame.child` carries to it and
    that frame's point as witness.  Returns the empty list when the system
    is inconsistent.  A 0-dimensional witness is reduced mod 1.
    """
    if len(b) != a.rows:
        raise ValueError("one value per character row is required")
    comps = [(full_torus(a.cols), LocalFrame.torus(a.cols))]
    for chi, x in zip(a.entries, b):
        x = mod1(x)
        cut = []
        for comp, frame in comps:
            tr = frame.trace(chi, x.numerator, x.denominator)
            if tr is None:
                if _holds(comp, chi, x):
                    cut.append((comp, frame))
                continue
            local, pairs = tr
            lifted = frame.lift(chi)
            basis = hnf_add_row(comp.sat_basis, lifted)
            for num, d in pairs:
                child = frame.child(lifted, local, num, d)
                cut.append((_component(basis, _values(basis, *child.point), *child.point), child))
        comps = cut
    return [comp for comp, _ in comps]


class IntersectionPoset(Frozen):
    """All components of all intersections, ordered by inclusion.

    ``components`` is sorted by (codim, label).  ``covers`` holds the sorted
    index pairs (i, j) with components[i] covered by components[j] (a
    proper subset, nothing between); the order is their transitive closure.
    ``mobius[i]`` is mu(T, components[i]), T = components[0] being the full
    torus.  Layers are indexed by codimension, the full torus being the
    single codimension-0 element.  ``unimodular`` is the verdict of
    :func:`is_unimodular`, read off the same sweep.
    """

    __slots__ = ("dim", "components", "covers", "mobius", "unimodular")

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
        of |mu(T, W)| * t^codim(W) * (1 + t)^dim(W), added into one list."""
        coeffs = [0] * (self.dim + 1)
        for mu, comp in zip(self.mobius, self.components):
            for j in range(comp.dim + 1):
                coeffs[comp.codim + j] += abs(mu) * comb(comp.dim, j)
        return Polynomial(tuple(coeffs))


def _sweep(arr: ToricArrangement, found: list[Component], parents: list[set[int]],
           masks: list[int]):
    """Expand every component of ``arr`` layer by layer, from the full torus
    ``found == [full_torus(arr.dim)]``, ``parents == [set()]``, ``masks == [0]``.

    Each component C is expanded in the frame carried from its first parent
    (:meth:`~toricarr.arrangement.LocalFrame.child`), by the hypersurfaces
    with c != 0 there (the others contain or miss every child); each traces
    g = gcd(c) local hypersurfaces.  Yields whether some K splits C (g > 1)
    before C's children are built; a trace refused for g past
    ``MAX_TRACE_PIECES`` (>= 2) is a split, yielded before the refusal is
    raised, so :func:`is_unimodular` still answers.

    Each local hypersurface names a child W of C and the bitmask X(W) of
    the hypersurfaces containing it: X(C) and the K whose trace holds it.
    W's label is a function of X(W), taken once per set from C's label and
    the lifted row.  The set is marked connected, on first sight, when X(C)
    is and the piece counts g of those K have gcd 1: each such chi_K is
    +-g * chi' mod C's label, so X(W) spans W's saturated label and names W
    alone; other sets name W with its values.  A connected set seen before
    is one lookup; any other piece gets its frame and point from one
    :meth:`~toricarr.arrangement.LocalFrame.child` call.  A new W (a first
    seen set always names one) is appended to ``found`` as a ``Component``,
    with an empty set in ``parents`` and X(W) in ``masks``; C is added to
    W's parents.
    """
    hyps = _keys(arr)
    frames = [(LocalFrame.torus(arr.dim), range(len(hyps)), True)]
    frontier = [0]
    while frontier:
        nxt, index, sets = [], {}, {}   # every child lies in the next layer
        for p in frontier:
            comp, mask, (frame, live, connected) = found[p], masks[p], frames[p]
            frames[p] = None
            if comp.dim == 0:
                yield False
                continue
            try:
                steps = [(i, tr) for i in live if not mask >> i & 1
                         and (tr := frame.trace(hyps[i][0], *hyps[i][1])) is not None]
            except ValueError:
                yield True
                raise
            yield any(len(pairs) > 1 for _, (_, pairs) in steps)
            pieces: dict = {}
            for i, (local, pairs) in steps:
                for pair in pairs:
                    piece = pieces.setdefault((local, pair), [i, 0, 0])
                    piece[1] |= 1 << i
                    piece[2] = gcd(piece[2], len(pairs))
            live = [i for i, _ in steps]
            for (local, (num, d)), (i, bits, g) in pieces.items():
                within = mask | bits
                k = index.get(within)
                if k is None:
                    lifted = frame.lift(hyps[i][0])
                    child = frame.child(lifted, local, num, d)
                    if within not in sets:
                        sets[within] = (hnf_add_row(comp.sat_basis, lifted), connected and g == 1)
                    basis, alone = sets[within]
                    values = _values(basis, *child.point)
                    key = within if alone else (within, values)
                    k = index.get(key)
                    if k is None:
                        k = index[key] = len(found)
                        found.append(_component(basis, values, *child.point))
                        parents.append(set())
                        masks.append(within)
                        frames.append((child, live, alone))
                        nxt.append(k)
                parents[k].add(p)
        frontier = nxt


def build_poset(arr: ToricArrangement) -> IntersectionPoset:
    """Enumerate every connected component of every intersection.

    Works layer by layer (:func:`_sweep`): each known component C is
    intersected with each hypersurface K in the frame of C, and each
    component of C ∩ K is read off the frame and deduplicated by its key.
    This reaches every component of every subset intersection (the
    exhaustive subset sweep is kept in the test suite as an oracle).  K adds
    nothing when it contains C or misses it, nor then on C's children.  Each
    witness is the point the frame gives on the first sight of its
    component.  Each component W of C ∩ K is recorded as a child of C, on
    the canonical instance of W, and has codim(C) + 1.  When W ⊊ C, some K
    contains W but not C, and W lies in a component of C ∩ K; so every
    strict containment is a chain of such edges, and the edges are exactly
    the covers.  [T, W] is geometric, so by Weisner's theorem (see the
    module docstring) mu(T, W) is minus the sum of mu over W's parents p
    with K not in X(p), K the lowest hypersurface containing W: a coatom p
    has p v K = W iff K is not in X(p).

    The sweep expands every component, so it also gives the unimodularity
    verdict (see the module docstring): no hypersurface splits a component.
    """
    found, parents, masks = [full_torus(arr.dim)], [set()], [0]
    splits = list(_sweep(arr, found, parents, masks))
    mobius = [1]
    for k in range(1, len(found)):
        low = masks[k] & -masks[k]
        mobius.append(-sum(mobius[p] for p in parents[k] if not masks[p] & low))
    order = sorted(range(len(found)),
                   key=lambda k: (found[k].codim, found[k].sat_basis.entries, found[k].values))
    pos = {k: i for i, k in enumerate(order)}
    covers = sorted((pos[k], pos[p]) for k in range(len(found)) for p in parents[k])
    return IntersectionPoset(arr.dim, tuple(found[k] for k in order), tuple(covers),
                             tuple(mobius[k] for k in order), not any(splits))


def is_unimodular(arr: ToricArrangement) -> bool:
    """True iff every subset intersection is empty or connected, i.e. iff
    no hypersurface splits a component of the poset (see the module
    docstring): the sweep of :func:`build_poset`, run to the first split."""
    return not any(_sweep(arr, [full_torus(arr.dim)], [set()], [0]))
