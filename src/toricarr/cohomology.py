"""Poincare polynomials of toric complements and deletion-restriction typing.

Two independent computations are provided.  ``dcp_poincare`` sums
|mu(T, W)| t^codim(W) (1 + t)^dim(W) over the components W of the
intersection poset, mu being its Mobius function from the full torus T.
``dr_poincare`` runs the deletion-restriction recursion, valid only when the
per-step component-count condition holds along an ordering (step k counts the
hypersurfaces of ``restrict(arr, ordering[k], ordering[:k])``, at most k are
allowed), and refuses otherwise.

The layer works on integers: an arrangement is its dimension and its
hypersurfaces as keys (chi, (num, den)), in the normal form that
``LocalFrame.trace`` gives, and ``ToricArrangement`` appears only at the
public entry points.  Each arrangement has one table of traces, built per
hypersurface on first use, each trace also a bitmask over the distinct
components on its hypersurface: a step count is the popcount of an OR.  The
check, the search and the recursion read that table; consecutive public
calls on one object share it.  A restriction, the ordered union of trace
keys, recurses along the ordering its own search found, memoized on
(dim, keys) within a call.
"""

from __future__ import annotations

from math import comb
from weakref import ref

from .arrangement import ToricArrangement, _keys, _traces, _union
from .lattice import Frozen
from .polynomial import Polynomial
from .poset import build_poset


class DrHypothesisError(RuntimeError):
    """Raised when a deletion-restriction computation is not justified."""


class DrReport(Frozen):
    """Outcome of a deletion-restriction ordering check or search.

    ``ordering`` is a permutation of the hypersurface indices (0-based), or
    None when no ordering passes.  ``step_counts[k]`` is the number of
    hypersurfaces of ``restrict(arr, ordering[k+1], ordering[:k+1])``, the
    distinct components cut on hypersurface ordering[k+1] by its
    predecessors; the verdict requires step_counts[k] <= k + 1 throughout.
    """

    __slots__ = ("ordering", "step_counts", "verdict")


_last = (lambda: None, None)


def _top(arr: ToricArrangement):
    """``arr``'s keys and trace table, held for the last object seen (by weak
    reference): consecutive public calls on it, as ``analyze`` and
    ``poincare --method=dr`` make, build each trace once.  The held pair is
    read once and replaced whole, so a thread never gets another object's."""
    global _last
    held, top = _last
    if held() is not arr:
        top = _keys(arr), {}
        _last = ref(arr), top
    return top


def _entry(keys, table: dict, i: int):
    """``_traces(keys, i)`` and each trace as a bitmask over the distinct
    components on K_i, built on first use."""
    if i not in table:
        trace = _traces(keys, i)
        bit: dict = {}
        table[i] = trace, tuple(sum(1 << bit.setdefault(h, len(bit)) for h in t) for t in trace)
    return table[i]


def _step_count(keys, table: dict, i: int, prefix) -> int:
    """Number of hypersurfaces of ``restrict(arr, i, prefix)``: the distinct
    components in the union of the traces of the prefix on K_i."""
    if not prefix:
        return 0
    masks = _entry(keys, table, i)[1]
    union = 0
    for r in prefix:
        union |= masks[r]
    return union.bit_count()


def _check(keys, table: dict, ordering) -> DrReport:
    """:func:`dr_condition_check` reading and filling ``table``."""
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(len(keys))):
        raise ValueError("ordering must be a permutation of the hypersurface indices")
    counts = tuple(_step_count(keys, table, ordering[k], ordering[:k])
                   for k in range(1, len(ordering)))
    return DrReport(ordering, counts, all(c <= k for k, c in enumerate(counts, start=1)))


def dr_condition_check(arr: ToricArrangement, ordering) -> DrReport:
    """Check the per-step component-count condition along one ordering.

    At step k (0-based, k >= 1) the restriction
    ``restrict(arr, ordering[k], ordering[:k])`` must have at most k
    hypersurfaces.
    """
    return _check(*_top(arr), ordering)


def _search(keys, table: dict) -> tuple[int, ...] | None:
    """Lexicographically first passing ordering, or None; fills ``table``."""
    n = len(keys)
    if n > 12:
        raise ValueError("ordering search is exponential in n; limited to n <= 12")
    dead: set[int] = set()

    def extend(prefix: tuple[int, ...], members: int) -> tuple[int, ...] | None:
        if len(prefix) == n:
            return prefix
        if members in dead:
            return None
        for cand in range(n):
            if not members >> cand & 1 and _step_count(keys, table, cand, prefix) <= len(prefix):
                found = extend(prefix + (cand,), members | 1 << cand)
                if found is not None:
                    return found
        dead.add(members)
        return None

    return extend((), 0)


def find_dr_ordering(arr: ToricArrangement) -> DrReport:
    """Lexicographically first ordering that passes the deletion-restriction
    condition, or a failed report.  Depth-first over prefixes; the step test
    depends on a prefix only as a set (``members``, a bitmask), so a set found
    to have no passing completion is not expanded again: at most 2^n are."""
    keys, table = _top(arr)
    ordering = _search(keys, table)
    return DrReport(None, (), False) if ordering is None else _check(keys, table, ordering)


def dcp_poincare(arr: ToricArrangement) -> Polynomial:
    """Poincare polynomial as the Mobius sum over the intersection poset.

    Each component W contributes |mu(T, W)| * t^codim(W) * (1 + t)^dim(W)
    (De Concini-Procesi; Moci), |mu(T, W)| being the top Betti number of
    the local central arrangement at W and (1 + t)^dim(W) that of W.
    """
    return build_poset(arr).poincare()


def dr_poincare(arr: ToricArrangement, ordering) -> Polynomial:
    """Poincare polynomial via the deletion-restriction recursion.

    Refuses (raises :class:`DrHypothesisError`) if the given ordering fails
    the component-count condition, or if some restricted arrangement admits
    no passing ordering of its own; the recursion is unjustified in either
    case.  Restrictions met again within the call reuse their polynomial.
    """
    keys, table = _top(arr)
    report = _check(keys, table, ordering)
    if not report.verdict:
        bad = next(k for k, c in enumerate(report.step_counts) if c > k + 1)
        raise DrHypothesisError(
            f"ordering {tuple(x + 1 for x in report.ordering)} cuts "
            f"{report.step_counts[bad]} components at step {bad + 2}; "
            "the deletion-restriction recursion does not apply")
    memo: dict[tuple, Polynomial] = {}

    def recurse(dim: int, keys, table: dict, ordering: tuple[int, ...]) -> Polynomial:
        total = [comb(dim, j) for j in range(dim + 1)]  # (1+t)^dim; t * poly has degree <= dim
        for pos, idx in enumerate(ordering):
            # the first hypersurface has no predecessors: no traces needed
            sub = (dim - 1, _union(_entry(keys, table, idx)[0], ordering[:pos]) if pos else ())
            poly = memo.get(sub)
            if poly is None:
                sub_table: dict = {}
                sub_ordering = _search(sub[1], sub_table)
                if sub_ordering is None:
                    raise DrHypothesisError(f"restriction to hypersurface {idx + 1} admits no "
                                            "deletion-restriction ordering")
                poly = memo[sub] = recurse(*sub, sub_table, sub_ordering)
            for j, c in enumerate(poly.coefficients, start=1):
                total[j] += c
        return Polynomial(tuple(total))

    return recurse(arr.dim, keys, table, report.ordering)
