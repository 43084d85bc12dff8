"""Poincare polynomials of toric complements and deletion-restriction typing.

Two independent computations are provided.  ``dcp_poincare`` sums
|mu(T, W)| t^codim(W) (1 + t)^dim(W) over the components W of the
intersection poset, mu being its Mobius function from the full torus T.
``dr_poincare`` runs the deletion-restriction recursion and is only valid
when the per-step component-count condition holds; it refuses otherwise
rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import ToricArrangement, restrict
from .lattice import IntMatrix
from .polynomial import Polynomial
from .poset import Component, build_poset, intersect_system


class DrHypothesisError(RuntimeError):
    """Raised when a deletion-restriction computation is not justified."""


@dataclass(frozen=True)
class DrReport:
    """Outcome of a deletion-restriction ordering check or search.

    ``ordering`` is a permutation of the hypersurface indices (0-based), or
    None when no ordering passes.  ``step_counts[k]`` is the number of
    distinct components cut on hypersurface ordering[k+1] by its
    predecessors; the verdict requires step_counts[k] <= k + 1 throughout.
    """

    ordering: tuple[int, ...] | None
    step_counts: tuple[int, ...]
    verdict: bool


def _pair_components(arr: ToricArrangement, cache: dict, a: int, b: int) -> frozenset[Component]:
    key = (a, b) if a < b else (b, a)
    got = cache.get(key)
    if got is None:
        ha, hb = arr.hypersurfaces[key[0]], arr.hypersurfaces[key[1]]
        sys_a = IntMatrix(2, arr.dim, (ha.chi, hb.chi))
        got = frozenset(intersect_system(sys_a, (ha.b, hb.b)))
        cache[key] = got
    return got


def dr_condition_check(arr: ToricArrangement, ordering, _cache: dict | None = None) -> DrReport:
    """Check the per-step component-count condition along one ordering.

    At step k (0-based, k >= 1) the hypersurfaces ordering[:k] must cut at
    most k distinct connected components on hypersurface ordering[k].
    """
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(arr.n)):
        raise ValueError("ordering must be a permutation of the hypersurface indices")
    cache = {} if _cache is None else _cache
    counts = []
    verdict = True
    for k in range(1, arr.n):
        labels: set[Component] = set()
        for r in ordering[:k]:
            labels |= _pair_components(arr, cache, r, ordering[k])
        counts.append(len(labels))
        if len(labels) > k:
            verdict = False
    return DrReport(ordering, tuple(counts), verdict)


def find_dr_ordering(arr: ToricArrangement) -> DrReport:
    """First ordering (lexicographic, depth-first with prefix pruning) that
    passes the deletion-restriction condition, or a failed report."""
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
                labels: set[Component] = set()
                for r in chosen:
                    labels |= _pair_components(arr, cache, r, cand)
                if len(labels) > pos:
                    continue
                counts.append(len(labels))
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
    case.
    """
    report = dr_condition_check(arr, ordering)
    if not report.verdict:
        bad = next(k for k, c in enumerate(report.step_counts) if c > k + 1)
        raise DrHypothesisError(
            f"ordering {tuple(x + 1 for x in report.ordering)} cuts "
            f"{report.step_counts[bad]} components at step {bad + 2}; "
            "the deletion-restriction recursion does not apply")
    total = Polynomial.binomial(arr.dim)
    for pos, idx in enumerate(report.ordering):
        sub = restrict(arr, idx, report.ordering[:pos]).ambient
        sub_report = find_dr_ordering(sub)
        if sub_report.ordering is None:
            raise DrHypothesisError(
                f"restriction to hypersurface {idx + 1} admits no "
                "deletion-restriction ordering")
        total = total + dr_poincare(sub, sub_report.ordering).shift(1)
    return total


def betti(arr: ToricArrangement) -> tuple[int, ...]:
    """Betti numbers of the complement (coefficients of dcp_poincare)."""
    return dcp_poincare(arr).coefficients
