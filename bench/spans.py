"""In-memory spans around the public functions of each toricarr module.

The program is measured from outside: :func:`install` replaces each target
function by a wrapper that records one span per call (name, start, end,
parent span, trace id and an optional count taken from the result).  Modules
import functions by name (``poset`` does ``from .lattice import snf``), so the
wrapper is bound in every ``toricarr.*`` module attribute that refers to the
original, not only in the defining module.  ``numpy.linalg.svd`` is wrapped
too, because ``forms`` looks it up as ``np.linalg.svd`` on every call.

A span's self time is its duration minus the part of its interval that its
child spans cover, so the self times of all spans of a trace add up to the
duration of its root spans without double counting.
"""

from __future__ import annotations

import functools
import sys
import time


def _len(result) -> int:
    return len(result)


def _poset_components(poset) -> int:
    return len(poset.components)


def _lattice_elements(lattice) -> int:
    return len(lattice.elements)


def _factor_bytes(result) -> int:
    return sum(int(part.nbytes) for part in result)


# (module, attribute, span name, count taken from the result or None)
TARGETS = (
    ("toricarr.lattice", "hnf", "lattice.hnf", None),
    ("toricarr.lattice", "snf", "lattice.snf", None),
    ("toricarr.lattice", "saturation", "lattice.saturation", None),
    ("toricarr.lattice", "in_row_lattice", "lattice.in_row_lattice", None),
    ("toricarr.poset", "intersect_system", "poset.intersect_system", _len),
    ("toricarr.poset", "build_poset", "poset.build_poset", _poset_components),
    ("toricarr.poset", "component_contains", "poset.component_contains", None),
    ("toricarr.poset", "is_unimodular", "poset.is_unimodular", None),
    ("toricarr.hyperplane", "top_local_multiplicity", "hyperplane.top_local_multiplicity", None),
    ("toricarr.hyperplane", "intersection_lattice", "hyperplane.intersection_lattice",
     _lattice_elements),
    ("toricarr.cohomology", "dcp_poincare", "cohomology.dcp_poincare", None),
    ("toricarr.cohomology", "find_dr_ordering", "cohomology.find_dr_ordering", None),
    ("toricarr.cohomology", "dr_condition_check", "cohomology.dr_condition_check", None),
    ("toricarr.cohomology", "dr_poincare", "cohomology.dr_poincare", None),
    ("toricarr.arrangement", "restrict", "arrangement.restrict", None),
    ("toricarr.arrangement", "parse", "arrangement.parse", None),
    ("toricarr.forms", "sample_point", "forms.sample_point", None),
    ("toricarr.forms", "eval_generator", "forms.eval_generator", None),
    ("toricarr.forms", "degree2_relations", "forms.degree2_relations", None),
    ("numpy.linalg", "svd", "forms.svd", _factor_bytes),
    ("toricarr.cli", "main", "cli.main", None),
)


class Recorder:
    """Collects spans in memory; ``spans`` rows are
    [name, start, end, parent index or -1, trace id, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id, 0]
            index = len(spans)
            spans.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if count is not None:
                row[5] = count(result)
            return result

        return wrapper


def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target and return a function that restores the originals.

    The target modules must already be imported.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "toricarr" or name.startswith("toricarr."))]
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, span_name, count in targets:
        home = sys.modules[module_name]
        original = getattr(home, attr)
        wrapped = recorder.wrap(span_name, original, count)
        holders = [home] + [m for m in modules if m is not home]
        for module in holders:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore():
        for module, key, original in reversed(undo):
            setattr(module, key, original)

    return restore


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and ``count``.

    Inclusive time counts only the outermost span of a name, so a recursive
    function (``dr_poincare``) is not counted once per level.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for index, row in enumerate(spans):
        name = row[0]
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        entry["count"] += row[5]
        parent = row[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["s"] += row[2] - row[1]
    return out


def nested_count(spans, child: str, ancestor: str) -> int:
    """Sum of the counts of ``child`` spans that run inside an ``ancestor`` span."""
    total = 0
    for row in spans:
        if row[0] != child:
            continue
        parent = row[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += row[5]
    return total
