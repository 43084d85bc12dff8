"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import toricarr  # noqa: E402
from toricarr import cli, lattice, poset  # noqa: E402
from toricarr.cohomology import find_dr_ordering  # noqa: E402


def _row(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_times_subtract_children_once():
    rows = [_row("root", 0.0, 10.0, -1),
            _row("a", 1.0, 4.0, 0),
            _row("a.inner", 2.0, 3.0, 1),
            _row("b", 5.0, 7.0, 0)]
    assert spans.self_times(rows) == [5.0, 2.0, 1.0, 2.0]
    assert sum(spans.self_times(rows)) == 10.0


def test_self_times_clip_overlapping_children():
    rows = [_row("root", 0.0, 4.0, -1), _row("a", 1.0, 3.0, 0), _row("b", 2.0, 5.0, 0)]
    assert spans.self_times(rows)[0] == 1.0


def test_recursive_spans_count_outermost_time_only():
    rows = [_row("f", 0.0, 6.0, -1), _row("f", 1.0, 5.0, 0), _row("f", 2.0, 3.0, 1)]
    summary = spans.summarize(rows)["f"]
    assert summary["calls"] == 3
    assert summary["s"] == 6.0
    assert summary["self_s"] == 6.0


def test_wrapper_counts_calls_through_reexported_names():
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        m = lattice.IntMatrix(1, 2, ((2, 4),))
        lattice.snf(m)
        poset.snf(m)          # poset does `from .lattice import snf`
        toricarr.snf(m)       # package re-export
        np.linalg.svd(np.eye(3))
    finally:
        restore()
    summary = spans.summarize(recorder.spans)
    assert summary["lattice.snf"]["calls"] == 3
    assert summary["forms.svd"]["calls"] == 1
    assert summary["forms.svd"]["count"] == 2 * 9 * 8 + 3 * 8
    lattice.snf(m)
    assert len(recorder.spans) == 4
    assert poset.snf is lattice.snf and not hasattr(lattice.snf, "__wrapped__")


def test_spans_nest_under_cli_main():
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        rows = recorder.spans
        cli.main(["weyl", "--family=A", "--rank=2"])
    finally:
        restore()
    assert rows[0][0] == "cli.main" and rows[0][3] == -1
    assert all(row[3] >= 0 for row in rows[1:])


def _golden_job(key):
    for jobs in corpus.workloads().values():
        for job in jobs:
            if job.key == key:
                return job
    raise KeyError(key)


def test_one_byte_change_fails_golden_check():
    goldens = checks.load_goldens()
    job = _golden_job("analyze A2.txt")
    golden = goldens[job.key]
    assert checks.job_problems(job, golden["exit"], golden["stdout"], golden) == []
    out = golden["stdout"]
    changed = out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1]
    assert "output differs from golden" in checks.job_problems(job, golden["exit"],
                                                               changed, golden)
    assert checks.job_problems(job, 1, out, golden)


def test_goldens_pass_independent_checks():
    goldens = checks.load_goldens()
    for jobs in corpus.workloads().values():
        for job in jobs:
            golden = goldens[job.key]
            found = checks.independent_problems(job, golden["exit"], golden["stdout"])
            assert bool(found) == job.probe, (job.key, found)


def test_same_seed_gives_identical_inputs():
    assert corpus.inputs(7) == corpus.inputs(7)
    a, b = corpus.inputs(7), corpus.inputs(8)
    differ = {name for name in a if a[name] != b[name]}
    assert differ == {f"rand{k}" for k in range(corpus.RANDOM_COUNT)}


@pytest.mark.parametrize("seed", corpus.BASE_SEEDS)
def test_random_bases_are_not_dr(seed):
    assert not find_dr_ordering(corpus.base_arrangement(seed)).verdict


def test_reference_polynomials_match_closed_forms():
    for name, poly in checks.REFERENCE.items():
        assert checks.closed_form_problems(name, poly) == []
    assert checks.weyl_euler("G2") == 12


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    passes = [run.Pass([run.Result(corpus.Job(("x",), 1), 0, "", t) for t in (1.0, 2.0)])]
    e2e = run.end_to_end(passes, [0.5], 10.0)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    layer = run.per_layer([[]], 1.0, 1.0, 1, (0.1, 0.1))
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in {**e2e, **layer}.items())
