#!/usr/bin/env python3
"""Benchmark of the toricarr command line on a fixed, seeded corpus.

Usage, from the root of a checkout::

    python3 bench/run.py --workload exact|dr|relations|cli-cold \\
        --seed N --seconds S --trace 0|1

Each workload is a list of CLI jobs (see ``corpus.py``).  The in-process
workloads call ``toricarr.cli.main`` with stdout captured; ``cli-cold`` starts
one fresh ``python -m toricarr.cli`` process per job.  A run repeats the job
list while another pass fits in ``--seconds`` (always at least one pass) and
reports medians over passes.  Every job's stdout and exit code are checked
(``checks.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the limit probes and the known discrepancies.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` half of the time runs untraced and half traced, with spans
around the public functions of every module (``spans.py``); the metrics are
the per-layer ones, and the spans are written to ``.bench_out/``.

BLAS runs with its default thread count; the count in use is recorded with
every result.  Modules that import ``toricarr`` (``corpus``, the CLI) are
imported inside functions, after ``main`` has found ``src/`` and put it on
the path, so that a directory without the program fails with a message.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact", "dr", "relations", "cli-cold")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def _median(values):
    return statistics.median(values) if values else 0.0


# -- set-up --------------------------------------------------------------------

@dataclass
class State:
    seed: int
    workdir: Path
    jobs: list
    goldens: dict
    env: dict   # environment of child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_inputs(workdir: Path, seed: int):
    """Write every input file into a new work directory and enter it; job
    arguments name the files relative to it."""
    import corpus

    workdir.mkdir(parents=True)
    for name, text in corpus.inputs(seed).items():
        (workdir / f"{name}.txt").write_text(text, encoding="utf-8")
    os.chdir(workdir)


def setup(workload: str, seed: int, workdir: Path) -> State:
    """Imports, input files, goldens and one warm-up job per command."""
    import numpy as np
    from toricarr import cli

    import checks
    import corpus

    jobs = corpus.workloads()[workload]
    write_inputs(workdir, seed)
    state = State(seed, workdir, jobs, checks.load_goldens(), _child_env())
    commands = sorted({job.command for job in jobs})
    if workload == "cli-cold":
        run_cold(state, corpus.Job(corpus.WARMUP["unimodular"], 4))
        return state
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in commands:
            cli.main(list(corpus.WARMUP[command]))
    if "relations" in commands:
        rng = np.random.default_rng(seed)
        np.linalg.svd(rng.standard_normal((600, 120)) + 1j * rng.standard_normal((600, 120)))
    return state


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to the end of set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


# -- running jobs --------------------------------------------------------------

@dataclass
class Result:
    job: object
    code: int | None
    out: str
    seconds: float
    rss_kb: int = 0
    error: str = ""


def run_in_process(job) -> Result:
    from toricarr import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a job that raises is a failed job, not a failed run
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return Result(job, code, out.getvalue(), seconds, error=error)


def run_cold(state: State, job, spans_path: Path | None = None) -> Result:
    """One fresh CLI process; its peak RSS comes from ``wait4``."""
    if spans_path is None:
        argv = [sys.executable, "-m", "toricarr.cli", *job.argv]
    else:
        argv = [sys.executable, str(BENCH / "cold_child.py"), str(spans_path), *job.argv]
    out_path, err_path = state.workdir / "cold.out", state.workdir / "cold.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=state.workdir, env=state.env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode
    text = out_path.read_text(encoding="utf-8")
    error = "" if code in (0, 1, 2) else err_path.read_text(encoding="utf-8", errors="replace")
    return Result(job, code if not error else None, text, seconds, usage.ru_maxrss, error)


class Pass(list):
    """The results of one pass over the job list, with its wall time."""

    wall = 0.0


def run_passes(state: State, budget: float, runner) -> list[Pass]:
    """Repeat the timed job list while another pass fits in ``budget``."""
    timed = [job for job in state.jobs if not job.probe]
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = Pass(runner(job) for job in timed)
        results.wall = time.perf_counter() - pass_start
        passes.append(results)
        if time.perf_counter() - start + _median([p.wall for p in passes]) > budget:
            return passes


# -- checking ------------------------------------------------------------------

def check(state: State, res: Result) -> list[str]:
    """Problems with one job result: golden mismatch, independent checks,
    or an exception that escaped."""
    import checks

    found = [res.error.strip().splitlines()[-1]] if res.error else []
    golden = None
    if not res.job.seeded or state.seed == DEFAULT_SEED:
        golden = state.goldens.get(res.job.key)
        if golden is None:
            found.append("no golden")
    found += checks.job_problems(res.job, res.code, res.out, golden)
    return [f"{res.job.key}: {p}" for p in found]


def run_probes(state: State, runner) -> dict:
    """Untimed jobs at a known limit; a probe that hits the limit is counted
    as refused, apart from the correctness verdict of the timed jobs."""
    import checks

    probes = {}
    for job in state.jobs:
        if job.probe:
            res = runner(job)
            found = checks.independent_problems(job, res.code, res.out)
            probes[job.key] = "ok" if not found and not res.error else f"refused (exit {res.code})"
    return probes


def known_discrepancies(state: State) -> dict:
    import checks

    keys = {job.key for job in state.jobs}
    return {k: v for k, v in checks.KNOWN_DISCREPANCIES.items() if k in keys}


# -- environment ---------------------------------------------------------------

def _blas_info() -> dict:
    import numpy as np

    info = {"blas_env_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "toricarr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(args) -> dict:
    import numpy as np

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "dont_write_bytecode": sys.flags.dont_write_bytecode,
           "commit": _commit(), "src_sha256": _src_digest()}
    env.update(_blas_info())
    return env


# -- metrics -------------------------------------------------------------------

def job_latency(passes) -> dict:
    """Median and 75th percentile of single-job wall time, with the sample
    count.  For ``cli-cold`` this is the latency of one fresh CLI process.
    It is reported with the environment, not as a bounded metric: one short
    job samples a moment of a shared machine, and in-process quantiles moved
    by up to a fifth between runs."""
    times = [res.seconds for results in passes for res in results]
    quart = statistics.quantiles(times, n=4, method="inclusive")
    return {"p50_s": quart[1], "p75_s": quart[2], "samples": len(times)}


def end_to_end(passes, setup_times, rss_mb: float) -> dict:
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([results.wall for results in passes]), "s"),
        "small_s": (_median([sum(r.seconds for r in results if not r.job.large)
                             for results in passes]), "s"),
        "large_s": (_median([sum(r.seconds for r in results if r.job.large)
                             for results in passes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def import_times() -> tuple[float, float]:
    """Median import time of ``toricarr.cli`` and of numpy in a fresh
    interpreter, from ``-X importtime`` (cumulative microseconds)."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import toricarr.cli"],
                              capture_output=True, text=True, env=_child_env(), check=True,
                              timeout=120)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        cli_s.append((cumulative.get("toricarr", 0) + cumulative.get("toricarr.cli", 0)) / 1e6)
        numpy_s.append(cumulative.get("numpy", 0) / 1e6)
    return _median(cli_s), _median(numpy_s)


PER_LAYER_CALLS_SELF = ("lattice.hnf", "lattice.snf", "lattice.saturation",
                        "lattice.in_row_lattice", "poset.intersect_system",
                        "poset.component_contains", "cohomology.dcp_poincare",
                        "cohomology.find_dr_ordering")
PER_LAYER_CALLS_S = ("poset.build_poset", "hyperplane.top_local_multiplicity",
                     "cohomology.dcp_poincare", "cohomology.find_dr_ordering",
                     "cohomology.dr_poincare", "arrangement.restrict",
                     "forms.sample_point", "forms.eval_generator", "forms.svd")


def per_layer(span_sets, traced_wall: float, untraced_wall: float, n_passes: int,
              imports: tuple[float, float]) -> dict:
    """Per-layer metrics per pass of the job list, from the traced passes."""
    import spans as sp

    total: dict[str, dict[str, float]] = {}
    bp_components = 0
    for rows in span_sets:
        for name, entry in sp.summarize(rows).items():
            acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            for key in acc:
                acc[key] += entry[key]
        bp_components += sp.nested_count(rows, "poset.intersect_system", "poset.build_poset")

    def get(name, key):
        return total.get(name, {}).get(key, 0) / n_passes

    out = {}
    for name in PER_LAYER_CALLS_SELF:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in PER_LAYER_CALLS_S:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
    distinct = get("poset.build_poset", "count")
    out.update({
        "poset.intersect_system.components": (get("poset.intersect_system", "count"), "count"),
        "poset.build_poset.components": (distinct, "count"),
        "poset.build_poset.useful_ratio": (
            distinct * n_passes / bp_components if bp_components else 0.0, "ratio"),
        "poset.is_unimodular.s": (get("poset.is_unimodular", "s"), "s"),
        "hyperplane.intersection_lattice.self_s": (get("hyperplane.intersection_lattice",
                                                       "self_s"), "s"),
        "hyperplane.intersection_lattice.elements": (get("hyperplane.intersection_lattice",
                                                         "count"), "count"),
        "cohomology.dcp_poincare.s": (get("cohomology.dcp_poincare", "s"), "s"),
        "cohomology.find_dr_ordering.s": (get("cohomology.find_dr_ordering", "s"), "s"),
        "cohomology.dr_condition_check.calls": (get("cohomology.dr_condition_check", "calls"),
                                                "count"),
        "arrangement.parse.s": (get("arrangement.parse", "s"), "s"),
        "forms.svd.factor_bytes": (get("forms.svd", "count"), "bytes"),
        "forms.degree2_relations.s": (get("forms.degree2_relations", "s"), "s"),
        "forms.degree2_relations.self_s": (get("forms.degree2_relations", "self_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.import_s": (imports[0], "s"),
        "cli.import_numpy_s": (imports[1], "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_share": (
            sum(e["self_s"] for e in total.values()) / (traced_wall * n_passes)
            if traced_wall else 0.0, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


# -- main ----------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _traced_passes(state: State, budget: float, cold: bool):
    """Traced passes; returns (passes, span lists)."""
    import spans as sp

    if cold:
        span_files: list[Path] = []

        def runner(job):
            path = state.workdir / f"spans{len(span_files)}.json"
            span_files.append(path)
            return run_cold(state, job, path)

        passes = run_passes(state, budget, runner)
        span_sets = []
        for path in span_files:
            with open(path, encoding="utf-8") as fh:
                span_sets.append(json.load(fh))
        return passes, span_sets
    recorder = sp.Recorder()
    restore = sp.install(recorder)
    counter = iter(range(1 << 30))

    def traced(job):
        recorder.trace_id = next(counter)
        return run_in_process(job)

    try:
        passes = run_passes(state, budget, traced)
    finally:
        restore()
    return passes, [recorder.spans]


def _write_spans(args, span_sets):
    """One JSON array per span: [process, name, start, end, parent, trace, count]."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for process, rows in enumerate(span_sets):
            for row in rows:
                fh.write(json.dumps([process, *row]) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "toricarr" / "cli.py").is_file():
        print(f"bench: no toricarr sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
        state = setup(args.workload, args.seed, workdir)
        cold = args.workload == "cli-cold"

        def runner(job):
            return run_cold(state, job) if cold else run_in_process(job)

        if args.trace:
            plain = run_passes(state, args.seconds / 2, runner)
            traced, span_sets = _traced_passes(state, args.seconds / 2, cold)
            passes = plain + traced
            metrics = per_layer(span_sets, _median([p.wall for p in traced]),
                                _median([p.wall for p in plain]), len(traced), import_times())
            _write_spans(args, span_sets)
        else:
            passes = run_passes(state, args.seconds, runner)
            if cold:
                rss_mb = max(res.rss_kb for results in passes for res in results) / 1024
            else:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(passes, setup_times, rss_mb)
        probes = run_probes(state, runner)
        per_job = [check(state, res) for results in passes for res in results]
        problems = [p for found in per_job for p in found]
        failed = sum(1 for found in per_job if found)
        attempted = len(per_job)
        record = {"env": environment(args), "passes": len(passes),
                  "jobs_per_pass": len(passes[0]), "job_latency": job_latency(passes),
                  "limit_probes": probes,
                  "known_discrepancies": known_discrepancies(state),
                  "problems": problems[:20]}
        print(json.dumps(record, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
