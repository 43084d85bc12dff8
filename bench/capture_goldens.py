"""Write ``goldens.json``: stdout and exit code of every job of every
workload, limit probes included, for the default seed.

Usage, from the root of a checkout: ``python3 bench/capture_goldens.py``.
Run it only when a change to the program's output is intended.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402


def main() -> int:
    workdir = run.WORK / "goldens"
    shutil.rmtree(workdir, ignore_errors=True)
    goldens = {}
    try:
        run.write_inputs(workdir, run.DEFAULT_SEED)
        for jobs in corpus.workloads().values():
            for job in jobs:
                if job.key not in goldens:
                    res = run.run_in_process(job)
                    if res.error:
                        raise RuntimeError(f"{job.key}: {res.error}")
                    goldens[job.key] = {"exit": res.code, "stdout": res.out}
                    print(f"{job.key}: exit {res.code}", file=sys.stderr)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
