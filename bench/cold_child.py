"""One traced CLI process for the ``cli-cold`` workload.

Usage: ``python3 bench/cold_child.py SPANS_JSON <toricarr arguments>``, with
``src`` on ``PYTHONPATH``.  Runs ``toricarr.cli.main`` with the span wrappers
installed, writes the spans to SPANS_JSON and exits with the CLI's code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import toricarr.cli  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return toricarr.cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
