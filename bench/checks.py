"""Correctness checks for the output of one benchmark job.

Each job is compared bit for bit with its golden (stdout and exit code, as
captured for the default seed), and checked independently of the goldens:

* braid(l) has Poincare polynomial prod_{k=1..l} (1 + k t);
* a toric Weyl arrangement of rank l has P(-1) = (-1)^l |W| / f, with W the
  Weyl group and f the index of connection;
* the deletion-restriction polynomial equals the poset (dcp) polynomial;
* ``relations`` prints ``expected_h2`` equal to the t^2 coefficient of the
  reference polynomial, and ``consistent`` agrees with the printed counts;
* the seeded random inputs are isomorphic copies of non-DR arrangements, so
  ``drtype`` must say ``false`` and ``poincare --method=dr`` must refuse.
"""

from __future__ import annotations

import json
from math import factorial
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# Poincare polynomials of the fixed inputs, by the dcp method at the commit
# that introduced the benchmark.  The test suite checks every entry against
# the closed forms of the module docstring, so the table is a checked
# reference, not a copy of the program's output.
REFERENCE = {
    "four": (1, 6, 9),
    "A2": (1, 5, 6),
    "A3": (1, 9, 26, 24),
    "A4": (1, 14, 71, 154, 120),
    "A5": (1, 20, 155, 580, 1044, 720),
    "B2": (1, 6, 9),
    "B3": (1, 12, 47, 60),
    "B4": (1, 20, 146, 460, 525),
    "C3": (1, 12, 47, 60),
    "C4": (1, 20, 146, 460, 525),
    "D4": (1, 16, 92, 224, 195),
    "G2": (1, 8, 19),
    "braid3": (1, 6, 11, 6),
    "braid4": (1, 10, 35, 50, 24),
    "braid5": (1, 15, 85, 225, 274, 120),
    "braid6": (1, 21, 175, 735, 1624, 1764, 720),
}

_WEYL_ORDER = {"A": lambda l: factorial(l + 1), "B": lambda l: 2 ** l * factorial(l),
               "C": lambda l: 2 ** l * factorial(l), "D": lambda l: 2 ** (l - 1) * factorial(l),
               "G": lambda l: 12}
_CONNECTION_INDEX = {"A": lambda l: l + 1, "B": lambda l: 2, "C": lambda l: 2,
                     "D": lambda l: 4, "G": lambda l: 1}
_POSITIVE_ROOTS = {"A": lambda l: l * (l + 1) // 2, "B": lambda l: l * l,
                   "C": lambda l: l * l, "D": lambda l: l * (l - 1), "G2": lambda l: 6}

# Job outputs that are known to be wrong or incomplete and are kept in the
# corpus so that a fix shows; they are reported with every result.
KNOWN_DISCREPANCIES = {
    "relations G2.txt": "consistent: false; numerical rank 17 against h2 = 19, "
                        "with a clean singular-value gap",
}

# Jobs whose correct outcome is a refusal (exit 2): B4 fails the
# deletion-restriction condition along the identity ordering.
EXPECTED_REFUSALS = {"poincare --method=dr --ordering="
                     + ",".join(str(i) for i in range(1, 17)) + " B4.txt"}


def load_goldens(path: Path = GOLDENS) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_report(text: str) -> dict[str, list[str]]:
    """``key: value`` lines, each key mapped to its values in order."""
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out.setdefault(key, []).append(value.strip())
    return out


def braid_poincare(l: int) -> tuple[int, ...]:
    poly = [1]
    for k in range(1, l + 1):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


def weyl_euler(name: str) -> int:
    """(-1)^l |W| / f for a Weyl input name such as ``B4`` or ``G2``."""
    family, l = name[0], int(name[1:])
    return (-1) ** l * _WEYL_ORDER[family](l) // _CONNECTION_INDEX[family](l)


def closed_form_problems(name: str | None, poly: tuple[int, ...]) -> list[str]:
    """Disagreements of a printed Poincare polynomial with the closed forms."""
    if name is None:
        return []
    if name.startswith("braid"):
        want = braid_poincare(int(name[5:]))
        if poly != want:
            return [f"{name}: P = {poly}, closed form {want}"]
    elif name[0] in _WEYL_ORDER and name[1:].isdigit():
        value = sum(c * (-1) ** k for k, c in enumerate(poly))
        if value != weyl_euler(name):
            return [f"{name}: P(-1) = {value}, expected {weyl_euler(name)}"]
    return []


def _poly(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split())


def _one(report, key) -> str:
    values = report.get(key)
    if not values or len(values) != 1:
        raise KeyError(key)
    return values[0]


def _poincare_problems(name, poly) -> list[str]:
    problems = closed_form_problems(name, poly)
    ref = REFERENCE.get(name)
    if ref is not None and poly != ref:
        problems.append(f"{name}: P = {poly}, reference {ref}")
    return problems


def independent_problems(job, code: int | None, out: str) -> list[str]:
    """Problems found without the goldens; an empty list means the job passed."""
    name = job.input
    if job.key in EXPECTED_REFUSALS:
        return [] if code == 2 else [f"expected refusal (exit 2), got exit {code}"]
    if job.seeded and job.argv[:2] == ("poincare", "--method=dr"):
        return [] if code == 2 else [f"non-DR input: expected exit 2, got exit {code}"]
    if code != 0:
        return [f"exit {code}"]
    report = parse_report(out)
    try:
        if job.command == "analyze":
            dcp = _poly(_one(report, "poincare_dcp"))
            problems = _poincare_problems(name, dcp)
            dr = _one(report, "poincare_dr")
            if dr != "unavailable" and _poly(dr) != dcp:
                problems.append(f"dr {dr} differs from dcp {dcp}")
            return problems
        if job.command == "poincare":
            return _poincare_problems(name, _poly(_one(report, "poincare")))
        if job.command == "drtype":
            verdict = _one(report, "dr_type")
            if job.seeded:
                return [] if verdict == "false" else ["non-DR input reported as DR"]
            if verdict == "true":
                counts = _poly(_one(report, "step_counts"))
                if any(c > k + 1 for k, c in enumerate(counts)):
                    return [f"step counts {counts} break the DR condition"]
            return []
        if job.command == "unimodular":
            return [] if _one(report, "unimodular") in ("true", "false") else ["bad verdict"]
        if job.command == "poset":
            sizes = _poly(_one(report, "layer_sizes"))
            count = int(_one(report, "components"))
            listed = sum(1 for key in report if key.startswith("component "))
            if not sum(sizes) == count == listed:
                return [f"layer sizes {sizes}, {count} components, {listed} listed"]
            return []
        if job.command == "relations":
            h2 = int(_one(report, "expected_h2"))
            problems = []
            if name in REFERENCE and h2 != REFERENCE[name][2]:
                problems.append(f"expected_h2 {h2}, reference {REFERENCE[name][2]}")
            rank = int(_one(report, "monomials")) - int(_one(report, "nullity"))
            consistent = _one(report, "consistent")
            if consistent != str(rank == h2).lower():
                problems.append(f"consistent: {consistent} with rank {rank}, h2 {h2}")
            elif consistent != "true" and job.key not in KNOWN_DISCREPANCIES:
                problems.append(f"rank {rank} against h2 {h2}")
            return problems
        if job.command == "weyl":
            family = job.argv[1].split("=", 1)[1]
            rank = int(job.argv[2].split("=", 1)[1])
            hyps = sum(1 for line in out.splitlines() if line.startswith("hyp "))
            want = _POSITIVE_ROOTS[family](rank)
            return [] if hyps == want else [f"{hyps} hypersurfaces, expected {want}"]
    except (KeyError, ValueError) as exc:
        return [f"malformed report ({exc})"]
    return [f"no check for command {job.command}"]


def job_problems(job, code: int | None, out: str, golden: dict | None) -> list[str]:
    """Golden comparison (when ``golden`` is given) plus the independent checks."""
    problems = []
    if golden is not None and (code != golden["exit"] or out != golden["stdout"]):
        problems.append("output differs from golden")
    return problems + independent_problems(job, code, out)
