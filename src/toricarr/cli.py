"""Command-line interface with deterministic, line-oriented reports.

Every report of a file command opens with the command name, the input path
and the sha256 of the input file, followed by ``key: value`` result lines
in a fixed order.  Exit codes: 0 success, 1 user error (bad file, bad
flags, or an input too large: a trace past ``MAX_TRACE_PIECES``, or out of
memory), 2 refusal (a requested deletion-restriction computation whose
hypothesis fails).

:func:`main` is the one writer of stdout.  It loads the input, puts the
header first and collects the lines that the command's ``cmd_*`` generator
yields; it writes them only when the command ends.  So exit 0 writes the
whole report, exit 2 the lines before the refusal, and exit 1 nothing.

numpy is loaded only by ``relations``: :mod:`toricarr.forms` is a lazy module
(see the package docstring), touched only inside :func:`cmd_relations`.  No
command touches the lazy :mod:`toricarr.hyperplane` or imports a class generator.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from functools import cache

from . import forms
from .arrangement import ToricArrangement, parse, serialize, weyl
from .cohomology import (
    DrHypothesisError,
    dcp_poincare,
    dr_condition_check,
    dr_poincare,
    find_dr_ordering,
)
from .poset import build_poset, is_unimodular

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_REFUSED = 2


def _load(path: str) -> tuple[ToricArrangement, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(data.decode("utf-8")), hashlib.sha256(data).hexdigest()


def _line(key, value) -> str:
    text = str(value)
    return f"{key}: {text}\n" if text else f"{key}:\n"


def _poly_str(poly) -> str:
    return " ".join(str(c) for c in poly.coefficients)


def _ordering_str(ordering) -> str:
    if ordering is None:
        return "none"
    return ",".join(str(i + 1) for i in ordering)


def _parse_ordering(text: str, n: int) -> tuple[int, ...]:
    try:  # empty text is the empty ordering, as printed for n = 0
        ordering = tuple(int(tok) - 1 for tok in text.split(",") if text)
    except ValueError:
        raise ValueError(f"bad ordering {text!r}: expected comma-separated integers")
    if sorted(ordering) != list(range(n)):
        raise ValueError(f"ordering {text!r} is not a permutation of 1..{n}")
    return ordering


def cmd_analyze(arr, args):
    report = find_dr_ordering(arr)
    poset = build_poset(arr)
    poincare_dr = "unavailable"
    if report.ordering is not None:
        try:
            poincare_dr = _poly_str(dr_poincare(arr, report.ordering))
        except DrHypothesisError:
            pass
    yield _line("l", arr.dim)
    yield _line("n", arr.n)
    yield _line("unimodular", str(poset.unimodular).lower())
    yield _line("dr_type", str(report.verdict).lower())
    yield _line("dr_ordering", _ordering_str(report.ordering))
    yield _line("poincare_dcp", _poly_str(poset.poincare()))
    yield _line("poincare_dr", poincare_dr)
    yield _line("poset_layers", " ".join(str(s) for s in poset.layer_sizes()))


def _basis_str(mat) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat.entries) + "]"


def _values_str(values) -> str:
    return "[" + " ".join(f"{v.numerator}/{v.denominator}" for v in values) + "]"


def cmd_poset(arr, args):
    poset = build_poset(arr)
    yield _line("l", arr.dim)
    yield _line("n", arr.n)
    yield _line("components", len(poset.components))
    yield _line("layer_sizes", " ".join(str(s) for s in poset.layer_sizes()))
    for k, comp in enumerate(poset.components, start=1):
        yield _line(f"component {k}",
                    f"codim={comp.codim} dim={comp.dim} "
                    f"basis={_basis_str(comp.sat_basis)} values={_values_str(comp.values)}")
    for i, j in poset.covers:
        yield _line("cover", f"{i + 1} < {j + 1}")


def cmd_poincare(arr, args):
    if args.method == "dcp" and args.ordering is not None:
        raise ValueError("--ordering only applies to --method=dr")
    # a refusal (exit 2) still reports the method and the ordering it refused
    yield _line("method", args.method)
    if args.method == "dcp":
        yield _line("poincare", _poly_str(dcp_poincare(arr)))
        return
    ordering = (find_dr_ordering(arr).ordering if args.ordering is None
                else _parse_ordering(args.ordering, arr.n))
    if ordering is None:
        raise DrHypothesisError("no ordering satisfies the deletion-restriction condition")
    yield _line("ordering", _ordering_str(ordering))
    yield _line("poincare", _poly_str(dr_poincare(arr, ordering)))


def cmd_unimodular(arr, args):
    yield _line("unimodular", str(is_unimodular(arr)).lower())


def cmd_drtype(arr, args):
    report = find_dr_ordering(arr)
    yield _line("dr_type", str(report.verdict).lower())
    yield _line("dr_ordering", _ordering_str(report.ordering))
    yield _line("step_counts",
                " ".join(str(c) for c in report.step_counts)
                if report.ordering is not None else "none")


def cmd_weyl(args):
    yield serialize(weyl(args.family, args.rank, simple_only=args.simple_only))


def cmd_relations(arr, args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    monos = forms.wedge_monomials(arr.dim, arr.n)
    gens = forms.generators(arr)
    basis = forms.degree2_relations(arr, samples=args.samples, tol=args.tol, seed=args.seed)
    # h2 = C(l, 2) + n(l - 1) + sum over codim 2 of |mu| = m - 1 = the steps that count it
    l, n = arr.dim, arr.n
    h2 = l * (l - 1) // 2 + n * (l - 1) + sum(dr_condition_check(arr, range(n)).step_counts)
    yield _line("samples", basis.samples)
    yield _line("tol", args.tol)
    yield _line("seed", args.seed)
    yield _line("generators", " ".join(g.name() for g in gens))
    yield _line("monomials", len(monos))
    yield _line("monomial_order",
                " ".join(f"{gens[a].name()}^{gens[b].name()}" for a, b in monos))
    yield _line("nullity", basis.nullity)
    yield _line("expected_h2", h2)
    yield _line("consistent", str(len(monos) - basis.nullity == h2).lower())


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(prog="toricarr",
                                     description="exact computations with toric arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on an arrangement file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("poset", help="components and covering relations")
    p.add_argument("file")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("poincare", help="Poincare polynomial of the complement")
    p.add_argument("--method", choices=("dcp", "dr"), required=True)
    p.add_argument("--ordering", help="comma-separated 1-based hypersurface order")
    p.add_argument("file")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("unimodular", help="subset-connectivity test")
    p.add_argument("file")
    p.set_defaults(func=cmd_unimodular)

    p = sub.add_parser("drtype", help="deletion-restriction ordering search")
    p.add_argument("file")
    p.set_defaults(func=cmd_drtype)

    p = sub.add_parser("weyl", help="emit a toric Weyl arrangement file")
    p.add_argument("--family", choices=("A", "B", "C", "D", "G2"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--simple-only", action="store_true",
                   help="use only the simple roots")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("relations", help="degree-2 relations among log 1-forms")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=cmd_relations)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit with code 1, --help with 0
        return EXIT_USER_ERROR if exc.code else EXIT_OK
    lines: list[str] = []
    refusal = None
    try:
        try:
            if args.command == "weyl":  # the one command without an input file
                report = cmd_weyl(args)
            else:
                arr, digest = _load(args.file)
                lines += (_line("command", args.command), _line("input", args.file),
                          _line("sha256", digest))
                report = args.func(arr, args)
            for line in report:
                lines.append(line)
        except DrHypothesisError as exc:  # the lines before a refusal are its report
            refusal = exc
        sys.stdout.writelines(lines)
    except (OSError, ValueError) as exc:
        print(f"toricarr: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except MemoryError as exc:
        print(f"toricarr: out of memory: {exc}" if str(exc) else "toricarr: out of memory",
              file=sys.stderr)
        return EXIT_USER_ERROR
    if refusal is None:
        return EXIT_OK
    print(f"toricarr: refused: {refusal}", file=sys.stderr)
    return EXIT_REFUSED


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
