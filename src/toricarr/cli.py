"""Command-line interface with deterministic, line-oriented reports.

Every report opens with the command name and the sha256 of the input file,
followed by ``key: value`` result lines in a fixed order.  Exit codes:
0 success, 1 user error (bad file, bad flags, or an input too large: a
trace past ``MAX_TRACE_PIECES``, or out of memory), 2 refusal (a requested
deletion-restriction computation whose hypothesis fails).

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


def _emit(key, value):
    text = str(value)
    print(f"{key}: {text}" if text else f"{key}:")


def _header(command: str, path: str, digest: str):
    _emit("command", command)
    _emit("input", path)
    _emit("sha256", digest)


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


def cmd_analyze(args) -> int:
    arr, digest = _load(args.file)
    report = find_dr_ordering(arr)
    poset = build_poset(arr)
    poincare_dcp = poset.poincare()
    poincare_dr = "unavailable"
    if report.ordering is not None:
        try:
            poincare_dr = _poly_str(dr_poincare(arr, report.ordering))
        except DrHypothesisError:
            pass
    _header("analyze", args.file, digest)
    _emit("l", arr.dim)
    _emit("n", arr.n)
    _emit("unimodular", str(poset.unimodular).lower())
    _emit("dr_type", str(report.verdict).lower())
    _emit("dr_ordering", _ordering_str(report.ordering))
    _emit("poincare_dcp", _poly_str(poincare_dcp))
    _emit("poincare_dr", poincare_dr)
    _emit("poset_layers", " ".join(str(s) for s in poset.layer_sizes()))
    return EXIT_OK


def _basis_str(mat) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat.entries) + "]"


def _values_str(values) -> str:
    return "[" + " ".join(f"{v.numerator}/{v.denominator}" for v in values) + "]"


def cmd_poset(args) -> int:
    arr, digest = _load(args.file)
    poset = build_poset(arr)
    _header("poset", args.file, digest)
    _emit("l", arr.dim)
    _emit("n", arr.n)
    _emit("components", len(poset.components))
    _emit("layer_sizes", " ".join(str(s) for s in poset.layer_sizes()))
    for k, comp in enumerate(poset.components, start=1):
        _emit(f"component {k}",
              f"codim={comp.codim} dim={comp.dim} "
              f"basis={_basis_str(comp.sat_basis)} values={_values_str(comp.values)}")
    for i, j in poset.covers:
        _emit("cover", f"{i + 1} < {j + 1}")
    return EXIT_OK


def cmd_poincare(args) -> int:
    arr, digest = _load(args.file)
    if args.method == "dcp" and args.ordering is not None:
        raise ValueError("--ordering only applies to --method=dr")
    ordering = None if args.ordering is None else _parse_ordering(args.ordering, arr.n)
    if args.method == "dcp":
        result = dcp_poincare(arr)
    else:
        if ordering is None:
            ordering = find_dr_ordering(arr).ordering
        result = DrHypothesisError("no ordering satisfies the deletion-restriction condition")
        if ordering is not None:
            try:
                result = dr_poincare(arr, ordering)
            except DrHypothesisError as exc:
                result = exc
    # a refusal (exit 2) still reports the method and the ordering it refused
    _header("poincare", args.file, digest)
    _emit("method", args.method)
    if ordering is not None:
        _emit("ordering", _ordering_str(ordering))
    if isinstance(result, DrHypothesisError):
        raise result
    _emit("poincare", _poly_str(result))
    return EXIT_OK


def cmd_unimodular(args) -> int:
    arr, digest = _load(args.file)
    unimodular = is_unimodular(arr)
    _header("unimodular", args.file, digest)
    _emit("unimodular", str(unimodular).lower())
    return EXIT_OK


def cmd_drtype(args) -> int:
    arr, digest = _load(args.file)
    report = find_dr_ordering(arr)
    _header("drtype", args.file, digest)
    _emit("dr_type", str(report.verdict).lower())
    _emit("dr_ordering", _ordering_str(report.ordering))
    _emit("step_counts",
          " ".join(str(c) for c in report.step_counts)
          if report.ordering is not None else "none")
    return EXIT_OK


def cmd_weyl(args) -> int:
    arr = weyl(args.family, args.rank, simple_only=args.simple_only)
    sys.stdout.write(serialize(arr))
    return EXIT_OK


def cmd_relations(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    arr, digest = _load(args.file)
    monos = forms.wedge_monomials(arr.dim, arr.n)
    gens = forms.generators(arr)
    basis = forms.degree2_relations(arr, samples=args.samples, tol=args.tol, seed=args.seed)
    # h2 = C(l, 2) + n(l - 1) + sum over codim 2 of |mu| = m - 1 = the steps that count it
    l, n = arr.dim, arr.n
    h2 = l * (l - 1) // 2 + n * (l - 1) + sum(dr_condition_check(arr, range(n)).step_counts)
    _header("relations", args.file, digest)
    _emit("samples", basis.samples)
    _emit("tol", args.tol)
    _emit("seed", args.seed)
    _emit("generators", " ".join(g.name() for g in gens))
    _emit("monomials", len(monos))
    _emit("monomial_order",
          " ".join(f"{gens[a].name()}^{gens[b].name()}" for a, b in monos))
    _emit("nullity", basis.nullity)
    _emit("expected_h2", h2)
    _emit("consistent", str(len(monos) - basis.nullity == h2).lower())
    return EXIT_OK


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
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"toricarr: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except DrHypothesisError as exc:
        print(f"toricarr: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError as exc:
        print(f"toricarr: out of memory: {exc}" if str(exc) else "toricarr: out of memory",
              file=sys.stderr)
        return EXIT_USER_ERROR


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
