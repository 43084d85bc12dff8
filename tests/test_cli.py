import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricarr
from toricarr.arrangement import MAX_TRACE_PIECES, parse, serialize, weyl
from toricarr.cli import main

FOUR_LINES = ("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
              "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")
FOUR_LINES_SHA = "45fe4bc0da077ce56f8eeb9cda3f05ce021b7f92a69047cc2ad2d0ced9b0bdfc"
TWO_CURVES = "torus 2\nhyp 1 0 @ 0/1\nhyp 1 3 @ 0/1\n"
TWO_CURVES_SHA = "26a6b0864f3af4730c8779a5ec1fea6b7621ed7312536c0eb467c08fe5144bf7"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "four_lines.txt").write_text(FOUR_LINES)
    (tmp_path / "two_curves.txt").write_text(TWO_CURVES)
    (tmp_path / "empty3.txt").write_text("torus 3\n")
    (tmp_path / "bad.txt").write_text("torus 2\nhyp 2 4 @ 0/1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_golden(workdir, capsys):
    code, out, _ = run(capsys, "analyze", "four_lines.txt")
    assert code == 0
    assert out == (
        "command: analyze\n"
        "input: four_lines.txt\n"
        f"sha256: {FOUR_LINES_SHA}\n"
        "l: 2\n"
        "n: 4\n"
        "unimodular: false\n"
        "dr_type: true\n"
        "dr_ordering: 1,2,3,4\n"
        "poincare_dcp: 1 6 9\n"
        "poincare_dr: 1 6 9\n"
        "poset_layers: 1 4 2\n"
    )


def test_analyze_not_dr(workdir, capsys):
    code, out, _ = run(capsys, "analyze", "two_curves.txt")
    assert code == 0
    assert "dr_type: false\n" in out
    assert "dr_ordering: none\n" in out
    assert "poincare_dr: unavailable\n" in out
    # torus + two curves + three points, each on both curves:
    # (1+t)^2 + 2t(1+t) + 3t^2
    assert "poincare_dcp: 1 4 6\n" in out


def test_analyze_empty_torus(workdir, capsys):
    code, out, _ = run(capsys, "analyze", "empty3.txt")
    assert code == 0
    assert "poincare_dcp: 1 3 3 1\n" in out
    assert "poset_layers: 1\n" in out


def test_poset_golden(workdir, capsys):
    code, out, _ = run(capsys, "poset", "four_lines.txt")
    assert code == 0
    assert out == (
        "command: poset\n"
        "input: four_lines.txt\n"
        f"sha256: {FOUR_LINES_SHA}\n"
        "l: 2\n"
        "n: 4\n"
        "components: 7\n"
        "layer_sizes: 1 4 2\n"
        "component 1: codim=0 dim=2 basis=[] values=[]\n"
        "component 2: codim=1 dim=1 basis=[0 1] values=[0/1]\n"
        "component 3: codim=1 dim=1 basis=[1 -1] values=[0/1]\n"
        "component 4: codim=1 dim=1 basis=[1 0] values=[0/1]\n"
        "component 5: codim=1 dim=1 basis=[1 1] values=[0/1]\n"
        "component 6: codim=2 dim=0 basis=[1 0; 0 1] values=[0/1 0/1]\n"
        "component 7: codim=2 dim=0 basis=[1 0; 0 1] values=[1/2 1/2]\n"
        "cover: 2 < 1\n"
        "cover: 3 < 1\n"
        "cover: 4 < 1\n"
        "cover: 5 < 1\n"
        "cover: 6 < 2\n"
        "cover: 6 < 3\n"
        "cover: 6 < 4\n"
        "cover: 6 < 5\n"
        "cover: 7 < 3\n"
        "cover: 7 < 5\n"
    )


def test_poset_two_curves_counts(workdir, capsys):
    code, out, _ = run(capsys, "poset", "two_curves.txt")
    assert code == 0
    assert "components: 6\n" in out
    assert "layer_sizes: 1 2 3\n" in out


def test_poincare_dcp_golden(workdir, capsys):
    code, out, _ = run(capsys, "poincare", "--method=dcp", "four_lines.txt")
    assert code == 0
    assert out.endswith("method: dcp\npoincare: 1 6 9\n")


def test_poincare_dr_with_explicit_ordering(workdir, capsys):
    code, out, _ = run(capsys, "poincare", "--method=dr", "--ordering=2,1,3,4",
                       "four_lines.txt")
    assert code == 0
    assert "ordering: 2,1,3,4\n" in out
    assert "poincare: 1 6 9\n" in out


def test_poincare_dr_refusal_exit_2(workdir, capsys):
    code, out, err = run(capsys, "poincare", "--method=dr", "two_curves.txt")
    assert code == 2
    assert "refused" in err


def test_poincare_dr_bad_ordering_refused(workdir, capsys):
    # the reversed ordering starts with the two hypersurfaces meeting twice
    code, out, err = run(capsys, "poincare", "--method=dr", "--ordering=4,3,2,1",
                         "four_lines.txt")
    assert code == 2
    assert "refused" in err
    assert out.endswith("method: dr\nordering: 4,3,2,1\n")


@pytest.mark.parametrize("argv", [
    ("--method=dcp", "--ordering=1,2,3,4", "four_lines.txt"),
    ("--method=dr", "--ordering=1,2,3", "four_lines.txt"),
    ("--method=dr", "--ordering=1,x,3,4", "four_lines.txt"),
    ("--method=dr", "--ordering=", "four_lines.txt"),
    ("--method=dr", "thirteen.txt"),
])
def test_poincare_usage_errors_leave_stdout_empty(workdir, capsys, argv):
    # thirteen points in C*: past the n <= 12 limit of the ordering search
    (workdir / "thirteen.txt").write_text(
        "torus 1\n" + "".join(f"hyp 1 @ {k}/13\n" for k in range(13)))
    code, out, err = run(capsys, "poincare", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("toricarr: ")


def test_poincare_empty_ordering_round_trip(workdir, capsys):
    # with no hypersurfaces the printed ordering is empty, and it reads back
    code, out, _ = run(capsys, "poincare", "--method=dr", "empty3.txt")
    assert code == 0
    assert out.endswith("method: dr\nordering:\npoincare: 1 3 3 1\n")
    assert run(capsys, "poincare", "--method=dr", "--ordering=", "empty3.txt") == (0, out, "")


def test_poincare_restriction_past_search_limit_leaves_stdout_empty(workdir, capsys):
    # thirteen parallel curves z2 = exp(2 pi i p/13), then z1 = 1: the ordering
    # passes (13 points at step 14), but the restriction to z1 = 1 has
    # thirteen points, past the n <= 12 limit of its own ordering search
    (workdir / "comb.txt").write_text(
        "torus 2\n" + "".join(f"hyp 0 1 @ {p}/13\n" for p in range(13)) + "hyp 1 0 @ 0/1\n")
    code, out, err = run(capsys, "poincare", "--method=dr",
                         "--ordering=" + ",".join(str(k) for k in range(1, 15)), "comb.txt")
    assert code == 1
    assert out == ""
    assert "n <= 12" in err


def test_unimodular_golden(workdir, capsys):
    code, out, _ = run(capsys, "unimodular", "four_lines.txt")
    assert code == 0
    assert out == (
        "command: unimodular\n"
        "input: four_lines.txt\n"
        f"sha256: {FOUR_LINES_SHA}\n"
        "unimodular: false\n"
    )


@pytest.mark.parametrize("command, target", [("poset", "build_poset"),
                                             ("unimodular", "is_unimodular")])
def test_failed_computation_leaves_stdout_empty(workdir, capsys, monkeypatch,
                                                command, target):
    # the header is printed only once the report has been computed
    def fail(arr):
        raise ValueError("too large")

    monkeypatch.setattr(f"toricarr.cli.{target}", fail)
    code, out, err = run(capsys, command, "four_lines.txt")
    assert code == 1
    assert out == ""
    assert err == "toricarr: too large\n"


def _late_failure(*args):
    raise ValueError("failed after the header")


class _Unprintable:
    def __str__(self):
        raise ValueError("failed after the header")


@pytest.mark.parametrize("argv, target, replacement", [
    (("analyze",), "toricarr.cli._ordering_str", _late_failure),
    (("poset",), "toricarr.cli._values_str", _late_failure),
    (("poincare", "--method=dcp"), "toricarr.cli._poly_str", _late_failure),
    (("poincare", "--method=dr"), "toricarr.cli._poly_str", _late_failure),
    (("unimodular",), "toricarr.cli.is_unimodular", lambda arr: _Unprintable()),
    (("drtype",), "toricarr.cli._ordering_str", _late_failure),
    (("relations",), "toricarr.forms.FormGenerator.name", _late_failure),
], ids=["analyze", "poset", "dcp", "dr", "unimodular", "drtype", "relations"])
def test_failure_after_first_lines_leaves_stdout_empty(workdir, capsys, monkeypatch,
                                                        argv, target, replacement):
    # the failure comes once the header and some lines are known: none is written
    monkeypatch.setattr(target, replacement)
    code, out, err = run(capsys, *argv, "four_lines.txt")
    assert (code, out, err) == (1, "", "toricarr: failed after the header\n")


def test_poset_value_past_int_string_limit_leaves_stdout_empty(workdir, capsys):
    # the two constants parse (2,386 and 2,536 digits), but the point where
    # the curves meet has a value whose denominator has more digits than
    # int-to-str converts: the report fails after its first ten lines
    (workdir / "long.txt").write_text(
        f"torus 2\nhyp 1 1 @ 1/{3 ** 5000}\nhyp 1 -1 @ 1/{7 ** 3000}\n")
    code, out, err = run(capsys, "poset", "long.txt")
    assert (code, out) == (1, "")
    assert err.startswith("toricarr: ") and err.count("\n") == 1


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_broken_pipe_exit_1(workdir, capsys, monkeypatch):
    # as `toricarr poset b6.txt | head -1`: the write fails inside main's handler
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = main(["poset", "four_lines.txt"])
    assert (code, capsys.readouterr().err) == (1, "toricarr: [Errno 32] Broken pipe\n")


HUGE = "torus 2\nhyp 100000000000000000000 1 @ 0/1\nhyp 0 1 @ 1/3\n"
HUGE_SHA = "dca5a068b1e7a487ace431508cecca6aac5e3dbb4dcb7c50c7c964972aef1c15"


@pytest.mark.parametrize("argv", [["analyze"], ["poset"], ["poincare", "--method=dcp"],
                                  ["poincare", "--method=dr"], ["drtype"]],
                         ids=["analyze", "poset", "dcp", "dr", "drtype"])
def test_trace_past_piece_limit_refused(workdir, capsys, argv):
    # on z2 = exp(2 pi i/3), z1^(10^20) z2 = 1 cuts 10^20 points: refused
    # before any of them is enumerated
    (workdir / "huge.txt").write_text(HUGE)
    code, out, err = run(capsys, *argv, "huge.txt")
    assert code == 1
    assert out == ""
    assert err == ("toricarr: a trace cuts g = 100000000000000000000 pieces, "
                   f"more than the limit of {MAX_TRACE_PIECES}\n")


def test_unimodular_answers_past_piece_limit(workdir, capsys):
    # the refused trace has g = 10^20 > 1 pieces, so it is a split
    (workdir / "huge.txt").write_text(HUGE)
    code, out, err = run(capsys, "unimodular", "huge.txt")
    assert (code, err) == (0, "")
    assert out == ("command: unimodular\n"
                   "input: huge.txt\n"
                   f"sha256: {HUGE_SHA}\n"
                   "unimodular: false\n")


def test_out_of_memory_exit_1(workdir, capsys, monkeypatch):
    def fail(arr, samples, tol, seed):
        raise MemoryError("Unable to allocate 22.4 GiB")

    # default samples: if the patch misses, the real run is small and fails
    # the assertions instead of allocating gigabytes
    monkeypatch.setattr("toricarr.forms.degree2_relations", fail)
    code, out, err = run(capsys, "relations", "four_lines.txt")
    assert code == 1
    assert out == ""
    assert err == "toricarr: out of memory: Unable to allocate 22.4 GiB\n"


def test_out_of_memory_real_allocation_exit_1(workdir, capsys):
    # the README example: the sample points alone (10^15 x 2 complex, about
    # 32 PB) exceed the 47-bit address space, so their allocation fails at
    # once, before anything else scales with the sample count
    code, out, err = run(capsys, "relations", "--samples=1000000000000000", "four_lines.txt")
    assert code == 1
    assert out == ""
    assert err.startswith("toricarr: out of memory:")


def test_drtype_golden(workdir, capsys):
    code, out, _ = run(capsys, "drtype", "two_curves.txt")
    assert code == 0
    assert out == (
        "command: drtype\n"
        "input: two_curves.txt\n"
        f"sha256: {TWO_CURVES_SHA}\n"
        "dr_type: false\n"
        "dr_ordering: none\n"
        "step_counts: none\n"
    )
    code, out, _ = run(capsys, "drtype", "four_lines.txt")
    assert code == 0
    assert "dr_ordering: 1,2,3,4\n" in out
    assert "step_counts: 1 1 2\n" in out


def test_drtype_empty_arrangement(workdir, capsys):
    # the empty ordering passes, like the one-hypersurface ordering: no step
    # counts, not "none"
    code, out, _ = run(capsys, "drtype", "empty3.txt")
    assert code == 0
    assert out.endswith("dr_type: true\ndr_ordering:\nstep_counts:\n")


@pytest.mark.parametrize("command", ["analyze", "drtype"])
def test_ordering_search_limit_leaves_stdout_empty(workdir, capsys, command):
    # thirteen points in C*: past the n <= 12 limit of the ordering search
    (workdir / "thirteen.txt").write_text(
        "torus 1\n" + "".join(f"hyp 1 @ {k}/13\n" for k in range(13)))
    code, out, err = run(capsys, command, "thirteen.txt")
    assert code == 1
    assert out == ""
    assert "n <= 12" in err


def test_weyl_golden(workdir, capsys):
    code, out, _ = run(capsys, "weyl", "--family=B", "--rank=2")
    assert code == 0
    assert out == ("torus 2\n"
                   "hyp 1 0 @ 0/1\n"
                   "hyp 0 1 @ 0/1\n"
                   "hyp 1 1 @ 0/1\n"
                   "hyp 1 2 @ 0/1\n")
    arr = parse(out)
    assert arr.n == 4


def test_weyl_simple_only(workdir, capsys):
    code, out, _ = run(capsys, "weyl", "--family=G2", "--rank=2", "--simple-only")
    assert code == 0
    assert out == "torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"


def test_weyl_invalid_rank_exit_1(workdir, capsys):
    code, _, err = run(capsys, "weyl", "--family=D", "--rank=2")
    assert code == 1
    assert "rank" in err


def test_relations_golden(workdir, capsys):
    code, out, _ = run(capsys, "relations", "--seed=0", "four_lines.txt")
    assert code == 0
    assert out == (
        "command: relations\n"
        "input: four_lines.txt\n"
        f"sha256: {FOUR_LINES_SHA}\n"
        "samples: 60\n"
        "tol: 1e-08\n"
        "seed: 0\n"
        "generators: xi1 xi2 psi1 psi2 psi3 psi4\n"
        "monomials: 15\n"
        "monomial_order: xi1^xi2 xi1^psi1 xi1^psi2 xi1^psi3 xi1^psi4 "
        "xi2^psi1 xi2^psi2 xi2^psi3 xi2^psi4 psi1^psi2 psi1^psi3 psi1^psi4 "
        "psi2^psi3 psi2^psi4 psi3^psi4\n"
        "nullity: 6\n"
        "expected_h2: 9\n"
        "consistent: true\n"
    )


def test_relations_empty(workdir, capsys):
    (workdir / "empty2.txt").write_text("torus 2\n")
    code, out, _ = run(capsys, "relations", "empty2.txt")
    assert code == 0
    assert "nullity: 0\n" in out
    assert "consistent: true\n" in out
    (workdir / "empty0.txt").write_text("torus 0\n")
    code, out, _ = run(capsys, "relations", "empty0.txt")
    assert code == 0
    assert out.endswith("samples: 0\ntol: 1e-08\nseed: 0\ngenerators:\nmonomials: 0\n"
                        "monomial_order:\nnullity: 0\nexpected_h2: 0\nconsistent: true\n")


def test_relations_huge_exponent_refused(workdir, capsys):
    # z1^1000000 overflows or underflows at almost every draw, where psi1's
    # covector would read as 0 and the nullity as 4; b2 = 4 (two coordinate
    # circles after a change of basis), so that read "consistent: false"
    (workdir / "huge.txt").write_text("torus 2\nhyp 1000000 1 @ 0/1\nhyp 1 0 @ 0/1\n")
    code, out, err = run(capsys, "relations", "huge.txt")
    assert code == 1
    assert out == ""
    assert err.startswith("toricarr: 1000 draws")


def test_relations_exponent_past_float_range_refused(workdir, capsys):
    # a 401-digit exponent does not convert to a float at all
    (workdir / "huge.txt").write_text(f"torus 2\nhyp {10 ** 400} 1 @ 0/1\nhyp 0 1 @ 1/3\n")
    code, out, err = run(capsys, "relations", "huge.txt")
    assert (code, out) == (1, "")
    assert err == "toricarr: an exponent is outside the floating-point range\n"


def test_sampling_error_is_a_value_error(workdir, capsys, monkeypatch):
    # main's ValueError handler reports it; cmd_relations does not name it
    from toricarr.forms import SamplingError

    assert issubclass(SamplingError, ValueError)

    def fail(arr, samples, seed):
        raise SamplingError("1000 draws all fell within 1e-3 of a hypersurface")

    monkeypatch.setattr("toricarr.forms._points", fail)
    code, out, err = run(capsys, "relations", "four_lines.txt")
    assert code == 1
    assert out == ""
    assert err == "toricarr: 1000 draws all fell within 1e-3 of a hypersurface\n"


def test_relations_large_exponent_consistent(workdir, capsys):
    (workdir / "large.txt").write_text("torus 2\nhyp 100000 1 @ 0/1\nhyp 1 0 @ 0/1\n")
    code, out, _ = run(capsys, "relations", "large.txt")
    assert code == 0
    assert out.endswith("nullity: 2\nexpected_h2: 4\nconsistent: true\n")


def test_relations_builds_no_poset(workdir, capsys, monkeypatch):
    # expected_h2 comes from the step counts of the identity ordering
    def fail(arr):
        raise AssertionError("relations built the intersection poset")

    monkeypatch.setattr("toricarr.cli.build_poset", fail)
    monkeypatch.setattr("toricarr.cohomology.build_poset", fail)
    (workdir / "b3.txt").write_text(serialize(weyl("B", 3)))
    code, out, _ = run(capsys, "relations", "b3.txt")
    assert code == 0
    assert out.endswith("expected_h2: 47\nconsistent: true\n")


@pytest.mark.parametrize("flag", ["--samples=1", "--tol=-1", "--tol=0",
                                  "--tol=nan", "--tol=2"])
def test_relations_bad_flag_leaves_stdout_empty(workdir, capsys, flag):
    code, out, err = run(capsys, "relations", flag, "four_lines.txt")
    assert code == 1
    assert out == ""
    assert ("samples" if flag == "--samples=1" else "0 < tol < 1") in err


def test_relations_negative_seed_exit_1(workdir, capsys):
    code, out, err = run(capsys, "relations", "--seed=-1", "four_lines.txt")
    assert code == 1
    assert out == ""
    assert err == "toricarr: --seed must be a non-negative integer, got -1\n"


def test_parse_error_exit_1(workdir, capsys):
    code, _, err = run(capsys, "analyze", "bad.txt")
    assert code == 1
    assert "line 2" in err and "nonprimitive" in err


def test_missing_file_exit_1(workdir, capsys):
    code, _, err = run(capsys, "analyze", "nope.txt")
    assert code == 1


def test_unknown_command_exit_1(workdir, capsys):
    code, _, err = run(capsys, "frobnicate", "x")
    assert code == 1


BACK_TO_BACK = [
    ("analyze", "four_lines.txt"),
    ("poincare", "four_lines.txt"),          # usage error: --method is required
    ("--help",),
    ("poset", "two_curves.txt"),
    ("poincare", "--method=dr", "--help"),
    ("frobnicate", "x"),
    ("weyl", "--family=B", "--rank=2"),
    ("drtype", "four_lines.txt"),
]


def test_back_to_back_calls_match_fresh_parsers(workdir, capsys, monkeypatch):
    """main reuses one parser: calls in a row, usage errors and --help among
    them, print what each call prints on a parser built afresh."""
    from toricarr import cli

    monkeypatch.setenv("COLUMNS", "80")

    def fresh(argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    expected = [fresh(argv) for argv in BACK_TO_BACK]
    assert [code for code, _, _ in expected] == [0, 1, 0, 0, 0, 1, 0, 0]
    assert "usage: toricarr" in expected[2][1] and "--ordering" in expected[4][1]
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in BACK_TO_BACK * 2] == expected * 2
    assert cli.build_parser.cache_info().misses == 1


def test_reports_are_deterministic(workdir, capsys):
    a = run(capsys, "relations", "--seed=5", "four_lines.txt")
    b = run(capsys, "relations", "--seed=5", "four_lines.txt")
    assert a == b


def test_analyze_methods_agree_on_dr_fixtures(workdir, capsys):
    from toricarr.arrangement import braid, serialize, weyl
    (workdir / "braid3.txt").write_text(serialize(braid(3)))
    (workdir / "b2.txt").write_text(serialize(weyl("B", 2)))
    for name in ("four_lines.txt", "braid3.txt", "b2.txt"):
        code, out, _ = run(capsys, "analyze", name)
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
        assert lines["dr_type"] == "true"
        assert lines["poincare_dcp"] == lines["poincare_dr"]


# -- numpy is loaded only by `relations` (toricarr.forms is a lazy module) ----

# The public names of the package when it imported forms eagerly, less betti
# (the coefficients of dcp_poincare, which is kept).
PUBLIC_NAMES = (
    "CentralArrangement", "Component", "DrHypothesisError", "DrReport", "FormGenerator",
    "Hypersurface", "IntMatrix", "IntersectionPoset", "ParseError", "Polynomial",
    "RelationBasis", "SubspaceLattice", "ToricArrangement", "arrangement", "braid",
    "build_poset", "cohomology", "dcp_poincare", "degree2_relations", "delete",
    "dr_condition_check", "dr_poincare", "eval_generator", "find_dr_ordering", "forms",
    "generators", "hnf", "hyperplane", "intersect_system", "intersection_lattice",
    "is_primitive", "is_unimodular", "lattice", "left_kernel", "local_arrangement",
    "nbc_dimensions", "parse", "polynomial", "poset", "restrict", "restriction",
    "sample_point", "saturation", "serialize", "snf", "top_local_multiplicity",
    "verify_relation", "wedge_monomials", "weyl", "whitney_poincare", "__version__",
)

# Runs the CLI and then prints, as the last line of stderr, whether numpy and
# dataclasses were imported and whether the lazy toricarr.hyperplane ran.  A
# lazy module is of its own type until it runs; type() does not run it.
CLI_CHILD = """
import sys, types
import toricarr.cli
code = toricarr.cli.main(sys.argv[1:])
ran = type(sys.modules["toricarr.hyperplane"]) is types.ModuleType
print("numpy" in sys.modules, "dataclasses" in sys.modules, ran, file=sys.stderr)
sys.exit(code)
"""


def fresh_python(code, *args, cwd=None):
    """Run ``python -c code args`` in a new interpreter with this toricarr on the path."""
    src = str(Path(toricarr.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def run_fresh(workdir, *argv):
    """(exit code, stdout, stderr, numpy imported, dataclasses imported,
    hyperplane ran) of the CLI in a new interpreter."""
    done = fresh_python(CLI_CHILD, *argv, cwd=workdir)
    err, _, loaded = done.stderr.rstrip("\n").rpartition("\n")
    return (done.returncode, done.stdout, err + "\n" if err else "",
            *(flag == "True" for flag in loaded.split()))


def test_package_keeps_public_names():
    missing = [name for name in PUBLIC_NAMES if not hasattr(toricarr, name)]
    assert missing == []
    assert toricarr.degree2_relations is toricarr.forms.degree2_relations
    assert toricarr.FormGenerator is toricarr.forms.FormGenerator
    assert not hasattr(toricarr, "no_such_name")
    star = {}
    exec("from toricarr import *", star)
    assert set(PUBLIC_NAMES) - {"__version__"} <= star.keys()


def test_cli_import_leaves_numpy_unloaded():
    # bench/cold_child.py traces the CLI after this import: it needs forms and
    # hyperplane registered in sys.modules; they run (and forms loads numpy)
    # on first use
    done = fresh_python("import sys, types, toricarr.cli; "
                        "lazy = [sys.modules['toricarr.' + m] for m in ('forms', 'hyperplane')]; "
                        "print(*(m in sys.modules for m in ('numpy', 'dataclasses')), "
                        "*(type(m) is types.ModuleType for m in lazy))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False False False\n"


@pytest.mark.parametrize("argv, code", [
    (("analyze", "four_lines.txt"), 0),
    (("poset", "four_lines.txt"), 0),
    (("poincare", "--method=dcp", "four_lines.txt"), 0),
    (("poincare", "--method=dr", "four_lines.txt"), 0),
    (("unimodular", "four_lines.txt"), 0),
    (("drtype", "four_lines.txt"), 0),
    (("weyl", "--family=B", "--rank=2"), 0),
    (("analyze", "nope.txt"), 1),
    (("relations", "--seed=-1", "four_lines.txt"), 1),
    (("poincare", "--method=dr", "two_curves.txt"), 2),
])
def test_fresh_cli_leaves_numpy_unloaded(workdir, capsys, argv, code):
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert run_fresh(workdir, *argv) == (*expected, False, False, False)


def test_relations_loads_numpy_with_the_same_report(workdir, capsys):
    argv = ("relations", "--seed=0", "four_lines.txt")
    expected = run(capsys, *argv)
    assert expected[0] == 0 and "nullity: 6\n" in expected[1]
    assert run_fresh(workdir, *argv) == (*expected, True, False, False)
