"""Inputs and job lists of the four benchmark workloads.

Fixed inputs are the named families (toric Weyl and braid arrangements, and
the four-lines example).  The seeded inputs of the ``dr`` workload are
isomorphic copies of six fixed non-DR arrangements: the seed picks a
unimodular change of characters, a torsion translation of the constants and
an order of the hypersurfaces.  The deletion-restriction verdict and the
size of the exhausted ordering search do not change under isomorphism, so
every seed gets non-DR inputs of the same difficulty, and seeds differ in the
integers the program computes with, not in the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from toricarr.arrangement import Hypersurface, ToricArrangement, braid, serialize, weyl

FOUR_LINES = ("torus 2\nhyp 1 0 @ 0/1\nhyp 0 1 @ 0/1\n"
              "hyp 1 1 @ 0/1\nhyp 1 -1 @ 0/1\n")

WEYL = {
    "A2": ("A", 2), "A3": ("A", 3), "A4": ("A", 4), "A5": ("A", 5),
    "B2": ("B", 2), "B3": ("B", 3), "B4": ("B", 4),
    "C3": ("C", 3), "C4": ("C", 4), "D4": ("D", 4), "G2": ("G2", 2),
}
BRAID = {f"braid{l}": l for l in (3, 4, 5, 6)}

# Generator seeds of the six base arrangements (l = 3, n = 10) of the random
# jobs; the test suite checks that each base is not of DR type.
BASE_SEEDS = (0, 1, 2, 3, 4, 5)
RANDOM_COUNT = len(BASE_SEEDS)
LARGE_N = 12


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` names input files relative to the work
    directory; ``n`` is the hypersurface count of the arrangement involved
    (jobs with n > 12 are "large"); ``seeded`` marks inputs that depend on the
    seed; ``probe`` marks an untimed run at a known limit of the program."""

    argv: tuple[str, ...]
    n: int
    seeded: bool = False
    probe: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def input(self) -> str | None:
        last = self.argv[-1]
        return last[:-4] if last.endswith(".txt") else None

    @property
    def large(self) -> bool:
        return self.n > LARGE_N


def _primitive(rng: random.Random, l: int, bound: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(l))
        g = 0
        for x in v:
            g = gcd(g, x)
        if g:
            return tuple(x // g for x in v)


def base_arrangement(seed: int, l: int = 3, n: int = 10, bound: int = 2,
                     max_den: int = 3) -> ToricArrangement:
    """Random arrangement with distinct primitive characters up to sign."""
    rng = random.Random(seed)
    hyps: list[Hypersurface] = []
    seen: set[tuple[int, ...]] = set()
    while len(hyps) < n:
        h = Hypersurface(_primitive(rng, l, bound), Fraction(0))
        if h.chi in seen:
            continue
        seen.add(h.chi)
        den = rng.randint(1, max_den)
        hyps.append(Hypersurface(h.chi, Fraction(rng.randint(0, den - 1), den)))
    return ToricArrangement(l, tuple(hyps))


def _unimodular(rng: random.Random, l: int, steps: int = 4) -> list[list[int]]:
    u = [[int(i == j) for j in range(l)] for i in range(l)]
    for _ in range(steps):
        i, j = rng.sample(range(l), 2)
        s = rng.choice((-1, 1))
        for row in u:
            row[j] += s * row[i]
    return u


def isomorphic_copy(arr: ToricArrangement, rng: random.Random) -> ToricArrangement:
    """Image of ``arr`` under a random automorphism of the torus composed with
    a translation by a 6-torsion point, hypersurfaces in a random order."""
    l = arr.dim
    u = _unimodular(rng, l)
    shift = [Fraction(rng.randrange(6), 6) for _ in range(l)]
    hyps = []
    for h in arr.hypersurfaces:
        chi = tuple(sum(h.chi[k] * u[k][j] for k in range(l)) for j in range(l))
        hyps.append(Hypersurface(chi, h.b + sum(c * t for c, t in zip(chi, shift))))
    rng.shuffle(hyps)
    return ToricArrangement(l, tuple(hyps))


def random_inputs(seed: int) -> dict[str, ToricArrangement]:
    rng = random.Random(seed)
    return {f"rand{k}": isomorphic_copy(base_arrangement(s), rng)
            for k, s in enumerate(BASE_SEEDS)}


def inputs(seed: int) -> dict[str, str]:
    """Every input file of every workload, by name (without ``.txt``)."""
    arrs = {name: weyl(*spec) for name, spec in WEYL.items()}
    arrs.update((name, braid(l)) for name, l in BRAID.items())
    arrs.update(random_inputs(seed))
    texts = {name: serialize(arr) for name, arr in arrs.items()}
    texts["four"] = FOUR_LINES
    return texts


def _sizes() -> dict[str, int]:
    sizes = {name: len(weyl(*spec).hypersurfaces) for name, spec in WEYL.items()}
    sizes.update((name, l * (l - 1) // 2) for name, l in BRAID.items())
    sizes["four"] = 4
    sizes.update((f"rand{k}", 10) for k in range(RANDOM_COUNT))
    return sizes


def _file_job(sizes, *argv, probe=False) -> Job:
    name = argv[-1]
    return Job(tuple(argv[:-1]) + (name + ".txt",), sizes[name],
               seeded=name.startswith("rand"), probe=probe)


def _ordering(n: int) -> str:
    return "--ordering=" + ",".join(str(i) for i in range(1, n + 1))


def workloads() -> dict[str, list[Job]]:
    """Job lists; a workload's timed pass runs its non-probe jobs in order."""
    sz = _sizes()
    small_families = ("A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
                      "braid3", "braid4", "braid5")
    exact = [_file_job(sz, "analyze", name) for name in small_families]
    exact += [_file_job(sz, "poset", "D4"), _file_job(sz, "poset", "B4")]
    exact += [_file_job(sz, "poincare", "--method=dcp", name) for name in ("B4", "C4", "A5")]
    exact += [_file_job(sz, "unimodular", "A5")]

    dr = []
    for name in ("four",) + small_families:
        dr += [_file_job(sz, "drtype", name), _file_job(sz, "poincare", "--method=dr", name)]
    for name in ("braid6", "C4", "B4"):
        dr.append(_file_job(sz, "poincare", "--method=dr", _ordering(sz[name]), name))
    for k in range(RANDOM_COUNT):
        dr += [_file_job(sz, "drtype", f"rand{k}"),
               _file_job(sz, "poincare", "--method=dr", f"rand{k}")]
    dr += [_file_job(sz, "analyze", "B4", probe=True),
           _file_job(sz, "drtype", "B4", probe=True)]

    relations = [_file_job(sz, "relations", name)
                 for name in ("four", "A3", "A4", "B3", "C3", "D4", "G2",
                              "braid4", "braid5", "B4")]

    cold = []
    for name in ("four", "A2", "G2"):
        cold += [_file_job(sz, "analyze", name), _file_job(sz, "poset", name),
                 _file_job(sz, "poincare", "--method=dcp", name),
                 _file_job(sz, "poincare", "--method=dr", name),
                 _file_job(sz, "unimodular", name), _file_job(sz, "drtype", name),
                 _file_job(sz, "relations", name)]
    cold += [Job(("weyl", "--family=A", "--rank=2"), sz["A2"]),
             Job(("weyl", "--family=G2", "--rank=2"), sz["G2"]),
             Job(("weyl", "--family=B", "--rank=4"), sz["B4"]),
             _file_job(sz, "poincare", "--method=dr", _ordering(sz["C4"]), "C4")]
    return {"exact": exact, "dr": dr, "relations": relations, "cli-cold": cold}


# Per command, the small job a workload's set-up runs once before timing.
WARMUP = {
    "analyze": ("analyze", "four.txt"),
    "poset": ("poset", "four.txt"),
    "poincare": ("poincare", "--method=dr", "four.txt"),
    "unimodular": ("unimodular", "four.txt"),
    "drtype": ("drtype", "four.txt"),
    "relations": ("relations", "four.txt"),
}
