"""Toric arrangement data model, text format, named families, restriction.

A hypersurface is the level set of a primitive Laurent-monomial character:
``{z : z^chi = c}`` with the constant ``c`` a root of unity stored by its
rational argument ``b`` (``c = exp(2*pi*i*b)``, ``0 <= b < 1``).  All the
component geometry in this package therefore happens in exact rational
arithmetic mod 1 (log coordinates).

``(chi, b)`` and ``(-chi, -b mod 1)`` cut out the same set; hypersurfaces are
normalized to the representative whose first nonzero exponent is positive.

Restriction is coded once, in :class:`LocalFrame`: it writes each
hypersurface's trace on a component (here K_i, in the poset sweep any
component) in that component's own coordinates, and gives, for each piece
the trace cuts, the character it adds to the label and its own frame,
whose point lies on it.  The poset sweep builds every frame with
:meth:`LocalFrame.torus` and :meth:`LocalFrame.child`, through
:func:`~toricarr.lattice.completion`; K_i's is the one the sweep gives the
codim-1 component K_i, built directly.  Restriction to K_i yields a
``ToricArrangement`` in a torus of one dimension less: :func:`restrict`
gives the components the hypersurfaces of a prefix cut on K_i, in order.
The deletion-restriction searches order the pieces by K_i's coordinates, so
their orderings and refusals depend on it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .lattice import Frozen, IntMatrix, completion, is_primitive

# Most pieces one trace may cut; LocalFrame.trace refuses a larger g = gcd(c)
# before it enumerates them (g reaches a few hundred on small exponents).
MAX_TRACE_PIECES = 10_000


class ParseError(ValueError):
    """Arrangement file error, carrying a line number and a stable code.

    Codes: ``malformed``, ``nonprimitive``, ``dimension``, ``duplicate``.
    """

    def __init__(self, line_no: int, code: str, message: str):
        super().__init__(f"line {line_no}: {code}: {message}")
        self.line_no = line_no
        self.code = code


def mod1(x) -> Fraction:
    return Fraction(x) % 1


def _reduced(x: int, m: int) -> tuple[int, int]:
    """x/m mod 1 as a reduced pair (numerator, denominator)."""
    x %= m
    r = gcd(x, m)
    return x // r, m // r


class Hypersurface(Frozen):
    """Connected toric hypersurface {z : z^chi = exp(2*pi*i*b)}."""

    __slots__ = ("chi", "b")

    def __init__(self, chi: tuple[int, ...], b: Fraction):
        chi = tuple(int(x) for x in chi)
        if next((x for x in chi if x), 0) < 0:
            chi, b = tuple(-x for x in chi), -b
        if not is_primitive(chi):
            raise ValueError(f"character {chi} is not primitive")
        Frozen.__init__(self, chi, mod1(b))


class ToricArrangement(Frozen):
    """Finite ordered list of toric hypersurfaces in the torus (C*)^dim."""

    __slots__ = ("dim", "hypersurfaces", "__weakref__")  # cohomology._top holds a weak reference

    def __init__(self, dim: int, hypersurfaces: tuple[Hypersurface, ...]):
        hypersurfaces = tuple(hypersurfaces)
        if dim < 0:
            raise ValueError("torus dimension must be nonnegative")
        seen = set()
        for h in hypersurfaces:
            if len(h.chi) != dim:
                raise ValueError(f"character {h.chi} has wrong length for dimension {dim}")
            key = (h.chi, h.b)
            if key in seen:
                raise ValueError(f"duplicate hypersurface {h.chi} @ {h.b}")
            seen.add(key)
        Frozen.__init__(self, dim, hypersurfaces)

    @property
    def n(self) -> int:
        return len(self.hypersurfaces)

    def char_matrix(self) -> IntMatrix:
        return IntMatrix(self.n, self.dim, tuple(h.chi for h in self.hypersurfaces))

    def b_vector(self) -> tuple[Fraction, ...]:
        return tuple(h.b for h in self.hypersurfaces)


# -- text format ---------------------------------------------------------------

def _parse_int(token: str, line_no: int, message: str) -> int:
    """``int(token)``, else a ``malformed`` error with ``message``, or naming the
    interpreter's digit limit for an integer with more digits than it converts."""
    try:
        return int(token)
    except ValueError:
        if re.fullmatch(r"[+-]?\d+(_\d+)*", token):  # int() refused it only for its length
            message = (f"integer of {sum(map(str.isdecimal, token))} digits, past the digit "
                       f"limit of {sys.get_int_max_str_digits()} (PYTHONINTMAXSTRDIGITS)")
        raise ParseError(line_no, "malformed", message) from None


def parse(text: str) -> ToricArrangement:
    """Parse the line-oriented arrangement format.

    ::

        torus <l>
        hyp <a_1> ... <a_l> @ <p>/<q>     # one line per hypersurface

    Raises :class:`ParseError` with a line number and error code on bad input.
    """
    dim = None
    hyps: list[Hypersurface] = []
    seen: dict[tuple, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if dim is None:
            if tokens[0] != "torus" or len(tokens) != 2:
                raise ParseError(line_no, "malformed", "expected 'torus <l>'")
            dim = _parse_int(tokens[1], line_no, f"bad dimension {tokens[1]!r}")
            if dim < 0:
                raise ParseError(line_no, "malformed", "negative torus dimension")
            continue
        if tokens[0] != "hyp":
            raise ParseError(line_no, "malformed", f"expected 'hyp', got {tokens[0]!r}")
        if len(tokens) < 3 or tokens[-2] != "@":
            raise ParseError(line_no, "malformed", "expected 'hyp <exponents> @ <p>/<q>'")
        exps = tokens[1:-2]
        if len(exps) != dim:
            raise ParseError(line_no, "dimension",
                             f"{len(exps)} exponents for a torus of dimension {dim}")
        chi = tuple(_parse_int(t, line_no, "exponents must be integers") for t in exps)
        frac = tokens[-1].split("/")
        if len(frac) != 2:
            raise ParseError(line_no, "malformed", f"bad constant {tokens[-1]!r}")
        p, q = (_parse_int(t, line_no, f"bad constant {tokens[-1]!r}") for t in frac)
        if q < 1 or not 0 <= p < q:
            raise ParseError(line_no, "malformed",
                             f"constant must satisfy 0 <= p < q, got {p}/{q}")
        try:
            h = Hypersurface(chi, Fraction(p, q))
        except ValueError:
            raise ParseError(line_no, "nonprimitive",
                             f"character {chi} is not primitive") from None
        key = (h.chi, h.b)
        if key in seen:
            raise ParseError(line_no, "duplicate",
                             f"same hypersurface as line {seen[key]}")
        seen[key] = line_no
        hyps.append(h)
    if dim is None:
        raise ParseError(1, "malformed", "missing 'torus <l>' header")
    return ToricArrangement(dim, tuple(hyps))


def serialize(arr: ToricArrangement) -> str:
    """Bit-exact inverse of :func:`parse` on normalized arrangements."""
    lines = [f"torus {arr.dim}"]
    for h in arr.hypersurfaces:
        exps = " ".join(str(x) for x in h.chi)
        lines.append(f"hyp {exps} @ {h.b.numerator}/{h.b.denominator}")
    return "\n".join(lines) + "\n"


# -- named families -------------------------------------------------------------

def braid(l: int) -> ToricArrangement:
    """The arrangement {z_i / z_j = 1, i < j} in (C*)^l."""
    if l < 2:
        raise ValueError("braid arrangement needs l >= 2")
    hyps = []
    for i in range(l):
        for j in range(i + 1, l):
            chi = [0] * l
            chi[i], chi[j] = 1, -1
            hyps.append(Hypersurface(tuple(chi), Fraction(0)))
    return ToricArrangement(l, tuple(hyps))


def _cartan_matrix(family: str, rank_: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(rank_)] for i in range(rank_)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j], c[j][i] = cij, cji

    if family == "G2":
        bond(0, 1, cij=-3, cji=-1)
        return c
    for i in range(rank_ - 1):
        bond(i, i + 1)
    if family == "B" and rank_ >= 2:
        # last simple root short: reflection in it adds it twice
        c[rank_ - 1][rank_ - 2] = -2
    elif family == "C" and rank_ >= 2:
        c[rank_ - 2][rank_ - 1] = -2
    elif family == "D":
        bond(rank_ - 2, rank_ - 1, 0, 0)
        bond(rank_ - 3, rank_ - 1)
    return c


_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G2": lambda r: 6,
}


def positive_roots(family: str, rank_: int) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by reflection closure.

    Sorted by height then reverse-lexicographically, so the simple roots come
    first in their natural order.
    """
    least = {"A": 1, "B": 2, "C": 2, "D": 3, "G2": 2}.get(family)
    if least is None:
        raise ValueError(f"unknown family {family!r}")
    if family == "G2" and rank_ != 2:
        raise ValueError("G2 has rank 2")
    if rank_ < least:
        raise ValueError(f"type {family} needs rank >= {least}")
    cartan = _cartan_matrix(family, rank_)
    simples = [tuple(1 if j == i else 0 for j in range(rank_)) for i in range(rank_)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank_):
                pairing = sum(beta[j] * cartan[i][j] for j in range(rank_))
                refl = tuple(x - pairing if j == i else x for j, x in enumerate(beta))
                if refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        frontier = nxt
    pos = [r for r in roots if all(x >= 0 for x in r)]
    assert len(pos) == _POSITIVE_COUNT[family](rank_)
    pos.sort(key=lambda r: (sum(r), tuple(-x for x in r)))
    return pos


def weyl(family: str, rank_: int, simple_only: bool = False) -> ToricArrangement:
    """Toric Weyl arrangement of the given type.

    One hypersurface ``exp(root) = 1`` per positive root of the root system,
    with characters written in simple-root coordinates.  With ``simple_only``
    the simple roots alone are used (a coordinate arrangement).
    """
    roots = positive_roots(family, rank_)
    if simple_only:
        roots = [r for r in roots if sum(abs(x) for x in r) == 1]
    hyps = tuple(Hypersurface(r, Fraction(0)) for r in roots)
    return ToricArrangement(rank_, hyps)


# -- restriction ----------------------------------------------------------------

class LocalFrame:
    """The component {S @ u = values} as a torus in its own coordinates.

    A frame is a point w of the component and the last columns T of a
    unimodular V with S @ T = 0: s -> w + T @ s maps the (dim - k)-torus
    onto the component, and there {chi @ u = b} reads c @ s = b - chi @ w
    with c = chi @ T (:meth:`trace`).  With R the rows of V^-1 that go with
    T, the sub-torus {c' @ s = value} of a primitive c' has the label lattice
    S + Z chi', chi' = c' @ R (:meth:`lift`), and a frame (:meth:`child`) at
    w + T @ (value * y), c' @ y = 1.  R is kept as T @ R = I - sum_j q_j r_j^T.

    The constructor takes the fields in order: ``den``, ``den * w``, the
    columns of T, the q_j and the r_j.
    """

    __slots__ = ("_den", "_w", "_cols", "_q", "_r")

    def __init__(self, den: int, w, cols, q, r):
        self._den, self._w, self._cols, self._q, self._r = den, w, cols, q, r

    @classmethod
    def torus(cls, dim: int) -> "LocalFrame":
        """The frame of the full torus: w = 0 and T = I."""
        return cls(1, [0] * dim, [tuple(int(i == j) for i in range(dim)) for j in range(dim)],
                   (), ())

    def trace(self, chi, num: int, den: int):
        """The trace of {chi @ u = num/den} on the component, for any integer
        row ``chi`` (zero and non-primitive rows included).

        None when c = 0 (the row is constant on the component), and
        otherwise the sign-normalised local character c/g, g = gcd(c), with
        the values of its g local hypersurfaces as reduced pairs (numerator,
        denominator): value t is sign * (v + t)/g mod 1, v = num/den - chi @ w
        reduced mod 1.  Raises ValueError when g > MAX_TRACE_PIECES."""
        c = [sum(map(mul, chi, col)) for col in self._cols]
        g = gcd(*c)
        if not g:
            return None
        if g > MAX_TRACE_PIECES:
            raise ValueError(f"a trace cuts g = {g} pieces, more than the limit "
                             f"of {MAX_TRACE_PIECES}")
        sign = 1 if next(filter(None, c)) > 0 else -1
        d = lcm(self._den, den)
        v = (num * (d // den) - sum(map(mul, chi, self._w)) * (d // self._den)) % d
        if g == 1:
            return tuple(c) if sign > 0 else tuple(-x for x in c), (_reduced(sign * v, d),)
        return (tuple(sign * x // g for x in c),
                tuple(_reduced(sign * (v + t * d), g * d) for t in range(g)))

    def lift(self, chi) -> list[int]:
        """chi' = +-c' @ R for the local character c' of ``chi``.

        chi @ T @ R = c @ R = +-g * chi' (g = gcd(c)), read off the
        projection.  S + Z chi' is saturated: [S; R] is a basis of Z^l and c'
        is primitive.  On the full torus chi' is chi/g.
        """
        t = list(chi)
        for q, r in zip(self._q, self._r):
            z = sum(map(mul, chi, q))
            t = [x - z * y for x, y in zip(t, r)]
        g = gcd(*t)
        return [x // g for x in t]

    @property
    def point(self):
        """The frame's point w, as (numerators, common denominator)."""
        return self._w, self._den

    def child(self, lifted, local, num: int, d: int) -> "LocalFrame":
        """The frame of the piece {local @ s = num/d}, ``lifted`` the
        :meth:`lift` of the row traced.  With local @ V = e_1
        (:func:`~toricarr.lattice.completion`, y = V[:, 0]): w' = w + T @ (num/d * y),
        T' = T @ V[:, 1:], R' = V^-1[1:, :] @ R, so T' @ R' = T @ R -
        (T @ y) (local @ R)^T, and local @ R is ``lifted`` times lifted @ T @ y.
        """
        y, *kernel = completion(local)
        rows = list(zip(*self._cols))
        ty = [sum(map(mul, row, y)) for row in rows]
        m = lcm(self._den, d)
        a, b = m // self._den, num * (m // d)
        sign = sum(map(mul, lifted, ty))
        cols = [tuple(sum(map(mul, row, v)) for row in rows) for v in kernel]
        return LocalFrame(m, [x * a + t * b for x, t in zip(self._w, ty)], cols,
                          self._q + ([sign * x for x in ty],), self._r + (lifted,))


def _keys(arr: ToricArrangement) -> tuple:
    """The hypersurfaces as integer keys (chi, (num, den)), b = num/den."""
    return tuple((h.chi, (h.b.numerator, h.b.denominator)) for h in arr.hypersurfaces)


def _traces(keys, i: int) -> tuple[tuple, ...]:
    """The trace of every hypersurface on K_i, hypersurface ``i`` (0-based), in
    K_i's :class:`LocalFrame`: entry r lists the g components of K_r ∩ K_i as
    keys (c', (num, den)), c' primitive with first nonzero entry positive,
    component t at position t; it is empty for r == i and K_r parallel to K_i."""
    chi, (num, den) = keys[i]
    # LocalFrame.torus(l).child(chi, chi, num, den) minus its identity products (12-44% faster)
    y, *kernel = completion(chi)
    frame = LocalFrame(den, [num * x for x in y], kernel, (y,), (chi,))
    return tuple(() if tr is None else tuple((tr[0], pair) for pair in tr[1])
                 for tr in (frame.trace(c, p, q) for c, (p, q) in keys))


def _union(trace, prefix) -> tuple:
    """Each component of ``trace[r]`` over r in ``prefix`` once, in order of
    first occurrence over ``sorted(prefix)``."""
    return tuple(dict.fromkeys(h for r in sorted(prefix) for h in trace[r]))


def restrict(arr: ToricArrangement, i: int, prefix) -> ToricArrangement:
    """Arrangement traced on hypersurface ``i`` by the hypersurfaces in ``prefix``.

    The torus K_i of dimension ``dim - 1`` with the connected components of
    K_r ∩ K_i over r in ``prefix``: each component once, in order of first
    occurrence over the sorted prefix, and the g components of one K_r ∩ K_i
    in the order of :func:`_traces`.  Indices are 0-based.
    """
    prefix = set(prefix)
    if not 0 <= i < arr.n:
        raise ValueError(f"hypersurface index {i} out of range")
    if i in prefix:
        raise ValueError(f"index {i} appears in its own prefix")
    if any(not 0 <= r < arr.n for r in prefix):
        raise ValueError("prefix index out of range")
    return ToricArrangement(arr.dim - 1, tuple(
        Hypersurface(chi, Fraction(*value))
        for chi, value in _union(_traces(_keys(arr), i), prefix)))
