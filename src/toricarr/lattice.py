"""Exact integer matrix algebra: Hermite and Smith normal forms, kernels,
saturation, primitivity.

Everything here runs on Python's arbitrary-precision integers.  Matrices are
immutable (hashable) so they can serve as canonical labels elsewhere in the
package; like every value class of the package they derive from
:class:`Frozen`.  The Hermite normal form convention is row-style with
positive pivots and entries above each pivot reduced into [0, pivot); this
makes ``hnf(A).H`` a unique canonical form of the row lattice of ``A``.

One routine does Hermite elimination: :func:`hnf_add_row` merges one row
into a canonical basis.  ``row_basis``, ``hnf``, ``rank``, ``left_kernel``
and ``in_row_lattice`` are folds of it, so the transform ``hnf(A).U`` is
canonical as well.  :func:`snf` carries U and V the same way, in the
augmented matrix [[a, I], [I, 0]].  The commands use :func:`hnf_add_row` and
:func:`completion` (every restriction frame); :func:`snf`,
:func:`saturation`, :func:`hnf` and :func:`left_kernel` serve the
``hyperplane`` module and the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import takewhile
from math import gcd


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields once, in ``__slots__`` (``"__weakref__"``
    aside), and :meth:`__init__` stores them by position or by name; a
    subclass that checks or normalises its input ends its own ``__init__``
    in a call to it.  Instances compare (same class only) and hash by their
    fields, print as ``Name(field=value, ...)``, raise ``AttributeError`` on
    assignment and deletion, and pickle and copy through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__weakref__")
        cls._setters = tuple(vars(cls)[f].__set__ for f in cls._fields)  # skip __setattr__

    def __init__(self, *values, **named):
        """Store the fields by position, in ``__slots__`` order, or by name."""
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, "
                            "by position or by name")
        for store, value in zip(self._setters, values):
            store(self, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), Frozen._key(self)  # every field, whatever the class compares


class IntMatrix(Frozen):
    """Immutable integer matrix in row-major order.

    A matrix with zero rows (or zero columns) is legal; ``cols`` is kept
    explicitly so the empty cases stay well-typed.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for r in entries:
            if len(r) != cols:
                raise ValueError("column count mismatch")
        Frozen.__init__(self, rows, cols, entries)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in ot)
                               for r in self.entries))

    def mul_vec(self, v):
        """Matrix times column vector; entries may be ints or Fractions."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        zero = Fraction(0) if any(isinstance(x, Fraction) for x in v) else 0
        return tuple(sum((x * y for x, y in zip(r, v)), zero) for r in self.entries)

    def with_row(self, v) -> "IntMatrix":
        v = tuple(int(x) for x in v)
        if len(v) != self.cols:
            raise ValueError("row length mismatch")
        return IntMatrix(self.rows + 1, self.cols, self.entries + (v,))


class HNFResult(Frozen):
    """Row-style Hermite normal form: U @ A == H with det(U) = +-1."""

    __slots__ = ("H", "U")


class SNFResult(Frozen):
    """Smith normal form: U @ A @ V == D, diagonal with d_1 | d_2 | ... > 0."""

    __slots__ = ("D", "U", "V")

    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries d_1 | d_2 | ... | d_r."""
        diag = (self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))
        return tuple(takewhile(bool, diag))


def _freeze(m, cols) -> IntMatrix:
    return IntMatrix(len(m), cols, tuple(tuple(r) for r in m))


def snf(a: IntMatrix) -> SNFResult:
    """Smith normal form with both unimodular transforms.

    Returns D = U @ a @ V diagonal with the divisibility chain
    d_1 | d_2 | ... | d_r > 0 followed by zeros.  The elimination runs on
    the augmented matrix [[a, I_m], [I_n, 0]], the way :func:`hnf` carries
    U in [a | I]: row operations touch only the first m rows, so U builds
    up in the top-right block, and column operations only the first n
    columns, so V builds up in the bottom-left block.
    """
    m, n = a.rows, a.cols
    eye = IntMatrix.identity(n + m).entries
    M = [list(r + e[n:]) for r, e in zip(a.entries, eye[n:])] + [list(e) for e in eye[:n]]

    def swap_cols(j, k):
        for r in M:
            r[j], r[k] = r[k], r[j]

    for t in range(min(m, n)):
        # the absolutely smallest nonzero entry of the block, first in row-major order
        block = [(abs(M[i][j]), i, j) for i in range(t, m) for j in range(t, n) if M[i][j]]
        if not block:
            break
        _, i, j = min(block)
        M[t], M[i] = M[i], M[t]
        swap_cols(t, j)
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        while True:
            for i in range(t + 1, m):
                while M[i][t]:
                    q = M[i][t] // M[t][t]
                    M[i] = [x - q * y for x, y in zip(M[i], M[t])]
                    if M[i][t]:
                        M[i], M[t] = M[t], M[i]
            for j in range(t + 1, n):
                while M[t][j]:
                    q = M[t][j] // M[t][t]
                    for r in M:
                        r[j] -= q * r[t]
                    if M[t][j]:
                        swap_cols(j, t)
            if any(M[i][t] for i in range(t + 1, m)):
                continue  # a column swap re-dirtied the pivot column
            # force d_t to divide the rest of the block
            d = M[t][t]
            viol = next((i for i in range(t + 1, m) for j in range(t + 1, n) if M[i][j] % d), None)
            if viol is None:
                break
            M[t] = [x + y for x, y in zip(M[t], M[viol])]
    return SNFResult(_freeze([r[:n] for r in M[:m]], n), _freeze([r[n:] for r in M[:m]], m),
                     _freeze([r[:n] for r in M[m:]], n))


def pivot_positions(h: IntMatrix) -> tuple[tuple[int, int], ...]:
    """(row, col) of the leading entry of each nonzero row of an echelon matrix."""
    out = []
    for i, r in enumerate(h.entries):
        for j, x in enumerate(r):
            if x:
                out.append((i, j))
                break
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (-a, -s0, -t0) if a < 0 else (a, s0, t0)


def completion(v) -> tuple[tuple[int, ...], ...]:
    """Columns of a unimodular V with v @ V = (gcd(v), 0, ..., 0): the first
    y has v @ y = gcd(v), the others are a basis of the integer kernel of v.

    Folded over the entries by extended gcds: with the prefix sending
    column y to g, a new entry x combines y and the new unit column by the
    determinant-1 block [[s, -x/g'], [t, g/g']], g' = s*g + t*x = gcd(g, x)
    (the identity when g' = 0).
    """
    if not v:
        return ()
    g, y, kernel = v[0], [1], []
    for x in v[1:]:
        g2, s, t = _xgcd(g, x)
        kernel = [k + [0] for k in kernel]
        kernel.append([-(x // g2) * a for a in y] + [g // g2] if g2 else [0] * len(y) + [1])
        y, g = [s * a for a in y] + [t], g2
    if g < 0:
        y = [-a for a in y]
    return tuple(map(tuple, [y] + kernel))


def hnf_add_row(h: IntMatrix, v) -> IntMatrix:
    """Canonical HNF basis of the row lattice of ``h`` and the row ``v``.

    ``h`` must be an HNF row basis (as produced by :func:`row_basis`).  The
    row is merged in column by column: at a pivot column of ``h`` one
    extended gcd combines it with that pivot row; at any other column it
    becomes a new pivot row.  Entries above the pivots are then reduced
    into [0, pivot).  No transform is kept; :func:`hnf` gets one by carrying
    an identity block.
    """
    rows = [list(r) for r in h.entries]
    piv = [c for _, c in pivot_positions(h)]
    v = [int(x) for x in v]
    if len(v) != h.cols:
        raise ValueError("row length mismatch")
    i = 0
    while any(v):
        c = next(j for j, x in enumerate(v) if x)
        while i < len(rows) and piv[i] < c:
            i += 1
        if i == len(rows) or piv[i] > c:
            rows.insert(i, v if v[c] > 0 else [-x for x in v])
            piv.insert(i, c)
            break
        r, a, b = rows[i], rows[i][c], v[c]
        if b % a:
            g, s, t = _xgcd(a, b)
            rows[i] = [s * x + t * y for x, y in zip(r, v)]
            v = [(a // g) * y - (b // g) * x for x, y in zip(r, v)]
        else:
            v = [y - (b // a) * x for x, y in zip(r, v)]
        i += 1
    for r, c in enumerate(piv):
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
    return _freeze(rows, h.cols)


def row_basis(a: IntMatrix) -> IntMatrix:
    """Canonical (HNF, nonzero-row) basis of the row lattice of ``a``."""
    return reduce(hnf_add_row, a.entries, IntMatrix(0, a.cols, ()))


def hnf(a: IntMatrix) -> HNFResult:
    """Row-style Hermite normal form with unimodular transform.

    Read off the canonical basis of the rows of [a | I]: each basis row is
    (x @ a, x), those with a nonzero a-part come first and form the HNF of
    ``a``, and the rest hold the HNF basis of the left kernel.  Zero rows of
    H sink to the bottom, and U is canonical too.
    """
    n = a.cols
    basis = row_basis(IntMatrix(a.rows, n + a.rows, tuple(
        r + e for r, e in zip(a.entries, IntMatrix.identity(a.rows).entries))))
    return HNFResult(IntMatrix(a.rows, n, tuple(r[:n] for r in basis.entries)),
                     IntMatrix(a.rows, a.rows, tuple(r[n:] for r in basis.entries)))


def rank(a: IntMatrix) -> int:
    return row_basis(a).rows


def left_kernel(a: IntMatrix) -> IntMatrix:
    """HNF canonical basis of the lattice {k in Z^rows : k @ a = 0}."""
    res = hnf(a)
    kernel = tuple(u for h, u in zip(res.H.entries, res.U.entries) if not any(h))
    return IntMatrix(len(kernel), a.rows, kernel)


def in_row_lattice(h: IntMatrix, v) -> bool:
    """Membership of an integer vector in the row lattice of a canonical basis.

    ``h`` must be an HNF row basis (as produced by :func:`row_basis`).
    """
    return hnf_add_row(h, v) == h


def saturation(a: IntMatrix) -> IntMatrix:
    """HNF basis of the saturation of the row lattice of ``a`` in Z^cols.

    The saturation is the set of integer vectors in the rational row span.
    From the Smith form U @ a = D @ V^-1, row i < r of U @ a is d_i times
    row i of V^-1.  The first r rows of the unimodular V^-1 span a
    saturated lattice with the rational span of ``a``, so their canonical
    HNF basis is the answer.
    """
    res = snf(a)
    d = res.divisors()
    rows = tuple(tuple(sum(x * y for x, y in zip(u, col)) // di for col in zip(*a.entries))
                 for u, di in zip(res.U.entries, d))
    return row_basis(IntMatrix(len(d), a.cols, rows))


def is_primitive(v) -> bool:
    """True iff the gcd of the entries is 1.  The zero vector is rejected."""
    g = gcd(*map(int, v))
    if g == 0:
        raise ValueError("zero vector has no primitive content")
    return g == 1
