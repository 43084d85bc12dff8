"""Numeric extraction of degree-2 relations among logarithmic 1-forms.

The cohomology of a deletion-restriction-type complement is generated by the
closed 1-forms dlog z_i (one per torus coordinate) and dlog(chi_j - c_j) (one
per hypersurface).  Because those generators are honest differential forms,
every linear relation among their wedge products already holds pointwise on
the complement; sampling the wedge monomials at random points and computing a
numerical null space therefore recovers the degree-2 relation space.

All sample points come from one generator: every round draws the points
still open as one array, and only the rows that fail the draw test are drawn
again.  The wedge monomials at those points are never held as one matrix.
They are evaluated in blocks of whole samples, about ``_FOLD`` times as many
rows as there are monomials, into one reused buffer: each block has its
covectors computed in one pass from the points and their character values,
and its wedge products written straight into the buffer.
The null space comes from the SVD of the square factor R of the QR
decomposition of all the blocks stacked, which is folded in block by block
(a sequential tall-skinny QR): R is refactored together with each new block,
so memory is O(N^2) in the number N of monomials, whatever the sample count.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arrangement import ToricArrangement
from .lattice import Frozen


class SamplingError(ValueError):
    """The rejection sampler could not find a point off the hypersurfaces."""


class FormGenerator(Frozen):
    """A degree-1 generator: either dlog z_i ("coord") or dlog(chi - c) ("char")."""

    __slots__ = ("kind", "index", "chi", "b")

    def __init__(self, kind: str, index: int, chi: tuple[int, ...] | None = None,
                 b: Fraction | None = None):
        Frozen.__init__(self, kind, index, chi, b)

    def name(self) -> str:
        return f"xi{self.index + 1}" if self.kind == "coord" else f"psi{self.index + 1}"


def generators(arr: ToricArrangement) -> tuple[FormGenerator, ...]:
    """The fixed generator order: xi_1..xi_l then psi_1..psi_n."""
    coords = tuple(FormGenerator("coord", i) for i in range(arr.dim))
    chars = tuple(FormGenerator("char", j, h.chi, h.b)
                  for j, h in enumerate(arr.hypersurfaces))
    return coords + chars


def wedge_monomials(l: int, n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (a, b), a < b, over the l + n generators, in lex order."""
    m = l + n
    return tuple((a, b) for a in range(m) for b in range(a + 1, m))


def _char_value(chi, z: np.ndarray) -> complex:
    out = complex(1.0)
    for a, zk in zip(chi, z):
        out *= zk ** a
    return out


def _constant(b: Fraction) -> complex:
    return complex(np.exp(2j * np.pi * float(b)))


_TINY = np.finfo(float).tiny
# The least size in bytes of one block of _wedge_blocks.
_CHUNK_BYTES = 1 << 20
# Rows of one block of _wedge_blocks, as a multiple of the monomial count N:
# each QR fold in degree2_relations refactors R's N rows with one block.
_FOLD = 4


def sample_point(arr: ToricArrangement, seed) -> np.ndarray:
    """Deterministic random point of the complement: the one-point case of
    :func:`_points`."""
    return _points(arr, 1, seed)[0][0]


def _points(arr: ToricArrangement, samples: int, seed):
    """``samples`` random points of the complement, as the rows of a
    samples x l array, and their character values (samples x n), all drawn
    from one default_rng(seed).

    Coordinates get log-uniform modulus in [1/2, 2] and uniform argument.
    Each round draws the log2 moduli, then the arguments, of the rows still
    open, in row order.  Rows landing within 1e-3 of a hypersurface are
    drawn again, with a budget of 1000 rounds.  So are rows where some
    character value overflows or underflows (not finite, or of modulus below
    the smallest normal float): there a generator's covector would read as 0.
    """
    exps, consts = _characters(arr)
    rng = np.random.default_rng(seed)
    z = np.empty((samples, arr.dim), dtype=complex)
    w = np.empty((samples, arr.n), dtype=complex)
    rows = np.arange(samples)
    for _ in range(1000):
        log2_modulus = rng.uniform(-1.0, 1.0, (len(rows), arr.dim))
        angle = rng.uniform(0.0, 2.0 * np.pi, (len(rows), arr.dim))
        z[rows] = 2.0 ** log2_modulus * np.exp(1j * angle)
        w[rows], ok = _char_values(z[rows], exps, consts)
        rows = rows[~ok]
        if not len(rows):
            return z, w
    raise SamplingError("1000 draws all fell within 1e-3 of a hypersurface "
                        "or out of floating-point range of a character")


def _characters(arr: ToricArrangement):
    """The exponent rows (n x l, as floats) and the constants of the hypersurfaces."""
    try:
        exps = np.array([h.chi for h in arr.hypersurfaces], dtype=float).reshape(arr.n, arr.dim)
    except OverflowError:
        raise ValueError("an exponent is outside the floating-point range") from None
    consts = np.array([_constant(h.b) for h in arr.hypersurfaces], dtype=complex)
    return exps, consts


def _char_values(z: np.ndarray, exps: np.ndarray, consts: np.ndarray):
    """chi_j(z) for every point row of z (c x l) and exponent row j, and per
    point whether every value is finite, of modulus at least the smallest
    normal float and at least 1e-3 from its constant: the test of each draw
    in :func:`_points`."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = np.ones((len(z), len(exps)), dtype=complex)
        for k in range(z.shape[1]):
            w = w * z[:, k, None] ** exps[:, k]
        ok = np.isfinite(w) & (np.abs(w) >= _TINY) & (np.abs(w - consts) >= 1e-3)
    return w, np.all(ok, axis=1)


def eval_generator(gen: FormGenerator, z: np.ndarray) -> np.ndarray:
    """Coefficient covector of the generator at z, in the basis dz_1..dz_l.

    dlog z_i has 1/z_i in slot i; dlog(chi - c) has chi(z)/(chi(z) - c) times
    a_k/z_k in slot k, where a is the exponent vector of chi.
    """
    l = len(z)
    if gen.kind == "coord":
        out = np.zeros(l, dtype=complex)
        if z[gen.index] == 0:
            raise ZeroDivisionError("point has a zero coordinate")
        out[gen.index] = 1.0 / z[gen.index]
        return out
    w = _char_value(gen.chi, z)
    denom = w - _constant(gen.b)
    if denom == 0:
        raise ZeroDivisionError("point lies on the hypersurface of this generator")
    factor = w / denom
    return factor * np.array(gen.chi, dtype=complex) / z


class RelationBasis:
    """Orthonormal basis (rows) of the numerical degree-2 relation space."""

    def __init__(self, matrix: np.ndarray, tol: float, samples: int,
                 singular_values: np.ndarray):
        self.matrix, self.tol, self.samples = matrix, tol, samples
        self.singular_values = singular_values

    @property
    def nullity(self) -> int:
        return self.matrix.shape[0]

    @property
    def gap(self) -> float:
        """Last kept singular value over the first dropped one; ``inf`` when
        nothing is kept or nothing is dropped."""
        kept = self.matrix.shape[1] - self.nullity
        if kept == 0 or self.nullity == 0:
            return float("inf")
        return float(self.singular_values[kept - 1] / self.singular_values[kept])


def _wedge_blocks(arr: ToricArrangement, samples: int, seed):
    """The wedge monomials at the points _points(arr, samples, seed), in
    blocks of whole samples.

    Yields views ``rows`` of one reused buffer of N + K rows and N columns,
    N = C(l+n, 2).  The block is ``rows[N:]``: sample k's components of
    Lambda^2 in consecutive rows, pairs p < q in lex order, and columns the
    monomials in the order of :func:`wedge_monomials`.  The N rows above it
    are the caller's, kept from one block to the next.  K is about _FOLD N
    rows, or _CHUNK_BYTES of them if that is more, rounded up to whole
    samples and capped at all samples' rows; the last block may be shorter.
    Nothing is yielded for l <= 1, where Lambda^2 is zero, but the points
    are still drawn.
    """
    l, g = arr.dim, arr.dim + arr.n
    p, q = np.triu_indices(l, 1)
    pairs = len(p)
    exps, consts = _characters(arr)
    z, w = _points(arr, samples, seed)
    if not pairs:
        return
    top = g * (g - 1) // 2
    # At least _CHUNK_BYTES of rows: below that size the QR calls' fixed cost
    # outweighs the memory a smaller block saves.
    fold_rows = max(_FOLD * top, _CHUNK_BYTES // (16 * top))
    per_block = min(samples, -(-fold_rows // pairs))
    buf = np.empty((top + per_block * pairs, top), dtype=complex)
    blocks = buf[top:].reshape(per_block, pairs, top)
    coords = np.arange(l)
    for start in range(0, samples, per_block):
        stop = min(start + per_block, samples)
        zc, wc = z[start:stop].T, w[start:stop]
        # cov[p, s, i]: slot p of generator i's covector at the block's
        # sample s (see eval_generator).
        cov = np.zeros((l, stop - start, g), dtype=complex)
        cov[coords, :, coords] = 1.0 / zc
        cov[:, :, l:] = wc / (wc - consts) * exps.T[:, None, :] / zc[:, :, None]
        # The monomials i^j, j > i, are consecutive columns: one product per
        # i, whose temporaries scale with cov, not with the block (gathering
        # every monomial's factors at once takes 3x the block, on l = 2 more
        # than the QR fold).
        P, Q, out = cov[p], cov[q], blocks[:stop - start].transpose(1, 0, 2)
        col = 0
        for i in range(g - 1):
            cols = slice(col, col + g - 1 - i)
            np.multiply(P[:, :, i, None], Q[:, :, i + 1:], out=out[:, :, cols])
            out[:, :, cols] -= Q[:, :, i, None] * P[:, :, i + 1:]
            col = cols.stop
        yield buf[:top + (stop - start) * pairs]


def _checked_samples(n_monos: int, samples: int | None, tol: float) -> int:
    """The sample count, 4 per monomial by default; raises ValueError unless
    0 < tol < 1 and there are at least 3 samples per monomial."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol}")
    if samples is None:
        return 4 * n_monos
    if samples < 3 * n_monos:
        raise ValueError(f"need at least {3 * n_monos} samples for "
                         f"{n_monos} monomials, got {samples}")
    return samples


def degree2_relations(arr: ToricArrangement, samples: int | None = None,
                      tol: float = 1e-8, seed: int = 0) -> RelationBasis:
    """Null space of the wedge-monomial evaluation matrix.

    The matrix is the (samples * C(l,2)) x C(l+n,2) stack of all degree-2
    wedge monomials evaluated at sampled points of the complement; returns
    the right singular vectors below the relative singular-value threshold
    ``tol * s_max``; raises ValueError unless 0 < tol < 1.

    The matrix is never formed.  Its factor R, which has the matrix's
    singular values and right singular vectors, is folded in block by block
    of :func:`_wedge_blocks`: R is stacked above each new block, in the rows
    the buffer leaves free, and the pair is refactored by QR.  For l >= 2 the
    matrix is tall (samples >= 3 C(l+n,2) and C(l,2) >= 1), and so is the
    first block, so R is square; for l <= 1 it has no rows and every
    monomial is a relation.
    """
    n_monos = len(wedge_monomials(arr.dim, arr.n))
    samples = _checked_samples(n_monos, samples, tol)
    factor = np.zeros((0, n_monos), dtype=complex)
    for rows in _wedge_blocks(arr, samples, seed):
        top = n_monos - len(factor)
        rows[top:n_monos] = factor
        factor = np.linalg.qr(rows[top:], mode="r")
    if not len(factor):
        return RelationBasis(np.eye(n_monos, dtype=complex), tol, samples,
                             np.zeros(0))
    # Neither a tall Q nor a tall U is formed.
    _, sing, vh = np.linalg.svd(factor)
    kept = int(np.sum(sing > tol * sing[0]))
    return RelationBasis(np.conj(vh[kept:]), tol, samples, sing)


def verify_relation(arr: ToricArrangement, coefficients, samples: int | None = None,
                    tol: float = 1e-8, seed: int = 0) -> bool:
    """True iff the 2-form with these monomial coefficients vanishes at every
    sampled point, relative to the magnitude of the monomials there; the
    ``samples`` and ``tol`` checks are those of :func:`degree2_relations`.
    The points are read block by block of :func:`_wedge_blocks`."""
    monos = wedge_monomials(arr.dim, arr.n)
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.shape != (len(monos),):
        raise ValueError(f"expected {len(monos)} coefficients, got {coeffs.shape}")
    samples = _checked_samples(len(monos), samples, tol)
    scale = np.linalg.norm(coeffs)
    if scale == 0:
        return True
    for rows in _wedge_blocks(arr, samples, seed):
        blocks = rows[len(monos):].reshape(-1, arr.dim * (arr.dim - 1) // 2, len(monos))
        residual = np.linalg.norm(blocks @ coeffs, axis=1)
        size = np.maximum(np.linalg.norm(blocks, axis=(1, 2)), 1.0)
        if np.any(residual >= tol * scale * size):
            return False
    return True
