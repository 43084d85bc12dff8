"""Numeric extraction of degree-2 relations among logarithmic 1-forms.

The cohomology of a deletion-restriction-type complement is generated by the
closed 1-forms dlog z_i (one per torus coordinate) and dlog(chi_j - c_j) (one
per hypersurface).  Because those generators are honest differential forms,
every linear relation among their wedge products already holds pointwise on
the complement; sampling the wedge monomials at random points and computing a
numerical null space therefore recovers the degree-2 relation space.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arrangement import ToricArrangement


class SamplingError(RuntimeError):
    """The rejection sampler could not find a point off the hypersurfaces."""


@dataclass(frozen=True)
class FormGenerator:
    """A degree-1 generator: either dlog z_i ("coord") or dlog(chi - c) ("char")."""

    kind: str
    index: int
    chi: tuple[int, ...] | None = None
    b: Fraction | None = None

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


def sample_point(arr: ToricArrangement, seed) -> np.ndarray:
    """Deterministic random point of the complement.

    Coordinates get log-uniform modulus in [1/2, 2] and uniform argument;
    draws landing within 1e-3 of a hypersurface are rejected and redrawn,
    with a budget of 1000 attempts.  So are draws where some character
    value overflows or underflows (not finite, or of modulus below the
    smallest normal float): there a generator's covector would read as 0.
    """
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(1000):
            modulus = 2.0 ** rng.uniform(-1.0, 1.0, arr.dim)
            angle = rng.uniform(0.0, 2.0 * np.pi, arr.dim)
            z = modulus * np.exp(1j * angle)
            if all(cmath.isfinite(w) and abs(w) >= _TINY and abs(w - _constant(h.b)) >= 1e-3
                   for h in arr.hypersurfaces for w in (_char_value(h.chi, z),)):
                return z
    raise SamplingError("1000 draws all fell within 1e-3 of a hypersurface "
                        "or out of floating-point range of a character")


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


def _monomial_blocks(arr: ToricArrangement, samples: int, seed):
    """Yield one evaluation block per sample point [seed, k], k < samples.

    Rows: the C(l, 2) components of Lambda^2; columns: the wedge monomials in
    the lex order of :func:`wedge_monomials`.
    """
    gens = generators(arr)
    p, q = np.triu_indices(arr.dim, 1)
    a, b = np.triu_indices(len(gens), 1)
    for k in range(samples):
        z = sample_point(arr, [seed, k])
        covs = np.array([eval_generator(g, z) for g in gens]).reshape(len(gens), arr.dim)
        va, vb = covs[a], covs[b]
        yield (va[:, p] * vb[:, q] - va[:, q] * vb[:, p]).T


@dataclass
class RelationBasis:
    """Orthonormal basis (rows) of the numerical degree-2 relation space."""

    matrix: np.ndarray
    tol: float
    samples: int
    singular_values: np.ndarray

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


def _evaluation_matrix(arr: ToricArrangement, samples: int, seed) -> np.ndarray:
    blocks = list(_monomial_blocks(arr, samples, seed))
    if blocks:
        return np.vstack(blocks)
    return np.zeros((0, len(wedge_monomials(arr.dim, arr.n))), dtype=complex)


def degree2_relations(arr: ToricArrangement, samples: int | None = None,
                      tol: float = 1e-8, seed: int = 0) -> RelationBasis:
    """Null space of the wedge-monomial evaluation matrix.

    Builds the (samples * C(l,2)) x C(l+n,2) matrix of all degree-2 wedge
    monomials evaluated at sampled points of the complement and returns the
    right singular vectors below the relative singular-value threshold
    ``tol * s_max``; raises ValueError unless 0 < tol < 1.

    For l >= 2 the matrix is tall (samples >= 3 C(l+n,2) and C(l,2) >= 1), so
    the thin SVD already yields all C(l+n,2) right singular vectors; for
    l <= 1 it has no rows and every monomial is a relation.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol}")
    n_monos = len(wedge_monomials(arr.dim, arr.n))
    if samples is None:
        samples = 4 * n_monos
    if samples < 3 * n_monos:
        raise ValueError(f"need at least {3 * n_monos} samples for "
                         f"{n_monos} monomials, got {samples}")
    mat = _evaluation_matrix(arr, samples, seed)
    if mat.shape[0] == 0 or n_monos == 0:
        return RelationBasis(np.eye(n_monos, dtype=complex), tol, samples,
                             np.zeros(0))
    # Tall matrix: thin vh is the full square one, without the unused square U.
    _, sing, vh = np.linalg.svd(mat, full_matrices=False)
    kept = int(np.sum(sing > tol * sing[0]))
    return RelationBasis(np.conj(vh[kept:]), tol, samples, sing)


def verify_relation(arr: ToricArrangement, coefficients, samples: int | None = None,
                    tol: float = 1e-8, seed: int = 0) -> bool:
    """True iff the 2-form with these monomial coefficients vanishes at every
    sampled point, relative to the magnitude of the monomials there."""
    monos = wedge_monomials(arr.dim, arr.n)
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.shape != (len(monos),):
        raise ValueError(f"expected {len(monos)} coefficients, got {coeffs.shape}")
    if samples is None:
        samples = 4 * len(monos)
    scale = np.linalg.norm(coeffs)
    if scale == 0:
        return True
    for block in _monomial_blocks(arr, samples, seed):
        residual = np.linalg.norm(block @ coeffs)
        if residual >= tol * scale * max(np.linalg.norm(block), 1.0):
            return False
    return True
