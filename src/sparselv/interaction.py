"""Sparse random interaction matrices and their spectral diagnostics.

The realized matrix is M = (pattern mask * Gaussian weights) / (alpha * sqrt(d)).
Raw weights are kept separate from the scale so an alpha sweep can reuse a
single Gaussian draw.  The largest singular value is taken of the unscaled
matrix B = mask*A/sqrt(d) by default, which is the object the kappa = 22 norm
envelope refers to.

Every sparse product of the package goes through one method,
``InteractionMatrix.unscaled_product``: the Neumann solve, ``matvec`` (and so
the dynamics' vector field) and ``neumann_summand``.  It calls
``scipy.sparse._sparsetools.csr_matvec``, the compiled kernel behind
scipy's ``csr @ v``, on the pattern's shared index arrays and the raw
weights, into a buffer the caller owns, without scipy's Python dispatch or
a fresh output array per call.  The kernel adds each row's terms in column
order to the buffer's 0.0, as ``csr @ v`` does after its ``np.zeros``, so
the bits are those of ``csr @ v``.  The symbol is private to scipy; this is
the package's one import of it, and
``tests/test_interaction.py::test_product_matches_csr_bytes`` fails if a
scipy release moves or changes it.  A CSR matrix (``_unscaled_csr``) is
built only for spectra, ``svds``, dense expansion and the singular gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import svds

from .patterns import AdjacencyPattern

__all__ = [
    "InteractionMatrix",
    "SpectralReport",
    "assemble",
    "spectral_norm",
    "singular_gap",
    "NORM_ENVELOPE",
    "DENSE_SPECTRUM_LIMIT",
]

# Envelope constant for ||mask*A/sqrt(d)||: violated with vanishing probability.
NORM_ENVELOPE = 22.0

# Largest n for which the singular gap is computed (a dense SVD).
DENSE_SPECTRUM_LIMIT = 512


@dataclass
class InteractionMatrix:
    """Scaled sparse Gaussian matrix M = (pattern * weights) / (alpha*sqrt(d)).

    ``weights[i, j]`` is the standard-Gaussian draw at position
    (i, pattern.row_cols[i, j]); drawing is counter-based in canonical
    row-major order, so the weight vector depends only on the seed.
    """

    pattern: AdjacencyPattern
    weights: np.ndarray  # shape (n, d), float64
    alpha: float
    seed: int | None = None
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.pattern.n, self.pattern.d):
            raise ValueError(
                f"weights shape {w.shape} != ({self.pattern.n}, {self.pattern.d})"
            )
        w.setflags(write=False)  # the cached CSR shares this memory
        self.weights = w

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def d(self) -> int:
        return self.pattern.d

    @property
    def scale(self) -> float:
        return 1.0 / (self.alpha * math.sqrt(self.d))

    def with_alpha(self, alpha: float) -> "InteractionMatrix":
        """Same Gaussian draw, different interaction strength; shares the
        weights and the cached unscaled CSR."""
        return InteractionMatrix(self.pattern, self.weights, alpha, self.seed, self._csr)

    def _unscaled_csr(self) -> sp.csr_matrix:
        # CSR of mask*A (raw weights, no normalization); built once.  Its
        # data is a view of the weights, its indices the pattern's.
        if self._csr is None:
            indptr, indices = self.pattern.csr_index
            self._csr = sp.csr_matrix(
                (self.weights.reshape(-1), indices, indptr), shape=(self.n, self.n)
            )
        return self._csr

    def unscaled_product(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = (mask*A) @ v`` with the raw weights, bit for bit as
        ``self._unscaled_csr() @ v``; returns ``out``.  ``v`` and ``out``
        are float64 vectors of length n that do not overlap.  Nothing is
        checked: this is the inner loop of every solve."""
        indptr, indices = self.pattern.csr_index
        out.fill(0.0)
        csr_matvec(self.n, self.n, indptr, indices, self.weights.reshape(-1), v, out)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Sparse product M @ v."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        out = self.unscaled_product(v, np.empty(self.n))
        out *= self.scale
        return out

    def row_sums_unscaled(self) -> np.ndarray:
        """Row sums of mask*A / sqrt(d); these are the first-order Gaussian
        terms of the equilibrium decomposition."""
        return self.weights.sum(axis=1) / math.sqrt(self.d)

    def dense(self, unscaled: bool = False) -> np.ndarray:
        """Dense expansion (intended for small n).  ``unscaled`` gives
        mask*A/sqrt(d) instead of M."""
        out = self._unscaled_csr().toarray()
        factor = 1.0 / math.sqrt(self.d) if unscaled else self.scale
        return factor * out


@dataclass(frozen=True)
class SpectralReport:
    spectral_norm: float
    norm_bound_holds: bool


def assemble(p: AdjacencyPattern, alpha: float, seed: int) -> InteractionMatrix:
    """Draw one standard-Gaussian weight per pattern position.

    The Philox counter-based generator is keyed by the seed and consumed in
    canonical row-major position order, so the draw is independent of
    iteration order and thread scheduling, and identical (bitwise) across
    repeated calls with the same arguments.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    weights = rng.standard_normal(p.n * p.d).reshape(p.n, p.d)
    return InteractionMatrix(pattern=p, weights=weights, alpha=alpha, seed=seed)


def spectral_norm(
    M: InteractionMatrix, unscaled: bool = True, tol: float = 1e-10
) -> SpectralReport:
    """Largest singular value of the matrix, from ARPACK ``svds(k=1)``.

    With ``unscaled=True`` (default) the norm of mask*A/sqrt(d) is computed,
    which is what the kappa = 22 envelope refers to; otherwise the norm of M.
    ``svds`` runs to relative tolerance ``tol`` from a fixed seeded start
    vector, so repeated calls give the same bits.  The zero matrix has norm
    0, and at n = 1 the norm is the one weight's absolute value.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    csr = M._unscaled_csr()
    factor = 1.0 / math.sqrt(M.d) if unscaled else M.scale
    if M.n == 1 or csr.count_nonzero() == 0:  # ARPACK needs k < n and a nonzero start product
        sigma = factor * float(np.abs(csr.data).max(initial=0.0))
    else:
        v0 = np.random.default_rng(0).standard_normal(M.n)
        top = svds(csr, k=1, tol=tol, v0=v0, return_singular_vectors=False)
        sigma = factor * float(top[0])
    unscaled_norm = sigma if unscaled else sigma * M.alpha
    return SpectralReport(
        spectral_norm=sigma, norm_bound_holds=bool(unscaled_norm < NORM_ENVELOPE)
    )


def singular_gap(M: InteractionMatrix) -> float:
    """Smallest consecutive difference of the singular values of the raw
    masked matrix mask*A (no normalization); these are almost surely all
    distinct.  Refused above DENSE_SPECTRUM_LIMIT."""
    if M.n > DENSE_SPECTRUM_LIMIT:
        raise ValueError(f"n={M.n} exceeds dense spectrum limit {DENSE_SPECTRUM_LIMIT}")
    if M.n == 1:
        return math.inf
    svals = np.linalg.svd(M._unscaled_csr().toarray(), compute_uv=False)
    return float(np.min(-np.diff(svals)))
