"""Sparse random interaction matrices and their spectral diagnostics.

The realized matrix is M = (pattern mask * Gaussian weights) / (alpha * sqrt(d)).
Raw weights are kept separate from the scale so an alpha sweep can reuse a
single Gaussian draw.  Spectral quantities (largest singular value, full
singular spectrum at small n) operate on the unscaled matrix B = mask*A/sqrt(d)
by default, which is the object the kappa = 22 norm envelope refers to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
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

# Largest n for which dense singular spectra are computed.
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
        """Same Gaussian draw, different interaction strength."""
        return InteractionMatrix(self.pattern, self.weights, alpha, self.seed)

    def _unscaled_csr(self) -> sp.csr_matrix:
        # CSR of mask*A (raw weights, no normalization); built once.
        if self._csr is None:
            n, d = self.n, self.d
            indptr = np.arange(0, n * d + 1, d, dtype=np.int64)
            self._csr = sp.csr_matrix(
                (self.weights.ravel().copy(), self.pattern.row_cols.ravel().copy(), indptr),
                shape=(n, n),
            )
        return self._csr

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Sparse product M @ v."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        return self.scale * (self._unscaled_csr() @ v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Sparse product M.T @ v."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        return self.scale * (self._unscaled_csr().T @ v)

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
    min_gap: float
    norm_bound_holds: bool
    singular_values: np.ndarray | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "spectral_norm": self.spectral_norm,
                "min_gap": self.min_gap,
                "norm_bound_holds": self.norm_bound_holds,
            }
        )


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
    """Largest singular value of the matrix, computed exactly.

    With ``unscaled=True`` (default) the norm of mask*A/sqrt(d) is computed,
    which is what the kappa = 22 envelope refers to; otherwise the norm of M.
    For n <= DENSE_SPECTRUM_LIMIT the full singular spectrum (and hence
    ``min_gap``) comes from a dense SVD.  Above it, ARPACK ``svds(k=1)`` runs
    to relative tolerance ``tol`` from a fixed seeded start vector, so
    repeated calls give the same bits; ``min_gap`` is then NaN.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = M.n
    csr = M._unscaled_csr()
    factor = 1.0 / math.sqrt(M.d) if unscaled else M.scale
    svals = None
    min_gap = math.nan
    if n <= DENSE_SPECTRUM_LIMIT:
        svals = np.linalg.svd(factor * csr.toarray(), compute_uv=False)
        sigma = float(svals[0])
        min_gap = math.inf if n == 1 else float(np.min(-np.diff(svals)))
    elif csr.count_nonzero() == 0:  # ARPACK refuses a zero start product
        sigma = 0.0
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        top = svds(csr, k=1, tol=tol, v0=v0, return_singular_vectors=False)
        sigma = factor * float(top[0])
    unscaled_norm = sigma if unscaled else sigma * M.alpha
    return SpectralReport(
        spectral_norm=sigma,
        min_gap=min_gap,
        norm_bound_holds=bool(unscaled_norm < NORM_ENVELOPE),
        singular_values=svals,
    )


def singular_gap(M: InteractionMatrix, dense_limit: int = DENSE_SPECTRUM_LIMIT) -> float:
    """Smallest consecutive difference of the singular values of the raw
    masked matrix mask*A (no normalization); these are almost surely all
    distinct.  Refused above the dense-spectrum limit."""
    if M.n > dense_limit:
        raise ValueError(f"n={M.n} exceeds dense spectrum limit {dense_limit}")
    if M.n == 1:
        return math.inf
    svals = np.linalg.svd(M._unscaled_csr().toarray(), compute_uv=False)
    return float(np.min(-np.diff(svals)))
