"""Sparse random interaction matrices and their spectral diagnostics.

The realized matrix is M = (pattern mask * Gaussian weights) / (alpha * sqrt(d)).
Raw weights are kept separate from the scale so an alpha sweep can reuse a
single Gaussian draw.  The largest singular value is taken of the unscaled
matrix B = mask*A/sqrt(d) by default, which is the object the kappa = 22 norm
envelope refers to.

Every sparse product of the package goes through one binding,
``InteractionMatrix.bound_kernel``: the Neumann solve binds it once per
solve, and ``unscaled_product`` once per call, for ``matvec`` (and so the
dynamics' vector field), ``residual_inf`` and ``neumann_summand``.  It is
``bsr_matvec`` of ``scipy.sparse._sparsetools``, the kernel behind
``bsr @ v``, bound to the pattern's shared ``block_index`` and the raw
weights, which writes into a buffer the caller owns, without scipy's
Python dispatch or a fresh output array per call.  The blocks are the
aligned d x d ones of the block-permutation and full patterns, one column
index each, and 1 x 1 on any other pattern, a CSR.  It adds a row's terms
in column order to the buffer's 0.0, as ``csr @ v`` does after its
``np.zeros``, so the bits are those of ``csr @ v``.  The symbol is private
to scipy; this is the package's one import of it, and
``tests/test_interaction.py::test_product_matches_csr_bytes`` fails if a
scipy release moves or changes it.

``_load_extension`` loads one of scipy's compiled extensions by path, from
the directory that ``importlib.util.find_spec`` gives without running
scipy's ``__init__`` (which loads ``subprocess`` and ``sysconfig``), and
reuses the module if scipy already imported it.  It serves the kernel's
``scipy.sparse._sparsetools``, at import, and LAPACK's
``scipy.linalg._flapack``, on the first Jacobian spectrum.  Their packages
would also load scipy's ``array_api_compat``, ``numpy.f2py`` and
``numpy.testing``, which no trial needs.  The ``sys.modules`` entry that
an extension's single-phase init makes is removed, so a later import of
its package runs as in a fresh interpreter.  Dense matrices are filled
from ``row_cols`` in numpy; only ``_unscaled_bsr``, for the ARPACK helpers
``spectral_norm`` and ``stability_certificate``, imports ``scipy.sparse``,
and with it ``scipy``.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

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


# scipy's directory, found without running the package's __init__.
_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]


@functools.cache
def _load_extension(package: str, name: str):
    """scipy's compiled extension ``scipy.<package>.<name>``, loaded once
    from its file under ``_SCIPY_DIR``, without importing ``scipy``."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = FileFinder(os.path.join(_SCIPY_DIR, package),
                      (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full)
    module = spec.loader.create_module(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full, None)
    return module


_SPARSETOOLS = _load_extension("sparse", "_sparsetools")
bsr_matvec = _SPARSETOOLS.bsr_matvec


@dataclass
class InteractionMatrix:
    """Scaled sparse Gaussian matrix M = (pattern * weights) / (alpha*sqrt(d)).

    ``weights[i, j]`` is the standard-Gaussian draw at position
    (i, pattern.row_cols[i, j]); drawing is counter-based in canonical
    row-major order, so the weight vector depends only on the seed.
    ``weights`` is a read-only view; the array passed in stays writable.
    """

    pattern: AdjacencyPattern
    weights: np.ndarray  # shape (n, d), float64
    alpha: float
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.pattern.n, self.pattern.d):
            raise ValueError(
                f"weights shape {w.shape} != ({self.pattern.n}, {self.pattern.d})"
            )
        if w.flags.writeable:  # freeze a view, not the caller's array
            w = w.view()
            w.setflags(write=False)
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
        """Same Gaussian draw, different interaction strength; shares the weights."""
        return replace(self, alpha=alpha)

    def _unscaled_bsr(self):
        # scipy's BSR of mask*A (raw weights, no normalization) for the ARPACK
        # helpers.  Its data is a view of the weights, its indices the pattern's.
        import scipy.sparse as sp
        b, indptr, indices = self.pattern.block_index
        return sp.bsr_matrix((self.weights.reshape(-1, b, b), indices, indptr), shape=(self.n, self.n))

    def bound_kernel(self):
        """``kernel(v, out)``, which adds ``(mask*A) @ v`` with the raw
        weights to ``out``, each row's terms in column order: ``bsr_matvec``
        (read from this module when bound) on the pattern's ``block_index``.
        ``v`` and ``out`` are float64 vectors of length n that do not
        overlap.  Nothing is checked: a solve binds it once and calls it
        every iteration."""
        b, indptr, indices = self.pattern.block_index
        m = self.n // b
        return functools.partial(bsr_matvec, m, m, b, b, indptr, indices, self.weights.reshape(-1))

    def unscaled_product(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = (mask*A) @ v`` with the raw weights, bit for bit as
        ``self._unscaled_bsr() @ v``: ``out`` zeroed, then
        ``bound_kernel()(v, out)``; returns ``out``."""
        out.fill(0.0)
        self.bound_kernel()(v, out)
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

    def _unscaled_dense(self) -> np.ndarray:
        # Dense mask*A (raw weights), one write of distinct positions: each
        # weight as csr.toarray() adds it to a 0.0, -0.0 entering as +0.0.
        out = np.zeros((self.n, self.n))
        out[np.arange(self.n)[:, None], self.pattern.row_cols] = self.weights + 0.0
        return out

    def dense(self, unscaled: bool = False) -> np.ndarray:
        """Dense expansion (intended for small n).  ``unscaled`` gives
        mask*A/sqrt(d) instead of M."""
        out = self._unscaled_dense()
        factor = 1.0 / math.sqrt(self.d) if unscaled else self.scale
        return factor * out


@dataclass(frozen=True)
class SpectralReport:
    spectral_norm: float
    norm_bound_holds: bool


# One Generator(Philox) per thread, rekeyed by every assemble call.
_THREAD = threading.local()


def assemble(p: AdjacencyPattern, alpha: float, seed: int) -> InteractionMatrix:
    """Draw one standard-Gaussian weight per pattern position.

    The Philox counter-based generator is keyed by the seed and consumed in
    canonical row-major position order, so the draw is independent of
    iteration order and thread scheduling, and identical (bitwise) across
    repeated calls with the same arguments.

    Each thread keeps one ``Generator(Philox)`` and rekeys it per call:
    counter 0, key ``[seed mod 2**64, seed >> 64]`` and an empty buffer, the
    state that ``Philox(key=seed)`` starts from, set through
    ``bit_generator.state``.  Building ``Philox(key=seed)`` instead would
    first draw OS entropy that the key then replaces.  Seeds outside
    [0, 2**128) are refused, as Philox refuses such keys.
    """
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed & 2**64 - 1, seed >> 64], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
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
    0, and at n = 1 the norm is the one weight's absolute value.  ``svds``
    is imported here, as it loads ``scipy.linalg``.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    from scipy.sparse.linalg import svds
    bsr = M._unscaled_bsr()
    factor = 1.0 / math.sqrt(M.d) if unscaled else M.scale
    if M.n == 1 or bsr.count_nonzero() == 0:  # ARPACK needs k < n and a nonzero start product
        sigma = factor * float(np.abs(bsr.data).max(initial=0.0))
    else:
        v0 = np.random.default_rng(0).standard_normal(M.n)
        top = svds(bsr, k=1, tol=tol, v0=v0, return_singular_vectors=False)
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
    svals = np.linalg.svd(M._unscaled_dense(), compute_uv=False)
    return float(np.min(-np.diff(svals)))
