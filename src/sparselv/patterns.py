"""Seeded d-regular adjacency patterns.

A pattern is the 0/1 sparsity mask of the interaction matrix: a directed
d-regular graph on n vertices, stored as the sorted column indices of the
d nonzero positions in each row.  Four constructions are provided: the
block-permutation pattern (a permutation of m dense d x d blocks), a
random general d-regular pattern (d superposed random permutations whose
clashes are removed by switching entries within a permutation; the
complement of an (n - d)-regular one for d > n/2), the proportional
pattern (a general one with d = round(beta n)) and the full pattern
(d = n).  Every construction is deterministic given its seed.  This
module only builds patterns; ``sparselv pattern`` writes them as text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "PatternModel",
    "MODELS",
    "AdjacencyPattern",
    "block_permutation_pattern",
    "general_regular_pattern",
    "proportional_pattern",
    "full_pattern",
]


class PatternModel(enum.Enum):
    BLOCK_PERMUTATION = "block_permutation"
    GENERAL_REGULAR = "general_regular"
    FULL = "full"
    PROPORTIONAL = "proportional"


MODELS = tuple(m.value for m in PatternModel)


@dataclass(frozen=True)
class AdjacencyPattern:
    """Sparsity mask of a directed d-regular graph on n vertices.

    ``row_cols[i]`` holds the d column indices of row i, sorted ascending,
    so the position set is canonical (row-major) and two patterns are equal
    iff their ``row_cols`` arrays are equal.  Immutable after construction.

    ``csr_index`` is the mask's CSR ``(indptr, indices)``, built on first
    use and then shared, read-only, by every matrix on the pattern: the
    compiled product of ``sparselv.interaction`` and the CSR of
    ``InteractionMatrix._unscaled_csr`` both read it, so a trial on a fixed
    pattern copies no index.  It is int32 where n * d < 2^31, else int64.
    """

    n: int
    d: int
    model: PatternModel
    row_cols: np.ndarray  # shape (n, d), int64, sorted within each row
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rc = np.asarray(self.row_cols, dtype=np.int64)
        if rc.shape != (self.n, self.d):
            raise ValueError(f"row_cols shape {rc.shape} != ({self.n}, {self.d})")
        object.__setattr__(self, "row_cols", rc)
        rc.setflags(write=False)

    @cached_property
    def csr_index(self) -> tuple[np.ndarray, np.ndarray]:
        nnz = self.n * self.d
        index = np.int32 if nnz < 2**31 else np.int64
        indptr = np.arange(0, nnz + 1, self.d, dtype=index)
        indices = self.row_cols.reshape(-1).astype(index, copy=False)
        for a in (indptr, indices):
            a.setflags(write=False)
        return indptr, indices

    def dense(self) -> np.ndarray:
        """Expand to a dense 0/1 array (intended for small n)."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        rows = np.repeat(np.arange(self.n), self.d)
        out[rows, self.row_cols.ravel()] = 1
        return out

    def __eq__(self, other):
        if not isinstance(other, AdjacencyPattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.row_cols, other.row_cols)
        )


def block_permutation_pattern(m: int, d: int, sigma) -> AdjacencyPattern:
    """Pattern P_sigma (x) J_d: block (i, j) of size d x d is all ones iff
    j = sigma[i], for ``sigma`` a permutation of range(m).  The result is
    d-regular of size n = m * d."""
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    sigma = np.asarray(sigma)
    if sigma.shape != (m,) or not np.array_equal(np.sort(sigma), np.arange(m)):
        raise ValueError(f"sigma is not a permutation of range({m}): {sigma.tolist()}")
    sigma = sigma.astype(np.int64)
    row_cols = np.repeat(sigma * d, d)[:, None] + np.arange(d)
    model = PatternModel.FULL if m == 1 else PatternModel.BLOCK_PERMUTATION
    return AdjacencyPattern(
        n=m * d, d=d, model=model, row_cols=row_cols, meta={"sigma": sigma}
    )


def full_pattern(n: int) -> AdjacencyPattern:
    """All n^2 positions present (d = n): the block pattern with one block."""
    return block_permutation_pattern(1, n, [0])


# The n x n count table of _permutation_layers is kept when n <= this * d.
_TABLE_RATIO = 24


def _permutation_layers(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n x d int32 array whose columns are random permutations of range(n)
    and whose rows hold d distinct entries; needs d <= n / 2.

    The d permutation layers are drawn independently.  Every repeated entry
    of a row is then switched away: for a repeat at (i, k) and a random
    partner row j, entries (i, k) and (j, k) swap when the value each row
    receives is absent from it.  A swap stays inside layer k, so each layer
    remains a permutation; it removes a repeat and never creates one.  Rows
    are paired by a fresh random perfect matching each round, so the swaps
    of a round touch disjoint rows and are applied together.  With
    d <= n / 2 every repeat has at least n - 2d + 3 valid partners, so the
    loop ends with probability one.

    How often value v occurs in row r is read off an n x n table of counts
    at dense degree, n <= _TABLE_RATIO * d, and found by scanning the row's
    d entries otherwise; both give the same counts, so the same swaps.  The
    table costs n^2 cells to clear and fill (4 * 10^6 for the 32 000 entries
    of n = 2000, d = 16), the scans about d^3 in all, d per query for the
    roughly d^2 / 2 repeats; the scans lose only when d is a sizeable
    fraction of n.  The rule also caps the table at _TABLE_RATIO cells per
    entry of the pattern.
    """
    # The same draws as rng.permuted(layers, axis=1), without its copy.
    # Shuffling int64 rows is faster than int32 ones (numpy's fast path is
    # for pointer-sized items); the transposing copy narrows to int32.
    layers = np.tile(np.arange(n), (d, 1))
    for layer in layers:
        rng.shuffle(layer)
    cols = layers.T.astype(np.int32, order="C")
    # Keys value << s | layer, sorted within rows: by value, then by layer.
    s = (d - 1).bit_length()
    keys = cols.astype(np.int32 if n << s < 2**31 else np.int64) << s
    keys |= np.arange(d, dtype=keys.dtype)
    keys.sort(axis=1)
    vals = keys >> s
    repeat = vals[:, 1:] == vals[:, :-1]
    rows = np.nonzero(repeat)[0]
    # Per-row stacks of repeated layers: row i's are stack[i, :top[i]].
    top = np.bincount(rows, minlength=n)
    stack = np.zeros((n, top.max()), dtype=np.int32)
    stack[rows, np.arange(rows.size) - (np.cumsum(top) - top)[rows]] = (
        keys[:, 1:][repeat] & ((1 << s) - 1)
    )
    if n <= _TABLE_RATIO * d:
        counts = np.zeros((n, n), dtype=np.min_scalar_type(d))
        counts[np.arange(n)[:, None], cols] = 1
        np.add.at(counts, (rows, vals[:, 1:][repeat]), 1)
        count = lambda r, v: counts[r, v]  # noqa: E731
    else:
        counts = None
        count = lambda r, v: (cols[r] == v[:, None]).sum(axis=1)  # noqa: E731
    while top.any():
        pairs = rng.permutation(n)
        a, b = pairs[0 : n - 1 : 2], pairs[1::2]
        flip = top[a] == 0
        i, j = np.where(flip, b, a), np.where(flip, a, b)
        keep = top[i] > 0
        i, j = i[keep], j[keep]
        k = stack[i, top[i] - 1]
        c, v = cols[i, k], cols[j, k]
        # A stacked layer whose value is no longer repeated (its twin was
        # switched away as someone's partner) is dropped unswapped.
        stale = count(i, c) < 2
        ok = ~stale & (count(i, v) == 0) & (count(j, c) == 0)
        top[i[stale | ok]] -= 1
        i, j, k, c, v = i[ok], j[ok], k[ok], c[ok], v[ok]
        cols[i, k], cols[j, k] = v, c
        if counts is not None:  # the four (row, value) pairs are distinct
            counts[np.r_[i, j], np.r_[c, v]] -= 1
            counts[np.r_[i, j], np.r_[v, c]] += 1
    return cols


def general_regular_pattern(n: int, d: int, rng_seed: int) -> AdjacencyPattern:
    """Random d-regular pattern: d permutation layers repaired by switching.

    For d <= n / 2 the rows of :func:`_permutation_layers` are the pattern;
    each layer is a permutation and no row repeats a column, so it is exactly
    d-regular.  For d > n / 2 it is the complement of an (n - d)-regular
    pattern built the same way.  Deterministic given (n, d, rng_seed).  The
    result is random but not exactly uniform over d-regular patterns.
    """
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = np.random.default_rng(rng_seed)
    if 2 * d <= n:
        row_cols = _permutation_layers(n, d, rng)
        row_cols.sort(axis=1)
    else:
        mask = np.ones((n, n), dtype=bool)
        mask[np.arange(n)[:, None], _permutation_layers(n, n - d, rng)] = False
        row_cols = np.nonzero(mask)[1].reshape(n, d)
    return AdjacencyPattern(
        n=n,
        d=d,
        model=PatternModel.GENERAL_REGULAR,
        row_cols=row_cols,
        seed=rng_seed,
        meta={"method": "permutation_switching"},
    )


def proportional_pattern(n: int, beta: float, rng_seed: int) -> AdjacencyPattern:
    """Dense-degree regime: d = round(beta * n), built like
    :func:`general_regular_pattern` but tagged as the proportional model."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"need 0 < beta <= 1, got {beta}")
    base = general_regular_pattern(n, max(1, round(beta * n)), rng_seed)
    return replace(base, model=PatternModel.PROPORTIONAL, meta={**base.meta, "beta": beta})
