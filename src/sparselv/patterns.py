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

    ``row_cols[i]`` holds the d columns of row i, strictly increasing, so
    the position set is canonical (row-major) and two patterns are equal
    iff their ``row_cols`` arrays are equal.  It is a read-only view, int32
    while n * d < 2^31, else int64; one passed in that type stays writable.

    ``block_index`` is ``(b, indptr, indices)``: the mask as a BSR of b x b
    blocks, built on first use and then shared, read-only, by every matrix
    on the pattern, so a trial on a fixed pattern copies no index.  b = d
    when d >= 2, d divides n and every row of block row k holds exactly
    c_k * d + 0..d-1 (the block-permutation and full patterns); otherwise
    b = 1, the mask's CSR, whose ``indices`` are ``row_cols`` itself.  n or
    d below 1, and columns that are not integers, not increasing along a
    row or outside [0, n), are refused before the cast could wrap one into
    range: neither the compiled product nor the dense fill checks them.
    """

    n: int
    d: int
    model: PatternModel
    row_cols: np.ndarray  # shape (n, d), int32 or int64, increasing within each row
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        rc = np.asarray(self.row_cols)
        if rc.shape != (self.n, self.d):
            raise ValueError(f"row_cols shape {rc.shape} != ({self.n}, {self.d})")
        if not np.issubdtype(rc.dtype, np.integer):
            raise ValueError(f"row_cols must hold integers, got {rc.dtype}")
        # Compared, not subtracted: a difference of unsigned columns wraps.
        # One pass over the raveled rows; the pairs that straddle two rows pass.
        flat = rc.reshape(-1)
        increasing = flat[1:] > flat[:-1]
        increasing[self.d - 1::self.d] = True
        if not increasing.all():
            raise ValueError("row_cols repeats a column or is unsorted within a row")
        # Each row increases, so its first and last columns bound the rest.
        if rc[:, 0].min() < 0 or rc[:, -1].max() >= self.n:
            raise ValueError(f"row_cols has a column outside [0, {self.n})")
        # The kernel computes each block's offset b^2 * jj in the index type.
        rc = rc.astype(np.int32 if self.n * self.d < 2**31 else np.int64, copy=False)
        if rc.flags.writeable:  # freeze a view, not the caller's array
            rc = rc.view()
            rc.setflags(write=False)
        object.__setattr__(self, "row_cols", rc)

    @cached_property
    def block_index(self) -> tuple[int, np.ndarray, np.ndarray]:
        # From row_cols, not the model: a full pattern is one block.  It
        # first runs inside a trial, so on a general pattern the block test
        # stops after one modulo.  Both arrays take row_cols' index type.
        n, d = self.n, self.d
        b, indices = 1, self.row_cols.reshape(-1)
        if d >= 2 and n % d == 0:
            blocks = self.row_cols.reshape(n // d, d, d)
            starts = blocks[:, 0, 0]
            if not (starts % d).any() and (blocks == starts[:, None, None] + np.arange(d)).all():
                b, indices = d, starts // d
        indptr = np.arange(0, indices.size + 1, d // b, dtype=indices.dtype)
        for a in (indptr, indices):
            a.setflags(write=False)
        return b, indptr, indices

    @cached_property
    def strong_components(self) -> tuple[int, np.ndarray]:
        """``(count, labels)`` of the strongly connected components of the
        graph with edges i -> row_cols[i], labelled in order of their
        smallest member.

        Each round works on the vertices not yet placed.  ``low[v]`` is the
        smallest vertex that v reaches, and ``high[v]`` the smallest that
        reaches v through vertices of the same ``low``: v lies in the
        component of r = low[v] iff high[v] == r, as a path from r to v
        never leaves the vertices with ``low == r``.  Both are found by
        min-label propagation.  A round places at least the component of
        its smallest vertex, and on a balanced pattern (every column used
        d times) all of them, as each edge then lies inside a component.
        Like the block index, the result is built once per pattern.
        """
        n, d = self.n, self.d
        cols = self.row_cols.reshape(-1)
        rows = np.repeat(np.arange(n), d)
        root = np.full(n, n)  # each vertex's component by its smallest member; n if not placed
        while (live := root == n).any():
            start = np.append(np.where(live, np.arange(n), n), n)
            low = _least_label(start, rows, np.where(root[rows] == root[cols], cols, n))
            high = _least_label(start, cols, np.where(low[rows] == low[cols], rows, n))
            placed = live & (high == low)[:n]
            root[placed] = low[:n][placed]
        smallest, labels = np.unique(root, return_inverse=True)
        return len(smallest), labels

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


def _least_label(labels, owners, sources):
    """Fixed point of ``labels[o] = min(labels[o], labels[s])`` over the
    edges ``(o, s)`` of ``zip(owners, sources)``.  ``labels[-1]`` is a
    sentinel that an unused edge's source points at.  Each label is a vertex
    with a label no larger, so jumping to the label's label keeps the fixed
    point and shortens each chain it follows."""
    while True:
        new = labels.copy()
        np.minimum.at(new, owners, labels[sources])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


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
    """n x d int64 array of sorted rows, each of d distinct entries, whose
    union over rows is d random permutations of range(n); needs d <= n / 2.

    The d permutation layers are drawn independently.  Every repeated entry
    of a row is then switched away: for a repeat at (i, k) and a random
    partner row j, entries (i, k) and (j, k) swap when the value each row
    receives is absent from it.  A swap stays inside layer k, so each layer
    remains a permutation; it removes a repeat and never creates one.  Rows
    are paired by a fresh random perfect matching each round, slots 2m and
    2m + 1 of ``rng.permutation(n)``, so the swaps of a round touch disjoint
    rows and are applied together; a pair whose rows both have repeats
    switches the one in the even slot.  With d <= n / 2 every repeat has at
    least n - 2d + 3 valid partners, so the loop ends with probability one.

    Layer k is column k of an (n, d) array of keys v << s | k, shuffled
    in place: ``rng.shuffle`` makes the same draws on a strided column as on
    a row of n, so the layers are those of ``rng.permuted(layers, axis=1)``
    on d rows of ``range(n)``, with no tiled copy to transpose.  The keys
    are int64, for numpy's fast shuffle of pointer-sized items.  Repeats
    are found once, on the flat array of keys sorted within rows (by value,
    then by layer).  A round reaches the rows that still have repeats
    through the inverse of its matching, not by passing over all pairs.
    The sorted keys already hold the sorted rows; only the rows a swap
    touched are sorted again.

    How often value v occurs in row r is read off an n x n table of counts
    at dense degree, n <= _TABLE_RATIO * d, and found by scanning the row's
    d entries otherwise; both give the same counts, so the same swaps.  The
    table costs n^2 cells to clear and fill (4 * 10^6 for the 32 000 entries
    of n = 2000, d = 16), the scans about d^3 in all, d per query for the
    roughly d^2 / 2 repeats; the scans lose only when d is a sizeable
    fraction of n.  The rule also caps the table at _TABLE_RATIO cells per
    entry of the pattern.
    """
    s = (d - 1).bit_length()
    keys = (np.arange(n) << s)[:, None] | np.arange(d)
    for k in range(d):
        rng.shuffle(keys[:, k])
    cols = (keys >> s).astype(np.int32)  # the repair's row scans read half the bytes
    keys.sort(axis=1)
    keys = keys.reshape(-1)
    vals = keys >> s
    # Flat positions equal to their left neighbour, less those that start a row.
    at = np.flatnonzero(vals[1:] == vals[:-1]) + 1
    at = at[at % d != 0]
    rows = at // d
    # Row i's stack is stack[first[i]:first[i] + top[i]].
    stack = keys[at] & ((1 << s) - 1)
    top = np.bincount(rows, minlength=n)
    first = np.cumsum(top) - top
    if n <= _TABLE_RATIO * d:
        counts = np.zeros((n, n), dtype=np.min_scalar_type(d))
        counts[np.arange(n)[:, None], cols] = 1
        np.add.at(counts, (rows, vals[at]), 1)
        count = lambda r, v: counts[r, v]  # noqa: E731
    else:
        counts = None
        count = lambda r, v: (cols[r] == v[:, None]).sum(axis=1)  # noqa: E731
    slots, slot = np.arange(n), np.empty(n, dtype=np.intp)
    touched = np.zeros(n, dtype=bool)
    live = np.flatnonzero(top)
    while live.size:
        pairs = rng.permutation(n)
        slot[pairs] = slots
        other = slot[live] ^ 1  # the partner's slot, n for odd n's last one
        paired = other < n
        i, other = live[paired], other[paired]
        j = pairs[other]
        lead = (other % 2 == 1) | (top[j] == 0)
        i, j = i[lead], j[lead]
        k = stack[first[i] + top[i] - 1]
        c, v = cols[i, k], cols[j, k]
        # A stacked layer whose value is no longer repeated (its twin was
        # switched away as someone's partner) is dropped unswapped.
        stale = count(i, c) < 2
        ok = ~stale & (count(i, v) == 0) & (count(j, c) == 0)
        top[i] -= stale | ok
        # Entries that do not swap are written back as they were.
        cols[i, k], cols[j, k] = np.where(ok, v, c), np.where(ok, c, v)
        touched[i] |= ok
        touched[j] |= ok
        if counts is not None:  # the four (row, value) pairs are distinct
            i, j, c, v = i[ok], j[ok], c[ok], v[ok]
            counts[np.r_[i, j], np.r_[c, v]] -= 1
            counts[np.r_[i, j], np.r_[v, c]] += 1
        live = live[top[live] > 0]
    out = vals.reshape(n, d)
    redo = np.flatnonzero(touched)
    out[redo] = np.sort(cols[redo], axis=1)
    return out


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
