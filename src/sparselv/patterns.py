"""Deterministic d-regular adjacency patterns.

A pattern is the 0/1 sparsity mask of the interaction matrix: a directed
d-regular graph on n vertices, stored as the sorted column indices of the
d nonzero positions in each row.  Three constructions are provided: the
block-permutation pattern (a permutation of m dense d x d blocks), a
general d-regular pattern built by superposing d random permutations, and
the full pattern (d = n).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PatternModel",
    "Permutation",
    "AdjacencyPattern",
    "RegularityReport",
    "block_permutation_pattern",
    "general_regular_pattern",
    "proportional_pattern",
    "full_pattern",
    "validate_regularity",
    "pattern_text",
    "save_pattern",
    "load_pattern",
]


class PatternModel(enum.Enum):
    BLOCK_PERMUTATION = "block_permutation"
    PROPORTIONAL = "proportional"
    GENERAL_REGULAR = "general_regular"
    FULL = "full"


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., m-1}, stored as the image sequence."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = len(self.mapping)
        if m == 0:
            raise ValueError("empty permutation")
        if sorted(self.mapping) != list(range(m)):
            raise ValueError(
                f"mapping is not a bijection of range({m}): {self.mapping}"
            )

    @property
    def m(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(m)))

    @classmethod
    def random(cls, m: int, rng: np.random.Generator) -> "Permutation":
        return cls(tuple(int(i) for i in rng.permutation(m)))

    def __call__(self, i: int) -> int:
        return self.mapping[i]


@dataclass(frozen=True)
class AdjacencyPattern:
    """Sparsity mask of a directed d-regular graph on n vertices.

    ``row_cols[i]`` holds the d column indices of row i, sorted ascending,
    so the position set is canonical (row-major) and two patterns are equal
    iff their ``row_cols`` arrays are equal.  Immutable after construction.
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

    @property
    def nnz(self) -> int:
        return self.n * self.d

    def dense(self) -> np.ndarray:
        """Expand to a dense 0/1 array (intended for small n)."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        rows = np.repeat(np.arange(self.n), self.d)
        out[rows, self.row_cols.ravel()] = 1
        return out

    def positions(self) -> set[tuple[int, int]]:
        rows = np.repeat(np.arange(self.n), self.d)
        return set(zip(rows.tolist(), self.row_cols.ravel().tolist()))

    def __eq__(self, other):
        if not isinstance(other, AdjacencyPattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.row_cols, other.row_cols)
        )

    def __hash__(self):
        return hash((self.n, self.d, self.row_cols.tobytes()))


@dataclass(frozen=True)
class RegularityReport:
    row_degrees_ok: bool
    col_degrees_ok: bool
    nnz: int


def block_permutation_pattern(m: int, d: int, sigma: Permutation) -> AdjacencyPattern:
    """Pattern P_sigma (x) J_d: block (i, j) of size d x d is all ones iff
    j = sigma(i).  The result is d-regular of size n = m * d."""
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    if sigma.m != m:
        raise ValueError(f"permutation is over [{sigma.m}], expected [{m}]")
    n = m * d
    row_cols = np.empty((n, d), dtype=np.int64)
    base = np.arange(d, dtype=np.int64)
    for i in range(m):
        j = sigma(i)
        row_cols[i * d : (i + 1) * d, :] = j * d + base
    model = PatternModel.FULL if m == 1 else PatternModel.BLOCK_PERMUTATION
    return AdjacencyPattern(
        n=n, d=d, model=model, row_cols=row_cols, meta={"sigma": sigma, "m": m}
    )


def full_pattern(n: int) -> AdjacencyPattern:
    """All n^2 positions present (d = n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    row_cols = np.tile(np.arange(n, dtype=np.int64), (n, 1))
    return AdjacencyPattern(n=n, d=n, model=PatternModel.FULL, row_cols=row_cols)


def _cyclic_pattern(n: int, d: int) -> np.ndarray:
    # Systematic fallback: row i points at i, i+1, ..., i+d-1 (mod n).
    shifts = np.arange(d, dtype=np.int64)
    row_cols = (np.arange(n, dtype=np.int64)[:, None] + shifts[None, :]) % n
    row_cols.sort(axis=1)
    return row_cols


def general_regular_pattern(
    n: int, d: int, rng_seed: int, max_resamples: int = 200
) -> AdjacencyPattern:
    """d-regular pattern from the superposition of d random permutations.

    Permutations are resampled until their supports are pairwise disjoint,
    so the union has exactly n*d distinct positions and is d-regular by
    construction.  Deterministic given (n, d, rng_seed).  If the resample
    budget runs out (d close to n makes disjoint draws unlikely) the
    pattern falls back to cyclic shifts, recorded in ``meta``.
    """
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = np.random.default_rng(rng_seed)
    cols = np.full((n, d), -1, dtype=np.int64)
    used = np.zeros((n, n), dtype=bool) if n <= 4096 else None
    fallback = False
    for k in range(d):
        placed = False
        for _ in range(max_resamples):
            p = rng.permutation(n)
            if used is not None:
                clash = used[np.arange(n), p].any()
            else:
                clash = any(p[i] in cols[i, :k] for i in range(n))
            if not clash:
                cols[:, k] = p
                if used is not None:
                    used[np.arange(n), p] = True
                placed = True
                break
        if not placed:
            fallback = True
            break
    if fallback:
        row_cols = _cyclic_pattern(n, d)
        meta = {"method": "cyclic_fallback"}
    else:
        row_cols = np.sort(cols, axis=1)
        meta = {"method": "permutation_superposition"}
    return AdjacencyPattern(
        n=n,
        d=d,
        model=PatternModel.GENERAL_REGULAR,
        row_cols=row_cols,
        seed=rng_seed,
        meta=meta,
    )


def proportional_pattern(n: int, beta: float, rng_seed: int) -> AdjacencyPattern:
    """Dense-degree regime: d = round(beta * n), built like
    :func:`general_regular_pattern` but tagged as the proportional model."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"need 0 < beta <= 1, got {beta}")
    d = max(1, round(beta * n))
    base = general_regular_pattern(n, d, rng_seed)
    return AdjacencyPattern(
        n=n,
        d=d,
        model=PatternModel.PROPORTIONAL,
        row_cols=base.row_cols,
        seed=rng_seed,
        meta={**base.meta, "beta": beta},
    )


def validate_regularity(p: AdjacencyPattern) -> RegularityReport:
    """Count nonzeros per row and column; pure check, never raises."""
    rc = p.row_cols
    row_ok = all(len(set(rc[i].tolist())) == p.d for i in range(p.n))
    col_counts = np.bincount(rc.ravel(), minlength=p.n)
    col_ok = bool((col_counts == p.d).all())
    nnz = int(len(set(zip(np.repeat(np.arange(p.n), p.d).tolist(), rc.ravel().tolist()))))
    return RegularityReport(row_degrees_ok=row_ok, col_degrees_ok=col_ok, nnz=nnz)


def pattern_text(p: AdjacencyPattern) -> str:
    """Compact text export: header ``n d model seed``, then one line per
    row with its column indices ascending (zero-based)."""
    seed = "-" if p.seed is None else str(p.seed)
    lines = [f"{p.n} {p.d} {p.model.value} {seed}"]
    for i in range(p.n):
        lines.append(" ".join(str(int(c)) for c in p.row_cols[i]))
    return "\n".join(lines) + "\n"


def save_pattern(p: AdjacencyPattern, path) -> None:
    with open(path, "w") as f:
        f.write(pattern_text(p))


def load_pattern(path) -> AdjacencyPattern:
    """Inverse of :func:`save_pattern`; bit-exact round trip of the
    position set (generation metadata other than the seed is not kept)."""
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4:
            raise ValueError(f"malformed pattern header: {header}")
        n, d = int(header[0]), int(header[1])
        model = PatternModel(header[2])
        seed = None if header[3] == "-" else int(header[3])
        row_cols = np.empty((n, d), dtype=np.int64)
        for i in range(n):
            row = f.readline().split()
            if len(row) != d:
                raise ValueError(f"row {i} has {len(row)} entries, expected {d}")
            row_cols[i] = [int(c) for c in row]
    return AdjacencyPattern(n=n, d=d, model=model, row_cols=row_cols, seed=seed)
