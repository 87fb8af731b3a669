"""Shared builders for small hand-crafted interaction matrices."""

import numpy as np
from hypothesis import strategies as st

from sparselv import (
    AdjacencyPattern,
    InteractionMatrix,
    PatternModel,
    assemble,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
)


def forced(pattern, weights, alpha=1.0):
    """Interaction matrix with explicitly chosen weights."""
    return InteractionMatrix(
        pattern=pattern,
        weights=np.asarray(weights, dtype=np.float64),
        alpha=alpha,
    )


def off_diagonal_2x2(c, alpha=1.0):
    """Realized matrix [[0, c], [c, 0]] (swap pattern, d = 1)."""
    pattern = block_permutation_pattern(2, 1, [1, 0])
    # d = 1 so scale = 1/alpha; weights are the realized values times alpha.
    return forced(pattern, [[c * alpha], [c * alpha]], alpha)


def rotation_2x2(r, theta, alpha=1.0):
    """Realized matrix r * R(theta), R the rotation by theta (full pattern, d = 2)."""
    c, s = np.cos(theta), np.sin(theta)
    realized = r * np.array([[c, -s], [s, c]])
    # scale = 1/(alpha sqrt(2)); weights are the realized values times alpha sqrt(d).
    return forced(full_pattern(2), realized * alpha * np.sqrt(2.0), alpha)


def upper_2x2(c, alpha=1.0):
    """Realized matrix [[0, c], [0, 0]] padded on the swap pattern."""
    pattern = block_permutation_pattern(2, 1, [1, 0])
    return forced(pattern, [[c * alpha], [0.0]], alpha)


def zero_matrix(n, alpha=1.0):
    """Full pattern with every weight forced to zero."""
    return forced(full_pattern(n), np.zeros((n, n)), alpha)


def ones_full(n, alpha=1.0):
    """Full pattern with every weight forced to one."""
    return forced(full_pattern(n), np.ones((n, n)), alpha)


@st.composite
def split_cases(draw, max_n=60):
    """``(pattern, balanced)``: a block pattern (identity sigma and m = 1
    included), a general d-regular one (d = 1 and the complement branch
    d > n / 2 included), or a hand-built unbalanced one: d <= n distinct
    random columns per row, sorted, which, kept on or above the diagonal
    where d allows, split it into many components."""
    kind = draw(st.sampled_from(["block", "general", "unbalanced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "block":
        m, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
        sigma = np.arange(m) if draw(st.booleans()) else rng.permutation(m)
        return block_permutation_pattern(m, d, sigma), True
    n = draw(st.integers(1, max_n))
    if kind == "general":
        d = draw(st.one_of(st.just(1), st.integers(n // 2 + 1, n), st.integers(1, n)))
        return general_regular_pattern(n, d, rng_seed=int(rng.integers(2**32))), True
    d = draw(st.integers(1, min(4, n)))
    keys = rng.random((n, n))  # each row's d smallest keys pick its columns
    if draw(st.booleans()):  # columns left of min(i, n - d) never make row i's cut
        keys += np.arange(n) < np.minimum(np.arange(n), n - d)[:, None]
    row_cols = np.sort(np.argsort(keys, axis=1)[:, :d], axis=1)
    return AdjacencyPattern(n, d, PatternModel.GENERAL_REGULAR, row_cols), False


@st.composite
def small_matrices(draw):
    """Block-permutation or general d-regular draws with n <= 200, from
    contracting to divergent."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        m, d = draw(st.integers(1, 20)), draw(st.integers(1, 10))
        sigma = np.random.default_rng(seed).permutation(m)
        pattern = block_permutation_pattern(m, d, sigma)
    else:
        n = draw(st.integers(1, 200))
        pattern = general_regular_pattern(n, draw(st.integers(1, n)), rng_seed=seed)
    return assemble(pattern, alpha=draw(st.floats(0.5, 6.0)), seed=seed)
