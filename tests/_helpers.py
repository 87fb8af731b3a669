"""Shared builders for small hand-crafted interaction matrices."""

import numpy as np

from sparselv import InteractionMatrix, block_permutation_pattern, full_pattern


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
