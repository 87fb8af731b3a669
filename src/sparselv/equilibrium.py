"""Feasibility solves and nonnegative saturated equilibria.

The linear equilibrium x = 1 + Mx is solved by Neumann fixed-point
iteration (geometric convergence exactly when the spectral radius of M
is below 1) and decomposed as x = 1 + Z/alpha + R/alpha^2, where Z
collects the first-order Gaussian terms (i.i.d. N(0,1) by construction)
and R the higher Neumann orders.  The solve binds one compiled product,
``bsr_matvec``, once (``InteractionMatrix.bound_kernel``), and each
iteration calls it into one of three buffers allocated per solve: the
loop allocates nothing and reads no property of the matrix.
The nonnegative saturated equilibrium of the complementarity system is
found either by support pivoting or as the long-time ODE limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .interaction import InteractionMatrix

__all__ = [
    "DivergenceError",
    "EquilibriumError",
    "EquilibriumReport",
    "GumbelConstants",
    "SaturatedEquilibrium",
    "solve_feasibility",
    "neumann_summand",
    "gumbel_constants",
    "extreme_value_stat",
    "saturated_equilibrium",
]

# Species below this abundance after ODE quiescence are treated as extinct.
ODE_EXTINCTION_CUTOFF = 1e-6


class DivergenceError(RuntimeError):
    """Neumann iteration diverged; the spectral radius of M is >= 1."""


class EquilibriumError(RuntimeError):
    """A saturated-equilibrium KKT check failed, or ``solve``'s Neumann solve hit max_iter."""


@dataclass
class EquilibriumReport:
    """Solution of x = 1 + Mx with its Gaussian/remainder decomposition.

    ``Z`` (the row sums of mask*A / sqrt(d)), ``R`` = alpha^2 (x - 1 -
    Z/alpha), formed in one buffer, ``min_Z`` and ``residual_inf`` =
    ||x - 1 - Mx||_inf are computed from the read-only ``x`` and ``M`` on
    first read, then cached: a trial that reads only ``x`` pays for no row
    sum and no extra product.  They reflect ``M`` as it is when first read,
    so reassigning its ``alpha`` or writing the array its ``weights`` view
    was made from before then makes them disagree with ``x``.
    """

    x: np.ndarray
    feasible: bool
    min_x: float
    argmin: int
    solver_iterations: int
    converged: bool
    M: InteractionMatrix = field(repr=False, compare=False)

    @cached_property
    def Z(self) -> np.ndarray:
        return self.M.row_sums_unscaled()

    @cached_property
    def R(self) -> np.ndarray:
        r = self.x - 1.0
        r -= self.Z / self.M.alpha
        r *= self.M.alpha * self.M.alpha
        return r

    @cached_property
    def min_Z(self) -> float:
        return float(self.Z.min())

    @cached_property
    def residual_inf(self) -> float:
        return float(np.max(np.abs(self.x - 1.0 - self.M.matvec(self.x))))


@dataclass(frozen=True)
class GumbelConstants:
    """Normalizing constants for the minimum of n i.i.d. standard normals."""

    n: int
    alpha_star: float
    beta_star: float


@dataclass
class SaturatedEquilibrium:
    """Nonnegative equilibrium with surviving/vanished species partition."""

    x: np.ndarray
    survivors: np.ndarray  # sorted indices with x_k > 0
    complementarity_residual: float
    kkt_violation: float
    method: str


def solve_feasibility(
    M: InteractionMatrix,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> EquilibriumReport:
    """Neumann iteration x <- 1 + Mx from x = 1 until the sup-norm
    residual ||x - 1 - Mx|| drops below ``tol``.

    Raises :class:`DivergenceError` when the residual is not finite or has
    not beaten its best value for 20 iterations (signals a spectral radius
    of M >= 1; a residual that oscillates, as under a complex leading
    eigenvalue, is caught too).  If ``tol`` is not reached within
    ``max_iter`` the report is returned with ``converged=False``; ``x`` is
    always finite.  Raises ValueError for a ``tol`` that is not positive
    and finite or a ``max_iter`` below 1.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    kernel, scale = M.bound_kernel(), M.scale
    subtract, absolute, largest = np.subtract, np.abs, np.maximum.reduce
    # x is the iterate, y takes the next one, and step their difference;
    # x and y swap each iteration.
    x, y, step = np.ones(M.n), np.empty(M.n), np.empty(M.n)
    best = math.inf
    stalled = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        # y = 1 + Mx with the operations of 1 + M.matvec(x), so the same bits.
        y.fill(0.0)
        kernel(x, y)
        y *= scale
        y += 1.0
        subtract(y, x, out=step)
        residual = float(largest(absolute(step, out=step)))
        stalled = 0 if residual < best else stalled + 1
        best = min(best, residual)
        if not math.isfinite(residual) or stalled >= 20:
            raise DivergenceError(
                f"Neumann residual {residual:.3e} at iteration {iterations} "
                f"(best {best:.3e}, not beaten for {stalled} iterations); "
                "spectral radius of M is >= 1"
            )
        x, y = y, x
        if residual <= tol:
            converged = True
            break

    x.setflags(write=False)
    argmin = int(np.argmin(x))
    min_x = float(x[argmin])
    return EquilibriumReport(
        x=x,
        feasible=bool(min_x > 0.0),
        min_x=min_x,
        argmin=argmin,
        solver_iterations=iterations,
        converged=converged,
        M=M,
    )


def neumann_summand(M: InteractionMatrix, k: int, l: int) -> float:
    """Order-l Neumann term rho_{k,l} = e_k^T (B/alpha)^(l-2) B^2 1 / d^(l/2)
    with B the raw masked matrix; the partial sums over l >= 2 converge to
    R_k.  Diagnostic only; computed by l successive sparse products."""
    if l < 2:
        raise ValueError(f"order must be >= 2, got {l}")
    if not (0 <= k < M.n):
        raise ValueError(f"index {k} out of range [0, {M.n})")
    inv_sqrt_d = 1.0 / math.sqrt(M.d)
    v = np.ones(M.n)
    for _ in range(l):
        v = inv_sqrt_d * M.unscaled_product(v, np.empty(M.n))
    return float(v[k]) / M.alpha ** (l - 2)


def gumbel_constants(n: int) -> GumbelConstants:
    """Centering/scaling sequences for the minimum of n i.i.d. N(0,1):
    alpha_star = sqrt(2 log n), beta_star = alpha_star -
    log(4 pi log n) / (2 alpha_star)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    log_n = math.log(n)
    alpha_star = math.sqrt(2.0 * log_n)
    beta_star = alpha_star - math.log(4.0 * math.pi * log_n) / (2.0 * alpha_star)
    return GumbelConstants(n=n, alpha_star=alpha_star, beta_star=beta_star)


def extreme_value_stat(Z: np.ndarray, g: GumbelConstants) -> float:
    """Normalized minimum alpha_star * (min Z + beta_star); its limit law
    has survival function G(x) = exp(-exp(-x))."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape != (g.n,):
        raise ValueError(f"Z has shape {Z.shape}, expected ({g.n},)")
    return float(g.alpha_star * (Z.min() + g.beta_star))


def _checked_saturated(
    x: np.ndarray, M_dense: np.ndarray, tol: float, method: str
) -> SaturatedEquilibrium:
    Mx = M_dense @ x
    comp = float(np.max(np.abs(x * (1.0 - x + Mx))))
    extinct = x == 0.0
    if extinct.any():
        kkt = float(np.maximum(0.0, 1.0 + Mx[extinct]).max())
    else:
        kkt = 0.0
    if comp > tol or kkt > tol:
        raise EquilibriumError(
            f"saturated equilibrium checks failed (method={method}): "
            f"complementarity {comp:.3e}, kkt {kkt:.3e}, tol {tol:.1e}"
        )
    return SaturatedEquilibrium(
        x=x,
        survivors=np.flatnonzero(x > 0.0),
        complementarity_residual=comp,
        kkt_violation=kkt,
        method=method,
    )


def _refine_support(M_dense: np.ndarray, support: np.ndarray) -> np.ndarray | None:
    """Principal pivoting on the survivor support: solve the linear system
    on the current support, drop every species with a nonpositive value,
    then re-admit extinct species whose invasion rate 1 + (Mx)_k is
    positive.  Returns x at a consistent support, or None when the support
    empties or 200 rounds pass without settling."""
    n = M_dense.shape[0]
    support = support.copy()
    for _ in range(200):
        idx = np.flatnonzero(support)
        if idx.size == 0:
            return None
        sub = np.eye(idx.size) - M_dense[np.ix_(idx, idx)]
        x_sub = np.linalg.solve(sub, np.ones(idx.size))
        bad = x_sub <= 0.0
        if bad.any():
            support[idx[bad]] = False
            continue
        x = np.zeros(n)
        x[idx] = x_sub
        invade = ~support & (1.0 + M_dense @ x > 0.0)
        if not invade.any():
            return x
        support |= invade
    return None


def _ode_limit_support(M: InteractionMatrix, tol: float) -> np.ndarray:
    """Indices of the species above the extinction cutoff once the
    dynamics from x0 = 1/2 are quiescent, at t = 500, or as soon as a
    species reaches 0 (integration needs a strictly positive state).
    Raises :class:`EquilibriumError` when the dynamics blow up."""
    from .dynamics import IntegrationError, integrate_lv, lv_field

    quiescence = max(tol, 1e-10)
    x0 = np.full(M.n, 0.5)
    t = 0.0
    chunk = 50.0
    while t < 500.0:
        try:
            tr = integrate_lv(M, x0, chunk, sample_count=2, rows=[])
        except IntegrationError as exc:
            raise EquilibriumError(f"ode_limit: the dynamics from x0 = 1/2 failed: {exc}") from exc
        x0 = tr.final_state
        t += chunk
        if (x0 <= 0.0).any() or np.max(np.abs(lv_field(M, x0))) < quiescence:
            break
    return np.flatnonzero(x0 >= ODE_EXTINCTION_CUTOFF)


def saturated_equilibrium(
    M: InteractionMatrix,
    tol: float = 1e-10,
    method: str = "pivoting",
) -> SaturatedEquilibrium:
    """Unique nonnegative equilibrium of the complementarity system
    x_k (1 - x_k + (Mx)_k) = 0, x >= 0.

    ``method="pivoting"`` refines the survivor support directly, starting
    from all species;
    ``method="ode_limit"`` integrates the dynamics from the all-1/2 state
    until quiescence and reads the support off the limit (species below
    the extinction cutoff are dropped), then refines it the same way.
    Both routes verify the complementarity residual and the invasion (KKT)
    condition for extinct species.  They raise :class:`EquilibriumError`
    when a check fails, when the refinement does not settle, or when the
    dynamics blow up; neither falls back to the other.
    """
    if method not in ("pivoting", "ode_limit"):
        raise ValueError(f"unknown method {method!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    M_dense = M.dense()
    if method == "pivoting":
        start = np.ones(M.n, dtype=bool)
    else:
        start = np.zeros(M.n, dtype=bool)
        start[_ode_limit_support(M, tol)] = True
    x = _refine_support(M_dense, start)
    if x is None:
        hint = '; method="ode_limit" starts from the dynamics' if method == "pivoting" else ""
        raise EquilibriumError(f"support refinement did not settle (method={method}){hint}")
    return _checked_saturated(x, M_dense, tol, method)
