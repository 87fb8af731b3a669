"""Lotka-Volterra dynamics, trajectory records and Jacobian stability.

The vector field is dx_k/dt = x_k (1 - x_k + (Mx)_k) with unit intrinsic
growth.  Integration uses an explicit adaptive embedded 4(5) Runge-Kutta
pair; the field is non-stiff in the regimes of interest (equilibrium
Jacobian eigenvalues are O(1) negative), so stiffness shows up as an
abort, never as silent degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import eigsh

from .interaction import InteractionMatrix

__all__ = [
    "IntegrationError",
    "TrajectoryRecord",
    "SpectrumReport",
    "StabilityCertificate",
    "lv_field",
    "integrate_lv",
    "jacobian_spectrum",
    "stability_certificate",
    "convergence_rate",
]

DENSE_EIG_LIMIT = 4096


class IntegrationError(RuntimeError):
    """Integration aborted; ``record`` carries the partial trajectory."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


def lv_field(M: InteractionMatrix, x: np.ndarray) -> np.ndarray:
    """Right-hand side x * (1 - x + Mx)."""
    return x * (1.0 - x + M.matvec(x))


@dataclass
class TrajectoryRecord:
    """Per-time abundance statistics plus optional full-state data."""

    times: np.ndarray
    min_series: np.ndarray
    max_series: np.ndarray
    mean_series: np.ndarray
    final_state: np.ndarray
    converged: bool
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)
    distance_series: np.ndarray | None = None
    states: np.ndarray | None = None  # (n, len(times)) when kept

    def series_rows(self):
        """Rows ``t, min, max, mean[, dist]`` for CSV export."""
        cols = [self.times, self.min_series, self.max_series, self.mean_series]
        header = ["t", "min", "max", "mean"]
        if self.distance_series is not None:
            cols.append(self.distance_series)
            header.append("dist")
        return header, list(zip(*[c.tolist() for c in cols]))


def integrate_lv(
    M: InteractionMatrix,
    x0: np.ndarray,
    t_end: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    sample_count: int = 200,
    snapshot_times: tuple[float, ...] = (),
    reference: np.ndarray | None = None,
    keep_states: bool = False,
) -> TrajectoryRecord:
    """Integrate the LV system over [0, t_end] with dense sampling at
    ``sample_count`` uniform times.

    ``converged`` reports whether the sup norm of the vector field at the
    final state is below ``abs_tol`` (invariant under sampling density,
    unlike state differencing).  When ``reference`` is given, the Euclidean
    distance to it is recorded per sample.  A clearly negative state
    (beyond the integrator noise floor) or a step-size underflow aborts
    with :class:`IntegrationError`; the partial record is attached.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (M.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({M.n},)")
    if (x0 <= 0).any():
        raise ValueError("initial state must be strictly positive")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")

    t_eval = np.linspace(0.0, t_end, max(2, sample_count))
    if snapshot_times:
        extra = np.asarray(snapshot_times, dtype=np.float64)
        if ((extra < 0) | (extra > t_end)).any():
            raise ValueError("snapshot times must lie in [0, t_end]")
        t_eval = np.unique(np.concatenate([t_eval, extra]))

    sol = solve_ivp(
        lambda t, x: lv_field(M, x),
        (0.0, t_end),
        x0,
        method="RK45",
        t_eval=t_eval,
        rtol=rel_tol,
        atol=abs_tol,
    )
    states = sol.y  # (n, T)
    record = _make_record(
        M, sol.t, states, snapshot_times, reference, keep_states, abs_tol
    )
    if not sol.success:
        raise IntegrationError(
            f"integration aborted at t={sol.t[-1] if len(sol.t) else 0.0:.3g}: "
            f"{sol.message}",
            record=record,
        )
    if states.size and states.min() < -10.0 * abs_tol:
        raise IntegrationError(
            f"persistent negative state (min {states.min():.3e}) encountered",
            record=record,
        )
    return record


def _make_record(M, times, states, snapshot_times, reference, keep_states, abs_tol):
    if states.size == 0:
        raise IntegrationError("integrator produced no samples")
    final_state = states[:, -1]
    snapshots = {}
    for t in snapshot_times:
        j = int(np.argmin(np.abs(times - t)))
        snapshots[float(times[j])] = states[:, j].copy()
    distance = None
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        distance = np.linalg.norm(states - reference[:, None], axis=0)
    return TrajectoryRecord(
        times=times.copy(),
        min_series=states.min(axis=0),
        max_series=states.max(axis=0),
        mean_series=states.mean(axis=0),
        final_state=final_state.copy(),
        converged=bool(np.max(np.abs(lv_field(M, final_state))) < abs_tol),
        snapshots=snapshots,
        distance_series=distance,
        states=states.copy() if keep_states else None,
    )


@dataclass
class SpectrumReport:
    """Full spectrum of the LV Jacobian diag(x)(-I + M) at a point x."""

    eigenvalues: np.ndarray  # complex, length n
    max_real_part: float
    localization_error: float
    stability_margin_bound: float

    def eigenvalue_rows(self):
        header = ["re", "im"]
        rows = [(float(ev.real), float(ev.imag)) for ev in self.eigenvalues]
        return header, rows


def jacobian_spectrum(
    M: InteractionMatrix, x: np.ndarray, dense_limit: int = DENSE_EIG_LIMIT
) -> SpectrumReport:
    """Dense nonsymmetric eigendecomposition of diag(x)(-I + M).

    ``localization_error`` measures how far the spectrum strays from
    -diag(x): max over eigenvalues of min_k |lambda + x_k|.  The reported
    stability margin bound is -(1 - alpha_star/alpha) at this n.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({M.n},)")
    if (x <= 0).any():
        raise ValueError("spectrum analysis expects a strictly positive state")
    if M.n > dense_limit:
        raise ValueError(f"n={M.n} exceeds dense eigensolver limit {dense_limit}")
    jac = x[:, None] * (-np.eye(M.n) + M.dense())
    eigenvalues = np.linalg.eigvals(jac)
    loc = float(np.max(np.min(np.abs(eigenvalues[:, None] + x[None, :]), axis=1)))
    alpha_star = math.sqrt(2.0 * math.log(M.n)) if M.n >= 2 else 0.0
    return SpectrumReport(
        eigenvalues=eigenvalues,
        max_real_part=float(eigenvalues.real.max()),
        localization_error=loc,
        stability_margin_bound=-(1.0 - alpha_star / M.alpha),
    )


@dataclass(frozen=True)
class StabilityCertificate:
    vl_stable_proxy: bool
    sym_max_eig: float


def stability_certificate(
    M: InteractionMatrix, tol: float = 1e-10, max_iter: int = 10_000
) -> StabilityCertificate:
    """Volterra-Liapunov proxy with identity weighting: M - I is certified
    stable when the largest eigenvalue of S = M + M^T is below 2.

    The eigenvalue comes from ARPACK's Lanczos solver on the sparse S
    (``tol`` and ``max_iter`` are passed on), from a seeded start vector."""
    csr = M._unscaled_csr()
    S = M.scale * (csr + csr.T)
    if S.count_nonzero() == 0:
        return StabilityCertificate(vl_stable_proxy=True, sym_max_eig=0.0)
    if M.n == 1:  # ARPACK needs k < n
        lam = float(S.toarray()[0, 0])
    else:
        v0 = np.random.default_rng(0).standard_normal(M.n)
        lam = float(
            eigsh(S, k=1, which="LA", tol=tol, maxiter=max_iter, v0=v0,
                  return_eigenvectors=False)[0]
        )
    return StabilityCertificate(vl_stable_proxy=bool(lam < 2.0), sym_max_eig=lam)


def convergence_rate(
    tr: TrajectoryRecord,
    x_star: np.ndarray | None = None,
    floor: float | None = None,
) -> float | None:
    """Least-squares slope of log ||x(t) - x*|| over the final half of the
    trajectory.  Returns None (converged-to-precision sentinel) when the
    distance sits below ``floor`` over the whole window; ``floor`` defaults
    to 100 * machine epsilon and should be raised to the integrator noise
    level when loose tolerances were used."""
    if tr.distance_series is not None:
        dist = tr.distance_series
    elif tr.states is not None and x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64)
        dist = np.linalg.norm(tr.states - x_star[:, None], axis=0)
    else:
        raise ValueError("need a distance series or kept states plus x_star")
    half = len(tr.times) // 2
    t_tail = tr.times[half:]
    d_tail = dist[half:]
    if floor is None:
        floor = 100.0 * np.finfo(np.float64).eps
    if (d_tail < floor).all():
        return None
    keep = d_tail > 0.0
    slope = np.polyfit(t_tail[keep], np.log(d_tail[keep]), 1)[0]
    return float(slope)
