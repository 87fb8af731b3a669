"""Lotka-Volterra dynamics, trajectory records and Jacobian stability.

The vector field is dx_k/dt = x_k (1 - x_k + (Mx)_k) with unit intrinsic
growth.  Integration uses an explicit adaptive embedded 4(5) Runge-Kutta
pair; the field is non-stiff in the regimes of interest (equilibrium
Jacobian eigenvalues are O(1) negative), so stiffness shows up as an
abort, never as silent degradation.  Jacobian spectra are computed one
strongly connected component of the pattern at a time (for a
block-permutation pattern, one cycle of sigma at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components
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
    """Sampled states with their per-time abundance statistics."""

    times: np.ndarray
    states: np.ndarray  # (n, len(times))
    min_series: np.ndarray
    max_series: np.ndarray
    mean_series: np.ndarray
    final_state: np.ndarray
    converged: bool
    distance_series: np.ndarray | None = None

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
    reference: np.ndarray | None = None,
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

    # Imported here: scipy.integrate (with scipy.optimize) is a third of the
    # package's import time, and no other path needs it.
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_end, max(2, sample_count))
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
    record = _make_record(M, sol.t, states, reference, abs_tol)
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


def _make_record(M, times, states, reference, abs_tol):
    if states.size == 0:
        raise IntegrationError("integrator produced no samples")
    final_state = states[:, -1]
    distance = None
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        distance = np.linalg.norm(states - reference[:, None], axis=0)
    return TrajectoryRecord(
        times=times.copy(),
        states=states,
        min_series=states.min(axis=0),
        max_series=states.max(axis=0),
        mean_series=states.mean(axis=0),
        final_state=final_state.copy(),
        converged=bool(np.max(np.abs(lv_field(M, final_state))) < abs_tol),
        distance_series=distance,
    )


@dataclass
class SpectrumReport:
    """Full spectrum of the LV Jacobian diag(x)(-I + M) at a point x."""

    eigenvalues: np.ndarray  # complex, length n, grouped by component
    max_real_part: float
    localization_error: float
    components: int  # diagonal blocks solved (strongly connected components)


def jacobian_spectrum(M: InteractionMatrix, x: np.ndarray) -> SpectrumReport:
    """Eigenvalues of diag(x)(-I + M), one strongly connected block at a time.

    Ordered by the strongly connected components of M's pattern, the
    Jacobian is block triangular, so its spectrum is the union of the
    spectra of the diagonal blocks x_I (M_II - I).  Each block gets its own
    dense eigensolve, and ``eigenvalues`` lists them block by block.  The
    split reads the pattern, not the weights.  A block-permutation pattern
    has one block per cycle of sigma; a random general d-regular pattern
    with d >= 2 is almost always one block.

    ``localization_error`` is max over eigenvalues of min_k |lambda + x_k|:
    how far the spectrum strays from -diag(x).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({M.n},)")
    if (x <= 0).any():
        raise ValueError("spectrum analysis expects a strictly positive state")
    if M.n > DENSE_EIG_LIMIT:
        raise ValueError(f"n={M.n} exceeds dense eigensolver limit {DENSE_EIG_LIMIT}")
    csr = M._unscaled_csr()
    count, labels = connected_components(csr, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    csr, xs = csr[order][:, order], x[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        block = M.scale * csr[a:b, a:b].toarray()
        block[np.diag_indices(b - a)] -= 1.0
        parts.append(np.linalg.eigvals(xs[a:b, None] * block))
    eigenvalues = np.concatenate(parts)
    return SpectrumReport(
        eigenvalues=eigenvalues,
        max_real_part=float(eigenvalues.real.max()),
        localization_error=_localization_error(eigenvalues, x),
        components=int(count),
    )


def _localization_error(eigenvalues: np.ndarray, x: np.ndarray) -> float:
    """The points -x_k lie on the real axis, so the nearest one to lambda
    is the nearest to Re(lambda): a binary search in the sorted -x, in
    O(n log n) time and O(n) memory."""
    targets = np.concatenate(([-np.inf], np.sort(-x), [np.inf]))
    re = eigenvalues.real
    right = np.searchsorted(targets, re)
    nearest = np.minimum(re - targets[right - 1], targets[right] - re)
    return float(np.max(np.hypot(nearest, eigenvalues.imag)))


@dataclass(frozen=True)
class StabilityCertificate:
    vl_stable_proxy: bool
    sym_max_eig: float


def stability_certificate(M: InteractionMatrix) -> StabilityCertificate:
    """Volterra-Liapunov proxy with identity weighting: M - I is certified
    stable when the largest eigenvalue of S = M + M^T is below 2.

    The eigenvalue comes from ARPACK's Lanczos solver on the sparse S, run
    to relative tolerance 1e-10 from a seeded start vector."""
    csr = M._unscaled_csr()
    S = M.scale * (csr + csr.T)
    if S.count_nonzero() == 0:
        return StabilityCertificate(vl_stable_proxy=True, sym_max_eig=0.0)
    if M.n == 1:  # ARPACK needs k < n
        lam = float(S.toarray()[0, 0])
    else:
        v0 = np.random.default_rng(0).standard_normal(M.n)
        lam = float(
            eigsh(S, k=1, which="LA", tol=1e-10, maxiter=10_000, v0=v0,
                  return_eigenvectors=False)[0]
        )
    return StabilityCertificate(vl_stable_proxy=bool(lam < 2.0), sym_max_eig=lam)


def convergence_rate(tr: TrajectoryRecord, floor: float | None = None) -> float | None:
    """Least-squares slope of log ||x(t) - x*|| over the final half of the
    trajectory, x* being the ``reference`` it was integrated with.  Returns
    None (converged-to-precision sentinel) when the distance sits below
    ``floor`` over the whole window; ``floor`` defaults to 100 * machine
    epsilon and should be raised to the integrator noise level when loose
    tolerances were used."""
    if tr.distance_series is None:
        raise ValueError("need a distance series: integrate with a reference")
    half = len(tr.times) // 2
    t_tail = tr.times[half:]
    d_tail = tr.distance_series[half:]
    if floor is None:
        floor = 100.0 * np.finfo(np.float64).eps
    if (d_tail < floor).all():
        return None
    keep = d_tail > 0.0
    slope = np.polyfit(t_tail[keep], np.log(d_tail[keep]), 1)[0]
    return float(slope)
