"""Lotka-Volterra dynamics, trajectory records and Jacobian stability.

The vector field is dx_k/dt = x_k (1 - x_k + (Mx)_k) with unit intrinsic
growth.  Integration uses the explicit adaptive Dormand-Prince 4(5)
Runge-Kutta pair, stepped in numpy with scipy's RK45 tables, initial step,
error norm, controller and dense output, so a run loads no scipy
integrator; the tests keep ``solve_ivp`` as the reference.  It sums in a
fixed numpy order, with no BLAS, so a seed gives the same bits on every
host.  The field is non-stiff in the regimes of interest (equilibrium
Jacobian eigenvalues are O(1) negative), so stiffness shows up as an
abort, never as silent degradation.  Each dense-output sample is folded
into the trajectory's per-sample statistics as the stepper makes it, so a
run keeps the full trace of only the species asked for.  Jacobian spectra are
computed one strongly connected component of the pattern at a time (for a
block-permutation pattern, one cycle of sigma at a time), split by the
pattern itself and solved by LAPACK's ``dgeev`` from scipy's ``_flapack``
extension, so they load no scipy subpackage either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interaction import InteractionMatrix, _load_extension

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
    """Per-sample abundance statistics of a run, and the sampled states of
    the species rows it kept."""

    times: np.ndarray
    states: np.ndarray  # (len(rows), len(times)): all n rows unless integrate_lv got rows
    min_series: np.ndarray
    max_series: np.ndarray
    mean_series: np.ndarray
    final_state: np.ndarray
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
    rows: np.ndarray | None = None,
) -> TrajectoryRecord:
    """Integrate the LV system over [0, t_end] with dense sampling at
    ``sample_count`` >= 2 uniform times, 0 and t_end included.

    Each sample is reduced as the stepper makes it into its min, max and
    mean and, when ``reference`` is given, its Euclidean distance to it.
    The sums add the species in order (``np.cumsum``; ``np.sum`` adds
    pairwise), as ``mean`` and ``norm`` along axis 0 of the whole states
    array do.  The last sample is the final state.  ``states`` keeps the species ``rows`` (all
    of them by default) at every sample; with a few rows a run holds no
    (n, samples) array.  A clearly negative state (beyond the integrator
    noise floor) or a step-size underflow aborts with
    :class:`IntegrationError`; the partial record is attached.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (M.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({M.n},)")
    if not np.isfinite(x0).all() or (x0 <= 0).any():
        raise ValueError("initial state must be finite and strictly positive")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != (M.n,):
            raise ValueError(f"reference has shape {reference.shape}, expected ({M.n},)")
        if not np.isfinite(reference).all():
            raise ValueError("reference must be finite")
    if rows is not None:
        rows = np.asarray(rows)
        if rows.size and not np.issubdtype(rows.dtype, np.integer):  # [] is float64
            raise ValueError(f"rows must hold integers, got {rows.dtype}")
        rows = rows.astype(np.intp)
        if rows.ndim != 1 or ((rows < 0) | (rows >= M.n)).any():
            raise ValueError(f"rows must be a list of species indices below {M.n}")
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not 0 <= abs_tol < np.inf:
        raise ValueError(f"abs_tol must be nonnegative and finite, got {abs_tol}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be at least 2, got {sample_count}")

    t_eval = np.linspace(0.0, t_end, sample_count)
    lo, hi, mean, distance = np.empty((4, sample_count))
    states = np.empty((M.n if rows is None else rows.size, sample_count))
    final_state = None

    def fold(j, y):
        nonlocal final_state
        lo[j], hi[j] = y.min(), y.max()
        mean[j] = np.cumsum(y)[-1] / M.n
        if reference is not None:
            diff = y - reference
            distance[j] = np.sqrt(np.cumsum(diff * diff)[-1])
        states[:, j] = y if rows is None else y[rows]
        final_state = y

    reached, t_stop = _dormand_prince(
        lambda x: lv_field(M, x), x0, float(t_end), rel_tol, abs_tol, t_eval, fold
    )
    record = None if not reached else TrajectoryRecord(
        times=t_eval[:reached].copy(),
        states=np.ascontiguousarray(states[:, :reached]),
        min_series=lo[:reached],
        max_series=hi[:reached],
        mean_series=mean[:reached],
        final_state=final_state,
        distance_series=None if reference is None else distance[:reached],
    )
    if t_stop < t_end:
        raise IntegrationError(
            f"integration aborted at t={t_stop:.5g}: Required step size is less "
            "than spacing between numbers.",
            record=record,
        )
    if record.min_series.min() < -10.0 * abs_tol:
        raise IntegrationError(
            f"persistent negative state (min {record.min_series.min():.3e}) encountered",
            record=record,
        )
    return record


# Dormand-Prince 5(4) tables (Dormand & Prince 1980) with Shampine's (1986)
# quartic dense output: the tables of scipy's RK45.  The field does not
# depend on t, so the stage times C are not needed.
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


def _rms(v):
    return np.sqrt(np.add.reduce(v * v) / v.size)


def _lincomb(coefs, terms):
    """Sum of coefs[k] * terms[k], added left to right by numpy ufuncs."""
    acc = coefs[0] * terms[0]
    for c, term in zip(coefs[1:], terms[1:]):
        acc += c * term
    return acc


def _dormand_prince(fun, y, t_bound, rtol, atol, t_eval, fold):
    """Integrate the autonomous y' = fun(y) from t = 0 to ``t_bound`` and
    sample the dense output at ``t_eval`` (sorted, within [0, t_bound]).

    The method is scipy's RK45 (the initial step of Hairer, Norsett &
    Wanner II.4, the RMS error norm, the controller with safety 0.9 and
    factors in [0.2, 10], a step cut whenever the error norm is not below 1,
    a NaN included), summed in a fixed numpy order, not in BLAS.  Each
    sample j is handed, in order, to ``fold(j, y)`` as a new length-n
    vector, the stages' weights for its time added stage by stage.  Returns
    the number of samples reached and the time the integration stopped at,
    which is below ``t_bound`` when the step fell under ten float spacings.
    """
    rtol = max(rtol, 100 * np.finfo(float).eps)
    f = fun(y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_bound)

    K = np.empty((7, y.size))
    t, done = 0.0, 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return done, t
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(y + _lincomb(_DP_A[s, :s], K) * h)
            y_new = y + h * _lincomb(_DP_B, K)
            K[-1] = f_new = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(_lincomb(_DP_E, K) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        upto = np.searchsorted(t_eval, t, side="right")
        if upto > done:
            powers = np.cumprod(np.tile((t_eval[done:upto] - t_old) / h, (4, 1)), axis=0)
            weights = _lincomb(_DP_P.T[:, :, None], powers)  # (stage, sample)
            for j in range(done, upto):
                fold(j, h * _lincomb(weights[:, j - done], K) + y_old)
            done = upto
    return done, t


@dataclass
class SpectrumReport:
    """Full spectrum of the LV Jacobian diag(x)(-I + M) at a point x."""

    eigenvalues: np.ndarray  # complex128, length n, grouped by component
    max_real_part: float
    localization_error: float
    components: int  # diagonal blocks solved (strongly connected components)


def jacobian_spectrum(M: InteractionMatrix, x: np.ndarray) -> SpectrumReport:
    """Eigenvalues of diag(x)(-I + M), one strongly connected block at a time.

    Ordered by the strongly connected components of M's pattern
    (``AdjacencyPattern.strong_components``), the Jacobian is block
    triangular, so its spectrum is the union of the spectra of the diagonal
    blocks x_I (M_II - I).  Each block is filled from ``row_cols`` and the
    weights in Fortran order, scaled in place and handed to LAPACK's
    ``dgeev`` to overwrite, so a block costs one dense copy of itself.
    ``eigenvalues`` lists the blocks' eigenvalues block by block.  The split
    reads the pattern, not the weights.  A block-permutation pattern has one
    block per cycle of sigma; a random general d-regular pattern with
    d >= 2 is almost always one block.

    ``localization_error`` is max over eigenvalues of min_k |lambda + x_k|:
    how far the spectrum strays from -diag(x).  ``dgeev`` comes from scipy's
    ``_flapack`` extension, loaded on the first call, so a spectrum run
    imports no scipy subpackage.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({M.n},)")
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ValueError("spectrum analysis expects a finite, strictly positive state")
    if M.n > DENSE_EIG_LIMIT:
        raise ValueError(f"n={M.n} exceeds dense eigensolver limit {DENSE_EIG_LIMIT}")
    count, labels = M.pattern.strong_components
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    place = np.empty(M.n, dtype=np.intp)  # each vertex's row in the ordered Jacobian
    place[order] = np.arange(M.n)
    parts = []
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        members = order[a:b]
        cols = M.pattern.row_cols[members]
        inside = labels[cols] == k
        block = np.zeros((b - a, b - a), order="F")
        # Columns are distinct, so one write; + 0.0 as adding into the zeros would.
        block[np.nonzero(inside)[0], place[cols[inside]] - a] = M.weights[members][inside] + 0.0
        block *= M.scale
        block[np.diag_indices(b - a)] -= 1.0
        block *= x[members, None]
        parts.append(_eigvals(block))
    eigenvalues = np.concatenate(parts)
    return SpectrumReport(
        eigenvalues=eigenvalues,
        max_real_part=float(eigenvalues.real.max()),
        localization_error=_localization_error(eigenvalues, x),
        components=int(count),
    )


def _eigvals(block: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Fortran-ordered float64 block, which is overwritten:
    the ``dgeev`` call, workspace query and assembly of
    ``scipy.linalg.eigvals(block, overwrite_a=True, check_finite=False)``."""
    flapack = _load_extension("linalg", "_flapack")
    work, info = flapack.dgeev_lwork(block.shape[0], compute_vl=0, compute_vr=0)
    if info == 0:
        wr, wi, _, _, info = flapack.dgeev(block, compute_vl=0, compute_vr=0,
                                           lwork=int(work), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeev failed with info={info}")
    return wr + 1j * wi


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
    to relative tolerance 1e-10 from a seeded start vector.  ``eigsh`` is
    imported here, as it loads ``scipy.linalg``."""
    from scipy.sparse.linalg import eigsh
    bsr = M._unscaled_bsr()
    S = M.scale * (bsr + bsr.T)
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
    ``floor`` over the whole window, or is positive at fewer than two
    samples; ``floor`` defaults to 100 * machine epsilon and should be raised
    to the integrator noise level when loose tolerances were used."""
    if tr.distance_series is None:
        raise ValueError("need a distance series: integrate with a reference")
    half = len(tr.times) // 2
    t_tail = tr.times[half:]
    d_tail = tr.distance_series[half:]
    if floor is None:
        floor = 100.0 * np.finfo(np.float64).eps
    keep = d_tail > 0.0
    if (d_tail < floor).all() or keep.sum() < 2:
        return None
    slope = np.polyfit(t_tail[keep], np.log(d_tail[keep]), 1)[0]
    return float(slope)
