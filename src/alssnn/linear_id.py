"""Linear state-space identification: FIR least squares plus Ho-Kalman.

Used both to initialize the nonlinear models and as the LTI comparison
baseline. The pipeline is deterministic: estimate impulse-response (Markov)
matrices by least squares, then realize (A, B, C) from the SVD of a block
Hankel matrix. The realization is balanced, so raw matrices are only defined
up to similarity; compare Markov parameters, never entries.

The module only identifies. It free-runs models with `models.simulate`; the
least-squares refit of B steps its unit-input runs, one n x (n*m) state
block that is no model, on `models._step_engine` directly.
"""

from __future__ import annotations

import numpy as np

from .dataio import Dataset
from .errors import DataError, DivergenceError, NumericalError
from .models import LinearSS, _run_states, _step_engine, simulate

__all__ = ["estimate_markov", "ho_kalman", "linear_init", "default_horizon"]

# Relative singular-value threshold below which Hankel directions count as rank-deficient.
_RANK_RTOL = 1e-10

# Decay prior used when the FIR regressor is rank deficient: among the fits
# that explain the data equally well, prefer impulse responses shrinking by
# this factor per lag so the realization comes out stable.
_RIDGE_DECAY = 0.8
_RIDGE_REL = 1e-4

# A record counts as input-blind when the FIR-route model's free run fails to
# explain even this fraction of the centered output RMS: there is then no
# usable linear u -> y component (e.g. the plant only responds to even powers
# of a zero-mean input) and the realization is rebuilt from the output's own
# dynamics instead.
_BLIND_RMSE_FRACTION = 0.9

# Spectral-radius budget for that output-dynamics realization: resonant but
# decidedly fading, so downstream training starts from a short-memory core
# that must derive the output from the input rather than self-oscillate.
_OUTPUT_MODE_CAP = 0.90


def default_horizon(n: int) -> int:
    return max(20, 5 * n)


def estimate_markov(ds: Dataset, horizon: int) -> list[np.ndarray]:
    """Estimate FIR/Markov matrices G_1..G_L by one-step least squares.

    Fits y(k) = sum_i G_i u(k-i) over k = L..N-1 with the zero-initial-
    condition convention (G_0 = 0, no direct feedthrough). When the lagged
    regressor is rank deficient (narrow-band excitation, e.g. a few
    sinusoids), the plain solve is underdetermined; a decay-weighted ridge
    then resolves the ambiguity: it keeps the one-step fit on the excited
    subspace but selects the geometrically decaying impulse response, so a
    stable realization exists downstream.
    """
    if horizon < 1:
        raise DataError(f"horizon must be positive, got {horizon}")
    N, m = ds.u.shape
    p = ds.y.shape[1]
    L = horizon
    if N <= L * m + 10:
        raise DataError(
            f"need more than L*m + 10 = {L * m + 10} samples for horizon {L}, got {N}"
        )
    # Regressor row k: [u(k-1); u(k-2); ...; u(k-L)]
    rows = N - L
    Phi = np.empty((rows, L * m))
    for i in range(1, L + 1):
        Phi[:, (i - 1) * m : i * m] = ds.u[L - i : N - i]
    Y = ds.y[L:]
    theta, _, rank, sv = np.linalg.lstsq(Phi, Y, rcond=None)
    if rank < L * m:
        gram = Phi.T @ Phi
        alpha = _RIDGE_REL * np.trace(gram) / (L * m)
        if alpha <= 0.0:
            raise NumericalError("FIR regressor is identically zero")
        weights = np.repeat(_RIDGE_DECAY ** (-np.arange(1, L + 1, dtype=float)), m)
        theta = np.linalg.solve(gram + alpha * np.diag(weights**2), Phi.T @ Y)
    return [theta[(i - 1) * m : i * m, :].T.copy() for i in range(1, L + 1)]


def _block_hankel(markov: list[np.ndarray], rows: int, cols: int, shift: int) -> np.ndarray:
    p, m = markov[0].shape
    H = np.empty((rows * p, cols * m))
    for i in range(rows):
        for j in range(cols):
            H[i * p : (i + 1) * p, j * m : (j + 1) * m] = markov[i + j + shift]
    return H


def ho_kalman(markov: list[np.ndarray], n: int) -> LinearSS:
    """Balanced realization of order n from Markov matrices (ERA style).

    Builds the L/2 x L/2 block Hankel of G_1.., takes its SVD, and reads
    (A, B, C) off the shifted Hankel. Raises when the requested order
    exceeds the numerical rank, reporting the singular-value spectrum.
    """
    if n < 1:
        raise DataError(f"model order must be positive, got {n}")
    L = len(markov)
    r = s = L // 2
    if r < 1 or r + s > L:
        raise DataError(f"need at least 2 Markov matrices, got {L}")
    markov = [np.atleast_2d(np.asarray(G, dtype=float)) for G in markov]
    H0 = _block_hankel(markov, r, s, shift=0)   # G_{i+j-1}
    H1 = _block_hankel(markov, r, s, shift=1)   # G_{i+j}
    U, sv, Vt = np.linalg.svd(H0, full_matrices=False)
    if sv[0] <= 0.0:
        raise NumericalError(
            f"Hankel matrix has rank 0; singular values: {sv.tolist()}"
        )
    rank = int(np.sum(sv > sv[0] * _RANK_RTOL))
    if n > rank:
        raise NumericalError(
            f"requested order {n} exceeds numerical rank {rank}; "
            f"singular values: {sv[: max(n + 2, 8)].tolist()}"
        )
    sqrt_s = np.sqrt(sv[:n])
    Un = U[:, :n]
    Vn = Vt[:n, :].T
    obs = Un * sqrt_s            # r*p x n observability factor
    ctr = (Vn * sqrt_s).T        # n x s*m controllability factor
    A = (Un / sqrt_s).T @ H1 @ (Vn / sqrt_s)
    p, m = markov[0].shape
    B = ctr[:, :m]
    C = obs[:p, :]
    return LinearSS(A=A, B=B, C=C)


def _is_output_blind(lin: LinearSS, ds: Dataset) -> bool:
    yc = ds.y - ds.y.mean(axis=0, keepdims=True)
    rms = float(np.sqrt(np.mean(np.sum(yc**2, axis=1))))
    if rms < 1e-12:
        return False
    traj = simulate(lin, ds.u)
    _run_states(traj)
    err = ds.y - traj.y
    err_rms = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    return err_rms >= _BLIND_RMSE_FRACTION * rms


def _autocovariances(y: np.ndarray, count: int) -> list[np.ndarray]:
    """Output autocovariance matrices for lags 1..count."""
    yc = y - y.mean(axis=0, keepdims=True)
    N = yc.shape[0]
    return [yc[tau:].T @ yc[: N - tau] / N for tau in range(1, count + 1)]


def _fit_input_matrix(A: np.ndarray, C: np.ndarray, ds: Dataset) -> np.ndarray:
    """Least-squares B for fixed (A, C): the free-run output is linear in B.

    The n*m unit-B free runs (B = e_i e_j', column i*m + j) run as one run on
    an n x (n*m) state block, whose input term for column (i, j) is e_i u_j(k).
    """
    n, (N, m) = A.shape[0], ds.u.shape
    D = np.einsum("ai,kj->kaij", np.eye(n), ds.u).reshape(N, n, n * m)
    step = np.hstack([A, np.eye(n), np.zeros((n, 1))])
    _, xs, k = _step_engine([], step, D, None, "input")
    if k is not None:
        raise DivergenceError(k)
    M = np.matmul(C, xs[:N]).reshape(N * C.shape[0], n * m)
    coef, *_ = np.linalg.lstsq(M, ds.y.ravel(), rcond=None)
    return coef.reshape(n, m)


def _output_informed_init(ds: Dataset, n: int) -> LinearSS:
    """Realization of the output's own dominant dynamics.

    Ho-Kalman on the autocovariance Hankel yields (A, C) carrying the output
    modes (the autocovariance sequence of a state-space process has the same
    C A^{tau-1} structure as an impulse response); the spectral radius is
    capped and B refit on the free run.
    """
    L = max(2 * n + 2, min(2 * default_horizon(n), ds.n_samples // 4))
    lin = ho_kalman(_autocovariances(ds.y, L), n)
    rho = lin.spectral_radius()
    A = lin.A * (_OUTPUT_MODE_CAP / rho) if rho > _OUTPUT_MODE_CAP else lin.A
    B = _fit_input_matrix(A, lin.C, ds)
    return LinearSS(A=A, B=B, C=lin.C)


def linear_init(ds: Dataset, n: int, horizon: int | None = None) -> LinearSS:
    """Linear model fit by FIR estimation followed by Ho-Kalman realization.

    This is the initialization point for nonlinear training and doubles as
    the LTI baseline, so it must always yield a simulable model: deficient
    excitation falls back to the decay-regularized FIR fit, and a realization
    with spectral radius >= 1 (possible when the Markov sequence is only an
    approximation) is rescaled just inside the unit circle.

    A record whose output the FIR route cannot explain at all (no linear
    input response, e.g. a plant driven by even powers of a zero-mean
    excitation) is re-realized from the output's own autocovariance
    sequence, which still carries the dominant modes; B is then refit by
    least squares. Subspace methods that regress on past outputs handle such
    records natively; the impulse-response route needs this explicit second
    source of dynamics.
    """
    if n < 1:
        raise DataError(f"model order must be positive, got {n}")
    L = default_horizon(n) if horizon is None else horizon
    markov = estimate_markov(ds, L)
    lin = ho_kalman(markov, n)
    rho = lin.spectral_radius()
    if rho >= 1.0:
        lin = LinearSS(lin.A * (0.995 / rho), lin.B, lin.C)
    if _is_output_blind(lin, ds):
        try:
            lin = _output_informed_init(ds, n)
        except NumericalError:
            pass  # keep the FIR result; best effort either way
    return lin
