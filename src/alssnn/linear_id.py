"""Linear state-space identification: FIR least squares plus Ho-Kalman.

Used both to initialize the nonlinear models and as the LTI comparison
baseline. The pipeline is deterministic: estimate impulse-response (Markov)
matrices by least squares, then realize (A, B, C) from the SVD of a block
Hankel matrix. The realization is balanced, so raw matrices are only defined
up to similarity; compare Markov parameters, never entries.

The module also holds `_step_engine`, the one checked entry to every free
run and closed loop, this module's LTI runs included: it checks a run's
inputs and x0, steps it in one row buffer and truncates it where its state
leaves `DIVERGENCE_BOUND`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DataError, DivergenceError, NumericalError

__all__ = ["LinearSS", "estimate_markov", "ho_kalman", "linear_init", "default_horizon"]

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

# A run stops at the first state whose norm exceeds this bound or is not finite.
DIVERGENCE_BOUND = 1e8

# Rows stepped by _step_engine between two divergence checks.
_BLOCK = 256

# Widest first tanh layer that _step_engine folds into the state map. Folding
# saves one numpy call per step but adds a (width x width) block to the
# step's matvec. Per-step time folded over unfolded (n = 4, one input, one
# BLAS thread, medians of 31 interleaved runs of 5,000 steps; closed loop
# with a 10-unit g): the fold pays up to 40 units and loses from 80, and at
# 64 four such medians ranged 0.77-1.12 (free run) and 0.85-1.09 (closed loop).
#   width        6     20    40    64    80    100   160
#   free run     0.57  0.67  0.77  1.12  1.15  1.48  2.14
#   closed loop  0.74  0.75  0.96  1.09  1.18  1.54  1.67
_FOLD_MAX = 64


@dataclass(frozen=True)
class LinearSS:
    """Discrete-time state-space matrices (no feedthrough).

    x+ = A x + B u,  y = C x
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        for M in (A, B, C):
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DataError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DataError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DataError(f"C has {C.shape[1]} columns, expected {n}")
        if not all(np.all(np.isfinite(M)) for M in (A, B, C)):
            raise DataError("state-space matrices contain non-finite entries")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


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


def _step_engine(layers, M: np.ndarray, inputs, x0, what: str):
    """Check a run and step x(k+1) = M R[k] over the rows R[k] = [t(k); x(k);
    input(k); 1] of one buffer until the state leaves DIVERGENCE_BOUND.

    `inputs` (named `what` in errors) is an (N, d, *runs) array of finite
    numbers, N >= 1, where d is the width M leaves after the layers and the
    state (a 1-D array is one channel); x0 is None (zeros) or (n, *runs), and
    one run takes any x0 of n entries. Trailing axes carry a block of runs.

    The activations t(k) come from the tanh layers in `layers` (at most two),
    run in order and stacked right to left ahead of x: each layer W writes
    its block as tanh(W R[k, after:]), reading everything after that block,
    so the first layer sees [x; input; 1], the second [t_1; x; input; 1].
    Callers fold input weights and biases into the layers and input terms
    and biases into M. Each operand's columns are sliced out of the buffer
    once per run; a layer of zero width has empty views and writes nothing.

    A first layer W = [W_x, W_in, w_b] of width 1.._FOLD_MAX is folded into
    the state map: row k gains input(k+1) after its 1, and
    G = [[W_x M + w_b on the 1 column, W_in]; [M, 0]] writes
    [pre-activation(k+1); x(k+1)] into row k+1, so that layer and the state
    cost one matvec and one in-place tanh per step. The width alone picks the
    fold, hence finite inputs: 0 * inf in G's M rows would reach the state a
    step early. Per step, in calls: LTI, one matvec; folded free run, one
    matvec and one tanh; unfolded free run, two matvecs and one tanh; folded
    closed loop, two and two; unfolded closed loop, three matvecs and two
    tanh calls. Every call writes into the buffer through row views taken by
    zip over a block of rows.

    Squared state norms (per run) are checked once per block of rows. With k
    the first x(k) of any run whose squared norm is not <= DIVERGENCE_BOUND^2
    (NaN and inf count), returns (R, X, k): the buffer's [t; x; input; 1]
    columns of steps 0..k-1, the states X = x(0..k) as a view, and k. A run
    that stays inside returns all N steps and k = None. The steps past x(k)
    are thrown away, so their floating-point errors are not reported.
    """
    n, w = M.shape
    a = sum(W.shape[0] for W in layers)
    d = w - a - n - 1
    U = np.asarray(inputs, dtype=float)
    U = U.reshape(-1, 1) if U.ndim == 1 else U
    runs = U.shape[2:]
    if U.ndim < 2 or U.shape[0] < 1 or U.shape[1] != d:
        raise DataError(f"{what} sequence has shape {U.shape}, "
                        f"expected (N, {', '.join(map(str, (d, *runs)))})")
    bad = ~np.isfinite(U).all(axis=tuple(range(1, U.ndim)))
    if bad.any():
        raise DataError(f"{what} sequence row {int(np.argmax(bad))} is not finite")
    x0 = np.zeros((n, *runs)) if x0 is None else np.asarray(x0, dtype=float)
    x0 = x0 if runs else x0.reshape(-1)
    if x0.shape != (n, *runs):
        raise DataError(f"x0 has shape {x0.shape}, expected {(n, *runs)}")
    N = U.shape[0]
    a1 = layers[0].shape[0] if layers else 0
    fold = 0 < a1 <= _FOLD_MAX
    R = np.empty((N + 1, w + (d if fold else 0)) + runs)
    R[0, a : a + n] = x0
    R[:N, a + n : w - 1] = U
    R[:, w - 1] = 1.0
    X = R[:, a : a + n]
    # views: per unfolded layer its source and destination columns, then
    # the state map's source rows, its destination rows and, folded, the
    # pre-activation rows it leaves for the in-place tanh.
    dots, views, top = [], [], a - a1 if fold else a
    for W in layers[1:] if fold else layers:
        dots.append(W.dot)
        views += [R[:, top:w], R[:, top - W.shape[0] : top]]
        top -= W.shape[0]
    dot, dot2 = (dots + [None, None])[:2]
    tanh = np.tanh
    with np.errstate(all="ignore"):
        if fold:
            W1 = layers[0]
            R[: N - 1, w:], R[N - 1 :, w:] = U[1:], 0.0
            G = np.vstack([np.hstack([W1[:, :n] @ M, W1[:, n:-1]]),
                           np.hstack([M, np.zeros((n, d))])])
            G[:a1, w - 1] += W1[:, -1]
            tanh(W1.dot(R[0, a:w]), out=R[0, a - a1 : a])
            mdot = G.dot
            views += [R, R[1:, a - a1 : a + n], R[1:, a - a1 : a]]
        else:
            mdot = M.dot
            views += [R, X[1:]]
        for k0 in range(0, N, _BLOCK):
            k1 = min(N, k0 + _BLOCK)
            rows = [v[k0:k1] for v in views]
            # Positional outs skip keyword parsing; tanh(t, t) passes one view
            # as input and output, which skips the overlap check.
            if fold and dot is None:
                for r, o, z in zip(*rows):
                    mdot(r, o)
                    tanh(z, z)
            elif fold:
                for s, t, r, o, z in zip(*rows):
                    dot(s, t)
                    tanh(t, t)
                    mdot(r, o)
                    tanh(z, z)
            elif dot is None:
                for r, o in zip(*rows):
                    mdot(r, o)
            elif dot2 is None:
                for s, t, r, o in zip(*rows):
                    dot(s, t)
                    tanh(t, t)
                    mdot(r, o)
            else:
                for s, t, s2, t2, r, o in zip(*rows):
                    dot(s, t)
                    tanh(t, t)
                    dot2(s2, t2)
                    tanh(t2, t2)
                    mdot(r, o)
            Xb = X[k0 : k1 + 1]
            ok = np.einsum("ij...,ij...->i...", Xb, Xb) <= DIVERGENCE_BOUND * DIVERGENCE_BOUND
            ok = ok.reshape(k1 + 1 - k0, -1).all(axis=1)
            if not ok.all():
                k = k0 + int(np.argmin(ok))
                return R[:k, :w], X[: k + 1], k
    return R[:N, :w], X, None


def _is_output_blind(lin: LinearSS, ds: Dataset) -> bool:
    yc = ds.y - ds.y.mean(axis=0, keepdims=True)
    rms = float(np.sqrt(np.mean(np.sum(yc**2, axis=1))))
    if rms < 1e-12:
        return False
    M = np.column_stack([lin.A, lin.B, np.zeros(lin.n_states)])
    _, xs, k = _step_engine([], M, ds.u, None, "input")
    if k is not None:
        raise DivergenceError(k)
    err = ds.y - xs[:-1] @ lin.C.T
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
