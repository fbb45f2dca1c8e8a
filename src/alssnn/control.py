"""Output-feedback linearizing control and the residual diagnostics.

Substituting u = v - h(y) into the model step turns x+ = Ax + B(u + h(Cx)) + g
into x+ = Ax + Bv + omega with omega(k) = g(x(k), v(k) - h(y(k))): the input
nonlinearity cancels exactly and only the penalized residual survives as a
disturbance. The statistics here quantify how small that disturbance is
relative to the linear part, both open loop (g, h, f against Ax + Bu) and
closed loop (omega against Ax + Bv). The closed loop runs on the step engine
of `models` with two layers, h and then g; the engine checks v and x0 and
truncates the loop as it does a free run. Its record is a `Trajectory`, and
every entry refuses a record that does not fit the model (`_check_record`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, SplitSpec
from .errors import DataError
from .models import (AlSsnnModel, Trajectory, _check_record, _family, _lin_of, _run_states,
                     _step_engine, simulate)
from .nets import mlp_forward, mlp_forward_batch

__all__ = [
    "RatioStats",
    "ClosedLoopRecord",
    "linearizing_input",
    "simulate_closed_loop",
    "ratio_stats",
    "estimate_epsilon",
    "rmse",
    "rmse_split",
]

DENOMINATOR_GUARD = 1e-9


@dataclass(frozen=True)
class RatioStats:
    """Mean/max of per-step nonlinearity-to-linear-term norm ratios.

    Fields are None when the model family lacks that network. Steps whose
    denominator ||Ax + Bu|| falls below the guard are excluded from the
    statistics and counted in n_excluded instead of being silently dropped. A
    ratio is None, too, when every step is excluded (n_excluded == n_steps).
    """

    n_steps: int
    n_excluded: int
    g_mean: float | None = None
    g_max: float | None = None
    h_mean: float | None = None
    h_max: float | None = None
    f_mean: float | None = None
    f_max: float | None = None


@dataclass(frozen=True, kw_only=True)
class ClosedLoopRecord(Trajectory):
    """Closed-loop run x+ = Ax + Bv + omega under the linearizing law.

    A Trajectory with v and omega row for row with y; omega(k) = g(x(k),
    v(k) - h(y(k))) is recomputable from the stored states, which tests rely
    on. The omega ratios are None when the guard excludes every step.
    """

    v: np.ndarray
    omega: np.ndarray
    lin_norm: np.ndarray
    omega_ratio_mean: float | None
    omega_ratio_max: float | None
    n_excluded: int

    @property
    def n_steps(self) -> int:
        return self.v.shape[0]

    @property
    def max_omega_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.omega, axis=1), initial=0.0))


def linearizing_input(model: AlSsnnModel, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The control law u = v - h(y); pure output feedback."""
    v = np.asarray(v, dtype=float).reshape(-1)
    m = model.lin.n_inputs
    if v.shape != (m,):
        raise DataError(f"v has shape {v.shape}, expected ({m},)")
    return v - mlp_forward(model.h_net, y)


def _ratio(nums: np.ndarray, dens: np.ndarray) -> tuple[float | None, float | None, int]:
    """(mean, max, n_excluded) of nums/dens over steps with dens >= guard;
    mean and max are None when no step is kept."""
    keep = dens >= DENOMINATOR_GUARD
    n_excl = int(np.sum(~keep))
    if not np.any(keep):
        return None, None, n_excl
    vals = nums[keep] / dens[keep]
    return float(np.mean(vals)), float(np.max(vals)), n_excl


def simulate_closed_loop(model: AlSsnnModel, v_seq: np.ndarray,
                         x0: np.ndarray | None = None) -> ClosedLoopRecord:
    """Iterate the closed loop, recording the disturbance at every step.

    The loop runs on the step engine with rows [t_g; t_h; x; v; 1]:
    t_h = tanh(W_h,in C x + b_h,in), and with u = v - W_h,out t_h - b_h,out
    g's pre-activation is -(W_g,u W_h,out) t_h + W_g,x x + W_g,u v
    + (b_g,in - W_g,u b_h,out), a second layer reading [t_h; x; v; 1]. Then
    x+ = W_g,out t_g + A x + B v + b_g,out, and the disturbance
    omega = W_g,out t_g + b_g,out is formed from t_g after the loop. h is
    the engine's first layer, so h's width alone decides whether the engine
    folds it into the state map. A run that diverges at x(k) keeps x(0..k)
    and the k steps before it, as `simulate` does.
    """
    if _family(model) != "al-ssnn":
        raise DataError("closed-loop analysis requires an al-ssnn model (output-feedback "
                        f"form); got family '{_family(model)}'")
    lin = model.lin
    A, B, C = lin.A, lin.B, lin.C
    n, m = lin.n_states, lin.n_inputs
    if np.ndim(v_seq) > 2:   # trailing axes hold the engine's blocks of runs, never a loop's
        raise DataError(f"v sequence has shape {np.shape(v_seq)}, expected (N, {m})")
    h, g = model.h_net, model.g_net
    W_gu = g.W_in[:, n:]
    with np.errstate(over="ignore", invalid="ignore"):   # extreme weights, divergent tails
        W_h = np.column_stack([h.W_in @ C, np.zeros((h.n_hidden, m)), h.b_in])
        W_g = np.column_stack([-(W_gu @ h.W_out), g.W_in[:, :n], W_gu, g.b_in - W_gu @ h.b_out])
        M = np.column_stack([g.W_out, np.zeros((n, h.n_hidden)), A, B, g.b_out])
        R, xs, k = _step_engine([W_h, W_g], M, v_seq, x0, "v")
        X, a = xs[:-1], g.n_hidden + h.n_hidden
        V = R[:, a + n : a + n + m]
        omegas = R[:, : g.n_hidden] @ g.W_out.T + g.b_out
        omega_norms = np.linalg.norm(omegas, axis=1)
        lin_norms = np.linalg.norm(X @ A.T + V @ B.T, axis=1)
    mean, mx, n_excl = _ratio(omega_norms, lin_norms)
    return ClosedLoopRecord(
        x=xs.copy(),
        y=X @ C.T,
        v=V.copy(),
        omega=omegas,
        lin_norm=lin_norms,
        omega_ratio_mean=mean,
        omega_ratio_max=mx,
        n_excluded=n_excl,
        diverged=k is not None,
        diverged_at=k,
    )


def ratio_stats(model, ds: Dataset) -> RatioStats:
    """Open-loop nonlinearity ratios along the model's free run on ds.u.

    GR's f net is its g net, so its f_* ratios are the g ratios of the same
    pass, under GR's names."""
    _require_nets(model, "ratio statistics")
    return _ratio_stats(model, _free_run(model, ds), ds.u)


def _require_nets(model, what: str) -> None:
    """DataError unless the model has networks, as AL and GR models do."""
    if not isinstance(model, AlSsnnModel):
        raise DataError(f"{what} need a model with networks, got {type(model).__name__}")


def _free_run(model, ds: Dataset) -> np.ndarray:
    """States x(0..N-1) of the checked record's free run; a diverged one names it."""
    _check_record(model, ds)
    return _run_states(simulate(model, ds.u), ds.name)


def _g_norms(model: AlSsnnModel, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """||g(x(k), u(k))|| at the free-run states X, each row with that row of U."""
    return np.linalg.norm(mlp_forward_batch(model.g_net, np.hstack([X, U])), axis=1)


def _ratio_stats(model: AlSsnnModel, X: np.ndarray, U: np.ndarray) -> RatioStats:
    """The ratios at the free-run states X, each row driven by that row of U."""
    lin = model.lin
    dens = np.linalg.norm(X @ lin.A.T + U @ lin.B.T, axis=1)
    g_mean, g_max, n_excl = _ratio(_g_norms(model, X, U), dens)
    if _family(model) == "gr-ssnn":
        return RatioStats(n_steps=len(X), n_excluded=n_excl, f_mean=g_mean, f_max=g_max)
    h_norms = np.linalg.norm(mlp_forward_batch(model.h_net, X @ lin.C.T), axis=1)
    h_mean, h_max, _ = _ratio(h_norms, dens)
    return RatioStats(n_steps=len(X), n_excluded=n_excl, g_mean=g_mean, g_max=g_max,
                      h_mean=h_mean, h_max=h_max)


def estimate_epsilon(model: AlSsnnModel, datasets, records=()) -> float:
    """Data-driven disturbance bound: the largest residual norm observed.

    Takes the max over open-loop ||g(x(k), u(k))|| on every dataset of the
    sequence `datasets` and, for any closed-loop records supplied, over
    their ||omega(k)|| as well.
    """
    _require_nets(model, "epsilon estimates")
    norms = [float(np.max(_g_norms(model, _free_run(model, ds), ds.u))) for ds in datasets]
    norms += [rec.max_omega_norm for rec in records]
    if not norms:
        raise DataError("epsilon estimation needs at least one dataset or record")
    return max(norms)


def rmse(model, ds: Dataset) -> float:
    """Free-run output error sqrt((1/N) sum ||y(k) - y_model(k)||^2), x(0) = 0."""
    return _rmse(model, ds, _free_run(model, ds))


def _rmse(model, ds: Dataset, X: np.ndarray, rows: slice = slice(None)) -> float:
    """rmse at the free-run states X on ds.u, over the samples `rows`, of a
    record that fits the model."""
    se = np.sum((ds.y - X @ _lin_of(model).C.T) ** 2, axis=1)
    return float(np.sqrt(np.mean(se[rows])))


def rmse_split(model, ds: Dataset, train_fraction: float) -> tuple[float, float]:
    """(train RMSE, test RMSE) over the two halves of one continuous record.

    The model free-runs once over the whole input sequence from x(0) = 0 and
    the halves are scored separately, so the held-out figure measures how
    well the model predicts the record's future. Restarting the test half
    from a fresh zero state would instead charge the model for an entry
    transient the data does not contain (the plant's state carries over at
    the split point).
    """
    X = _free_run(model, ds)
    k = SplitSpec(train_fraction).index(ds.n_samples)
    return _rmse(model, ds, X, slice(k)), _rmse(model, ds, X, slice(k, None))
