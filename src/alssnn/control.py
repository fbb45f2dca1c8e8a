"""Output-feedback linearizing control and the residual diagnostics.

Substituting u = v - h(y) into the model step turns x+ = Ax + B(u + h(Cx)) + g
into x+ = Ax + Bv + omega with omega(k) = g(x(k), v(k) - h(y(k))): the input
nonlinearity cancels exactly and only the penalized residual survives as a
disturbance. The statistics here quantify how small that disturbance is
relative to the linear part, both open loop (g, h, f against Ax + Bu) and
closed loop (omega against Ax + Bv). The closed loop runs on the step engine
of `linear_id` with two layers, h and then g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, SplitSpec
from .errors import DataError, DivergenceError
from .linear_id import _step_engine
from .models import DIVERGENCE_BOUND, AlSsnnModel, GrSsnnModel, _lin_of, simulate
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
    statistics and counted in n_excluded instead of being silently dropped.
    """

    n_steps: int
    n_excluded: int
    g_mean: float | None = None
    g_max: float | None = None
    h_mean: float | None = None
    h_max: float | None = None
    f_mean: float | None = None
    f_max: float | None = None

    def __post_init__(self):
        for mean, mx in ((self.g_mean, self.g_max), (self.h_mean, self.h_max),
                         (self.f_mean, self.f_max)):
            if (mean is None) != (mx is None):
                raise DataError("ratio mean/max must be set together")
            if mean is not None and (mean < 0 or mean > mx + 1e-15):
                raise DataError(f"ratio mean {mean} must lie in [0, max={mx}]")

    def as_dict(self) -> dict:
        out = {"n_steps": self.n_steps, "n_excluded": self.n_excluded}
        for key in ("g_mean", "g_max", "h_mean", "h_max", "f_mean", "f_max"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class ClosedLoopRecord:
    """Closed-loop run x+ = Ax + Bv + omega under the linearizing law.

    x has one more row than v/y/omega; omega(k) = g(x(k), v(k) - h(y(k))) is
    recomputable from the stored states, which tests rely on.
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    lin_norm: np.ndarray
    omega_ratio_mean: float
    omega_ratio_max: float
    n_excluded: int
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def n_steps(self) -> int:
        return self.v.shape[0]

    @property
    def max_omega_norm(self) -> float:
        if self.omega.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.omega, axis=1)))


def linearizing_input(model: AlSsnnModel, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The control law u = v - h(y); pure output feedback."""
    v = np.asarray(v, dtype=float).reshape(-1)
    m = model.lin.n_inputs
    if v.shape != (m,):
        raise DataError(f"v has shape {v.shape}, expected ({m},)")
    return v - mlp_forward(model.h_net, y)


def _ratio(nums: np.ndarray, dens: np.ndarray) -> tuple[float, float, int]:
    """(mean, max, n_excluded) of nums/dens over steps with dens >= guard."""
    keep = dens >= DENOMINATOR_GUARD
    n_excl = int(np.sum(~keep))
    if not np.any(keep):
        raise DataError(
            "all steps fall below the denominator guard; ratios are undefined"
        )
    vals = nums[keep] / dens[keep]
    return float(np.mean(vals)), float(np.max(vals)), n_excl


def simulate_closed_loop(model: AlSsnnModel, v_seq: np.ndarray,
                         x0: np.ndarray | None = None,
                         divergence_bound: float = DIVERGENCE_BOUND) -> ClosedLoopRecord:
    """Iterate the closed loop, recording the disturbance at every step.

    The loop runs on the step engine with rows [t_g; t_h; x; v; 1]:
    t_h = tanh(W_h,in C x + b_h,in), and with u = v - W_h,out t_h - b_h,out
    g's pre-activation is -(W_g,u W_h,out) t_h + W_g,x x + W_g,u v
    + (b_g,in - W_g,u b_h,out), a second layer reading [t_h; x; v; 1]. Then
    x+ = W_g,out t_g + A x + B v + b_g,out, and the disturbance
    omega = W_g,out t_g + b_g,out is formed from t_g after the loop.
    """
    if not isinstance(model, AlSsnnModel):
        raise DataError("closed-loop simulation requires the h/g-split model family")
    lin = model.lin
    A, B, C = lin.A, lin.B, lin.C
    n, m = lin.n_states, lin.n_inputs
    V = np.asarray(v_seq, dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    if V.shape[0] < 1 or V.shape[1] != m:
        raise DataError(f"v sequence has shape {V.shape}, expected (N, {m})")
    N = V.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise DataError(f"x0 has shape {x.shape}, expected ({n},)")

    h, g = model.h_net, model.g_net
    W_gu = g.W_in[:, n:]
    W_h = np.column_stack([h.W_in @ C, np.zeros((h.n_hidden, m)), h.b_in])
    W_g = np.column_stack([-(W_gu @ h.W_out), g.W_in[:, :n], W_gu, g.b_in - W_gu @ h.b_out])
    M = np.column_stack([g.W_out, np.zeros((n, h.n_hidden)), A, B, g.b_out])
    R, xs, k = _step_engine([W_h, W_g], M, V, x, divergence_bound)
    steps = N if k is None else min(k, N)
    X = xs[:steps]
    omegas = R[:steps, : g.n_hidden] @ g.W_out.T + g.b_out
    with np.errstate(over="ignore", invalid="ignore"):   # a divergent run's last steps
        lin_norms = np.linalg.norm(X @ A.T + V[:steps] @ B.T, axis=1)
    omega_norms = np.linalg.norm(omegas, axis=1)
    if steps:
        mean, mx, n_excl = _ratio(omega_norms, lin_norms)
    else:
        mean, mx, n_excl = 0.0, 0.0, 0
    return ClosedLoopRecord(
        x=xs[: steps + 1].copy(),
        y=X @ C.T,
        v=V[:steps].copy(),
        omega=omegas,
        lin_norm=lin_norms,
        omega_ratio_mean=mean,
        omega_ratio_max=mx,
        n_excluded=n_excl,
        diverged=k is not None,
        diverged_at=k,
    )


def _free_run(model, ds: Dataset) -> np.ndarray:
    """States x(0..N-1) of the model's free run on ds.u from x(0) = 0."""
    traj = simulate(model, ds.u)
    if traj.diverged:
        raise DivergenceError(traj.diverged_at)
    return traj.x[: ds.n_samples]


def ratio_stats(model, ds: Dataset) -> RatioStats:
    """Open-loop nonlinearity ratios along the model's free run on ds.u."""
    if not isinstance(model, (AlSsnnModel, GrSsnnModel)):
        raise DataError(
            f"ratio statistics need a model with networks, got {type(model).__name__}"
        )
    X = _free_run(model, ds)
    lin = model.lin
    dens = np.linalg.norm(X @ lin.A.T + ds.u @ lin.B.T, axis=1)
    Z = np.hstack([X, ds.u])
    if isinstance(model, GrSsnnModel):
        f_norms = np.linalg.norm(mlp_forward_batch(model.f_net, Z), axis=1)
        f_mean, f_max, n_excl = _ratio(f_norms, dens)
        return RatioStats(n_steps=ds.n_samples, n_excluded=n_excl,
                          f_mean=f_mean, f_max=f_max)
    g_norms = np.linalg.norm(mlp_forward_batch(model.g_net, Z), axis=1)
    h_norms = np.linalg.norm(mlp_forward_batch(model.h_net, X @ lin.C.T), axis=1)
    g_mean, g_max, n_excl = _ratio(g_norms, dens)
    h_mean, h_max, _ = _ratio(h_norms, dens)
    return RatioStats(n_steps=ds.n_samples, n_excluded=n_excl, g_mean=g_mean, g_max=g_max,
                      h_mean=h_mean, h_max=h_max)


def estimate_epsilon(model: AlSsnnModel, datasets, records=()) -> float:
    """Data-driven disturbance bound: the largest residual norm observed.

    Takes the max over open-loop ||g(x(k), u(k))|| on every dataset and, for
    any closed-loop records supplied, over their ||omega(k)|| as well.
    """
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    datasets = list(datasets)
    records = list(records)
    if not datasets and not records:
        raise DataError("epsilon estimation needs at least one dataset or record")
    eps = 0.0
    for ds in datasets:
        Z = np.hstack([_free_run(model, ds), ds.u])
        g_norms = np.linalg.norm(mlp_forward_batch(model.g_net, Z), axis=1)
        if g_norms.size:
            eps = max(eps, float(np.max(g_norms)))
    for rec in records:
        eps = max(eps, rec.max_omega_norm)
    return eps


def rmse(model, ds: Dataset) -> float:
    """Free-run output error sqrt((1/N) sum ||y(k) - y_model(k)||^2), x(0) = 0."""
    e = ds.y - _free_run(model, ds) @ _lin_of(model).C.T
    return float(np.sqrt(np.mean(np.sum(e**2, axis=1))))


def rmse_split(model, ds: Dataset, train_fraction: float) -> tuple[float, float]:
    """(train RMSE, test RMSE) over the two halves of one continuous record.

    The model free-runs once over the whole input sequence from x(0) = 0 and
    the halves are scored separately, so the held-out figure measures how
    well the model predicts the record's future. Restarting the test half
    from a fresh zero state would instead charge the model for an entry
    transient the data does not contain (the plant's state carries over at
    the split point).
    """
    k = SplitSpec(train_fraction).index(ds.n_samples)
    se = np.sum((ds.y - _free_run(model, ds) @ _lin_of(model).C.T) ** 2, axis=1)
    return float(np.sqrt(np.mean(se[:k]))), float(np.sqrt(np.mean(se[k:])))
