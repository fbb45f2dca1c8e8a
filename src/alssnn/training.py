"""Simulation-error training: residuals, exact Jacobian, Levenberg-Marquardt.

The loss on a dataset of N samples is

    J_N = (1/N) * sum_k [ ||y(k) - y_model(k)||^2 + gamma * ||g(x(k), u(k))||^2 ]

with x(k) from a free run started at x(0) = 0. The residual vector stacks all
N*p output errors first, then the N*n penalty values scaled by sqrt(gamma),
so J_N = ||r||^2 / N exactly. Jacobians are exact (forward accumulation of
state sensitivities through the recursion). lm_step streams the normal
equations J'J and J'r from a pass over fixed-size chunks of samples, so
training never holds the full Jacobian; jacobian_bptt is the assembled
matrix from the same pass.

The GR baseline is an AL model with an empty h net (models.GrSsnnModel):
it trains through the same initialisation, sensitivity pass and LM loop,
with its f net as the g net, no equilibrium pin and no penalty rows.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dposv

from .dataio import Dataset
from .errors import DataError, DivergenceError
from .linear_id import LinearSS, linear_init
from .models import AlSsnnModel, GrSsnnModel, _family, _run_states, simulate
from .nets import Equilibrium, Mlp, enforce_equilibrium_zero, init_small, mlp_forward_batch

__all__ = [
    "TrainConfig",
    "ResidualVector",
    "ParamLayout",
    "TrainReport",
    "LmWorkspace",
    "default_layout",
    "make_layout",
    "pack_params",
    "unpack_params",
    "residuals",
    "loss",
    "jacobian_bptt",
    "lm_step",
    "train",
    "train_gr",
    "report_to_json_dict",
]

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the identification pipeline."""

    gamma: float = 1.0
    max_iters: int = 300
    n_h: int = 10
    n_g: int = 10
    lambda0: float = 1e-2
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    grad_tol: float = 1e-10
    step_tol: float = 0.0
    loss_tol: float = 1e-10
    seed: int = 0
    freeze_C: bool = True
    enforce_equilibrium: bool = True
    horizon: int | None = None
    # Multipliers on the freshly drawn input layer. Output weights start at
    # zero, so these cost nothing at iteration 0, but they set the basis the
    # optimizer gets to combine: wider input weights and, above all, nonzero
    # biases expose tanh curvature (even terms need bias offsets; an odd
    # function of a zero-mean signal cannot produce them).
    hidden_gain: float = 2.0
    hidden_bias_scale: float = 3.0

    def __post_init__(self):
        if self.gamma < 0:
            raise DataError(f"gamma must be non-negative, got {self.gamma}")
        if self.max_iters < 1:
            raise DataError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.lambda0 > 0 and np.isfinite(self.lambda0)):
            raise DataError(f"lambda0 must be positive, got {self.lambda0}")
        if not (self.lambda_up > 1 and np.isfinite(self.lambda_up)):
            raise DataError(f"lambda_up must exceed 1, got {self.lambda_up}")
        if not (0 < self.lambda_down < 1):
            raise DataError(f"lambda_down must lie in (0, 1), got {self.lambda_down}")
        for name in ("grad_tol", "step_tol", "loss_tol"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be non-negative")
        if self.n_h < 0 or self.n_g < 0:
            raise DataError("hidden sizes must be non-negative")
        if self.horizon is not None and self.horizon < 1:
            raise DataError(f"horizon must be >= 1, got {self.horizon}")
        if not (self.hidden_gain > 0 and np.isfinite(self.hidden_gain)):
            raise DataError(f"hidden_gain must be positive, got {self.hidden_gain}")
        if not (self.hidden_bias_scale > 0 and np.isfinite(self.hidden_bias_scale)):
            raise DataError(
                f"hidden_bias_scale must be positive, got {self.hidden_bias_scale}")


@dataclass(frozen=True)
class ResidualVector:
    """Stacked residuals: N*p output errors, then N*n_penalty penalty terms.

    `states` keeps the free run x(0..N-1) the residuals came from, so the
    Jacobian at the same model can reuse it instead of simulating again.
    """

    r: np.ndarray
    n_samples: int
    n_outputs: int
    n_penalty_states: int
    states: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        want = self.n_samples * (self.n_outputs + self.n_penalty_states)
        if self.r.shape != (want,):
            raise DataError(f"residual vector length {self.r.shape} != ({want},)")

    def loss_value(self) -> float:
        return float(self.r @ self.r / self.n_samples)

    def components(self) -> tuple[float, float]:
        """(output mse, penalty mse), each already divided by N."""
        cut = self.n_samples * self.n_outputs
        out = float(self.r[:cut] @ self.r[:cut] / self.n_samples)
        pen = float(self.r[cut:] @ self.r[cut:] / self.n_samples)
        return out, pen


# --- parameter layout -------------------------------------------------------

_NET_SUFFIXES = ("W_in", "b_in", "W_out", "b_out")


def _catalog(model: AlSsnnModel) -> list[tuple[str, int]]:
    """Canonical (block name, size) order for the model's free parameters."""
    lin = model.lin
    n, m, p = lin.n_states, lin.n_inputs, lin.n_outputs
    out = [("A", n * n), ("B", n * m), ("C", p * n)]
    for tag, net in (("h", model.h_net), ("g", model.g_net)):
        h, d_in, d_out = net.n_hidden, net.d_in, net.d_out
        out += [
            (f"{tag}.W_in", h * d_in),
            (f"{tag}.b_in", h),
            (f"{tag}.W_out", d_out * h),
            (f"{tag}.b_out", d_out),
        ]
    return out


@dataclass(frozen=True)
class ParamLayout:
    """Ordered subset of parameter blocks exposed to the optimizer.

    eq_constrained marks g's output bias as a dependent quantity: it is
    recomputed after every unpack so g(x_e, u_e) = 0 holds exactly, and the
    Jacobian uses the correspondingly corrected columns.
    """

    blocks: tuple[str, ...]
    eq_constrained: bool = False

    def __post_init__(self):
        if len(set(self.blocks)) != len(self.blocks):
            raise DataError("layout contains duplicate blocks")
        if len(self.blocks) == 0:
            raise DataError("layout must expose at least one block")
        if self.eq_constrained and "g.b_out" in self.blocks:
            raise DataError(
                "g.b_out cannot be a free parameter while the equilibrium "
                "constraint determines it"
            )


def make_layout(model: AlSsnnModel, names, eq_constrained: bool = False) -> ParamLayout:
    """Layout from a set of block names, normalized to canonical order."""
    known = [name for name, _ in _catalog(model)]
    wanted = set(names)
    unknown = wanted - set(known)
    if unknown:
        raise DataError(f"unknown parameter blocks: {sorted(unknown)}")
    if eq_constrained and isinstance(model, GrSsnnModel):
        raise DataError("equilibrium constraint applies only to models with a g net "
                        "pinned at an equilibrium, which gr-ssnn is not")
    return ParamLayout(
        blocks=tuple(name for name in known if name in wanted),
        eq_constrained=eq_constrained,
    )


def default_layout(model: AlSsnnModel, config: TrainConfig) -> ParamLayout:
    """A and B free, C per freeze flag, all net weights except the constrained bias.

    A GR model's empty h net is no parameter, and its g net (the f net) is
    not pinned.
    """
    gr = isinstance(model, GrSsnnModel)
    pinned = config.enforce_equilibrium and not gr
    names = ["A", "B"] + ([] if config.freeze_C else ["C"])
    names += [f"{tag}.{s}" for tag in (("g",) if gr else ("h", "g")) for s in _NET_SUFFIXES]
    if pinned:
        names.remove("g.b_out")
    return make_layout(model, names, eq_constrained=pinned)


def _layout_slices(model: AlSsnnModel, layout: ParamLayout) -> tuple[dict, int]:
    sizes = dict(_catalog(model))
    cols = {}
    off = 0
    for name in layout.blocks:
        cols[name] = slice(off, off + sizes[name])
        off += sizes[name]
    return cols, off


def _block_array(model: AlSsnnModel, name: str) -> np.ndarray:
    if name in ("A", "B", "C"):
        return getattr(model.lin, name)
    tag, suffix = name.split(".")
    return getattr(getattr(model, f"{tag}_net"), suffix)


def pack_params(model: AlSsnnModel, layout: ParamLayout) -> np.ndarray:
    return np.concatenate([_block_array(model, b).ravel() for b in layout.blocks])


def unpack_params(model: AlSsnnModel, layout: ParamLayout,
                  theta: np.ndarray) -> AlSsnnModel:
    """Rebuild the model from a flat parameter vector.

    Blocks outside the layout keep their current values; when the layout is
    equilibrium-constrained, g's output bias is recomputed afterwards.
    """
    cols, total = _layout_slices(model, layout)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape != (total,):
        raise DataError(f"parameter vector length {theta.shape[0]} != {total}")
    new = {name: theta[sl] for name, sl in cols.items()}

    lin = model.lin
    lin_updates = {}
    for name in ("A", "B", "C"):
        if name in new:
            lin_updates[name] = new[name].reshape(getattr(lin, name).shape)
    if lin_updates:
        lin = replace(lin, **lin_updates)

    def rebuild(net: Mlp, tag: str) -> Mlp:
        updates = {}
        for suffix in _NET_SUFFIXES:
            key = f"{tag}.{suffix}"
            if key in new:
                updates[suffix] = new[key].reshape(getattr(net, suffix).shape)
        return replace(net, **updates) if updates else net

    g_net = rebuild(model.g_net, "g")
    if layout.eq_constrained:
        g_net = enforce_equilibrium_zero(g_net, model.eq)
    return replace(model, lin=lin, h_net=rebuild(model.h_net, "h"), g_net=g_net)


# --- residuals and loss -----------------------------------------------------

def _penalty_weight(model: AlSsnnModel, gamma: float) -> float | None:
    """sqrt(gamma), the weight of the penalty rows; None for GR, which has none."""
    if isinstance(model, GrSsnnModel):
        return None
    if gamma < 0:
        raise DataError(f"gamma must be non-negative, got {gamma}")
    return np.sqrt(gamma)


def residuals(model: AlSsnnModel, ds: Dataset, gamma: float = 0.0) -> ResidualVector:
    """Stacked residual vector from a free run at x(0) = 0."""
    lin = model.lin
    if ds.n_inputs != lin.n_inputs or ds.n_outputs != lin.n_outputs:
        raise DataError(
            f"dataset dims (m={ds.n_inputs}, p={ds.n_outputs}) do not match model "
            f"(m={lin.n_inputs}, p={lin.n_outputs})"
        )
    sqrt_g = _penalty_weight(model, gamma)
    xs = _run_states(simulate(model, ds.u))
    N = ds.n_samples
    r = (ds.y - xs @ lin.C.T).ravel()
    if sqrt_g is not None:
        gvals = mlp_forward_batch(model.g_net, np.hstack([xs, ds.u]))
        r = np.concatenate([r, sqrt_g * gvals.ravel()])
    return ResidualVector(r=r, n_samples=N, n_outputs=lin.n_outputs,
                          n_penalty_states=0 if sqrt_g is None else lin.n_states,
                          states=xs)


def loss(model: AlSsnnModel, ds: Dataset, gamma: float = 0.0) -> float:
    """J_N, identically ||residuals||^2 / N."""
    return residuals(model, ds, gamma).loss_value()


# --- Jacobian by forward sensitivity accumulation ---------------------------

def _batch_param_blocks(net: Mlp, Z: np.ndarray, t: np.ndarray, s: np.ndarray,
                        wanted) -> dict:
    """Per-sample Jacobians of the net output w.r.t. each parameter block.

    Returns name -> array of shape (N, d_out, block size), columns matching
    the flat row-major order used by pack_params.
    """
    N = Z.shape[0]
    h, d_in, d_out = net.n_hidden, net.d_in, net.d_out
    out = {}
    ws = s[:, None, :] * net.W_out[None, :, :]          # (N, d_out, h)
    if "W_in" in wanted:
        out["W_in"] = np.einsum("kor,kc->korc", ws, Z).reshape(N, d_out, h * d_in)
    if "b_in" in wanted:
        out["b_in"] = ws
    if "W_out" in wanted:
        out["W_out"] = np.einsum("oq,kr->koqr", np.eye(d_out), t).reshape(
            N, d_out, d_out * h
        )
    if "b_out" in wanted:
        out["b_out"] = np.broadcast_to(np.eye(d_out), (N, d_out, d_out))
    return out


def _tanh_stats(net: Mlp, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.tanh(Z @ net.W_in.T + net.b_in)
    return t, 1.0 - t**2


def jacobian_bptt(model: AlSsnnModel, ds: Dataset, gamma: float = 0.0,
                  layout: ParamLayout | None = None,
                  states: np.ndarray | None = None) -> np.ndarray:
    """Exact residual Jacobian, shape (N*(p [+ n]), P).

    State sensitivities follow S(k+1) = F_x(k) S(k) + F_theta(k) with
    S(0) = 0 (the initial state is fixed, not a parameter); output rows are
    -C S(k) plus the direct C term when C is free, penalty rows are
    sqrt(gamma) * (dg/dx S(k) + dg/dtheta_g). `states`, the model's free run
    on ds.u (at least N rows, e.g. ResidualVector.states), saves simulating
    it again.

    This is the assembled form of the chunked sensitivity pass that lm_step
    streams J'J and J'r from; training itself never builds this matrix.
    """
    if layout is None:
        layout = default_layout(
            model,
            TrainConfig(
                freeze_C=getattr(model, "c_frozen", True), enforce_equilibrium=True
            ),
        )
    if states is None:
        states = _run_states(simulate(model, ds.u))
    N, p = ds.n_samples, model.lin.n_outputs
    q = 0 if _penalty_weight(model, gamma) is None else model.lin.n_states
    J = np.empty((N * (p + q), _layout_slices(model, layout)[1]))
    for k0, k1, J_out, J_pen in _sensitivity_chunks(model, ds, gamma, layout, states):
        J[k0 * p : k1 * p] = J_out
        if J_pen is not None:
            J[N * p + k0 * q : N * p + k1 * q] = J_pen
    return J


# Samples per chunk of the sensitivity pass. The pass holds a few arrays of
# chunk x n x P doubles at a time, whatever the record length. Chunks of 192
# to 512 samples refilled J'J equally fast (dsyrk dominates at large P); 256
# keeps the P = 1,061, N = 2,000 refill at 51 MB against its 85 MB Jacobian.
_CHUNK = 256


def _sensitivity_chunks(model: AlSsnnModel, ds: Dataset, gamma: float,
                        layout: ParamLayout, states: np.ndarray):
    """The residual Jacobian of jacobian_bptt in row blocks, chunk by chunk.

    Yields (k0, k1, J_out, J_pen) for samples k0..k1-1: their output rows,
    shape ((k1 - k0) * p, P), and their penalty rows, shape
    ((k1 - k0) * n, P), or None for a GR model, which has no penalty.
    Only the recursion S(k+1) = F_x(k) S(k) + F_theta(k) steps sample by
    sample; the rows are batched products on the chunk's stored S.
    """
    lin = model.lin
    A, B, C = lin.A, lin.B, lin.C
    n, p = lin.n_states, lin.n_outputs
    N = ds.n_samples
    X = np.asarray(states, dtype=float)[:N]
    if X.shape != (N, n):
        raise DataError(f"states have shape {X.shape}, expected ({N}, {n})")
    h_net, g_net, sqrt_g = model.h_net, model.g_net, _penalty_weight(model, gamma)

    cols, P = _layout_slices(model, layout)
    h_wanted = [s for s in _NET_SUFFIXES if f"h.{s}" in cols]
    g_wanted = [s for s in _NET_SUFFIXES if f"g.{s}" in cols]
    gb0 = None
    if g_wanted and layout.eq_constrained:
        # b_out eliminated: effective g is g_raw(z) - g_raw(z_e), so every
        # remaining column gets the equilibrium-point jacobian subtracted.
        z_e = model.eq.stacked()[None, :]
        gb0 = _batch_param_blocks(g_net, z_e, *_tanh_stats(g_net, z_e), g_wanted)
    eye_n = np.eye(n)

    # buf[0] holds S at the chunk's first sample; buf[1:c+1] is filled with
    # F_theta and turned in place into S at the samples after it.
    buf = np.empty((min(N, _CHUNK) + 1, n, P))
    buf[0] = 0.0
    for k0 in range(0, N, _CHUNK):
        k1 = min(N, k0 + _CHUNK)
        c = k1 - k0
        Xc, U = X[k0:k1], ds.u[k0:k1]
        Z = np.hstack([Xc, U])
        tg, sg = _tanh_stats(g_net, Z)
        Gx = ((sg[:, None, :] * g_net.W_out[None, :, :]) @ g_net.W_in)[:, :, :n]
        F = buf[1 : c + 1]
        Y = Xc @ C.T
        th, sh = _tanh_stats(h_net, Y)
        drive = U + (th @ h_net.W_out.T + h_net.b_out)
        Hy = (sh[:, None, :] * h_net.W_out[None, :, :]) @ h_net.W_in   # (c, m, p)
        BH = np.matmul(B, Hy)                                          # (c, n, p)
        Fx = A[None, :, :] + np.matmul(BH, C) + Gx
        if "C" in cols:
            F[:, :, cols["C"]] = np.einsum("kai,kj->kaij", BH, Xc).reshape(c, n, p * n)
        if h_wanted:
            hb = _batch_param_blocks(h_net, Y, th, sh, h_wanted)
            for suffix in h_wanted:
                F[:, :, cols[f"h.{suffix}"]] = np.matmul(B, hb[suffix])
        if "A" in cols:
            F[:, :, cols["A"]] = np.einsum("ab,kj->kabj", eye_n, Xc).reshape(c, n, n * n)
        if "B" in cols:
            F[:, :, cols["B"]] = np.einsum("ab,kj->kabj", eye_n, drive).reshape(
                c, n, drive.shape[1] * n)
        gb = {}
        if g_wanted:
            gb = _batch_param_blocks(g_net, Z, tg, sg, g_wanted)
            if gb0 is not None:
                for suffix in g_wanted:   # never b_out, a read-only view
                    gb[suffix] -= gb0[suffix]
            for suffix in g_wanted:
                F[:, :, cols[f"g.{suffix}"]] = gb[suffix]

        for fx, s, f in zip(Fx, buf[:c], F):
            np.add(f, fx.dot(s), out=f)
        S = buf[:c]

        J_out = np.matmul(C, S)
        np.negative(J_out, out=J_out)
        if "C" in cols:
            J_out[:, :, cols["C"]] -= np.einsum("ai,kj->kaij", np.eye(p), Xc).reshape(
                c, p, p * n)
        J_pen = None
        if sqrt_g is not None:
            J_pen = np.matmul(Gx, S)
            J_pen *= sqrt_g
            for suffix in g_wanted:
                J_pen[:, :, cols[f"g.{suffix}"]] += sqrt_g * gb[suffix]
            J_pen = J_pen.reshape(c * n, P)
        yield k0, k1, J_out.reshape(c * p, P), J_pen
        buf[0] = buf[c]


def _normal_equations(model: AlSsnnModel, ds: Dataset, gamma: float,
                      layout: ParamLayout, rv: ResidualVector):
    """J'J and J'r accumulated chunk by chunk; the full J is never formed.

    Each chunk's rows add to the upper triangle of J'J (dsyrk) and to J'r
    (gemv); the lower triangle is mirrored once at the end, so J'J is
    exactly symmetric.
    """
    N, p, q = rv.n_samples, rv.n_outputs, rv.n_penalty_states
    P = _layout_slices(model, layout)[1]
    JtJ = np.zeros((P, P), order="F")
    Jtr = np.zeros(P)
    r_out, r_pen = rv.r[: N * p], rv.r[N * p :]
    for k0, k1, J_out, J_pen in _sensitivity_chunks(model, ds, gamma, layout, rv.states):
        for rows, r in ((J_out, r_out[k0 * p : k1 * p]), (J_pen, r_pen[k0 * q : k1 * q])):
            if rows is not None:
                JtJ = dsyrk(1.0, rows.T, beta=1.0, c=JtJ, overwrite_c=1)
                Jtr += rows.T @ r
    JtJ += np.triu(JtJ, 1).T
    return JtJ, Jtr


# --- Levenberg-Marquardt ----------------------------------------------------

def _same_problem(key: tuple | None, model, ds: Dataset, gamma: float) -> bool:
    """Whether a cache key starts with this (model, dataset, gamma)."""
    return key is not None and key[0] is model and key[1] is ds and key[2] == gamma


@dataclass
class LmWorkspace:
    """Cache shared across lm_step calls while the model is unchanged.

    Callers must leave `filled_for` and `accepted` alone. `filled_for` is the
    (model, dataset, gamma, layout) the cached loss, J'J and J'r belong to;
    lm_step refills the cache whenever it is called with anything else,
    streaming J'J and J'r chunk by chunk without forming J (J'J is exactly
    symmetric).
    `accepted` keeps the (model, dataset, gamma, residuals) of the last
    accepted candidate, so the refill for that model reuses the candidate's
    free run instead of simulating it again; `loss` still holds the loss of
    the model the accepted step started from. The counters add up over all
    calls sharing the workspace: one free run per residual evaluation, one
    Jacobian per refill and one solve per damped system attempted.
    """

    filled_for: tuple | None = field(default=None, repr=False)
    loss: float = float("nan")
    grad_inf: float = float("nan")
    output_mse: float = float("nan")
    penalty_mse: float = float("nan")
    JtJ: np.ndarray | None = None
    Jtr: np.ndarray | None = None
    last_candidate_loss: float | None = None
    last_candidate_components: tuple[float, float] | None = None
    last_step_norm: float | None = None
    last_reject_reason: str | None = None
    free_runs: int = 0
    jacobians: int = 0
    solves: int = 0
    accepted: tuple | None = field(default=None, repr=False)

    def _residuals(self, model, ds: Dataset, gamma: float) -> ResidualVector:
        """Residuals of `model`, from the cache when it holds this model's."""
        if _same_problem(self.accepted, model, ds, gamma):
            return self.accepted[3]
        self.free_runs += 1
        return residuals(model, ds, gamma)


def lm_step(model: AlSsnnModel, ds: Dataset, config: TrainConfig, lam: float,
            layout: ParamLayout | None = None,
            workspace: LmWorkspace | None = None):
    """One damped Gauss-Newton step with strict-decrease acceptance.

    Solves (J'J + lam*diag(J'J)) delta = -J'r by Cholesky, zero diagonal
    entries replaced by 1. Unlike LU with partial pivoting, Cholesky loses
    no accuracy to badly scaled parameters (the diagonal scaling of the
    system). Returns (model', lam', accepted); the model is returned
    unchanged on rejection and lam moves by the configured factors. Solve
    failures (including a system that is not numerically positive definite)
    and divergent candidates count as rejections; the workspace records why
    (`last_reject_reason`: solve_failed, non_finite_step, invalid_params,
    diverged or no_decrease).
    """
    if layout is None:
        layout = default_layout(model, config)
    ws = workspace if workspace is not None else LmWorkspace()
    if not (_same_problem(ws.filled_for, model, ds, config.gamma)
            and ws.filled_for[3] == layout):
        rv = ws._residuals(model, ds, config.gamma)
        ws.jacobians += 1
        ws.JtJ, ws.Jtr = _normal_equations(model, ds, config.gamma, layout, rv)
        ws.loss = rv.loss_value()
        ws.output_mse, ws.penalty_mse = rv.components()
        ws.grad_inf = float(np.max(np.abs(2.0 / ds.n_samples * ws.Jtr)))
        ws.filled_for = (model, ds, config.gamma, layout)

    ws.last_candidate_loss = None
    ws.last_candidate_components = None
    ws.last_step_norm = None
    ws.last_reject_reason = None

    def reject(reason: str):
        ws.last_reject_reason = reason
        return model, lam * config.lambda_up, False

    damping = np.diag(ws.JtJ).copy()
    damping[damping == 0.0] = 1.0
    damped = np.array(ws.JtJ, order="F")
    damped.flat[:: damped.shape[0] + 1] += lam * damping
    ws.solves += 1
    _, delta, info = dposv(damped, -ws.Jtr, lower=0, overwrite_a=1, overwrite_b=1)
    if info != 0:
        return reject("solve_failed")
    if not np.all(np.isfinite(delta)):
        return reject("non_finite_step")

    ws.last_step_norm = float(np.linalg.norm(delta))
    try:
        candidate = unpack_params(model, layout, pack_params(model, layout) + delta)
    except DataError:
        return reject("invalid_params")
    ws.free_runs += 1
    try:
        rv_c = residuals(candidate, ds, config.gamma)
    except DivergenceError:
        return reject("diverged")
    except DataError:
        return reject("invalid_params")
    loss_c = rv_c.loss_value()
    ws.last_candidate_loss = loss_c
    ws.last_candidate_components = rv_c.components()
    if loss_c < ws.loss:
        ws.accepted = (candidate, ds, config.gamma, rv_c)
        return candidate, lam * config.lambda_down, True
    return reject("no_decrease")


# --- training pipelines -----------------------------------------------------

@dataclass
class TrainReport:
    """What a training run did. `free_runs`, `jacobians` and `solves` count
    the LM loop's work, its initial residual included; iteration records
    carry the step norm and, for a rejected step, the reason."""

    family: str
    dims: dict
    config: dict
    input_scaling: dict
    init_loss: float
    final_loss: float
    final_output_mse: float
    final_penalty_mse: float
    rmse_train: float
    n_iterations: int
    n_accepted: int
    stop_reason: str
    iterations: list = field(default_factory=list)
    free_runs: int = 0
    jacobians: int = 0
    solves: int = 0
    wall_time_s: float = 0.0


def report_to_json_dict(report: TrainReport, include_timing: bool = False) -> dict:
    """Report as a JSON-ready dict; wall time is opt-in so identical runs
    serialize identically."""
    d = asdict(report)
    if not include_timing:
        d.pop("wall_time_s")
    return d


def _hidden_input_scales(lin0: LinearSS, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel stds of the net inputs along the linear-init free run.

    Dividing the input-layer columns by these keeps tanh units out of
    saturation whatever the physical units of the data are. The state
    channels are floored at output-scale / max|C| (times 0.1): when the
    initializer's B is nearly zero the init free run is vanishingly small,
    but a model that explains the output must carry states of roughly that
    magnitude, and scaling to the tiny init states would saturate the input
    layer the moment training grows them.
    """
    traj = simulate(lin0, ds.u)
    K = min(traj.x.shape[0], ds.n_samples)
    Z = np.hstack([traj.x[:K], ds.u[:K]])
    y_scale = ds.y.std(axis=0)
    z_scale = Z.std(axis=0)
    n = lin0.n_states
    floor = 0.1 * float(y_scale.max()) / max(float(np.max(np.abs(lin0.C))), 1e-12)
    z_scale[:n] = np.maximum(z_scale[:n], floor)
    y_scale[y_scale < 1e-9] = 1.0
    z_scale[z_scale < 1e-9] = 1.0
    return y_scale, z_scale


def _scale_input_layer(net: Mlp, scale: np.ndarray) -> Mlp:
    return replace(net, W_in=net.W_in / scale[None, :])


def _enrich_basis(net: Mlp, config: TrainConfig) -> Mlp:
    return replace(net, W_in=net.W_in * config.hidden_gain,
                   b_in=net.b_in * config.hidden_bias_scale)


def _run_lm(model: AlSsnnModel, ds: Dataset, config: TrainConfig,
            layout: ParamLayout):
    ws = LmWorkspace()
    lam = config.lambda0
    rv0 = ws._residuals(model, ds, config.gamma)
    ws.accepted = (model, ds, config.gamma, rv0)   # the first refill reuses this run
    init_loss = rv0.loss_value()
    cur_loss = init_loss
    cur_out, cur_pen = rv0.components()
    accepted_losses = [init_loss]
    records = []
    stop_reason = "max_iters"
    n_accepted = 0
    for it in range(1, config.max_iters + 1):
        model_next, lam, accepted = lm_step(
            model, ds, config, lam, layout=layout, workspace=ws
        )
        if accepted:
            model = model_next
            n_accepted += 1
            cur_loss = ws.last_candidate_loss
            cur_out, cur_pen = ws.last_candidate_components
            accepted_losses.append(cur_loss)
        records.append({
            "iteration": it,
            "loss": cur_loss,
            "output_mse": cur_out,
            "penalty_mse": cur_pen,
            "lambda": lam,
            "accepted": accepted,
            "grad_inf": ws.grad_inf,
            "step_norm": ws.last_step_norm,
            "reason": ws.last_reject_reason,
        })
        if ws.grad_inf < config.grad_tol:
            stop_reason = "grad_tol"
            break
        if accepted and len(accepted_losses) >= 11:
            old, newest = accepted_losses[-11], accepted_losses[-1]
            if old - newest < config.loss_tol * max(old, 1e-300):
                stop_reason = "loss_tol"
                break
        if accepted and config.step_tol > 0:
            ref = np.linalg.norm(pack_params(model, layout)) + config.step_tol
            if ws.last_step_norm <= config.step_tol * ref:
                stop_reason = "step_tol"
                break
    return model, {
        "init_loss": init_loss,
        "final_loss": cur_loss,
        "final_output_mse": cur_out,
        "final_penalty_mse": cur_pen,
        "records": records,
        "stop_reason": stop_reason,
        "n_accepted": n_accepted,
        "free_runs": ws.free_runs,
        "jacobians": ws.jacobians,
        "solves": ws.solves,
    }


def _train(family: type, ds_train: Dataset, n: int, config: TrainConfig):
    """Linear init, zero-function nets and LM, for AL (family AlSsnnModel)
    and GR (GrSsnnModel, n_h = 0, its f net as the g net)."""
    t0 = time.perf_counter()
    lin0 = linear_init(ds_train, n, config.horizon)
    m, p = ds_train.n_inputs, ds_train.n_outputs
    y_scale, z_scale = _hidden_input_scales(lin0, ds_train)
    h_net = _enrich_basis(init_small(p, config.n_h, m, scale=0.0, seed=config.seed), config)
    g_net = _enrich_basis(init_small(n + m, config.n_g, n, scale=0.0, seed=config.seed + 1),
                          config)
    h_net = _scale_input_layer(h_net, y_scale)
    g_net = _scale_input_layer(g_net, z_scale)
    model = family(lin=lin0, h_net=h_net, g_net=g_net,
                   eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)), c_frozen=config.freeze_C)
    layout = default_layout(model, config)
    if layout.eq_constrained:
        model = replace(model, g_net=enforce_equilibrium_zero(model.g_net, model.eq))
    model, stats = _run_lm(model, ds_train, config, layout)
    if layout.eq_constrained:
        model = replace(model, g_net=enforce_equilibrium_zero(model.g_net, model.eq))
    scaling = {"h_input_scale": [float(v) for v in y_scale],
               "g_input_scale": [float(v) for v in z_scale]}
    if family is GrSsnnModel:
        scaling = {"f_input_scale": scaling["g_input_scale"]}
    return model, TrainReport(
        family=_family(model),
        dims=model.dims,
        config=asdict(config),
        input_scaling=scaling,
        init_loss=stats["init_loss"],
        final_loss=stats["final_loss"],
        final_output_mse=stats["final_output_mse"],
        final_penalty_mse=stats["final_penalty_mse"],
        rmse_train=float(np.sqrt(stats["final_output_mse"])),
        n_iterations=len(stats["records"]),
        n_accepted=stats["n_accepted"],
        stop_reason=stats["stop_reason"],
        iterations=stats["records"],
        free_runs=stats["free_runs"],
        jacobians=stats["jacobians"],
        solves=stats["solves"],
        wall_time_s=time.perf_counter() - t0,
    )


def train(ds_train: Dataset, n: int, config: TrainConfig) -> tuple[AlSsnnModel, TrainReport]:
    """Full identification pipeline for the h/g-split model.

    Linear init fixes the starting (A, B, C); both nets start as exact zero
    functions, so iteration 0 reproduces the linear model's loss. C stays at
    its initial value when freeze_C is set. The returned loss never exceeds
    the initialization's (steps are only ever accepted on strict decrease).
    """
    return _train(AlSsnnModel, ds_train, n, config)


def train_gr(ds_train: Dataset, n: int, n_f: int,
             config: TrainConfig) -> tuple[GrSsnnModel, TrainReport]:
    """Baseline pipeline: train's, with an empty h net and an f net of n_f
    units in g's place; no equilibrium pin and no penalty. The report's
    config records n_h = 0, n_g = n_f and enforce_equilibrium = False."""
    config = replace(config, n_h=0, n_g=n_f, enforce_equilibrium=False)
    return _train(GrSsnnModel, ds_train, n, config)
