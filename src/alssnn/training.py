"""Simulation-error training: residuals, exact Jacobian, Levenberg-Marquardt.

The loss on a dataset of N samples is

    J_N = (1/N) * sum_k [ ||y(k) - y_model(k)||^2 + gamma * ||g(x(k), u(k))||^2 ]

with x(k) from a free run started at x(0) = 0. The residual vector stacks all
N*p output errors first, then the N*n penalty values scaled by sqrt(gamma),
so J_N = ||r||^2 / N exactly; residuals returns it with the run's states.
Training enters the LM loop only through lm_step, whose first call, on an
empty workspace, evaluates the initial model. Jacobians are exact (forward
accumulation of state sensitivities through the recursion). lm_step
streams the normal equations from one pass over chunks of samples sized to
stay in cache: each chunk's rows of J go through one dsyrk into J'J and
one gemv into J'r, so training never holds the full Jacobian;
jacobian_bptt is the assembled matrix from the same pass.

The sensitivity pass, and so the fill and the solve, cover only the live
columns of J. A hidden unit whose output weights W_out[:, i] are all zero
has exactly-zero columns on its input row W_in[i, :] and bias b_in[i], for
h and g alike; the pass never writes, steps or multiplies them, so train's
zero-output start fills and solves an L x L system over the L live
columns, and the step is exactly 0 on the dead ones. J'J, L x L, is the
only square array an LM fill holds: every damped solve factors in place
inside it, and its strict lower triangle keeps J'J for the next solve.

A step is accepted on strict decrease of the loss, and a losing
candidate's free run stops early: the output error sum ||y - C x||^2 of
the samples run so far is a lower bound on N times the loss, since the
penalty rows are squares, so once it passes N times the current loss the
step is rejected as no_decrease without running the rest of the record.

The model fixes its own parameter vector (pack_params): A, B and its nets'
weights. C is never a parameter: it stays at the linear initialization's
value. An AL model's g is pinned at the equilibrium, g(x_e, u_e) = 0, so
g's output bias is no parameter but is recomputed from the rest after every
update.

The GR baseline is an AL model with an empty h net (models.GrSsnnModel):
it trains through the same initialisation, parameter layout, sensitivity
pass and LM loop, with its f net as the g net, no equilibrium pin and no
penalty rows. Its h blocks are zero-width, and its free output bias is g's
rather than h's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dposv

from .dataio import Dataset
from .errors import DataError, DivergenceError
# linear_init stays bound here: perfbench's tracer wraps training.linear_init.
from .linear_id import _linear_fit, linear_init  # noqa: F401
from .models import (AlSsnnModel, GrSsnnModel, LinearSS, _check_record, _family, _run_states,
                     simulate)
from .nets import Equilibrium, Mlp, enforce_equilibrium_zero, init_small, mlp_forward_batch

__all__ = [
    "TrainConfig",
    "TrainReport",
    "LmWorkspace",
    "pack_params",
    "unpack_params",
    "residuals",
    "jacobian_bptt",
    "lm_step",
    "train",
    "train_gr",
]


def _gamma(gamma) -> float:
    """The penalty weight as a float: a real number other than a bool,
    finite and >= 0 once converted; anything else is a DataError naming gamma."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise DataError(f"gamma must be a real number, got {gamma!r}")
    try:
        value = float(gamma)
    except OverflowError:   # an int past the float range, whose repr may not even form
        value = math.inf if gamma > 0 else -math.inf
    if not (0 <= value < math.inf):
        raise DataError(f"gamma must be finite and non-negative, got {value}")
    return value


@dataclass(frozen=True)
class TrainConfig:
    """What a caller sets for one identification run: penalty weight, LM
    iteration budget, hidden widths, seed of the nets' input layers and the
    linear initializer's horizon (None: its default).

    The rest are class constants, readable as `config.lambda0`. LM damping
    starts at lambda0 and moves by lambda_up after a rejected step and by
    lambda_down after an accepted one; a run stops once max |gradient| <
    grad_tol, once ten accepted steps lowered the loss by less than
    loss_tol relative, or once lambda passes lambda_max (steps below roundoff).
    """

    gamma: float = 1.0
    max_iters: int = 300
    n_h: int = 10
    n_g: int = 10
    seed: int = 0
    horizon: int | None = None

    lambda0: ClassVar[float] = 1e-2
    lambda_up: ClassVar[float] = 10.0
    lambda_down: ClassVar[float] = 0.1
    grad_tol: ClassVar[float] = 1e-10
    loss_tol: ClassVar[float] = 1e-10
    lambda_max: ClassVar[float] = 1 / np.finfo(float).eps
    # Multipliers on the freshly drawn input layer. Output weights start at
    # zero, so these cost nothing at iteration 0, but they set the basis the
    # optimizer gets to combine: wider input weights and, above all, nonzero
    # biases expose tanh curvature (even terms need bias offsets; an odd
    # function of a zero-mean signal cannot produce them).
    hidden_gain: ClassVar[float] = 2.0
    hidden_bias_scale: ClassVar[float] = 3.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _gamma(self.gamma))   # the report echoes plain numbers
        for key in ["max_iters", "n_h", "n_g", "seed"] + ["horizon"] * (self.horizon is not None):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise DataError(f"{key} must be an integer, got {val!r}")
            object.__setattr__(self, key, int(val))
        if self.max_iters < 1:
            raise DataError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.n_h < 0 or self.n_g < 0:
            raise DataError("hidden sizes must be non-negative")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.horizon is not None and self.horizon < 1:
            raise DataError(f"horizon must be >= 1, got {self.horizon}")


# --- parameter vector -------------------------------------------------------

_NET_SUFFIXES = ("W_in", "b_in", "W_out", "b_out")
_BLOCKS = ("A", "B", *(f"{tag}.{s}" for tag in ("h", "g") for s in _NET_SUFFIXES))


def _pinned(model: AlSsnnModel) -> bool:
    """Whether g is pinned at the equilibrium, g(x_e, u_e) = 0: for AL, not
    for GR. A pinned g has penalty rows and no free output bias."""
    return not isinstance(model, GrSsnnModel)


def _block_array(model: AlSsnnModel, name: str) -> np.ndarray:
    if name in ("A", "B"):
        return getattr(model.lin, name)
    tag, suffix = name.split(".")
    return getattr(getattr(model, f"{tag}_net"), suffix)


def _param_slices(model: AlSsnnModel,
                  units: dict | None = None) -> tuple[dict[str, slice], int]:
    """Columns of each free block in the parameter vector, and its length P.

    One layout serves both families: A, B, h's blocks, then g's, every
    weight free but one output bias. An AL model's g.b_out is fixed by its
    pin, and a GR model's h.b_out is zero; GR's other h blocks are
    zero-width, so its vector is A, B and its g net (the f net).

    With `units` (_live_units's), the same layout over J's live columns
    only, of length L: each input layer keeps the rows of its live units.
    """
    fixed = "g.b_out" if _pinned(model) else "h.b_out"
    cols, P = {}, 0
    for name in (name for name in _BLOCKS if name != fixed):
        block = _block_array(model, name)
        size = (block if units is None else _live_part(name, block, units)).size
        cols[name] = slice(P, P + size)
        P += size
    return cols, P


def _live_units(model: AlSsnnModel) -> dict[str, np.ndarray]:
    """Indices of the live hidden units of h and g, by tag.

    A hidden unit i whose output weights W_out[:, i] are all zero is dead
    (NaN counts as nonzero): the columns of its input row W_in[i, :] and
    bias b_in[i] are exactly zero in J, because every F(k) entry on them
    carries the factor W_out[:, i] (through B W_h,out for h) and S(0) = 0.
    """
    return {tag: np.flatnonzero(np.any(getattr(model, f"{tag}_net").W_out, axis=0))
            for tag in ("h", "g")}


def _live_part(name: str, a: np.ndarray, units: dict) -> np.ndarray:
    """The part of `a`, laid out as parameter block `name`, on J's live
    columns: the live units' rows of an input layer (W_in, b_in), else a."""
    tag, _, suffix = name.partition(".")
    return a[units[tag]] if suffix in ("W_in", "b_in") else a


def pack_params(model: AlSsnnModel) -> np.ndarray:
    return np.concatenate([_block_array(model, name).ravel()
                           for name in _param_slices(model)[0]])


def unpack_params(model: AlSsnnModel, theta: np.ndarray) -> AlSsnnModel:
    """Rebuild the model from a flat parameter vector laid out as
    pack_params's. A pinned g gets its output bias recomputed afterwards."""
    cols, total = _param_slices(model)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape != (total,):
        raise DataError(f"parameter vector length {theta.shape[0]} != {total}")

    def block(name: str) -> np.ndarray:
        return theta[cols[name]].reshape(_block_array(model, name).shape)

    lin = replace(model.lin, A=block("A"), B=block("B"))

    def rebuild(net: Mlp, tag: str) -> Mlp:
        return replace(net, **{suffix: block(f"{tag}.{suffix}") for suffix in _NET_SUFFIXES
                               if f"{tag}.{suffix}" in cols})

    g_net = rebuild(model.g_net, "g")
    if _pinned(model):
        g_net = enforce_equilibrium_zero(g_net, model.eq)
    return replace(model, lin=lin, h_net=rebuild(model.h_net, "h"), g_net=g_net)


# --- residuals and loss -----------------------------------------------------

def _penalty_weight(model: AlSsnnModel, gamma: float) -> float | None:
    """sqrt(gamma), the weight of the penalty rows; None for GR, which has none."""
    gamma = _gamma(gamma)
    return np.sqrt(gamma) if _pinned(model) else None


def residuals(model: AlSsnnModel, ds: Dataset, gamma: float = 0.0,
              stop_above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(r, X): the stacked residual vector of the free run from x(0) = 0, and
    its states x(0..N-1), which the sensitivity pass at this model reuses.

    With `stop_above`, a bound on the output error sum_k ||y(k) - C x(k)||^2,
    the free run ends after the first block of models._BLOCK samples at
    which its output error so far passes the bound. X then holds the k < N
    states run and r only their k*p output errors, so ||r||^2 / N, which
    passes stop_above / N up to roundoff, is a lower bound on the loss: the
    rows left out, penalty rows included, are squares.
    """
    lin = model.lin
    _check_record(model, ds)
    sqrt_g = _penalty_weight(model, gamma)
    stop = None if stop_above is None else _output_error_passes(ds.y, lin.C, stop_above)
    xs = _run_states(simulate(model, ds.u, stop=stop))
    r = (ds.y[: len(xs)] - xs @ lin.C.T).ravel()
    if sqrt_g is not None and len(xs) == ds.n_samples:
        gvals = mlp_forward_batch(model.g_net, np.hstack([xs, ds.u]))
        r = np.concatenate([r, sqrt_g * gvals.ravel()])
    return r, xs


def _output_error_passes(y: np.ndarray, C: np.ndarray, bound: float):
    """The step engine's stop hook for a free run on the outputs y: true
    once the run's output error sum_k ||y(k) - C x(k)||^2 passes `bound`."""
    sse = 0.0

    def stop(k0: int, X: np.ndarray) -> bool:
        nonlocal sse
        e = (y[k0 : k0 + len(X)] - X @ C.T).ravel()
        sse += float(e @ e)
        return sse > bound

    return stop


def _mean_square(r: np.ndarray, n_samples: int) -> float:
    """||r||^2 / N: the loss of a residual vector, or the share of a slice of it."""
    return float(r @ r / n_samples)


# --- Jacobian by forward sensitivity accumulation ---------------------------

def _tanh_stats(net: Mlp, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.tanh(Z @ net.W_in.T + net.b_in)
    return t, 1.0 - t**2


def jacobian_bptt(model: AlSsnnModel, ds: Dataset, gamma: float = 0.0) -> np.ndarray:
    """Exact residual Jacobian, shape (N*(p [+ n]), P), columns in
    pack_params's order.

    State sensitivities follow S(k+1) = F_x(k) S(k) + F_theta(k) with
    S(0) = 0 (the initial state is fixed, not a parameter); output rows are
    -C S(k), penalty rows are sqrt(gamma) * (dg/dx S(k) + dg/dtheta_g).

    This is the assembled form of the chunked sensitivity pass that lm_step
    streams J'J and J'r from, kept as the reference that finite differences
    check; training itself never builds this matrix. The pass covers the
    live columns (_live_columns); the columns of dead units are exact zeros.
    """
    _check_record(model, ds)
    states = _run_states(simulate(model, ds.u))
    N, p = ds.n_samples, model.lin.n_outputs
    q = 0 if _penalty_weight(model, gamma) is None else model.lin.n_states
    P = _param_slices(model)[1]
    live = _live_columns(model)
    live = slice(None) if live is None else live
    J = np.zeros((N * (p + q), P))
    J_out, J_pen = J[: N * p].reshape(N, p, P), J[N * p :].reshape(N, q, P)
    for k0, k1, rows in _sensitivity_chunks(model, ds, gamma, states):
        J_out[k0:k1, :, live] = rows[:, :p]
        J_pen[k0:k1, :, live] = rows[:, p:]
    return J


# Bytes of one chunk's n x P array in the sensitivity pass, which sets the
# samples per chunk: about 30 at n = 4, P = 1,061 and 300 at n = 3, P = 147.
# A chunk's S, F and rows then stay in cache from their fill to its dsyrk.
# 1 MiB refilled P = 1,061 faster than 0.5 or 2 MiB; at P = 147 they tied.
_CHUNK_BYTES = 1 << 20


def _chunk_len(n: int, P: int) -> int:
    """Samples per chunk of the sensitivity pass for n states, P parameters."""
    return max(1, _CHUNK_BYTES // (8 * n * P))


def _diagonal_blocks(a: np.ndarray, start: int, width: int) -> np.ndarray:
    """Writable view V of a (c, d, cols) array, V[k, i] =
    a[k, i, start + i*width : start + (i+1)*width]: the nonzero part of a
    column block laid out as I_d kron (a row of `width`)."""
    sk, si, s = a.strides
    return as_strided(a[:, :, start:], shape=(a.shape[0], a.shape[1], width),
                      strides=(sk, si + width * s, s))


def _fill_outer(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out[k, a, i, j] = left[k, a, i] * right[k, j], one j at a time so that
    each product runs along i rather than along the short j."""
    for j in range(right.shape[1]):
        np.multiply(left, right[:, j, None, None], out=out[..., j])


def _sensitivity_chunks(model: AlSsnnModel, ds: Dataset, gamma: float,
                        states: np.ndarray):
    """Rows of jacobian_bptt's matrix on its L live columns, chunk by chunk.

    `states` is the model's free run x(0..N-1) on ds.u. Yields (k0, k1, R)
    for samples k0..k1-1. R is a contiguous array of shape (k1 - k0, p + q,
    L): R[k - k0] holds sample k's p output rows, then its q penalty rows
    (q = n, or 0 for a GR model, which has no penalty), on the columns
    _live_columns lists, in its order. R is a buffer that the next chunk
    overwrites. A dead unit's input row and bias are never written into F,
    stepped or multiplied into rows; the chunk length is set by all P
    columns all the same, so the chunks, and the sums over them, do not
    depend on how many units are dead.

    Only the recursion S(k+1) = [F_x(k), I] [S(k); F(k)] steps sample by
    sample, one product each; F, F_x and the rows are batched over the
    chunk. F(k) = dx(k+1)/dtheta at fixed x(k) is stored under S(k), never
    over it, so its zero and constant entries are written once per pass, and
    its g columns, which are dg/dtheta_g, are still there after the
    recursion: the rows are [-C; sqrt(gamma) G_x(k)] S(k) on the other
    columns and [-C, 0; sqrt(gamma) G_x(k), sqrt(gamma) I] [S(k); F(k)] on
    the g columns, the last blocks of the parameter vector.
    """
    lin = model.lin
    A, B, C = lin.A, lin.B, lin.C
    n, m, p = lin.n_states, lin.n_inputs, lin.n_outputs
    N, X = ds.n_samples, states
    h_net, g_net, sqrt_g = model.h_net, model.g_net, _penalty_weight(model, gamma)
    n_h, n_g = h_net.n_hidden, g_net.n_hidden
    q = 0 if sqrt_g is None else n
    units = _live_units(model)
    h_live, g_live = units["h"], units["g"]
    cols, L = _param_slices(model, units)
    g0 = cols["g.W_in"].start

    c_max = min(N, _chunk_len(n, _param_slices(model)[1]))
    SF = np.zeros((c_max + 1, 2 * n, L))   # SF[k] = [S(k); F(k)]; SF[0] starts the chunk
    S, F = SF[:, :n], SF[:c_max, n:]
    R = np.empty((c_max, p + q, L))
    rowmap = np.zeros((c_max, p + q, 2 * n))   # [-C, 0; sqrt(gamma) G_x(k), sqrt(gamma) I]
    rowmap[:, :p, :n] = -C
    if q:
        rowmap[:, p:, n:] = sqrt_g * np.eye(n)
    tail = g0 if q else L                  # first column whose rows read F too
    FxI = np.zeros((c_max, n, 2 * n))      # [F_x(k), I]: S(k+1) = FxI[k] SF[k]
    FxI[:, :, n:] = np.eye(n)
    # Views of the blocks of F rewritten per chunk: Kronecker blocks by their
    # nonzero part, and blocks whose column i * width + j holds entry (i, j)
    # of an outer product as (c, n, rows, width). The input layers have a
    # row per live unit; a GR model's h blocks are zero-width.
    diag = {name: _diagonal_blocks(F, cols[name].start, width)
            for name, width in (("A", n), ("B", m), ("g.W_out", n_g))}
    outer = {name: F[:, :, cols[name]].reshape(c_max, n, rows, width)
             for name, rows, width in (("h.W_in", h_live.size, p), ("h.W_out", m, n_h),
                                       ("g.W_in", g_live.size, n + m))}
    if "h.b_out" in cols:
        F[:, :, cols["h.b_out"]] = B
    if "g.b_out" in cols:
        _diagonal_blocks(F, cols["g.b_out"].start, 1)[...] = 1.0
    # With g's output bias pinned, g is g_raw(z) - g_raw(z_e), so its
    # columns lose the equilibrium point's: t - t_e, ws - ws_e and
    # ws z - ws_e z_e (whose second term vanishes at z_e = 0).
    t_e, ws_e, z_e = np.zeros(n_g), np.zeros((n, n_g)), None
    if _pinned(model):
        z = model.eq.stacked()
        t_e, s_e = _tanh_stats(g_net, z[None, :])
        ws_e = s_e * g_net.W_out
        z_e = z if np.any(z) else None
    ws_e = ws_e[:, g_live]
    BW = B @ h_net.W_out
    W_gx = g_net.W_in[:, :n]

    for k0 in range(0, N, c_max):
        k1 = min(N, k0 + c_max)
        c = k1 - k0
        Fc, Rc, Lc = F[:c], R[:c], rowmap[:c]
        Xc, U = X[k0:k1], ds.u[k0:k1]
        Y = Xc @ C.T
        th, sh = _tanh_stats(h_net, Y)
        Bws = sh[:, None, :] * BW                 # B dh/db_in, (c, n, n_h)
        BH = Bws @ h_net.W_in                     # B dh/dy, (c, n, p)
        Z = np.hstack([Xc, U])
        tg, sg = _tanh_stats(g_net, Z)
        ws = sg[:, None, :] * g_net.W_out         # unpinned dg/db_in, (c, n, n_g)
        Gx = ws @ W_gx                            # dg/dx, (c, n, n)
        FxI[:c, :, :n] = A + BH @ C + Gx

        diag["A"][:c] = Xc[:, None, :]
        diag["B"][:c] = (U + (th @ h_net.W_out.T + h_net.b_out))[:, None, :]
        Bws, ws = Bws[:, :, h_live], ws[:, :, g_live]   # F's input-layer columns: live units
        _fill_outer(outer["h.W_in"][:c], Bws, Y)
        Fc[:, :, cols["h.b_in"]] = Bws
        np.multiply(B[:, :, None], th[:, None, None, :], out=outer["h.W_out"][:c])
        _fill_outer(outer["g.W_in"][:c], ws, Z)
        if z_e is not None:
            outer["g.W_in"][:c] -= ws_e[:, :, None] * z_e
        np.subtract(ws, ws_e, out=Fc[:, :, cols["g.b_in"]])
        np.subtract(tg[:, None, :], t_e, out=diag["g.W_out"][:c])

        for fxi, sf, s_next in zip(FxI[:c], SF[:c], S[1 : c + 1]):
            fxi.dot(sf, s_next)   # the method skips np.dot's dispatcher

        if q:
            np.multiply(Gx, sqrt_g, out=Lc[:, p:, :n])
        np.matmul(Lc[:, :, :n], S[:c, :, :tail], out=Rc[:, :, :tail])
        if tail < L:
            np.matmul(Lc, SF[:c, :, tail:], out=Rc[:, :, tail:])
        yield k0, k1, Rc
        S[0] = S[c]


# Width of the block columns _mirror copies: a 64 x 64 diagonal block is a
# 32 KiB temporary, and the strip below it goes across in one transposed
# assignment.
_MIRROR_BLOCK = 64


def _mirror(a: np.ndarray) -> None:
    """Copy the strict upper triangle of the square array `a` onto its strict
    lower one, block column by block column; _mirror(a.T) copies the lower
    onto the upper."""
    tri = np.tri(_MIRROR_BLOCK, k=-1, dtype=bool)   # strict lower of a block
    for j0 in range(0, a.shape[0], _MIRROR_BLOCK):
        j1 = j0 + _MIRROR_BLOCK
        block = a[j0:j1, j0:j1]
        a[j1:, j0:j1] = a[j0:j1, j1:].T
        w = block.shape[0]
        np.copyto(block, block.T, where=tri[:w, :w])


def _live_columns(model: AlSsnnModel) -> np.ndarray | None:
    """Indices of the parameter columns J can depend on, in the order of
    _param_slices's live layout, or None when that is every column: all
    but the input rows and biases of dead units (_live_units)."""
    cols, P = _param_slices(model)
    units, index = _live_units(model), np.arange(P)
    live = np.concatenate([
        _live_part(name, index[sl].reshape(_block_array(model, name).shape), units).ravel()
        for name, sl in cols.items()])
    return None if live.size == P else live


def _normal_equations(model: AlSsnnModel, ds: Dataset, gamma: float, r: np.ndarray,
                      X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J'J and J'r over the L live columns (_live_columns's, all P when no
    unit is dead) at the residuals r of the free run X (residuals's pair),
    accumulated chunk by chunk; the full J is never formed.

    J'J is one L x L Fortran-order array. Each cache-sized chunk of J's
    rows, which the sensitivity pass yields on the live columns alone, adds
    to its upper triangle in one dsyrk and to J'r in one gemv, with the
    chunk's residuals in their own small array. The upper triangle is
    mirrored once at the end, so J'J is exactly symmetric.
    """
    L = _param_slices(model, _live_units(model))[1]
    N, p = ds.n_samples, model.lin.n_outputs
    r_out, r_pen = r[: N * p].reshape(N, p), r[N * p :].reshape(N, -1)   # the rest: penalty
    JtJ, Jtr = np.zeros((L, L), order="F"), np.zeros(L)
    for k0, k1, rows in _sensitivity_chunks(model, ds, gamma, X):
        Jc = rows.reshape(-1, L).T   # Fortran order, so the wrappers copy nothing
        r_c = np.concatenate((r_out[k0:k1], r_pen[k0:k1]), axis=1).ravel()
        JtJ = dsyrk(1.0, Jc, beta=1.0, c=JtJ, overwrite_c=1)
        Jtr = dgemv(1.0, Jc, r_c, beta=1.0, y=Jtr, overwrite_y=1)
    _mirror(JtJ)
    return JtJ, Jtr


# --- Levenberg-Marquardt ----------------------------------------------------

@dataclass
class LmWorkspace:
    """State shared across lm_step calls: one model's residuals and fill.

    A workspace starts empty, as LmWorkspace(), and only lm_step writes it.
    `problem` is the (model, dataset, gamma) it holds, and `rv` that model's
    (r, X) from `residuals`; `live`, `JtJ`, `JtJ_diag`, `Jtr`, `loss` and
    `grad_inf` belong to the same model once filled, and `JtJ is None`
    means not filled yet. A call with another problem, the first call
    included, drops all of it and computes a fresh free run. A fill first
    sets `live`, the indices of the L parameter columns J can depend on
    (None: all P; see _live_columns), then streams J'J and J'r over them
    from one dsyrk and one gemv per cache-sized chunk of J's rows, which the
    sensitivity pass computes on those columns alone, without forming J:
    `JtJ` is then the exactly symmetric L x L J'J in Fortran order,
    `JtJ_diag` its diagonal and `Jtr` the L-vector J'r. Each solve
    factors in place inside `JtJ`, after which only its strict lower
    triangle and `JtJ_diag` hold J'J. An accepted step moves `problem` and
    `rv` to the candidate and drops the old fill, so the next call fills
    from the candidate's free run; `loss` still holds the loss of the model
    the step started from. `last_candidate_loss` is the last candidate's
    loss, or, where its free run stopped early (lm_step), a lower bound on
    it that passes `loss`. The counters add up over all calls sharing it:
    one free run per residual evaluation, a stopped one included, one
    Jacobian per fill and one solve per damped system.
    """

    problem: tuple | None = field(default=None, repr=False)
    rv: tuple | None = field(default=None, repr=False)
    live: np.ndarray | None = None
    JtJ: np.ndarray | None = None
    JtJ_diag: np.ndarray | None = None
    Jtr: np.ndarray | None = None
    loss: float = float("nan")
    grad_inf: float = float("nan")
    last_candidate_loss: float | None = None
    last_step_norm: float | None = None
    last_reject_reason: str | None = None
    free_runs: int = 0
    jacobians: int = 0
    solves: int = 0


def lm_step(model: AlSsnnModel, ds: Dataset, config: TrainConfig, lam: float,
            workspace: LmWorkspace | None = None):
    """One damped Gauss-Newton step with strict-decrease acceptance, over
    the parameters the model frees (pack_params).

    Solves (J'J + lam*diag(J'J)) delta = -J'r by Cholesky, zero diagonal
    entries replaced by 1, over the fill's L live columns only: the columns
    of a hidden unit whose output weights are all zero are exactly zero in
    J (_live_columns), and delta is exactly 0 on them. A model with no such
    unit solves the full P x P system. Unlike LU with partial pivoting,
    Cholesky loses no accuracy to badly scaled parameters (the diagonal
    scaling of the system). The damped system is written into the
    workspace's J'J and factored there (dposv on its upper triangle); every
    solve first copies J'J from the strict lower triangle onto the upper
    one, so no solve allocates an L x L array. Returns (model', lam',
    accepted); the model is returned unchanged on rejection and lam moves
    by TrainConfig's factors. Solve failures (including a system that is
    not numerically positive definite) and divergent candidates count as
    rejections; the workspace records why (`last_reject_reason`:
    solve_failed, non_finite_step, invalid_params, diverged or no_decrease).

    The candidate's free run, one call of training.simulate, stops after
    the first block of models._BLOCK samples at which its output error, a
    lower bound on N times its loss, passes N * loss * (1 + 1e-9)
    (residuals's `stop_above`): the step is rejected as no_decrease, and
    last_candidate_loss holds that lower bound. The divergence check comes
    first within a block, so a run that leaves the bound there is still
    diverged. A candidate that runs to the end is scored on its full loss.
    """
    ws = workspace if workspace is not None else LmWorkspace()
    held, held_ds, held_gamma = ws.problem or (None, None, None)
    if held is not model or held_ds is not ds or held_gamma != config.gamma:
        # Drop the old state first: its J'J is not kept alive through the
        # refill, and a free run that raises leaves no stale problem behind.
        ws.problem = ws.rv = ws.live = ws.JtJ = ws.JtJ_diag = ws.Jtr = None
        ws.free_runs += 1
        ws.rv = residuals(model, ds, config.gamma)
        ws.problem = (model, ds, config.gamma)
    if ws.JtJ is None:
        ws.jacobians += 1
        ws.live = _live_columns(model)
        ws.JtJ, ws.Jtr = _normal_equations(model, ds, config.gamma, *ws.rv)
        ws.JtJ_diag = ws.JtJ.diagonal().copy()
        ws.loss = _mean_square(ws.rv[0], ds.n_samples)
        ws.grad_inf = float(np.max(np.abs(2.0 / ds.n_samples * ws.Jtr)))

    ws.last_candidate_loss = ws.last_step_norm = ws.last_reject_reason = None

    def reject(reason: str):
        ws.last_reject_reason = reason
        return model, lam * config.lambda_up, False

    _mirror(ws.JtJ.T)   # J'J over the last factor, if any
    damping = np.where(ws.JtJ_diag == 0.0, 1.0, ws.JtJ_diag)
    np.fill_diagonal(ws.JtJ, ws.JtJ_diag + lam * damping)
    ws.solves += 1
    _, delta, info = dposv(ws.JtJ, -ws.Jtr, lower=0, overwrite_a=1, overwrite_b=1)
    if info != 0:
        return reject("solve_failed")
    if not np.all(np.isfinite(delta)):
        return reject("non_finite_step")

    theta = pack_params(model)
    if ws.live is not None:   # dead columns step by exactly 0
        step = np.zeros(theta.size)
        step[ws.live] = delta
        delta = step
    ws.last_step_norm = float(np.linalg.norm(delta))
    try:
        candidate = unpack_params(model, theta + delta)
    except DataError:
        return reject("invalid_params")
    ws.free_runs += 1
    N = ds.n_samples
    try:
        # The run stops once its output error alone passes N times the
        # loss; the margin keeps roundoff in that sum from stopping a
        # candidate whose full loss would pass the test.
        rv_c = residuals(candidate, ds, config.gamma, stop_above=N * ws.loss * (1 + 1e-9))
    except DivergenceError:
        return reject("diverged")
    ws.last_candidate_loss = _mean_square(rv_c[0], N)
    if len(rv_c[1]) == N and ws.last_candidate_loss < ws.loss:
        ws.problem, ws.rv = (candidate, ds, config.gamma), rv_c
        ws.live = ws.JtJ = ws.JtJ_diag = ws.Jtr = None
        return candidate, lam * config.lambda_down, True
    return reject("no_decrease")


# --- training pipelines -----------------------------------------------------

@dataclass
class TrainReport:
    """What a training run did. `free_runs`, `jacobians` and `solves` count
    the LM loop's work, the initial model's evaluation included; iteration
    records carry the step norm and, for a rejected step, the reason. It
    holds no timing, so identical runs return equal reports."""

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


def _hidden_input_scales(lin0: LinearSS, ds: Dataset,
                         X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel stds of the net inputs along the linear-init free run,
    whose states x(0..N-1) on ds are X.

    Dividing the input-layer columns by these keeps tanh units out of
    saturation whatever the physical units of the data are. The state
    channels are floored at output-scale / max|C| (times 0.1): when the
    initializer's B is nearly zero the init free run is vanishingly small,
    but a model that explains the output must carry states of roughly that
    magnitude, and scaling to the tiny init states would saturate the input
    layer the moment training grows them.
    """
    Z = np.hstack([X, ds.u])
    y_scale = ds.y.std(axis=0)
    z_scale = Z.std(axis=0)
    n = lin0.n_states
    floor = 0.1 * float(y_scale.max()) / max(float(np.max(np.abs(lin0.C))), 1e-12)
    z_scale[:n] = np.maximum(z_scale[:n], floor)
    y_scale[y_scale < 1e-9] = 1.0
    z_scale[z_scale < 1e-9] = 1.0
    return y_scale, z_scale


def _input_layer(net: Mlp, scale: np.ndarray) -> Mlp:
    """The drawn net with its input layer widened by the class constants
    hidden_gain and hidden_bias_scale, and its input columns divided by the
    per-channel input scales."""
    return replace(net, W_in=(net.W_in * TrainConfig.hidden_gain) / scale[None, :],
                   b_in=net.b_in * TrainConfig.hidden_bias_scale)


def _train(family: type, ds: Dataset, n: int, config: TrainConfig):
    """Linear init, zero-function nets and LM, for AL (family AlSsnnModel)
    and GR (GrSsnnModel, n_h = 0, its f net as the g net)."""
    lin0, X0 = _linear_fit(ds, n, config.horizon)
    m, p = ds.n_inputs, ds.n_outputs
    y_scale, z_scale = _hidden_input_scales(lin0, ds, X0)
    h_net = _input_layer(init_small(p, config.n_h, m, seed=config.seed), y_scale)
    g_net = _input_layer(init_small(n + m, config.n_g, n, seed=config.seed + 1), z_scale)
    model = family(lin=lin0, h_net=h_net, g_net=g_net,
                   eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    if _pinned(model):
        model = replace(model, g_net=enforce_equilibrium_zero(model.g_net, model.eq))
    scaling = {"h_input_scale": [float(v) for v in y_scale],
               "g_input_scale": [float(v) for v in z_scale]}
    if family is GrSsnnModel:
        scaling = {"f_input_scale": scaling["g_input_scale"]}

    ws = LmWorkspace()   # the first lm_step evaluates and fills the initial model
    lam = config.lambda0
    losses = []   # the initial model's (the first step's ws.loss), then each accepted step's
    records, stop_reason = [], "max_iters"
    cut = ds.n_samples * ds.n_outputs   # output rows, then penalty rows
    for it in range(1, config.max_iters + 1):
        model, lam, accepted = lm_step(model, ds, config, lam, workspace=ws)
        losses = losses or [ws.loss]
        if accepted:
            losses.append(ws.last_candidate_loss)
        r = ws.rv[0]
        output_mse, penalty_mse = (_mean_square(part, ds.n_samples) for part in (r[:cut], r[cut:]))
        records.append({
            "iteration": it,
            "loss": losses[-1],
            "output_mse": output_mse,
            "penalty_mse": penalty_mse,
            "lambda": lam,
            "accepted": accepted,
            "grad_inf": ws.grad_inf,
            "step_norm": ws.last_step_norm,
            "reason": ws.last_reject_reason,
        })
        if ws.grad_inf < config.grad_tol:
            stop_reason = "grad_tol"
            break
        if accepted and len(losses) >= 11:
            old = losses[-11]
            if old - losses[-1] < config.loss_tol * max(old, 1e-300):
                stop_reason = "loss_tol"
                break
        if lam > config.lambda_max:
            stop_reason = "lambda_max"
            break
    final = records[-1]
    return model, TrainReport(
        family=_family(model),
        dims=model.dims,
        config=asdict(config),
        input_scaling=scaling,
        init_loss=losses[0],
        final_loss=final["loss"],
        final_output_mse=final["output_mse"],
        final_penalty_mse=final["penalty_mse"],
        rmse_train=float(np.sqrt(final["output_mse"])),
        n_iterations=len(records),
        n_accepted=len(losses) - 1,
        stop_reason=stop_reason,
        iterations=records,
        free_runs=ws.free_runs,
        jacobians=ws.jacobians,
        solves=ws.solves,
    )


def train(ds_train: Dataset, n: int, config: TrainConfig) -> tuple[AlSsnnModel, TrainReport]:
    """Full identification pipeline for the h/g-split model.

    Linear init fixes the starting (A, B) and C, which is never a parameter;
    both nets start as exact zero functions, so iteration 0 reproduces the
    linear model's loss. The returned loss never exceeds the
    initialization's (steps are only ever accepted on strict decrease).
    """
    return _train(AlSsnnModel, ds_train, n, config)


def train_gr(ds_train: Dataset, n: int, n_f: int,
             config: TrainConfig) -> tuple[GrSsnnModel, TrainReport]:
    """Baseline pipeline: train's, with an empty h net and an f net of n_f
    units in g's place; no equilibrium pin and no penalty. The report's
    config records n_h = 0 and n_g = n_f."""
    config = replace(config, n_h=0, n_g=n_f)
    return _train(GrSsnnModel, ds_train, n, config)
