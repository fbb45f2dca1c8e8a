"""Model families and their one-step maps and free-run simulation.

Three families share the JSON schema (tag `family`):

* ``lti``      x+ = A x + B u
* ``gr-ssnn``  x+ = A x + B u + f(x, u)
* ``al-ssnn``  x+ = A x + B (u + h(y)) + g(x, u),  y = C x

The AL form splits the nonlinearity into an input-channel term B h(y),
cancellable by output feedback, and a residual g(x, u) that training keeps
small. Defining f(x, u) := B h(Cx) + g(x, u) recovers the GR step exactly.
Conversely GR is AL with an empty h net and f in g's place: `GrSsnnModel`
subclasses `AlSsnnModel`, so one step map, rollout and training path serve
both, and GR differs only in its names (tag, f_net, n_f), in having no
equilibrium pin or penalty, and in being refused by the closed loop.

`al_step` is the reference step map. The module owns every run: `simulate`
folds each family into `_step_engine` (one tanh layer for AL and GR, none for
LTI), the one checked entry to every free run and closed loop, which
truncates a run where its state leaves `DIVERGENCE_BOUND` or where the
caller's stop hook ends it. A model cannot change after it is built:
LinearSS and the nets own their arrays. A record meets a model in
`_check_record`, which compares their channel counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataio import _frozen, _write_text, load_json
from .errors import DataError, DivergenceError
from .nets import Equilibrium, Mlp, mlp_forward

__all__ = [
    "LinearSS",
    "AlSsnnModel",
    "GrSsnnModel",
    "Trajectory",
    "al_step",
    "gr_model",
    "simulate",
    "save_model",
    "load_model",
    "DIVERGENCE_BOUND",
]

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
        for key in "ABC":
            object.__setattr__(self, key, _frozen(getattr(self, key), f"LinearSS.{key}", ndmin=2))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DataError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DataError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise DataError(f"C has {self.C.shape[1]} columns, expected {n}")

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


AnyModel = Union["AlSsnnModel", LinearSS]


@dataclass(frozen=True)
class AlSsnnModel:
    """Approximately feedback-linearizable neural state-space model."""

    lin: LinearSS
    h_net: Mlp
    g_net: Mlp
    eq: Equilibrium

    def __post_init__(self):
        n, m, p = self.lin.n_states, self.lin.n_inputs, self.lin.n_outputs
        if self.h_net.d_in != p or self.h_net.d_out != m:
            raise DataError(
                f"h net must map R^{p} -> R^{m}, got R^{self.h_net.d_in} -> R^{self.h_net.d_out}"
            )
        if self.g_net.d_in != n + m or self.g_net.d_out != n:
            raise DataError(
                f"g net must map R^{n + m} -> R^{n}, got R^{self.g_net.d_in} -> R^{self.g_net.d_out}"
            )
        if self.eq.x_e.shape != (n,) or self.eq.u_e.shape != (m,):
            raise DataError("equilibrium dimensions do not match the linear part")

    @property
    def dims(self) -> dict:
        return {
            "n": self.lin.n_states,
            "m": self.lin.n_inputs,
            "p": self.lin.n_outputs,
            "n_h": self.h_net.n_hidden,
            "n_g": self.g_net.n_hidden,
        }


@dataclass(frozen=True)
class GrSsnnModel(AlSsnnModel):
    """Baseline x+ = A x + B u + f(x, u): AL with an empty h net, f as g."""

    def __post_init__(self):
        super().__post_init__()
        if self.h_net.n_hidden or np.any(self.h_net.b_out):
            raise DataError("a gr-ssnn model's h net must be empty: no hidden units "
                            "and a zero output bias")

    @property
    def f_net(self) -> Mlp:
        return self.g_net

    @property
    def dims(self) -> dict:
        d = super().dims
        return {"n": d["n"], "m": d["m"], "p": d["p"], "n_f": d["n_g"]}


def gr_model(lin: LinearSS, f_net: Mlp) -> GrSsnnModel:
    """The GR model x+ = A x + B u + f(x, u)."""
    n, m, p = lin.n_states, lin.n_inputs, lin.n_outputs
    if f_net.d_in != n + m or f_net.d_out != n:
        raise DataError(
            f"f net must map R^{n + m} -> R^{n}, got R^{f_net.d_in} -> R^{f_net.d_out}"
        )
    empty = Mlp(W_in=np.zeros((0, p)), b_in=np.zeros(0), W_out=np.zeros((m, 0)),
                b_out=np.zeros(m))
    return GrSsnnModel(lin=lin, h_net=empty, g_net=f_net,
                       eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))


@dataclass(frozen=True)
class Trajectory:
    """Free-run result: states x(0..N), outputs y(0..N-1); a run that
    diverged at x(k) keeps x(0..k) and y(0..k-1)."""

    x: np.ndarray
    y: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0] + 1:
            raise DataError(
                f"state sequence length {self.x.shape[0]} does not match "
                f"output length {self.y.shape[0]} + 1"
            )


def _run_states(traj: Trajectory, record: str | None = None) -> np.ndarray:
    """States x(0..N-1) of a free run, those with an output, or a
    DivergenceError if the run left its bound, naming the `record` it ran on."""
    if traj.diverged:
        k = traj.diverged_at
        raise DivergenceError(k, record and f"the free run on {record} diverged at step {k}")
    return traj.x[:-1]


def _family(model: AnyModel) -> str:
    """The file tag of the model's family."""
    if isinstance(model, GrSsnnModel):
        return "gr-ssnn"
    if isinstance(model, AlSsnnModel):
        return "al-ssnn"
    if isinstance(model, LinearSS):
        return "lti"
    raise DataError(f"unsupported model type {type(model).__name__}")


def _lin_of(model: AnyModel) -> LinearSS:
    return model if isinstance(model, LinearSS) else model.lin


def _check_record(model: AnyModel, ds) -> None:
    """DataError unless the record ds has the model's input and output counts."""
    lin = _lin_of(model)
    for what, have, want in (("input", ds.n_inputs, lin.n_inputs),
                             ("output", ds.n_outputs, lin.n_outputs)):
        if have != want:
            raise DataError(f"record {ds.name} has {have} {what} channels, model expects {want}")


def al_step(model: AlSsnnModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One step A x + B(u + h(Cx)) + g(x, u)."""
    lin = model.lin
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape != (lin.n_states,) or u.shape != (lin.n_inputs,):
        raise DataError(
            f"state/input shapes {x.shape}/{u.shape} do not match model dims "
            f"({lin.n_states},)/({lin.n_inputs},)"
        )
    y = lin.C @ x
    h = mlp_forward(model.h_net, y)
    g = mlp_forward(model.g_net, np.concatenate([x, u]))
    return lin.A @ x + lin.B @ (u + h) + g


def _step_engine(layers, M: np.ndarray, inputs, x0, what: str, stop=None):
    """Check a run and step x(k+1) = M R[k] over the rows R[k] = [t(k); x(k);
    input(k); 1] of one buffer until the state leaves DIVERGENCE_BOUND or
    `stop` ends the run.

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

    `stop`, if given, is called after each block's divergence check as
    stop(k0, X[k0:k1]) with the block's first row k0 and its states
    x(k0..k1-1); once it returns True the run ends there, unflagged, and
    returns (R, X, None) with the steps 0..k1-1 and X = x(0..k1).
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
            if stop is not None and stop(k0, X[k0:k1]):
                return R[:k1, :w], X[: k1 + 1], None
    return R[:N, :w], X, None


def _free_run_maps(model: AnyModel) -> tuple[list, np.ndarray]:
    """The step engine's layers and state map M for a free run of any family.

    AL folds h's input layer through C and B through h's output layer: with
    y = Cx, B(u + h(y)) + g(x, u) is B u + B b_h,out + b_g,out plus
    [B W_h,out, W_g,out] tanh(W [x; u; 1]), where W stacks
    [W_h,in C, 0, b_h,in] on [W_g,in, b_g,in]. For GR the h rows are empty;
    LTI has no layer.
    """
    lin = _lin_of(model)
    A, B, n = lin.A, lin.B, lin.n_states
    if not isinstance(model, AlSsnnModel):
        return [], np.column_stack([A, B, np.zeros(n)])
    h, g = model.h_net, model.g_net
    with np.errstate(over="ignore", invalid="ignore"):   # extreme weights diverge at step 1
        layers = [np.vstack([
            np.column_stack([h.W_in @ lin.C, np.zeros((h.n_hidden, lin.n_inputs)), h.b_in]),
            np.column_stack([g.W_in, g.b_in])])]
        return layers, np.column_stack([B @ h.W_out, g.W_out, A, B, B @ h.b_out + g.b_out])


def simulate(model: AnyModel, u_seq: np.ndarray, x0: np.ndarray | None = None,
             stop=None) -> Trajectory:
    """Free-run simulation driven by recorded inputs only.

    y(k) = C x(k) is the output before the state update, so the input
    nonlinearity sees the current output. If the state norm ever exceeds
    `DIVERGENCE_BOUND`, or the state stops being finite, the trajectory is
    truncated at that state, x(k), and flagged instead of propagating
    overflow; it keeps y(0..k-1).

    `stop` is _step_engine's hook, called after each block of _BLOCK
    samples with the block's first index and states. A run it ends at x(k),
    k < N, is shorter than the input and unflagged: it keeps x(0..k) and
    y(0..k-1). Training's candidate runs stop this way once their output
    error alone decides the step (training.residuals).
    """
    if not isinstance(model, (AlSsnnModel, LinearSS)):
        raise DataError(f"unsupported model type {type(model).__name__}")
    lin = _lin_of(model)
    if np.ndim(u_seq) > 2:   # trailing axes hold the engine's blocks of runs, never a model's
        raise DataError(f"input sequence has shape {np.shape(u_seq)}, expected (N, {lin.n_inputs})")
    _, xs, k = _step_engine(*_free_run_maps(model), u_seq, x0, "input", stop=stop)
    return Trajectory(x=xs.copy(),   # a copy, not a view that holds the engine's buffer
                      y=xs[:-1] @ lin.C.T, diverged=k is not None, diverged_at=k)


# --- JSON persistence -------------------------------------------------------

def _net_to_json(net: Mlp) -> dict:
    return {
        "w_in": net.W_in.tolist(),
        "b_in": net.b_in.tolist(),
        "w_out": net.W_out.tolist(),
        "b_out": net.b_out.tolist(),
        "activation": "tanh",
    }


# Fields of each family's file: required ones, then those with a default.
_FIELDS = {
    "lti": (("family", "dims", "A", "B", "C"), ()),
    "gr-ssnn": (("family", "dims", "A", "B", "C", "f_net"), ()),
    # "c_frozen" only as true, which files of earlier versions hold
    "al-ssnn": (("family", "dims", "A", "B", "C", "h_net", "g_net", "equilibrium"),
                ("c_frozen",)),
}
_DIMS = {"lti": ("n", "m", "p"), "gr-ssnn": ("n", "m", "p", "n_f"),
         "al-ssnn": ("n", "m", "p", "n_h", "n_g")}


def _json_object(obj, path: str, required, optional=()) -> dict:
    """obj if it is a JSON object holding every required field and no field
    but those and the optional ones; `path` names it ("" for the top level,
    which the caller has checked to be an object)."""
    if not isinstance(obj, dict):
        raise DataError(f"model file: field {path!r} must be a JSON object")
    dotted = f"{path}." if path else ""
    for key in required:
        if key not in obj:
            raise DataError(f"model file: missing field {dotted + key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise DataError(f"model file: unknown field {dotted + key!r}")
    return obj


def _is_number_tree(value) -> bool:
    """Whether value is a JSON number or nested lists of them (true and
    false are not numbers, although Python's bool is an int)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
    return True


def _field_array(value, what: str, shape: tuple) -> np.ndarray:
    """Field `what` as a float array nested as `shape` says (a 2 x 1 matrix
    is [[a], [b]]), or a DataError naming it."""
    if not _is_number_tree(value):
        raise DataError(f"model file: field {what!r} is not a numeric array")
    arr = _frozen(value, f"model file: field {what!r}")
    # an empty array has no entries to nest: [] stands for any shape of size 0
    if arr.shape != shape and not arr.size == math.prod(shape) == 0:
        raise DataError(
            f"model file: field {what!r} has shape {arr.shape}, dims need shape {shape}"
        )
    return arr.reshape(shape)


def _net_from_json(obj, what: str, d_in: int, d_out: int, dims: dict, key: str) -> Mlp:
    """Net `what` of a model file, whose hidden width is the field dims.`key`."""
    obj = _json_object(obj, what, ("w_in", "b_in", "w_out", "b_out"), ("activation",))
    n_hidden = dims[key]
    if isinstance(obj["b_in"], list) and len(obj["b_in"]) != n_hidden:
        raise DataError(f"model file: field 'dims.{key}' is {n_hidden}, but "
                        f"{what}.b_in has {len(obj['b_in'])} entries")
    b_in = _field_array(obj["b_in"], f"{what}.b_in", (n_hidden,))
    W_in = _field_array(obj["w_in"], f"{what}.w_in", (n_hidden, d_in))
    W_out = _field_array(obj["w_out"], f"{what}.w_out", (d_out, n_hidden))
    b_out = _field_array(obj["b_out"], f"{what}.b_out", (d_out,))
    if obj.get("activation", "tanh") != "tanh":
        raise DataError(f"model file: field {what + '.activation'!r} must be 'tanh', "
                        f"got {obj['activation']!r}")
    return Mlp(W_in=W_in, b_in=b_in, W_out=W_out, b_out=b_out)


def model_to_json_dict(model: AnyModel) -> dict:
    family, lin = _family(model), _lin_of(model)
    dims = {"n": lin.n_states, "m": lin.n_inputs, "p": lin.n_outputs}
    out = {
        "family": family,
        "dims": dims if family == "lti" else model.dims,
        "A": lin.A.tolist(),
        "B": lin.B.tolist(),
        "C": lin.C.tolist(),
    }
    if family == "gr-ssnn":
        out["f_net"] = _net_to_json(model.f_net)
    elif family == "al-ssnn":
        out.update({
            "h_net": _net_to_json(model.h_net),
            "g_net": _net_to_json(model.g_net),
            "equilibrium": {"x_e": model.eq.x_e.tolist(), "u_e": model.eq.u_e.tolist()},
        })
    return out


def model_from_json_dict(obj: dict) -> AnyModel:
    """The model a file's JSON object describes, or a DataError naming the
    first field that is missing, unknown, mistyped or out of shape."""
    if not isinstance(obj, dict):
        raise DataError("model file: top level must be a JSON object")
    family = obj.get("family")
    if not isinstance(family, str) or family not in _FIELDS:
        raise DataError(f"model file: unknown family tag {family!r}")
    obj = _json_object(obj, "", *_FIELDS[family])
    dims = _json_object(obj["dims"], "dims", _DIMS[family])
    for key, val in dims.items():
        low = 0 if key.startswith("n_") else 1
        if isinstance(val, bool) or not isinstance(val, int) or val < low:
            kind = "a positive" if low else "a non-negative"
            raise DataError(f"model file: field 'dims.{key}' must be {kind} integer, "
                            f"got {val!r}")
    n, m, p = dims["n"], dims["m"], dims["p"]
    lin = LinearSS(
        A=_field_array(obj["A"], "A", (n, n)),
        B=_field_array(obj["B"], "B", (n, m)),
        C=_field_array(obj["C"], "C", (p, n)),
    )
    if family == "lti":
        return lin
    if family == "gr-ssnn":
        return gr_model(lin, _net_from_json(obj["f_net"], "f_net", n + m, n, dims, "n_f"))
    eq_obj = _json_object(obj["equilibrium"], "equilibrium", ("x_e", "u_e"))
    eq = Equilibrium(
        x_e=_field_array(eq_obj["x_e"], "equilibrium.x_e", (n,)),
        u_e=_field_array(eq_obj["u_e"], "equilibrium.u_e", (m,)),
    )
    if obj.get("c_frozen", True) is not True:
        raise DataError(f"model file: field 'c_frozen' must be true (C is never "
                        f"a parameter), got {obj['c_frozen']!r}")
    return AlSsnnModel(
        lin=lin,
        h_net=_net_from_json(obj["h_net"], "h_net", p, m, dims, "n_h"),
        g_net=_net_from_json(obj["g_net"], "g_net", n + m, n, dims, "n_g"),
        eq=eq,
    )


def save_model(model: AnyModel, path) -> None:
    """Write the model as JSON; floats use repr so round trips are bit-exact."""
    _write_text(path, json.dumps(model_to_json_dict(model), indent=1) + "\n")


def load_model(path) -> AnyModel:
    return model_from_json_dict(load_json(path))
