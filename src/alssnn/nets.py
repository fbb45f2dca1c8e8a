"""One-hidden-layer tanh networks: forward passes, init, equilibrium pinning.

Parameter flattening order is fixed everywhere: W_in row-major, b_in,
W_out row-major, b_out. Optimizer Jacobian columns rely on this order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

__all__ = [
    "Mlp",
    "Equilibrium",
    "mlp_forward",
    "enforce_equilibrium_zero",
    "init_small",
]

@dataclass(frozen=True)
class Mlp:
    """Feed-forward net  z -> W_out * tanh(W_in z + b_in) + b_out."""

    W_in: np.ndarray
    b_in: np.ndarray
    W_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        W_in = np.atleast_2d(np.asarray(self.W_in, dtype=float))
        W_out = np.atleast_2d(np.asarray(self.W_out, dtype=float))
        b_in = np.asarray(self.b_in, dtype=float).reshape(-1)
        b_out = np.asarray(self.b_out, dtype=float).reshape(-1)
        for M in (W_in, W_out, b_in, b_out):
            M.setflags(write=False)
        object.__setattr__(self, "W_in", W_in)
        object.__setattr__(self, "b_in", b_in)
        object.__setattr__(self, "W_out", W_out)
        object.__setattr__(self, "b_out", b_out)
        h = W_in.shape[0]
        if b_in.shape != (h,):
            raise DataError(f"b_in has shape {b_in.shape}, expected ({h},)")
        if W_out.shape[1] != h:
            raise DataError(
                f"W_out has {W_out.shape[1]} columns, expected {h} (hidden size)"
            )
        if b_out.shape != (W_out.shape[0],):
            raise DataError(f"b_out has shape {b_out.shape}, expected ({W_out.shape[0]},)")
        if not all(np.all(np.isfinite(M)) for M in (W_in, b_in, W_out, b_out)):
            raise DataError("network parameters contain non-finite entries")

    @property
    def d_in(self) -> int:
        return self.W_in.shape[1]

    @property
    def d_out(self) -> int:
        return self.W_out.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W_in.shape[0]


@dataclass(frozen=True)
class Equilibrium:
    """Operating point (x_e, u_e) at which the residual net is pinned to zero."""

    x_e: np.ndarray
    u_e: np.ndarray

    def __post_init__(self):
        x_e = np.asarray(self.x_e, dtype=float).reshape(-1)
        u_e = np.asarray(self.u_e, dtype=float).reshape(-1)
        x_e.setflags(write=False)
        u_e.setflags(write=False)
        object.__setattr__(self, "x_e", x_e)
        object.__setattr__(self, "u_e", u_e)
        if not (np.all(np.isfinite(x_e)) and np.all(np.isfinite(u_e))):
            raise DataError("equilibrium point contains non-finite entries")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.x_e, self.u_e])


def _check_input(net: Mlp, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (net.d_in,):
        raise DataError(f"input has shape {z.shape}, expected ({net.d_in},)")
    return z


def mlp_forward(net: Mlp, z: np.ndarray) -> np.ndarray:
    """Evaluate W_out tanh(W_in z + b_in) + b_out."""
    z = _check_input(net, z)
    return net.W_out @ np.tanh(net.W_in @ z + net.b_in) + net.b_out


def mlp_forward_batch(net: Mlp, Z: np.ndarray) -> np.ndarray:
    """Vectorized forward pass over rows of Z, shape (N, d_in) -> (N, d_out)."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != net.d_in:
        raise DataError(f"batch input has shape {Z.shape}, expected (N, {net.d_in})")
    return np.tanh(Z @ net.W_in.T + net.b_in) @ net.W_out.T + net.b_out


def enforce_equilibrium_zero(net: Mlp, eq: Equilibrium) -> Mlp:
    """Return a copy with b_out chosen so the net is exactly zero at (x_e, u_e).

    Only b_out changes, so input Jacobians are untouched. Idempotent.
    """
    z = eq.stacked()
    if z.shape != (net.d_in,):
        raise DataError(
            f"equilibrium point has dimension {z.shape[0]}, net expects {net.d_in}"
        )
    b_out = -(net.W_out @ np.tanh(net.W_in @ z + net.b_in))
    return replace(net, b_out=b_out)


def init_small(d_in: int, n_hidden: int, d_out: int, seed: int = 0) -> Mlp:
    """Seeded zero-function network: the output layer is zero, and the input
    layer is generic (uniform in [-0.5, 0.5]), so the output-layer gradient
    is nonzero and training can leave the zero init.
    """
    rng = np.random.default_rng(seed)
    W_in = rng.uniform(-0.5, 0.5, size=(n_hidden, d_in))
    b_in = rng.uniform(-0.5, 0.5, size=n_hidden)
    return Mlp(W_in=W_in, b_in=b_in, W_out=np.zeros((d_out, n_hidden)),
               b_out=np.zeros(d_out))
