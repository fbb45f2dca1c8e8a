"""Desk-scale benchmark generators: a forced prey-predator ODE and a
synthetic Wiener-Hammerstein cascade.

Both return plain Datasets in the package CSV layout. Generation is pure
given the arguments (the Wiener-Hammerstein record's include a seed), so
equal arguments give bit-identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DataError, NumericalError
from .models import DIVERGENCE_BOUND, LinearSS, simulate

__all__ = [
    "PreyPredatorParams",
    "SinusoidalForcing",
    "WhParams",
    "WhInputSpec",
    "simulate_prey_predator",
    "generate_wh",
    "default_wh_params",
    "second_order_block",
]

POPULATION_BOUND = 1e8


@dataclass(frozen=True)
class PreyPredatorParams:
    """Three-species model: two forced prey (x1, x2) and one predator (x3).

        dx1/dt = a1 x1 - b1 x1 x2 - c1 x1 x3 + d1 u1^2
        dx2/dt = a2 x2 - b2 x1 x2 - c2 x1 x3 + d2 u2^2
        dx3/dt = -e x3 + f x1 x3 + g x2 x3

    All of x2's loss terms carry an x1 factor, so parameter sets with
    a2 > 0 let x2 run away whenever x1 dips: positive intrinsic prey
    growth is structurally unsafe here. The defaults instead use decaying
    prey (a1, a2 < 0) sustained by the squared forcing, which keeps every
    trajectory bounded (dx_i/dt <= a_i x_i + d_i max u_i^2 for the prey)
    while the predator loop still produces a visibly nonlinear
    oscillation. The default dt samples a few times per dominant time
    constant so a modest FIR window captures the system memory; defaults
    are recorded in generated-file metadata.
    """

    a1: float = -0.2
    a2: float = -0.2
    b1: float = 0.005
    b2: float = 0.005
    c1: float = 0.05
    c2: float = 0.05
    d1: float = 0.5
    d2: float = 0.5
    e: float = 0.3
    f: float = 0.025
    g: float = 0.025
    dt: float = 0.5
    x0: tuple[float, float, float] = (8.0, 8.0, 4.0)

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise DataError(f"dt must be positive, got {self.dt}")
        vals = [self.a1, self.a2, self.b1, self.b2, self.c1, self.c2,
                self.d1, self.d2, self.e, self.f, self.g, *self.x0]
        if not np.all(np.isfinite(vals)):
            raise DataError("prey-predator parameters must be finite")


@dataclass(frozen=True)
class SinusoidalForcing:
    """u_i(t) = A_i sin(t + phi_i) + A_i sin(t/10 + phi_i), two channels."""

    A1: float = 2.0
    A2: float = 2.0
    phi1: float = 0.0
    phi2: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.A1, self.A2, self.phi1, self.phi2])):
            raise DataError("forcing parameters must be finite")

    def values(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u1, u2) at the times t."""
        u1 = self.A1 * np.sin(t + self.phi1) + self.A1 * np.sin(t / 10 + self.phi1)
        u2 = self.A2 * np.sin(t + self.phi2) + self.A2 * np.sin(t / 10 + self.phi2)
        return u1, u2

    def sample(self, N: int, dt: float) -> np.ndarray:
        return np.column_stack(self.values(np.arange(N) * dt))


def _squares(values: np.ndarray) -> list[float]:
    """v ** 2 of each value as a Python float, overflowing to inf.

    Python's float power rounds as numpy's scalar power does; numpy's
    vector square rounds differently in a few values per 10^4, which would
    change the generated record.
    """
    try:
        return [v ** 2 for v in values.tolist()]
    except OverflowError:
        return [_square(v) for v in values.tolist()]


def _square(v: float) -> float:
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def simulate_prey_predator(params: PreyPredatorParams, forcing: SinusoidalForcing,
                           N: int) -> Dataset:
    """Classical RK4 at step dt; inputs recorded as the raw sinusoids.

    The plant squares the inputs internally, so the recorded (u1, u2) -> x3
    map is genuinely nonlinear. The squared forcing at the three stage
    times t, t + dt/2 and t + dt is computed up front; the step itself runs
    on Python floats. Generation raises NumericalError at the first step
    whose state is non-finite or leaves the ball of radius
    POPULATION_BOUND. Generation is deterministic, so it takes no seed.
    """
    if N < 2:
        raise DataError(f"need at least 2 samples, got {N}")
    dt = params.dt
    h = 0.5 * dt
    w = dt / 6.0
    us = forcing.sample(N, dt)
    t = np.arange(N) * dt
    # (u1^2, u2^2) at t, at t + dt/2 and at t + dt, one tuple per step
    squared = zip(*(_squares(v) for v in (*us.T, *forcing.values(t + h),
                                         *forcing.values(t + dt))))
    a1, a2, b1, b2, c1, c2 = params.a1, params.a2, params.b1, params.b2, params.c1, params.c2
    d1, d2, e, f, g = params.d1, params.d2, params.e, params.f, params.g
    x1, x2, x3 = (float(v) for v in params.x0)
    ys = [0.0] * N
    for k, (p1, p2, r1, r2, s1, s2) in enumerate(squared):
        if not math.hypot(x1, x2, x3) <= POPULATION_BOUND:
            raise NumericalError(
                f"prey-predator simulation diverged at step {k} (t={k * dt:.6g}); "
                "reduce dt or the forcing amplitude"
            )
        ys[k] = x3
        k11 = a1 * x1 - b1 * x1 * x2 - c1 * x1 * x3 + d1 * p1
        k12 = a2 * x2 - b2 * x1 * x2 - c2 * x1 * x3 + d2 * p2
        k13 = -e * x3 + f * x1 * x3 + g * x2 * x3
        z1, z2, z3 = x1 + h * k11, x2 + h * k12, x3 + h * k13
        k21 = a1 * z1 - b1 * z1 * z2 - c1 * z1 * z3 + d1 * r1
        k22 = a2 * z2 - b2 * z1 * z2 - c2 * z1 * z3 + d2 * r2
        k23 = -e * z3 + f * z1 * z3 + g * z2 * z3
        z1, z2, z3 = x1 + h * k21, x2 + h * k22, x3 + h * k23
        k31 = a1 * z1 - b1 * z1 * z2 - c1 * z1 * z3 + d1 * r1
        k32 = a2 * z2 - b2 * z1 * z2 - c2 * z1 * z3 + d2 * r2
        k33 = -e * z3 + f * z1 * z3 + g * z2 * z3
        z1, z2, z3 = x1 + dt * k31, x2 + dt * k32, x3 + dt * k33
        k41 = a1 * z1 - b1 * z1 * z2 - c1 * z1 * z3 + d1 * s1
        k42 = a2 * z2 - b2 * z1 * z2 - c2 * z1 * z3 + d2 * s2
        k43 = -e * z3 + f * z1 * z3 + g * z2 * z3
        x1 = x1 + w * (k11 + 2 * k21 + 2 * k31 + k41)
        x2 = x2 + w * (k12 + 2 * k22 + 2 * k32 + k42)
        x3 = x3 + w * (k13 + 2 * k23 + 2 * k33 + k43)
    return Dataset(u=us, y=np.array(ys).reshape(-1, 1), dt=dt, name="prey-predator")


# --- Wiener-Hammerstein stand-in --------------------------------------------

def second_order_block(pole_re: float, pole_im: float) -> LinearSS:
    """SISO 2nd-order block with poles pole_re +/- i*pole_im, unit DC gain."""
    r2 = pole_re**2 + pole_im**2
    A = np.array([[2 * pole_re, -r2], [1.0, 0.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    lin = LinearSS(A=A, B=B, C=C)
    dc = (lin.C @ np.linalg.solve(np.eye(2) - A, B)).item()
    if abs(dc) < 1e-12:
        raise NumericalError("block has (near-)zero DC gain; cannot normalize")
    return LinearSS(A=A, B=B, C=C / dc)


@dataclass(frozen=True)
class WhParams:
    """Static nonlinearity sandwiched between two stable SISO LTI blocks."""

    front: LinearSS
    back: LinearSS
    nl_kind: str = "tanh-poly"
    nl_c1: float = 1.0
    nl_c3: float = 0.5
    noise_std: float = 0.0

    def __post_init__(self):
        for name, blk in (("front", self.front), ("back", self.back)):
            if blk.n_inputs != 1 or blk.n_outputs != 1:
                raise DataError(f"{name} block must be SISO")
            if blk.spectral_radius() >= 1.0:
                raise NumericalError(
                    f"{name} block is not Schur stable "
                    f"(spectral radius {blk.spectral_radius():.6g})"
                )
        if self.nl_kind not in ("tanh-poly", "identity"):
            raise DataError(f"unknown nonlinearity kind {self.nl_kind!r}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise DataError(f"noise_std must be finite and non-negative, got {self.noise_std}")

    def nonlinearity(self, z: np.ndarray) -> np.ndarray:
        if self.nl_kind == "identity":
            return z
        return np.tanh(self.nl_c1 * z + self.nl_c3 * z**3)


def default_wh_params(nl_kind: str = "tanh-poly", noise_std: float = 0.0) -> WhParams:
    return WhParams(
        front=second_order_block(0.7, 0.2),
        back=second_order_block(0.8, 0.1),
        nl_kind=nl_kind,
        noise_std=noise_std,
    )


@dataclass(frozen=True)
class WhInputSpec:
    """Seeded excitation: white noise through a one-pole lowpass, rescaled."""

    std: float = 1.0
    smoothing: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.std) and self.std > 0):
            raise DataError(f"input std must be finite and positive, got {self.std}")
        if not (0 <= self.smoothing < 1):
            raise DataError(f"smoothing must lie in [0, 1), got {self.smoothing}")

    def sample(self, N: int, rng: np.random.Generator) -> np.ndarray:
        e = rng.normal(0.0, 1.0, N)
        u = np.empty(N)
        prev = 0.0
        a = self.smoothing
        for k in range(N):
            prev = a * prev + (1 - a) * e[k]
            u[k] = prev
        s = np.std(u)
        if s < 1e-12:
            raise NumericalError("degenerate input draw; increase N")
        return (u * (self.std / s)).reshape(-1, 1)


def _block_output(block: LinearSS, u: np.ndarray, name: str) -> np.ndarray:
    traj = simulate(block, u)
    if traj.diverged:
        raise NumericalError(
            f"wh-synthetic {name} block diverged at step {traj.diverged_at} "
            f"(state norm above {DIVERGENCE_BOUND:g}); reduce the input std"
        )
    return traj.y


def generate_wh(params: WhParams, input_spec: WhInputSpec, N: int,
                seed: int = 0) -> Dataset:
    """u -> front LTI -> static nonlinearity -> back LTI (+ output noise).

    Raises NumericalError when a block's free run leaves the simulation
    bound, naming the block and the step.
    """
    if N < 2:
        raise DataError(f"need at least 2 samples, got {N}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    u = input_spec.sample(N, rng)
    z1 = _block_output(params.front, u, "front")
    z2 = params.nonlinearity(z1)
    y = _block_output(params.back, z2, "back")
    if params.noise_std > 0:
        y = y + rng.normal(0.0, params.noise_std, size=y.shape)
    return Dataset(u=u, y=y, name="wh-synthetic")
