"""Quadratic ISS certificates for the closed loop x+ = Ax + Bv + omega.

A certificate is (P, phi, psi), holding a read-only copy of P, with P
positive definite and

    [[A'PA + (phi-1)P,  A'P],
     [PA,               P - psi*I]]  negative definite,

which implies V(x) = x'Px satisfies dV < -phi*V + psi*||omega||^2 for every
(x, omega). With ||omega|| <= epsilon the state then enters and stays near
the ball {x : x'Px <= psi*epsilon^2/phi}.

The search is deterministic. P solves the discrete Lyapunov equation
A'PA - P = -Q for a small family of Q's, and phi ranges over a fixed log
grid. There is no psi grid: at each (P, phi) the Schur complement gives the
exact boundary psi* of the tolerance test. With X = A'PA + (phi-1)P, the
block passes lambda_max < -tol exactly when X + tol*I is negative definite
and psi > psi* = tol + lambda_max(P - PA (X + tol*I)^-1 A'P) (Boyd et al.,
LMIs in System and Control Theory, 1994). The radius is psi*epsilon^2/phi,
so the (P, phi) with the least psi*/phi wins, and one eigendecomposition
confirms a psi just above its psi*. The LMI is tiny (2n x 2n), so this
replaces a semidefinite-programming dependency without losing rigor:
nothing is reported that verify() does not independently confirm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, solve_discrete_lyapunov

from .control import ClosedLoopRecord
from .dataio import _frozen
from .errors import DataError, DivergenceError, InfeasibleError, NumericalError

__all__ = [
    "IssCertificate",
    "lmi_block",
    "verify",
    "solve_certificate",
    "check_convergence",
]

LMI_TOL = 1e-9
SYMMETRY_TOL = 1e-12
# The search family: P solves A'PA - P = -Q for Q = I and for Q = I with one
# diagonal entry raised to Q_SCALE; phi ranges over PHI_GRID.
PHI_GRID = np.logspace(-5, np.log10(0.9999), 40)
Q_SCALE = 10.0
# psi is first tried this far above psi*, relative to it; the margin doubles
# while roundoff keeps the block on the failing side, at most MAX_DOUBLINGS
# times.
PSI_MARGIN = 2.0**-40
MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class IssCertificate:
    """Verified (P, phi, psi) triple with the disturbance bound it was built for.

    radius is derived in __post_init__, never passed in, so the identity
    radius = psi * epsilon^2 / phi holds by construction.
    """

    P: np.ndarray
    phi: float
    psi: float
    epsilon: float
    lmi_max_eig: float
    search: dict = field(default_factory=dict, compare=False)
    radius: float = field(init=False)

    def __post_init__(self):
        P = _frozen(self.P, "IssCertificate.P")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DataError(f"P must be square, got shape {P.shape}")
        if np.max(np.abs(P - P.T)) > SYMMETRY_TOL:
            raise DataError("P must be symmetric")
        object.__setattr__(self, "P", P)
        if not (0 < self.phi <= 1):
            raise DataError(f"phi must lie in (0, 1], got {self.phi}")
        if not (self.psi > 0):
            raise DataError(f"psi must be positive, got {self.psi}")
        if not (0 <= self.epsilon < np.inf):
            raise DataError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        object.__setattr__(self, "radius", self.psi * self.epsilon**2 / self.phi)

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _phi_blocks(A: np.ndarray, P: np.ndarray, phis: np.ndarray, psi: float) -> np.ndarray:
    """The LMI blocks at psi for every phi in phis, stacked along a leading axis."""
    n = A.shape[0]
    AtP = A.T @ P
    out = np.empty((phis.size, 2 * n, 2 * n))
    out[:, :n, :n] = AtP @ A + (phis - 1.0)[:, None, None] * P
    out[:, :n, n:] = AtP
    out[:, n:, :n] = P @ A
    out[:, n:, n:] = P - psi * np.eye(n)
    return out


def lmi_block(A: np.ndarray, P: np.ndarray, phi: float, psi: float) -> np.ndarray:
    """The 2n x 2n block whose negative definiteness certifies the decrement."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or P.shape != (n, n):
        raise DataError(f"A and P must both be {n} x {n}, got {A.shape}, {P.shape}")
    if np.max(np.abs(P - P.T)) > SYMMETRY_TOL:
        raise DataError("P must be symmetric")
    return _phi_blocks(A, P, np.array([phi], dtype=float), psi)[0]


def _eig_extremes(A, P, phi, psi) -> tuple[float, float]:
    """(min eig of P, max eig of the LMI block), both by symmetric solve."""
    p_min = float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])
    m = lmi_block(A, P, phi, psi)
    lmi_max = float(np.linalg.eigvalsh(m)[-1])
    return p_min, lmi_max


def verify(cert: IssCertificate, A: np.ndarray) -> tuple[bool, dict]:
    """True iff P > 0 and the block < -tol*I; diagnostics carry both extremes."""
    A = np.asarray(A, dtype=float)
    if A.shape != (cert.n, cert.n):
        raise DataError(f"A has shape {A.shape}, certificate expects ({cert.n}, {cert.n})")
    p_min, lmi_max = _eig_extremes(A, cert.P, cert.phi, cert.psi)
    ok = p_min > 0 and lmi_max < -LMI_TOL
    return ok, {"p_min_eig": p_min, "lmi_max_eig": lmi_max, "tol": LMI_TOL}


def _q_family(n: int) -> list[np.ndarray]:
    out = [np.eye(n)]
    for i in range(n):
        q = np.eye(n)
        q[i, i] = Q_SCALE
        out.append(q)
    return out


def _psi_thresholds(blocks: np.ndarray) -> np.ndarray:
    """psi* per psi = 0 block: the block passes the tolerance test exactly when psi > psi*.

    With X = A'PA + (phi-1)P, the block's top left, the block plus tol*I is
    negative definite iff X + tol*I is and
    psi > tol + lambda_max(P - PA (X + tol*I)^-1 A'P) (Schur complement).
    Blocks where X + tol*I is not negative definite get psi* = inf. Leading
    axes are kept, and the whole stack is one eigh and one eigvalsh call.
    """
    n = blocks.shape[-1] // 2
    w, V = np.linalg.eigh(blocks[..., :n, :n] + LMI_TOL * np.eye(n))
    out = np.full(blocks.shape[:-2], np.inf)
    nd = w[..., -1] < 0
    b = blocks[nd]
    W = b[:, n:, :n] @ V[nd]    # PA V
    S = b[:, n:, n:] - (W / w[nd][:, None, :]) @ W.transpose(0, 2, 1)
    out[nd] = LMI_TOL + np.linalg.eigvalsh(S)[:, -1]
    return out


def _diagnostics(lmi_max, p_min, qi, phi, rho) -> dict:
    return {"lmi_max_eig": float(lmi_max), "p_min_eig": float(p_min),
            "phi": float(phi), "q_index": int(qi), "spectral_radius": rho}


def _least_violating(blocks, p_mins, rho) -> dict:
    """Diagnostics of the (P, phi) whose block comes closest to passing.

    The block's largest eigenvalue falls toward lambda_max(A'PA + (phi-1)P)
    as psi grows, so that value is the least any psi reaches at (P, phi).
    All pairs go through one stacked eigensolve; ties go to the first in
    (P, phi) order.
    """
    n = blocks.shape[-1] // 2
    lmi = np.linalg.eigvalsh(blocks[..., :n, :n])[..., -1]
    qi, i = np.unravel_index(np.argmin(lmi), lmi.shape)
    return _diagnostics(lmi[qi, i], p_mins[qi], qi, PHI_GRID[i], rho)


def solve_certificate(A: np.ndarray, epsilon: float) -> IssCertificate:
    """Smallest-radius certificate over the deterministic search family.

    The (P, phi) with the least psi*/phi wins, ties going to the smaller phi,
    then the smaller psi*; the result does not depend on epsilon. psi starts
    at psi*(1 + PSI_MARGIN) and is confirmed by eigendecomposition, with the
    margin doubling while roundoff keeps the block on the failing side.
    """
    A = _frozen(A, "A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError(f"A must be square, got shape {A.shape}")
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise DataError(f"epsilon must be finite and non-negative, got {epsilon}")
    n = A.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho >= 1.0:
        raise NumericalError(
            f"open-loop linear part not Schur stable (spectral radius {rho:.6g}); "
            "no quadratic ISS certificate of this form exists"
        )

    Ps = []
    # A far from normal A can make a solve ill-conditioned or overflow. Every
    # P is still checked for positive definiteness below, and the certificate
    # by verify(), so the warnings would add nothing.
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", LinAlgWarning)
        for Q in _q_family(n):
            try:
                P = solve_discrete_lyapunov(A.T, Q)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise NumericalError(f"discrete Lyapunov solve failed: {exc}") from exc
            Ps.append(0.5 * (P + P.T))
    p_mins = np.linalg.eigvalsh(np.stack(Ps))[:, 0]
    blocks = np.stack([_phi_blocks(A, P, PHI_GRID, 0.0) for P in Ps])
    thresholds = _psi_thresholds(blocks)
    thresholds[~(p_mins > 0)] = np.inf     # such a P fails every test
    candidates = list(zip(*np.nonzero(np.isfinite(thresholds))))
    if not candidates:
        diag = _least_violating(blocks, p_mins, rho)
        raise InfeasibleError(
            "no (P, phi) in the search family admits any psi; closest candidate "
            f"had largest LMI eigenvalue {diag['lmi_max_eig']:.3e}",
            diagnostics=diag,
        )
    qi, i = min(candidates, key=lambda c: (thresholds[c] / PHI_GRID[c[1]],
                                           PHI_GRID[c[1]], thresholds[c]))
    P, phi, psi_star = Ps[qi], float(PHI_GRID[i]), float(thresholds[qi, i])
    margin = PSI_MARGIN
    for _ in range(MAX_DOUBLINGS + 1):
        psi = psi_star * (1.0 + margin)
        lmi_max = float(np.linalg.eigvalsh(lmi_block(A, P, phi, psi))[-1])
        if lmi_max < -LMI_TOL:
            break
        margin *= 2.0
    else:
        raise InfeasibleError(
            f"psi threshold {psi_star:.6g} at phi {phi:.6g} not confirmed within "
            f"{MAX_DOUBLINGS} doublings of its margin",
            diagnostics=_diagnostics(lmi_max, p_mins[qi], qi, phi, rho),
        )

    cert = IssCertificate(
        P=P, phi=phi, psi=psi, epsilon=float(epsilon), lmi_max_eig=lmi_max,
        search={"q_index": int(qi), "spectral_radius": rho},
    )
    ok, diag = verify(cert, A)
    if not ok:  # pragma: no cover - the search only emits verified triples
        raise InfeasibleError("search produced an unverifiable certificate", diag)
    return cert


def check_convergence(cert: IssCertificate, record: ClosedLoopRecord) -> dict:
    """Empirical check of the certified decrement along a closed-loop record.

    The certificate describes the regulation loop x+ = A x + omega, so the
    record should be simulated with v = 0; under a nonzero reference the
    decrement inequality does not apply and violations say nothing. Reports
    V(x(k)) per step, ball membership, whether the per-step decrement
    dV < -phi*V + psi*||omega||^2 holds (up to eigensolver-level slack), the
    first entry time into the ball and the fraction of steps inside after
    entry. Steps where ||omega|| exceeds epsilon are flagged: the certificate
    promises nothing there. A record that left its bound raises
    DivergenceError: checked on its truncated run, every claim would be
    vacuous.
    """
    if record.diverged:
        raise DivergenceError(record.diverged_at, f"closed loop diverged at step "
                              f"{record.diverged_at}; its convergence check would be vacuous")
    X = record.x
    if X.ndim != 2 or X.shape[1] != cert.n:
        raise DataError(
            f"record states have shape {X.shape}, certificate expects (*, {cert.n})"
        )
    V = np.einsum("ki,ij,kj->k", X, cert.P, X)
    radius = cert.radius
    inside = V <= radius + 1e-12 * max(1.0, radius)
    omega_sq = np.sum(record.omega**2, axis=1)
    dV = V[1:] - V[:-1]
    bound = -cert.phi * V[:-1] + cert.psi * omega_sq
    slack = 1e-9 * (1.0 + V[:-1] + omega_sq)
    decrement_ok = dV <= bound + slack
    eps_violations = np.sqrt(omega_sq) > cert.epsilon + 1e-12

    entry = int(np.argmax(inside)) if np.any(inside) else None
    if entry is not None:
        post = inside[entry:]
        frac = float(np.mean(post))
        n_inside = int(np.sum(post))
    else:
        frac = 0.0
        n_inside = 0
    return {
        "radius": radius,
        "n_steps": int(record.n_steps),
        "v_first": float(V[0]) if V.size else None,
        "v_final": float(V[-1]) if V.size else None,
        "v_max": float(np.max(V)) if V.size else None,
        "first_entry": entry,
        "n_inside_after_entry": n_inside,
        "fraction_inside_after_entry": frac,
        "n_decrement_violations": int(np.sum(~decrement_ok)),
        "decrement_holds": bool(np.all(decrement_ok)),
        "n_epsilon_violations": int(np.sum(eps_violations)),
        "epsilon_sound": bool(not np.any(eps_violations)),
        "max_omega_norm": record.max_omega_norm,
    }
