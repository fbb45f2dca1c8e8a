"""Quadratic ISS certificates for the closed loop x+ = Ax + Bv + omega.

A certificate is (P, phi, psi) with P positive definite and

    [[A'PA + (phi-1)P,  A'P],
     [PA,               P - psi*I]]  negative definite,

which implies V(x) = x'Px satisfies dV < -phi*V + psi*||omega||^2 for every
(x, omega). With ||omega|| <= epsilon the state then enters and stays near
the ball {x : x'Px <= psi*epsilon^2/phi}.

Feasible triples come from a deterministic search. P solves the discrete
Lyapunov equation A'PA - P = -Q for a small family of Q's, and phi and psi
range over log grids. Each P is checked for positive definiteness once; one
that fails yields no candidate. At each (P, phi) only the smallest feasible
grid psi can win, and the Schur complement locates it without scanning:
with X = A'PA + (phi-1)P, the block passes the tolerance test
lambda_max < -tol exactly when X + tol*I is negative definite and
psi > tol + lambda_max(P - PA (X + tol*I)^-1 A'P) (Boyd et al., LMIs in
System and Control Theory, 1994). The first grid psi above that threshold
is confirmed by eigendecomposition, together with the grid psi below it, so
the search picks the grid point a full scan would pick. psi enters the
block only as P_ii - psi on its lower diagonal, so the blocks of all phis
are formed once per P, and each round of confirmations is one stacked
eigensolve over the phis still stepping up or down. The winning psi is
then tightened by bisection on the winner's block. The LMI is tiny
(2n x 2n), so this replaces a semidefinite-programming dependency without
losing rigor: nothing is reported that verify() does not independently
confirm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .control import ClosedLoopRecord
from .errors import DataError, InfeasibleError, NumericalError

__all__ = [
    "IssCertificate",
    "SearchConfig",
    "lmi_block",
    "verify",
    "solve_certificate",
    "check_convergence",
    "certificate_to_json_dict",
]

LMI_TOL = 1e-9
SYMMETRY_TOL = 1e-12


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
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DataError(f"P must be square, got shape {P.shape}")
        if np.max(np.abs(P - P.T)) > SYMMETRY_TOL:
            raise DataError("P must be symmetric")
        object.__setattr__(self, "P", P)
        if not (0 < self.phi <= 1):
            raise DataError(f"phi must lie in (0, 1], got {self.phi}")
        if not (self.psi > 0):
            raise DataError(f"psi must be positive, got {self.psi}")
        if self.epsilon < 0:
            raise DataError(f"epsilon must be non-negative, got {self.epsilon}")
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


@dataclass(frozen=True)
class SearchConfig:
    """Grid and refinement settings for the certificate search."""

    n_phi: int = 40
    phi_min: float = 1e-5
    phi_max: float = 0.9999
    # psi must dominate lambda_max(P)^2-scale terms, and P ~ 1/(1 - rho^2),
    # so near-unit spectral radii need psi far above O(1); the bisection pass
    # tightens whatever slack the wide grid leaves.
    n_psi: int = 60
    psi_min: float = 1e-3
    psi_max: float = 1e9
    q_entry_scale: float = 10.0
    refine_psi: bool = True
    refine_iters: int = 60

    def phi_grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.phi_min), np.log10(self.phi_max), self.n_phi)

    def psi_grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.psi_min), np.log10(self.psi_max), self.n_psi)


def _q_family(n: int, scale: float) -> list[np.ndarray]:
    out = [np.eye(n)]
    for i in range(n):
        q = np.eye(n)
        q[i, i] = scale
        out.append(q)
    return out


def _psi_thresholds(blocks: np.ndarray) -> np.ndarray:
    """psi* per psi = 0 block: the block passes the tolerance test exactly when psi > psi*.

    With X = A'PA + (phi-1)P, the block's top left, the block plus tol*I is
    negative definite iff X + tol*I is and
    psi > tol + lambda_max(P - PA (X + tol*I)^-1 A'P) (Schur complement).
    Blocks where X + tol*I is not negative definite get psi* = inf.
    """
    n = blocks.shape[-1] // 2
    PA, P = blocks[:1, n:, :n], blocks[:1, n:, n:]   # equal in every block; [:1] allows none
    w, V = np.linalg.eigh(blocks[:, :n, :n] + LMI_TOL * np.eye(n))
    out = np.full(blocks.shape[0], np.inf)
    nd = w[:, -1] < 0
    W = PA @ V[nd]
    S = P - (W / w[nd][:, None, :]) @ W.transpose(0, 2, 1)
    out[nd] = LMI_TOL + np.linalg.eigvalsh(S)[:, -1]
    return out


def _lmi_max(blocks: np.ndarray, p_diag: np.ndarray, psi) -> np.ndarray:
    """Largest eigenvalue of each block with its lower diagonal set to P_ii - psi.

    That diagonal is the only entry of lmi_block that depends on psi, so one
    block per (P, phi) serves every psi. psi broadcasts over the leading
    axes, and the whole stack is one eigvalsh call.
    """
    m = blocks.copy()
    n = p_diag.shape[-1]
    i = np.arange(n, 2 * n)
    m[..., i, i] = p_diag - psi
    return np.linalg.eigvalsh(m)[..., -1]


def _smallest_feasible(blocks, p_diag, psis, starts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feasible, grid index, lmi_max) per phi of the smallest grid psi passing, for P > 0.

    Each phi starts at its index in starts, steps up while the test fails
    and then down while the psi below also passes; the test is verify()'s.
    Feasibility is monotone in psi (the block loses psi*diag(0, I)), so a
    correct start needs one test plus one below it. Each round tests every
    phi still moving in one stacked eigensolve.
    """
    j = np.array(starts)
    lmi = np.zeros(j.shape)
    down = np.zeros(j.shape, dtype=bool)    # passed at j; now testing j - 1
    live = j < psis.size
    while live.any():
        idx = np.flatnonzero(live)
        dn = down[idx]
        vals = _lmi_max(blocks[idx], p_diag, psis[j[idx] - dn][:, None])
        ok = vals < -LMI_TOL
        lmi[idx[ok]] = vals[ok]
        j[idx[ok & dn]] -= 1
        j[idx[~ok & ~dn]] += 1
        down[idx] |= ok
        live[idx] = np.where(down[idx], (j[idx] > 0) & ok, j[idx] < psis.size)
    return down, j, lmi


def _least_violating(A, Ps, p_mins, phis, psi, rho) -> dict | None:
    """Diagnostics of the (P, phi) whose block at psi has the least max eigenvalue.

    Called when no grid point passes: the max eigenvalue falls as psi grows,
    so at every (P, phi) the largest grid psi is the least violating one.
    All (P, phi) blocks go through one stacked eigensolve; ties go to the
    first in (P, phi) order, as a scan would find it.
    """
    if not phis.size:
        return None
    lmi = np.linalg.eigvalsh(np.stack([_phi_blocks(A, P, phis, psi) for P in Ps]))[..., -1]
    qi, i = np.unravel_index(np.argmin(lmi), lmi.shape)
    return {
        "lmi_max_eig": float(lmi[qi, i]), "p_min_eig": float(p_mins[qi]),
        "phi": float(phis[i]), "psi": float(psi), "q_index": int(qi),
        "spectral_radius": rho,
    }


def solve_certificate(A: np.ndarray, epsilon: float,
                      search_config: SearchConfig | None = None) -> IssCertificate:
    """Smallest-radius feasible certificate over the deterministic search family.

    Candidates are ordered by (radius, phi, psi) so the result is independent
    of evaluation order; at each (P, phi) only the smallest feasible grid psi
    can win, and its Schur threshold locates it. After the grid pass, psi is
    tightened by bisection at the winning (P, phi): feasibility is monotone
    in psi, so the bisection stays sound and every reported triple is
    re-verified.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError(f"A must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DataError("A contains non-finite entries")
    if epsilon < 0:
        raise DataError(f"epsilon must be non-negative, got {epsilon}")
    cfg = search_config or SearchConfig()
    n = A.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho >= 1.0:
        raise NumericalError(
            f"open-loop linear part not Schur stable (spectral radius {rho:.6g}); "
            "no quadratic ISS certificate of this form exists"
        )

    Ps = []
    for Q in _q_family(n, cfg.q_entry_scale):
        try:
            P = solve_discrete_lyapunov(A.T, Q)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError(f"discrete Lyapunov solve failed: {exc}") from exc
        Ps.append(0.5 * (P + P.T))
    # a P that is not positive definite fails every test, so it is checked once
    p_mins = np.linalg.eigvalsh(np.stack(Ps))[:, 0]

    phis, psis = cfg.phi_grid(), cfg.psi_grid()
    best = None           # (radius, phi, psi, qi, P, lmi_max, block)
    for qi, P in enumerate(Ps):
        if not p_mins[qi] > 0:
            continue
        blocks = _phi_blocks(A, P, phis, 0.0)
        starts = np.searchsorted(psis, _psi_thresholds(blocks), side="right")
        feasible, js, lmis = _smallest_feasible(blocks, np.diag(P), psis, starts)
        for i in np.flatnonzero(feasible):
            phi, psi = phis[i], psis[js[i]]
            radius = psi * epsilon**2 / phi
            key = (radius, phi, psi)
            if best is None or key < (best[0], best[1], best[2]):
                best = (radius, float(phi), float(psi), qi, P, float(lmis[i]), blocks[i])

    if best is None:
        diag = {"spectral_radius": rho}
        if psis.size:
            diag = _least_violating(A, Ps, p_mins, phis, psis[-1], rho) or diag
        raise InfeasibleError(
            "no feasible (P, phi, psi) in the search grid; closest candidate "
            f"had largest LMI eigenvalue {diag.get('lmi_max_eig', float('nan')):.3e}",
            diagnostics=diag,
        )

    _, phi, psi, qi, P, lmi_max, block = best
    refined = False
    if cfg.refine_psi:
        # Feasibility is monotone increasing in psi at fixed (P, phi): shrink
        # psi toward the boundary to shrink the reported radius. P > 0 was
        # checked above, so each step is one eigensolve of the winner's block.
        p_diag = np.diag(P)
        lo, hi = 0.0, psi
        for _ in range(cfg.refine_iters):
            mid = 0.5 * (lo + hi)
            if mid <= 0:
                break
            me = float(_lmi_max(block, p_diag, mid))
            if me < -LMI_TOL:
                hi, lmi_max = mid, me
                refined = True
            else:
                lo = mid
        psi = hi

    cert = IssCertificate(
        P=P, phi=phi, psi=psi, epsilon=float(epsilon), lmi_max_eig=lmi_max,
        search={
            "q_index": qi,
            "n_phi": cfg.n_phi, "phi_min": cfg.phi_min, "phi_max": cfg.phi_max,
            "n_psi": cfg.n_psi, "psi_min": cfg.psi_min, "psi_max": cfg.psi_max,
            "q_entry_scale": cfg.q_entry_scale,
            "psi_refined": refined,
            "spectral_radius": rho,
        },
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
    promises nothing there.
    """
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


def certificate_to_json_dict(cert: IssCertificate) -> dict:
    return {
        "P": cert.P.tolist(),
        "phi": cert.phi,
        "psi": cert.psi,
        "epsilon": cert.epsilon,
        "radius": cert.radius,
        "lmi_max_eig": cert.lmi_max_eig,
        "search": cert.search,
    }
