import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from alssnn import stability
from alssnn.cli import _plain
from alssnn.control import ClosedLoopRecord
from alssnn.errors import DataError, DivergenceError, InfeasibleError, NumericalError
from alssnn.stability import (LMI_TOL, PHI_GRID, IssCertificate, _eig_extremes,
                              _phi_blocks, _psi_thresholds, _q_family,
                              check_convergence, lmi_block, solve_certificate,
                              verify)


def stable_a(n=3, seed=0, rho=0.7):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A * (rho / np.max(np.abs(np.linalg.eigvals(A))))


def make_record(x, omega):
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    N = omega.shape[0]
    return ClosedLoopRecord(
        x=x, y=np.zeros((N, 1)), v=np.zeros((N, 1)), omega=omega,
        lin_norm=np.ones(N), omega_ratio_mean=0.0, omega_ratio_max=0.0,
        n_excluded=0,
    )


def test_non_normal_a_is_infeasible_without_warnings():
    # Schur stable (rho = 0.5), but so far from normal that the Lyapunov
    # solves are ill-conditioned; the suite turns any leaked warning into an error
    with pytest.raises(InfeasibleError, match=r"^no \(P, phi\) in the search family"):
        solve_certificate(np.array([[0.5, 1e4], [0.0, 0.5]]), 0.1)


def test_lmi_block_formula_and_symmetry():
    A = stable_a(2, seed=1)
    P = np.array([[2.0, 0.3], [0.3, 1.5]])
    phi, psi = 0.2, 5.0
    M = lmi_block(A, P, phi, psi)
    expected = np.block([
        [A.T @ P @ A + (phi - 1.0) * P, A.T @ P],
        [P @ A, P - psi * np.eye(2)],
    ])
    assert np.allclose(M, expected, atol=1e-14)
    assert np.max(np.abs(M - M.T)) < 1e-12
    with pytest.raises(DataError, match="symmetric"):
        lmi_block(A, np.array([[1.0, 0.5], [0.0, 1.0]]), phi, psi)


def test_certificate_radius_identity():
    cert = solve_certificate(stable_a(2, seed=2), epsilon=0.3)
    assert cert.radius == pytest.approx(cert.psi * 0.3**2 / cert.phi, rel=1e-15)


def test_certificate_verifies_and_is_deterministic():
    A = stable_a(3, seed=3)
    c1 = solve_certificate(A, epsilon=0.5)
    ok, diag = verify(c1, A)
    assert ok
    assert diag["p_min_eig"] > 0
    assert diag["lmi_max_eig"] < -LMI_TOL
    c2 = solve_certificate(A, epsilon=0.5)
    assert np.array_equal(c1.P, c2.P)
    assert c1.phi == c2.phi and c1.psi == c2.psi and c1.radius == c2.radius


def test_scalar_phi_below_analytic_boundary():
    # for x+ = a x the top-left block is p (a^2 + phi - 1): any feasible phi
    # must satisfy phi < 1 - a^2
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        cert = solve_certificate(np.array([[a]]), epsilon=1.0)
        assert cert.phi < 1.0 - a * a
        # and psi must dominate P so the bottom-right block is negative
        assert cert.psi > cert.P[0, 0]


def test_decrement_quadratic_form_sampled():
    # z' M z < 0 is exactly V(Ax + w) - V(x) + phi V(x) - psi ||w||^2 < 0
    A = stable_a(3, seed=4, rho=0.8)
    cert = solve_certificate(A, epsilon=1.0)
    P, phi, psi = cert.P, cert.phi, cert.psi
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.normal(size=3) * rng.choice([0.01, 1.0, 100.0])
        w = rng.normal(size=3) * rng.choice([0.01, 1.0, 100.0])
        xn = A @ x + w
        lhs = xn @ P @ xn - x @ P @ x + phi * (x @ P @ x) - psi * (w @ w)
        z2 = x @ x + w @ w
        assert lhs <= -LMI_TOL * z2 + 1e-9 * z2


def test_zero_epsilon_gives_zero_radius():
    cert = solve_certificate(stable_a(2, seed=6), epsilon=0.0)
    assert cert.radius == 0.0
    assert cert.phi > 0 and cert.psi > 0


def test_epsilon_scale_covariance():
    A = stable_a(3, seed=7)
    base = solve_certificate(A, epsilon=0.4)
    for c in (0.5, 2.0, 10.0):
        scaled = solve_certificate(A, epsilon=0.4 * c)
        # the search never looks at epsilon, so the triple is unchanged and
        # the radius scales exactly quadratically
        assert scaled.phi == base.phi and scaled.psi == base.psi
        assert scaled.radius == pytest.approx(c**2 * base.radius, rel=1e-12)


def test_unstable_a_raises():
    with pytest.raises(NumericalError, match="not Schur stable"):
        solve_certificate(np.array([[1.01]]), epsilon=0.1)
    with pytest.raises(NumericalError, match="not Schur stable"):
        solve_certificate(np.array([[0.0, 1.1], [0.0, 0.0]]) + np.eye(2), 0.1)


def test_non_finite_a_raises_data_error():
    for A in (np.array([[np.nan]]), np.array([[0.5, np.inf], [0.0, 0.1]])):
        with pytest.raises(DataError, match="non-finite"):
            solve_certificate(A, 0.1)


def lyapunov_family(A):
    """The search family's P per Q, as the search forms them."""
    Ps = []
    for Q in _q_family(A.shape[0]):
        P = solve_discrete_lyapunov(A.T, Q)
        Ps.append(0.5 * (P + P.T))
    return Ps


def least_violating_scan(A):
    """Diagnostics of the (P, phi) with the least lambda_max(A'PA + (phi-1)P),
    one eigensolve per pair, the first least in (P, phi) order."""
    best = None
    for qi, P in enumerate(lyapunov_family(A)):
        for phi in PHI_GRID:
            x_max = np.linalg.eigvalsh(A.T @ P @ A + (phi - 1.0) * P)[-1]
            if best is None or x_max < best["lmi_max_eig"]:
                best = {"lmi_max_eig": float(x_max),
                        "p_min_eig": float(np.linalg.eigvalsh(P)[0]),
                        "phi": float(phi), "q_index": qi,
                        "spectral_radius": float(np.max(np.abs(np.linalg.eigvals(A))))}
    return best


def test_infeasible_grid_raises_with_diagnostics():
    # feasibility needs phi < 1 - a^2 = 2e-6, below the smallest grid phi
    A = np.array([[0.999999]])
    with pytest.raises(InfeasibleError) as exc_info:
        solve_certificate(A, epsilon=0.1)
    diag = exc_info.value.diagnostics
    assert set(diag) == {"lmi_max_eig", "p_min_eig", "phi", "q_index", "spectral_radius"}
    assert diag["lmi_max_eig"] == least_violating_scan(A)["lmi_max_eig"] > 0


def test_psi_threshold_is_the_tolerance_boundary():
    # psi* from the Schur complement: the block passes verify's tolerance
    # test just above psi* and fails just below it
    A = stable_a(3, seed=11, rho=0.9)
    P = solve_discrete_lyapunov(A.T, np.eye(3))
    P = 0.5 * (P + P.T)
    phis = np.array([1e-3, 0.01, 0.05, 0.5])
    thresholds = _psi_thresholds(_phi_blocks(A, P, phis, 0.0))
    assert np.isinf(thresholds[-1])  # A'PA - 0.5 P is not negative definite
    for phi, psi_star in zip(phis[:-1], thresholds[:-1]):
        assert psi_star > np.max(np.linalg.eigvalsh(P))
        _, above = _eig_extremes(A, P, phi, psi_star * (1 + 1e-6))
        _, below = _eig_extremes(A, P, phi, psi_star * (1 - 1e-6))
        assert above < -LMI_TOL < below


def tolerance_boundary(A, P, phi):
    """Least psi that passes verify's test at (P, phi), by doubling and then
    bisection with the eigensolves verify makes; inf when psi = 1e15 fails."""
    def passes(psi):
        p_min, lmi_max = _eig_extremes(A, P, phi, psi)
        return p_min > 0 and lmi_max < -LMI_TOL

    if not passes(1e15):
        return np.inf
    lo, hi = 0.0, 1.0
    while not passes(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("n", range(1, 7))
def test_search_equals_full_grid_scan(n):
    # the search's (P, phi) is the argmin of psi/phi over the whole (P, phi)
    # grid, each psi found independently by bisection, and its psi is that
    # boundary up to the confirmation margin
    for i, rho in enumerate((0.3, 0.9, 0.995)):
        A = stable_a(n, seed=100 + 10 * n + i, rho=rho)
        scan = [(psi / phi, phi, psi, qi)
                for qi, P in enumerate(lyapunov_family(A)) for phi in PHI_GRID
                if np.isfinite(psi := tolerance_boundary(A, P, phi))]
        _, phi, psi, qi = min(scan)
        cert = solve_certificate(A, (0.0, 0.01, 1.0, 37.0)[(n + i) % 4])
        assert (cert.search["q_index"], cert.phi) == (qi, phi)
        assert cert.psi == pytest.approx(psi, rel=1e-9)


def psi_grid_scan(A):
    """psi/phi of the former search: every (Q, phi, psi) on a 60-point log psi
    grid over [1e-3, 1e9] eigensolved, the least (psi/phi, phi, psi) taken,
    then its psi bisected 60 times toward the tolerance boundary."""
    psis = np.logspace(-3, 9, 60)
    best = None
    for P in lyapunov_family(A):
        if not np.linalg.eigvalsh(P)[0] > 0:
            continue
        blocks = np.stack([_phi_blocks(A, P, PHI_GRID, psi) for psi in psis])
        passing = np.linalg.eigvalsh(blocks)[..., -1] < -LMI_TOL
        for j, i in zip(*np.nonzero(passing)):
            key = (psis[j] / PHI_GRID[i], PHI_GRID[i], psis[j])
            if best is None or key < best[0]:
                best = (key, P)
    (_, phi, psi), P = best
    lo, hi = 0.0, psi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p_min, lmi_max = _eig_extremes(A, P, phi, mid)
        lo, hi = (lo, mid) if p_min > 0 and lmi_max < -LMI_TOL else (mid, hi)
    return hi / phi


@pytest.mark.parametrize("n", range(1, 7))
def test_radius_at_most_psi_grid_scan(n):
    # ranking by the exact threshold never loses to a grid point above it
    for i, rho in enumerate((0.3, 0.9, 0.995)):
        A = stable_a(n, seed=100 + 10 * n + i, rho=rho)
        cert = solve_certificate(A, 1.0)
        assert cert.radius <= psi_grid_scan(A) * (1 + 1e-9)


@pytest.mark.parametrize("a", [0.5, -0.7, 0.9])
def test_infeasible_diagnostics_equal_full_grid_scan(a):
    # spectral radius 0.999999: no grid phi admits any psi, whatever P is
    A = np.array([[a, 1.0], [0.0, 0.999999]])
    with pytest.raises(InfeasibleError) as exc_info:
        solve_certificate(A, 0.1)
    assert exc_info.value.diagnostics == least_violating_scan(A)


def test_low_threshold_is_raised_by_doubling_then_refused(monkeypatch):
    A = stable_a(3, seed=14, rho=0.9)
    exact = solve_certificate(A, 1.0)
    thresholds = stability._psi_thresholds
    # a threshold 1e-6 too low is confirmed after about 20 doublings
    monkeypatch.setattr(stability, "_psi_thresholds", lambda b: thresholds(b) * (1 - 1e-6))
    cert = solve_certificate(A, 1.0)
    assert verify(cert, A)[0]
    assert exact.psi < cert.psi < exact.psi * (1 + 1e-5)
    # one a factor 1e9 too low still fails after the last doubling
    monkeypatch.setattr(stability, "_psi_thresholds", lambda b: thresholds(b) * 1e-9)
    with pytest.raises(InfeasibleError, match="not confirmed") as exc_info:
        solve_certificate(A, 1.0)
    assert exc_info.value.diagnostics["lmi_max_eig"] > 0


def test_search_eigensolve_count(monkeypatch):
    # P is checked once, the thresholds of all (P, phi) are one stacked
    # solve, and one confirmation plus verify() follow
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    solve_certificate(stable_a(6, seed=12, rho=0.97), epsilon=1.0)
    assert len(calls) <= 20


def test_certificate_validation():
    P = np.eye(2)
    with pytest.raises(DataError, match="phi"):
        IssCertificate(P=P, phi=0.0, psi=1.0, epsilon=0.1, lmi_max_eig=-1.0)
    with pytest.raises(DataError, match="psi"):
        IssCertificate(P=P, phi=0.5, psi=0.0, epsilon=0.1, lmi_max_eig=-1.0)
    with pytest.raises(DataError, match="epsilon"):
        IssCertificate(P=P, phi=0.5, psi=1.0, epsilon=-0.1, lmi_max_eig=-1.0)
    with pytest.raises(DataError, match="symmetric"):
        IssCertificate(P=np.array([[1.0, 1.0], [0.0, 1.0]]), phi=0.5, psi=1.0,
                       epsilon=0.1, lmi_max_eig=-1.0)


def test_check_convergence_scalar_analytic():
    a, eps, w = 0.5, 0.1, 0.05
    cert = solve_certificate(np.array([[a]]), epsilon=eps)
    p = cert.P[0, 0]
    # x+ = a x + w from x0 = 3: monotone decay toward w/(1-a) = 0.1
    N = 60
    xs = np.empty(N + 1)
    xs[0] = 3.0
    for k in range(N):
        xs[k + 1] = a * xs[k] + w
    rec = make_record(xs.reshape(-1, 1), np.full((N, 1), w))
    out = check_convergence(cert, rec)
    assert out["radius"] == pytest.approx(cert.radius)
    assert out["v_first"] == pytest.approx(p * 9.0)
    assert out["v_final"] == pytest.approx(p * xs[-1] ** 2)
    # the fixed point lies inside the ball (psi > p guarantees it), so the
    # trajectory enters and never leaves
    expected_entry = next(
        k for k in range(N + 1) if p * xs[k] ** 2 <= cert.radius * (1 + 1e-12)
    )
    assert out["first_entry"] == expected_entry
    assert out["fraction_inside_after_entry"] == 1.0
    assert out["decrement_holds"]
    assert out["n_decrement_violations"] == 0
    assert out["epsilon_sound"]
    assert out["max_omega_norm"] == pytest.approx(w)


def test_check_convergence_flags_epsilon_violation():
    cert = solve_certificate(np.array([[0.5]]), epsilon=0.01)
    xs = np.zeros((4, 1))
    omega = np.array([[0.0], [0.5], [0.0]])
    out = check_convergence(cert, make_record(xs, omega))
    assert not out["epsilon_sound"]
    assert out["n_epsilon_violations"] == 1


def test_check_convergence_dim_mismatch():
    cert = solve_certificate(stable_a(2, seed=9), epsilon=0.1)
    with pytest.raises(DataError, match="certificate expects"):
        check_convergence(cert, make_record(np.zeros((5, 3)), np.zeros((4, 3))))


def test_check_convergence_refuses_a_diverged_record():
    # a run truncated where it left its bound has no steps to check, so an
    # all-true verdict on it would say nothing
    cert = solve_certificate(np.array([[0.5]]), epsilon=1.0)
    rec = make_record(np.array([[1e300]]), np.zeros((0, 1)))
    rec = replace(rec, diverged=True, diverged_at=0)
    with pytest.raises(DivergenceError, match="diverged at step 0") as info:
        check_convergence(cert, rec)
    assert info.value.step == 0


def test_certificate_json_dict():
    cert = solve_certificate(stable_a(2, seed=10), epsilon=0.25)
    d = json.loads(json.dumps(cert, default=_plain))
    assert set(d) == {"P", "phi", "psi", "epsilon", "radius", "lmi_max_eig", "search"}
    assert d["radius"] == cert.radius
    assert np.array_equal(np.array(d["P"]), cert.P)
