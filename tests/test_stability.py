import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from alssnn.control import ClosedLoopRecord
from alssnn.errors import DataError, InfeasibleError, NumericalError
from alssnn.stability import (LMI_TOL, IssCertificate, SearchConfig,
                              _eig_extremes, _phi_blocks, _psi_thresholds,
                              _q_family, _smallest_feasible,
                              certificate_to_json_dict, check_convergence,
                              lmi_block, solve_certificate, verify)


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


def test_infeasible_grid_raises_with_diagnostics():
    # phi pinned above the scalar boundary 1 - 0.25: nothing can be feasible
    cfg = SearchConfig(n_phi=1, phi_min=0.99, phi_max=0.99)
    with pytest.raises(InfeasibleError) as exc_info:
        solve_certificate(np.array([[0.5]]), epsilon=0.1, search_config=cfg)
    diag = exc_info.value.diagnostics
    assert "lmi_max_eig" in diag and "spectral_radius" in diag


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


def reference_scan(A, epsilon, cfg):
    """The full (Q, phi, psi) grid scan, every candidate eigensolved."""
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    candidates = []
    for qi, Q in enumerate(_q_family(A.shape[0], cfg.q_entry_scale)):
        P = solve_discrete_lyapunov(A.T, Q)
        candidates.append((qi, 0.5 * (P + P.T)))
    best = None
    least_violating = None
    for qi, P in candidates:
        for phi in cfg.phi_grid():
            for psi in cfg.psi_grid():
                p_min, lmi_max = _eig_extremes(A, P, phi, psi)
                if not (p_min > 0 and lmi_max < -LMI_TOL):
                    if least_violating is None or lmi_max < least_violating[0]:
                        least_violating = (lmi_max, {
                            "lmi_max_eig": lmi_max, "p_min_eig": p_min,
                            "phi": float(phi), "psi": float(psi), "q_index": qi,
                            "spectral_radius": rho,
                        })
                    continue
                key = (psi * epsilon**2 / phi, phi, psi)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (key[0], float(phi), float(psi), qi, P, lmi_max)
    if best is None:
        return None, least_violating[1]
    _, phi, psi, qi, P, lmi_max = best
    refined = False
    if cfg.refine_psi:
        lo, hi = 0.0, psi
        for _ in range(cfg.refine_iters):
            mid = 0.5 * (lo + hi)
            if mid <= 0:
                break
            p_min, me = _eig_extremes(A, P, phi, mid)
            if p_min > 0 and me < -LMI_TOL:
                hi, lmi_max, refined = mid, me, True
            else:
                lo = mid
        psi = hi
    search = {
        "q_index": qi,
        "n_phi": cfg.n_phi, "phi_min": cfg.phi_min, "phi_max": cfg.phi_max,
        "n_psi": cfg.n_psi, "psi_min": cfg.psi_min, "psi_max": cfg.psi_max,
        "q_entry_scale": cfg.q_entry_scale, "psi_refined": refined,
        "spectral_radius": rho,
    }
    return (P, phi, psi, psi * epsilon**2 / phi, lmi_max, search), None


@pytest.mark.parametrize("n", range(1, 7))
def test_search_equals_full_grid_scan(n):
    # the Schur-threshold search must pick exactly what the full scan picks
    for i, rho in enumerate((0.3, 0.9, 0.995)):
        A = stable_a(n, seed=100 + 10 * n + i, rho=rho)
        eps = (0.0, 0.01, 1.0, 37.0)[(n + i) % 4]
        cfg = SearchConfig(refine_psi=bool((n + i) % 2))
        (P, phi, psi, radius, lmi_max, search), _ = reference_scan(A, eps, cfg)
        cert = solve_certificate(A, eps, cfg)
        assert np.array_equal(cert.P, P)
        assert (cert.phi, cert.psi, cert.radius, cert.lmi_max_eig) == (
            phi, psi, radius, lmi_max)
        assert cert.search == search


@pytest.mark.parametrize("a", [0.5, -0.7, 0.9])
def test_infeasible_diagnostics_equal_full_grid_scan(a):
    cfg = SearchConfig(n_phi=1, phi_min=0.99, phi_max=0.99)
    _, expected = reference_scan(np.array([[a]]), 0.1, cfg)
    with pytest.raises(InfeasibleError) as exc_info:
        solve_certificate(np.array([[a]]), 0.1, search_config=cfg)
    assert exc_info.value.diagnostics == expected


def test_search_eigensolve_count(monkeypatch):
    # P is checked once and each round of the psi search is one stacked
    # eigensolve over the phi grid, so the count does not grow with n_phi
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cert = solve_certificate(stable_a(6, seed=12, rho=0.97), epsilon=1.0)
    assert cert.search["psi_refined"]
    assert len(calls) <= 100


def test_stacked_search_steps_up_and_down_from_wrong_starts():
    # started below or above the Schur start, every phi steps to the same
    # smallest passing grid psi with the same max eigenvalue
    A = stable_a(3, seed=13, rho=0.9)
    P = solve_discrete_lyapunov(A.T, np.eye(3))
    P = 0.5 * (P + P.T)
    cfg = SearchConfig()
    phis, psis = cfg.phi_grid(), cfg.psi_grid()
    blocks = _phi_blocks(A, P, phis, 0.0)
    starts = np.searchsorted(psis, _psi_thresholds(blocks), side="right")
    feasible, js, lmis = _smallest_feasible(blocks, np.diag(P), psis, starts)
    assert feasible.any() and not feasible.all()
    for i in np.flatnonzero(feasible):
        assert _eig_extremes(A, P, phis[i], psis[js[i]])[1] == lmis[i] < -LMI_TOL
        assert js[i] == 0 or _eig_extremes(A, P, phis[i], psis[js[i] - 1])[1] >= -LMI_TOL
    for shift in (-5, 4):
        got = _smallest_feasible(blocks, np.diag(P), psis,
                                 np.clip(starts + shift, 0, psis.size))
        assert np.array_equal(got[0], feasible)
        assert np.array_equal(got[1][feasible], js[feasible])
        assert np.array_equal(got[2][feasible], lmis[feasible])


def test_psi_refinement_shrinks_radius():
    A = stable_a(2, seed=8)
    coarse = solve_certificate(A, 1.0, SearchConfig(refine_psi=False))
    fine = solve_certificate(A, 1.0, SearchConfig(refine_psi=True))
    assert fine.radius <= coarse.radius
    ok, _ = verify(fine, A)
    assert ok


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


def test_certificate_json_dict():
    cert = solve_certificate(stable_a(2, seed=10), epsilon=0.25)
    d = certificate_to_json_dict(cert)
    assert set(d) == {"P", "phi", "psi", "epsilon", "radius", "lmi_max_eig", "search"}
    assert d["radius"] == cert.radius
    assert np.array_equal(np.array(d["P"]), cert.P)
