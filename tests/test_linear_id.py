import numpy as np
import pytest

from alssnn.dataio import Dataset
from alssnn.errors import DataError, DivergenceError, NumericalError
from alssnn.linear_id import (LinearSS, default_horizon, estimate_markov,
                              ho_kalman, linear_init)
from alssnn.models import simulate


def lin_data(lin, N, seed=0, dt=1.0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(N, lin.n_inputs))
    traj = simulate(lin, u)
    return Dataset(u, traj.y, dt=dt)


def two_state():
    # stable, observable, controllable
    A = np.array([[0.6, 0.2], [-0.1, 0.5]])
    B = np.array([[1.0], [0.5]])
    C = np.array([[1.0, -1.0]])
    return LinearSS(A, B, C)


def test_linearss_validation():
    with pytest.raises(DataError):
        LinearSS(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(DataError):
        LinearSS(np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)))
    with pytest.raises(DataError):
        LinearSS(np.full((1, 1), np.nan), np.ones((1, 1)), np.ones((1, 1)))
    # B of shape (m, n) is an error, not silently transposed
    with pytest.raises(DataError, match="B has 1 rows, expected 2"):
        LinearSS(np.eye(2), np.ones((1, 2)), np.ones((1, 2)))


def markov(lin, count):
    """Impulse response matrices C A^(i-1) B for i = 1..count."""
    out, Ak = [], np.eye(lin.n_states)
    for _ in range(count):
        out.append(lin.C @ Ak @ lin.B)
        Ak = lin.A @ Ak
    return out


def test_markov_analytic_scalar():
    lin = LinearSS([[0.5]], [[1.0]], [[1.0]])
    G = markov(lin, 5)
    for i, Gi in enumerate(G):
        assert Gi.shape == (1, 1)
        assert abs(Gi[0, 0] - 0.5**i) < 1e-15


def test_estimate_markov_scalar_oracle():
    # G_i = C A^{i-1} B = 0.5^{i-1}; an impulse after the lag window makes
    # the normal equations decouple, so recovery is exact despite the
    # truncated IIR tail
    lin = LinearSS([[0.5]], [[1.0]], [[1.0]])
    u = np.zeros((40, 1))
    u[7, 0] = 1.0
    traj = simulate(lin, u)
    ds = Dataset(u, traj.y, dt=1.0)
    G = estimate_markov(ds, 4)
    for i, Gi in enumerate(G):
        assert abs(Gi[0, 0] - 0.5**i) < 1e-6


def test_estimate_markov_two_state_oracle():
    lin = two_state()
    ds = lin_data(lin, 2000, seed=2)
    # horizon long enough that truncation error is below tolerance
    G = estimate_markov(ds, 40)
    ref = markov(lin, 40)
    worst = max(np.max(np.abs(g - r)) for g, r in zip(G, ref))
    assert worst < 1e-8


def test_estimate_markov_regularized_decays():
    t = np.arange(300.0)
    u = np.sin(0.3 * t)  # single sinusoid: lag space has rank 2
    ds = Dataset(u, np.sin(0.3 * t + 0.5), dt=1.0)
    G = estimate_markov(ds, 12)
    assert len(G) == 12
    mags = np.array([np.linalg.norm(g) for g in G])
    # decay prior: the tail must not dominate
    assert mags[-1] < mags.max()
    assert np.all(np.isfinite(mags))


def test_estimate_markov_needs_enough_samples():
    ds = lin_data(two_state(), 20)
    with pytest.raises(DataError):
        estimate_markov(ds, 15)


def test_ho_kalman_scalar_realization():
    G = [np.array([[0.5**i]]) for i in range(8)]
    lin = ho_kalman(G, 1)
    back = markov(lin, 8)
    for i, Gi in enumerate(back):
        assert abs(Gi[0, 0] - 0.5**i) < 1e-8


def test_ho_kalman_zero_markov_errors():
    G = [np.zeros((1, 1)) for _ in range(6)]
    with pytest.raises(NumericalError):
        ho_kalman(G, 1)


def test_ho_kalman_order_exceeds_rank():
    G = [np.array([[0.5**i]]) for i in range(8)]
    with pytest.raises(NumericalError, match="singular value"):
        ho_kalman(G, 3)


def test_ho_kalman_two_state_transfer_match():
    lin = two_state()
    G = [np.atleast_2d(g) for g in markov(lin, 20)]
    real = ho_kalman(G, 2)
    ref = markov(lin, 20)
    got = markov(real, 20)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(ref, got))
    assert worst < 1e-6


def test_ho_kalman_similarity_invariance():
    # raw matrices differ across similar realizations; Markov params agree
    lin = two_state()
    rng = np.random.default_rng(5)
    T = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    sim = LinearSS(np.linalg.solve(T, lin.A @ T), np.linalg.solve(T, lin.B), lin.C @ T)
    G_a = [np.atleast_2d(g) for g in markov(lin, 16)]
    G_b = [np.atleast_2d(g) for g in markov(sim, 16)]
    ra = ho_kalman(G_a, 2)
    rb = ho_kalman(G_b, 2)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(markov(ra, 16), markov(rb, 16)))
    assert worst < 1e-10


def test_default_horizon():
    assert default_horizon(1) == 20
    assert default_horizon(3) == 20
    assert default_horizon(10) == 50


def test_linear_init_recovery_held_out():
    lin = two_state()
    ds = lin_data(lin, 3000, seed=7)
    fit = linear_init(ds, 2, horizon=60)
    held = lin_data(lin, 800, seed=8)
    traj = simulate(fit, held.u)
    rel = np.linalg.norm(held.y - traj.y) / np.linalg.norm(held.y)
    assert rel < 1e-6


def test_linear_init_stabilizes_unstable_realization():
    unstable = LinearSS([[1.05]], [[1.0]], [[1.0]])
    rng = np.random.default_rng(3)
    u = rng.normal(size=(60, 1))
    traj = simulate(unstable, u)
    ds = Dataset(u, traj.y, dt=1.0)
    fit = linear_init(ds, 1, horizon=10)
    assert fit.spectral_radius() < 1.0


def test_linear_init_order_validated():
    ds = lin_data(two_state(), 200)
    with pytest.raises(DataError):
        linear_init(ds, 0)


def blind_data(N=4000, seed=0):
    # the output responds only to the square of a zero-mean input, so the
    # linear u -> y channel is empty and the FIR route learns nothing
    rng = np.random.default_rng(seed)
    k = np.arange(N)
    u = np.sin(0.3 * k) + 0.05 * rng.normal(size=N)
    x = 0.0
    y = np.empty(N)
    for i in range(N):
        y[i] = x
        x = 0.8 * x + u[i] ** 2
    return Dataset(u.reshape(-1, 1), y.reshape(-1, 1))


def test_linear_init_blind_record_uses_output_modes():
    from alssnn.linear_id import _OUTPUT_MODE_CAP

    ds = blind_data()
    lin = linear_init(ds, 2)
    assert lin.spectral_radius() <= _OUTPUT_MODE_CAP + 1e-9
    # u^2 of a sinusoid at 0.3 rad/sample oscillates at 0.6 rad/sample; the
    # realization built from output autocovariances must carry that mode
    angles = np.abs(np.angle(np.linalg.eigvals(lin.A)))
    assert np.min(np.abs(angles - 0.6)) < 0.05


def test_linear_init_blind_trigger_and_swap(monkeypatch):
    # the FIR-route model (stabilized exactly as linear_init builds it) fails
    # the blindness check, and the returned realization is a different model;
    # when that realization cannot be built, the FIR-route model is kept
    from alssnn import linear_id
    from alssnn.control import _free_run
    from alssnn.linear_id import _is_output_blind

    ds = blind_data()
    markov = estimate_markov(ds, default_horizon(2))
    fir = ho_kalman(markov, 2)
    rho = fir.spectral_radius()
    if rho >= 1.0:
        fir = LinearSS(fir.A * (0.995 / rho), fir.B, fir.C)
    assert _is_output_blind(fir, ds, _free_run(fir, ds))
    lin = linear_init(ds, 2)
    assert not np.allclose(lin.A, fir.A)

    def fail(ds, n):
        raise NumericalError("no output modes")

    monkeypatch.setattr(linear_id, "_output_informed_init", fail)
    lin = linear_init(ds, 2)
    assert all(np.array_equal(getattr(lin, key), getattr(fir, key)) for key in "ABC")


def test_a_constant_output_is_never_blind(monkeypatch):
    # a constant output has no dynamics to miss, so the FIR route stands
    # although its free run explains none of the output
    from alssnn import linear_id
    from alssnn.control import _free_run, rmse

    def called(ds, n):
        raise AssertionError("a constant output was taken for a blind one")

    rng = np.random.default_rng(5)
    ds = Dataset(u=rng.normal(size=(400, 1)), y=np.full((400, 1), 3.0))
    monkeypatch.setattr(linear_id, "_output_informed_init", called)
    lin = linear_init(ds, 2)
    assert rmse(lin, ds) > 1.0
    assert not linear_id._is_output_blind(lin, ds, _free_run(lin, ds))


def test_linear_init_well_excited_record_keeps_fir_route():
    ds = lin_data(two_state(), 600, seed=4)
    lin = linear_init(ds, 2)
    markov = estimate_markov(ds, default_horizon(2))
    fir = ho_kalman(markov, 2)
    assert np.allclose(lin.A, fir.A) and np.allclose(lin.B, fir.B)
    assert np.allclose(lin.C, fir.C)


def test_input_matrix_refit_recovers_truth():
    from alssnn.linear_id import _fit_input_matrix

    lin = two_state()
    ds = lin_data(lin, 400, seed=7)
    B = _fit_input_matrix(lin.A, lin.C, ds)
    assert np.allclose(B, lin.B, atol=1e-8)


def test_autocovariance_oracle():
    from alssnn.linear_id import _autocovariances

    rng = np.random.default_rng(11)
    y = rng.normal(size=(50, 2))
    yc = y - y.mean(axis=0)
    lams = _autocovariances(y, 3)
    for tau in (1, 2, 3):
        ref = sum(np.outer(yc[k + tau], yc[k]) for k in range(50 - tau)) / 50
        assert np.allclose(lams[tau - 1], ref, atol=1e-12)


def test_fit_input_matrix_block_run_matches_unit_runs():
    # the n*m unit-B free runs, run one by one, span the same least-squares
    # problem as the single block run
    from alssnn.linear_id import _fit_input_matrix

    rng = np.random.default_rng(42)
    A = np.array([[0.7, 0.1], [-0.2, 0.5]])
    C = np.array([[1.0, 0.5], [0.0, -1.0]])
    ds = Dataset(u=rng.normal(size=(200, 2)), y=rng.normal(size=(200, 2)))
    cols = []
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = 1.0
            cols.append(simulate(LinearSS(A=A, B=E, C=C), ds.u).y.ravel())
    coef = np.linalg.lstsq(np.stack(cols, axis=1), ds.y.ravel(), rcond=None)[0]
    assert np.max(np.abs(_fit_input_matrix(A, C, ds) - coef.reshape(2, 2))) < 1e-12


def test_step_engine_block_of_runs_stops_where_the_first_run_leaves_the_bound(set_bound):
    # three runs on one trailing axis; only the middle one grows, as 1.1^k,
    # and 1.1^72 = 955 < 1e3 < 1.1^73 = 1051
    from alssnn.models import _step_engine
    A = np.array([[1.1, 0.0], [0.0, 0.5]])
    M = np.column_stack([A, np.zeros((2, 1)), np.zeros(2)])
    x0 = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, -2.0]])
    N = 100
    set_bound(1e3)
    _, X, k = _step_engine([], M, np.zeros((N, 1, 3)), x0, "input")
    assert k == 73
    for j in range(3):
        _, Xj, kj = _step_engine([], M, np.zeros((N, 1)), x0[:, j], "input")
        assert kj == (k if j == 1 else None)
        np.testing.assert_array_equal(X[:k, :, j], Xj[:k])


def test_step_engine_refuses_a_block_with_a_non_finite_input_row():
    # the row is named whichever run of the block holds the NaN
    from alssnn.models import _step_engine
    M = np.column_stack([0.5 * np.eye(2), np.ones((2, 1)), np.zeros(2)])
    U = np.zeros((40, 1, 3))
    U[17, 0, 2] = np.nan
    with pytest.raises(DataError, match=r"^v sequence row 17 is not finite$"):
        _step_engine([], M, U, None, "v")


def test_step_engine_refuses_x0_off_the_block_of_runs():
    from alssnn.models import _step_engine
    M = np.column_stack([0.5 * np.eye(2), np.ones((2, 1)), np.zeros(2)])
    U = np.zeros((40, 1, 3))
    with pytest.raises(DataError, match=r"^x0 has shape \(2, 2\), expected \(2, 3\)$"):
        _step_engine([], M, U, np.zeros((2, 2)), "input")
    with pytest.raises(DataError, match=r"^input sequence has shape \(40, 2, 3\), "
                                        r"expected \(N, 1, 3\)$"):
        _step_engine([], M, np.zeros((40, 2, 3)), None, "input")
    # a single run still takes any x0 of n entries
    _, X, k = _step_engine([], M, np.ones(40), np.array([[1.0, 2.0]]), "input")
    assert k is None and X.shape == (41, 2) and list(X[0]) == [1.0, 2.0]


def test_linear_init_runs_meet_the_divergence_bound(set_bound):
    # both LTI runs of the initializer stop where their state leaves the
    # bound, as every free run does, instead of running on unchecked
    from alssnn.linear_id import _fit_input_matrix
    lin = two_state()
    ds = lin_data(lin, 400)
    set_bound(1e-3)
    with pytest.raises(DivergenceError, match="^the free run on dataset diverged at step 1$"):
        linear_init(ds, 2)
    with pytest.raises(DivergenceError, match="simulation diverged at step 1$"):
        _fit_input_matrix(lin.A, lin.C, ds)
