import warnings

import numpy as np
import pytest

from alssnn.control import (DENOMINATOR_GUARD, ClosedLoopRecord, _ratio_stats, estimate_epsilon,
                            linearizing_input, ratio_stats, rmse, rmse_split,
                            simulate_closed_loop)
from alssnn.dataio import Dataset
from alssnn.errors import DataError, DivergenceError
from alssnn.linear_id import LinearSS
from alssnn.models import _FOLD_MAX, AlSsnnModel, Trajectory, al_step, gr_model, simulate
from alssnn.nets import Equilibrium, Mlp, mlp_forward


def rand_net(d_in, d_out, nh, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return Mlp(W_in=rng.normal(size=(nh, d_in)) * scale,
               b_in=rng.normal(size=nh) * scale,
               W_out=rng.normal(size=(d_out, nh)) * scale,
               b_out=rng.normal(size=d_out) * scale)


def stable_lin():
    return LinearSS(A=np.array([[0.6, 0.15], [-0.1, 0.5]]),
                    B=np.array([[1.0], [0.4]]),
                    C=np.array([[1.0, -0.5]]))


def al_model(seed=0, scale=0.3):
    return AlSsnnModel(lin=stable_lin(),
                       h_net=rand_net(1, 1, 3, seed, scale),
                       g_net=rand_net(3, 2, 3, seed + 1, scale),
                       eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))


def test_linearizing_input_formula():
    model = al_model()
    v = np.array([0.4])
    y = np.array([1.2])
    assert np.allclose(linearizing_input(model, v, y),
                       v - mlp_forward(model.h_net, y), atol=1e-15)
    with pytest.raises(DataError):
        linearizing_input(model, np.zeros(2), y)


def test_closed_loop_matches_independent_stepper():
    # reference loop written against the definitions, not the library code
    model = al_model(seed=2)
    rng = np.random.default_rng(3)
    V = rng.normal(size=(40, 1)) * 0.5
    rec = simulate_closed_loop(model, V)
    A, B, C = model.lin.A, model.lin.B, model.lin.C
    x = np.zeros(2)
    for k in range(40):
        y = C @ x
        u = V[k] - mlp_forward(model.h_net, y)
        omega = mlp_forward(model.g_net, np.concatenate([x, u]))
        assert np.allclose(rec.y[k], y, atol=1e-13)
        assert np.allclose(rec.omega[k], omega, atol=1e-13)
        assert rec.lin_norm[k] == pytest.approx(np.linalg.norm(A @ x + B @ V[k]))
        x = A @ x + B @ V[k] + omega
        assert np.allclose(rec.x[k + 1], x, atol=1e-13)
    assert not rec.diverged


@pytest.mark.parametrize("k_div", [None, 17, 30], ids=["none", "mid_run", "last_state"])
def test_closed_loop_equals_open_loop_with_substituted_input(k_div, set_bound):
    # feeding u(k) = v(k) - h(y(k)) back through the plain simulator must
    # reproduce the closed-loop states exactly: the cancellation is algebraic.
    # Both runs keep x(0..k) and y(0..k-1) when x(k) leaves the bound, k = N too.
    model = growing_model(4)
    V = np.random.default_rng(5).normal(size=(30, 2))
    x0 = np.ones(3)
    xs, _, _ = closed_loop_reference(model, V, x0, np.inf)
    norms = np.linalg.norm(xs, axis=1)
    if k_div is not None:
        assert norms[k_div] > np.max(norms[:k_div])
        set_bound(0.5 * (np.max(norms[:k_div]) + norms[k_div]))
    rec = simulate_closed_loop(model, V, x0=x0)
    u = np.array([   # inputs past the divergence step never reach a kept state
        linearizing_input(model, V[k], rec.y[k]) for k in range(rec.y.shape[0])
    ] + [V[k] for k in range(rec.y.shape[0], 30)])
    traj = simulate(model, u, x0=x0)
    assert rec.diverged_at == traj.diverged_at == k_div
    assert traj.x.shape == rec.x.shape and traj.y.shape == rec.y.shape
    assert np.max(np.abs(traj.x - rec.x)) < 1e-12
    assert np.max(np.abs(traj.y - rec.y)) < 1e-12


def test_closed_loop_cancellation_identity():
    # x+ - Ax - Bv == omega at every step, to machine precision
    model = al_model(seed=6)
    V = np.random.default_rng(7).normal(size=(50, 1))
    rec = simulate_closed_loop(model, V)
    A, B = model.lin.A, model.lin.B
    lhs = rec.x[1:] - rec.x[:-1] @ A.T - rec.v @ B.T
    assert np.max(np.abs(lhs - rec.omega)) < 1e-12


def test_closed_loop_from_initial_state():
    model = al_model(seed=8)
    x0 = np.array([1.5, -0.7])
    rec = simulate_closed_loop(model, np.zeros((20, 1)), x0=x0)
    assert np.allclose(rec.x[0], x0)
    with pytest.raises(DataError):
        simulate_closed_loop(model, np.zeros((5, 1)), x0=np.zeros(3))


def test_closed_loop_divergence_truncates(set_bound):
    lin = LinearSS(A=np.array([[1.6, 0.0], [0.0, 1.5]]),
                   B=np.array([[1.0], [0.4]]), C=np.array([[1.0, 0.0]]))
    model = AlSsnnModel(lin=lin, h_net=rand_net(1, 1, 2, 0, 0.0),
                        g_net=rand_net(3, 2, 2, 1, 0.0),
                        eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
    set_bound(1e4)
    rec = simulate_closed_loop(model, np.ones((200, 1)))
    assert rec.diverged
    assert rec.diverged_at is not None
    assert rec.x.shape[0] == rec.diverged_at + 1
    assert rec.v.shape[0] == rec.diverged_at


def test_closed_loop_kernel_matches_al_step_loop():
    # wider model (m = p = 2) from a random state: the folded kernel must
    # track x+ = al_step(x, v - h(Cx)) and keep omega recomputable from x
    rng = np.random.default_rng(31)
    n, m, p = 3, 2, 2
    lin = LinearSS(A=0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n)),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    model = AlSsnnModel(lin=lin, h_net=rand_net(p, m, 5, 32, 0.8),
                        g_net=rand_net(n + m, n, 6, 33, 0.8),
                        eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    V = rng.normal(size=(150, m))
    x0 = rng.normal(size=n)
    rec = simulate_closed_loop(model, V, x0=x0)
    x = x0
    xs = [x]
    for k in range(150):
        x = al_step(model, x, linearizing_input(model, V[k], lin.C @ x))
        xs.append(x)
    xs = np.array(xs)
    assert rec.x.shape == xs.shape and not rec.diverged
    assert np.max(np.abs(rec.x - xs)) <= 1e-12 * np.max(np.abs(xs))
    assert np.max(np.abs(rec.y - rec.x[:-1] @ lin.C.T)) <= 1e-12 * np.max(np.abs(rec.y))
    for k in range(150):
        u = linearizing_input(model, V[k], rec.y[k])
        omega = mlp_forward(model.g_net, np.concatenate([rec.x[k], u]))
        assert np.max(np.abs(rec.omega[k] - omega)) <= 1e-12 * max(1.0, np.max(np.abs(omega)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_loop_non_finite_x0_diverges_at_zero(bad):
    rec = simulate_closed_loop(al_model(seed=34), np.zeros((10, 1)),
                               x0=np.array([bad, 0.0]))
    assert rec.diverged and rec.diverged_at == 0
    assert rec.x.shape == (1, 2) and rec.v.shape == (0, 1) and rec.omega.shape == (0, 2)


def test_closed_loop_rejects_other_families():
    gr = gr_model(stable_lin(), rand_net(3, 2, 3, 0))
    with pytest.raises(DataError, match=r"^closed-loop analysis requires an al-ssnn model "
                       r"\(output-feedback form\); got family 'gr-ssnn'$"):
        simulate_closed_loop(gr, np.zeros((5, 1)))


def test_closed_loop_record_is_a_checked_trajectory():
    rec = simulate_closed_loop(al_model(seed=35), np.zeros((4, 1)))
    assert isinstance(rec, Trajectory) and rec.x.shape == (5, 2) and rec.y.shape == (4, 1)
    fields = dict(v=np.zeros((9, 1)), omega=np.zeros((9, 2)), lin_norm=np.ones(9),
                  omega_ratio_mean=0.0, omega_ratio_max=0.0, n_excluded=0)
    with pytest.raises(DataError, match=r"^state sequence length 5 does not match "
                                        r"output length 9 \+ 1$"):
        ClosedLoopRecord(x=np.zeros((5, 2)), y=np.zeros((9, 1)), **fields)


def test_ratio_stats_al_manual():
    model = al_model(seed=9)
    rng = np.random.default_rng(10)
    ds = Dataset(u=rng.normal(size=(25, 1)), y=rng.normal(size=(25, 1)))
    stats = ratio_stats(model, ds)
    traj = simulate(model, ds.u)
    X = traj.x[:25]
    dens = np.linalg.norm(X @ model.lin.A.T + ds.u @ model.lin.B.T, axis=1)
    g = np.array([np.linalg.norm(
        mlp_forward(model.g_net, np.concatenate([X[k], ds.u[k]]))) for k in range(25)])
    keep = dens >= DENOMINATOR_GUARD
    assert stats.g_mean == pytest.approx(np.mean(g[keep] / dens[keep]))
    assert stats.g_max == pytest.approx(np.max(g[keep] / dens[keep]))
    assert stats.n_excluded == int(np.sum(~keep))
    assert stats.f_mean is None and stats.n_steps == 25


def test_ratio_stats_gr_has_f_only():
    gr = gr_model(stable_lin(), rand_net(3, 2, 3, 11))
    rng = np.random.default_rng(11)
    ds = Dataset(u=rng.normal(size=(20, 1)), y=rng.normal(size=(20, 1)))
    stats = ratio_stats(gr, ds)
    assert stats.f_mean is not None
    assert stats.g_mean is None and stats.h_mean is None
    assert 0 <= stats.f_mean <= stats.f_max


def test_ratio_stats_on_equal_rows_keeps_a_mean_rounded_above_the_max():
    # 200 equal ratios, as a free run at its fixed point gives: np.mean sums
    # and divides, and for this ratio lands more than 1e-15 above it
    lin = LinearSS(A=np.array([[1.0]]), B=np.array([[0.0]]), C=np.array([[1.0]]))
    h = Mlp(W_in=np.zeros((0, 1)), b_in=np.zeros(0), W_out=np.zeros((1, 0)),
            b_out=np.zeros(1))
    g = Mlp(W_in=np.zeros((0, 2)), b_in=np.zeros(0), W_out=np.zeros((1, 0)),
            b_out=np.array([3.673572689971952]))   # g's output, so the ratio
    model = AlSsnnModel(lin=lin, h_net=h, g_net=g,
                        eq=Equilibrium(x_e=np.zeros(1), u_e=np.zeros(1)))
    X, U = np.ones((200, 1)), np.zeros((200, 1))
    ratio = np.linalg.norm(g.b_out)
    assert np.mean(np.full(200, ratio)) > ratio + 1e-15
    stats = _ratio_stats(model, X, U)
    assert (stats.g_mean, stats.g_max) == (np.mean(np.full(200, ratio)), ratio)
    assert (stats.n_steps, stats.n_excluded, stats.h_max) == (200, 0, 0.0)


def test_ratio_stats_rejects_linear():
    ds = Dataset(u=np.ones((5, 1)), y=np.ones((5, 1)))
    with pytest.raises(DataError, match="networks"):
        ratio_stats(stable_lin(), ds)


def test_estimate_epsilon_rejects_linear():
    # an LTI model has no residual net g to bound: ratio_stats' check refuses it
    ds = Dataset(u=np.ones((5, 1)), y=np.ones((5, 1)))
    with pytest.raises(DataError, match="^epsilon estimates need a model with networks, "
                                        "got LinearSS$"):
        estimate_epsilon(stable_lin(), [ds])


def test_ratio_guard_counts_small_denominators():
    # x(0) = 0 and u(0) = 0 make the first linear term exactly zero
    model = al_model(seed=12)
    u = np.random.default_rng(12).normal(size=(15, 1))
    u[0] = 0.0
    ds = Dataset(u=u, y=np.zeros((15, 1)))
    stats = ratio_stats(model, ds)
    assert stats.n_excluded >= 1


def test_ratio_all_excluded_is_absent():
    # u = 0 from x(0) = 0 keeps every step's linear term at 0, below the guard
    model = al_model(seed=13, scale=0.0)
    ds = Dataset(u=np.zeros((10, 1)), y=np.zeros((10, 1)))
    stats = ratio_stats(model, ds)
    assert (stats.n_steps, stats.n_excluded) == (10, 10)
    assert (stats.g_mean, stats.g_max, stats.h_mean, stats.h_max) == (None,) * 4
    stats = ratio_stats(gr_model(model.lin, model.g_net), ds)
    assert (stats.n_excluded, stats.f_mean, stats.f_max) == (10, None, None)
    rec = simulate_closed_loop(model, ds.u)
    assert (rec.omega_ratio_mean, rec.omega_ratio_max, rec.n_excluded) == (None, None, 10)


def test_closed_loop_diverging_at_step_zero_has_no_ratio():
    rec = simulate_closed_loop(al_model(seed=13), np.zeros((5, 1)), x0=np.array([2e8, 0.0]))
    assert (rec.diverged_at, rec.n_steps, rec.n_excluded, rec.max_omega_norm) == (0, 0, 0, 0.0)
    assert (rec.omega_ratio_mean, rec.omega_ratio_max) == (None, None)


@pytest.mark.parametrize("runs", [3, 2])
def test_closed_loop_refuses_a_block_of_runs(runs):
    with pytest.raises(DataError, match=rf"v sequence has shape \(4, 1, {runs}\), "
                                        r"expected \(N, 1\)"):
        simulate_closed_loop(al_model(seed=13), np.ones((4, 1, runs)))


def test_estimate_epsilon_is_observed_max():
    model = al_model(seed=14)
    rng = np.random.default_rng(14)
    ds = Dataset(u=rng.normal(size=(30, 1)), y=rng.normal(size=(30, 1)))
    traj = simulate(model, ds.u)
    g = np.array([np.linalg.norm(
        mlp_forward(model.g_net, np.concatenate([traj.x[k], ds.u[k]])))
        for k in range(30)])
    assert estimate_epsilon(model, [ds]) == pytest.approx(np.max(g))
    # adding a record can only raise the bound
    rec = simulate_closed_loop(model, rng.normal(size=(40, 1)) * 2.0)
    eps2 = estimate_epsilon(model, [ds], records=[rec])
    assert eps2 >= estimate_epsilon(model, [ds])
    assert eps2 == pytest.approx(max(np.max(g), rec.max_omega_norm))
    with pytest.raises(DataError, match="at least one"):
        estimate_epsilon(model, [])


def test_rmse_manual_oracle():
    model = al_model(seed=15)
    rng = np.random.default_rng(15)
    ds = Dataset(u=rng.normal(size=(20, 1)), y=rng.normal(size=(20, 1)))
    traj = simulate(model, ds.u)
    e = ds.y - traj.y
    assert rmse(model, ds) == pytest.approx(
        np.sqrt(np.mean(np.sum(e**2, axis=1))), abs=1e-14)


def test_rmse_divergence_raises():
    lin = LinearSS(A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    ds = Dataset(u=np.ones((300, 1)), y=np.zeros((300, 1)), name="r.csv")
    k = simulate(lin, ds.u).diverged_at
    with pytest.raises(DivergenceError, match=rf"^the free run on r\.csv diverged at step {k}$"):
        rmse(lin, ds)


def test_rmse_split_prefix_equals_rmse_on_train_half():
    # one free run from zero: its first k samples coincide with a free run on
    # the truncated record, so the train figure must equal plain rmse there
    model = al_model(seed=21)
    rng = np.random.default_rng(21)
    ds = Dataset(u=rng.normal(size=(40, 1)), y=rng.normal(size=(40, 1)))
    tr = Dataset(u=ds.u[:20], y=ds.y[:20])
    r_tr, _ = rmse_split(model, ds, 0.5)
    assert r_tr == pytest.approx(rmse(model, tr), abs=1e-14)


def test_rmse_split_test_half_manual_oracle():
    model = al_model(seed=22)
    rng = np.random.default_rng(22)
    ds = Dataset(u=rng.normal(size=(30, 1)), y=rng.normal(size=(30, 1)))
    traj = simulate(model, ds.u)
    e = ds.y - traj.y
    _, r_te = rmse_split(model, ds, 0.5)
    assert r_te == pytest.approx(
        np.sqrt(np.mean(np.sum(e[15:] ** 2, axis=1))), abs=1e-14)


def test_rmse_split_continuation_differs_from_restart():
    # a model with memory enters the test half in a data-consistent state;
    # restarting from zero instead charges an entry transient
    lin = LinearSS(A=np.array([[0.99]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    u = np.ones((60, 1))
    y = simulate(lin, u).y
    ds = Dataset(u=u, y=y)
    _, cont = rmse_split(lin, ds, 0.5)
    restart = rmse(lin, Dataset(u=u[30:], y=y[30:]))
    assert cont == pytest.approx(0.0, abs=1e-12)
    assert restart > 1.0


def test_rmse_split_divergence_raises():
    lin = LinearSS(A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    ds = Dataset(u=np.ones((300, 1)), y=np.zeros((300, 1)), name="r.csv")
    k = simulate(lin, ds.u).diverged_at
    with pytest.raises(DivergenceError, match=rf"^the free run on r\.csv diverged at step {k}$"):
        rmse_split(lin, ds, 0.5)


@pytest.mark.parametrize("score", [ratio_stats, lambda model, ds: estimate_epsilon(model, [ds])],
                         ids=["ratio_stats", "estimate_epsilon"])
def test_a_diverging_free_run_names_its_record(score):
    model = AlSsnnModel(lin=LinearSS(A=[[2.0]], B=[[1.0]], C=[[1.0]]),
                        h_net=rand_net(1, 1, 1, seed=0), g_net=rand_net(2, 1, 1, seed=1),
                        eq=Equilibrium(x_e=[0.0], u_e=[0.0]))
    ds = Dataset(u=np.ones((300, 1)), y=np.zeros((300, 1)), name="r.csv")
    k = simulate(model, ds.u).diverged_at
    with pytest.raises(DivergenceError, match=rf"^the free run on r\.csv diverged at step {k}$"):
        score(model, ds)


# --- step engine: block-wise divergence checks and wide nets -------------------

def closed_loop_reference(model, V, x0, bound):
    """(x, omega, diverged_at) of x+ = al_step(x, v - h(Cx)), stopped like the library."""
    x = np.asarray(x0, dtype=float)
    xs, omegas = [x], []
    for k in range(V.shape[0]):
        if not np.linalg.norm(x) <= bound:
            return np.array(xs), np.array(omegas).reshape(k, x.shape[0]), k
        u = linearizing_input(model, V[k], model.lin.C @ x)
        omegas.append(mlp_forward(model.g_net, np.concatenate([x, u])))
        x = al_step(model, x, u)
        xs.append(x)
    k = None if np.linalg.norm(x) <= bound else V.shape[0]
    return np.array(xs), np.array(omegas), k


def growing_model(seed, n_h=5, n_g=5):
    rng = np.random.default_rng(seed)
    n, m, p = 3, 2, 2
    lin = LinearSS(A=1.2 * np.eye(n) + 0.01 * rng.normal(size=(n, n)),
                   B=0.1 * rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    return AlSsnnModel(lin=lin, h_net=rand_net(p, m, n_h, seed + 1, 1.0),
                       g_net=rand_net(n + m, n, n_g, seed + 2, 0.01),
                       eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))


@pytest.mark.parametrize("k_div", [1, 255, 256, 257, 300])
def test_closed_loop_divergence_step_matches_reference_across_blocks(k_div, set_bound):
    model = growing_model(50)
    V = np.random.default_rng(51).normal(size=(300, 2))
    x0 = np.ones(3)
    xs, _, _ = closed_loop_reference(model, V, x0, np.inf)
    norms = np.linalg.norm(xs, axis=1)
    assert norms[k_div] > np.max(norms[:k_div])
    bound = 0.5 * (np.max(norms[:k_div]) + norms[k_div])
    xs, omegas, k = closed_loop_reference(model, V, x0, bound)
    set_bound(bound)
    rec = simulate_closed_loop(model, V, x0=x0)
    assert k == k_div and rec.diverged and rec.diverged_at == k_div
    assert rec.x.shape == xs.shape and rec.omega.shape == omegas.shape
    assert rec.v.shape == (k_div, 2) and rec.y.shape == (k_div, 2)
    assert np.max(np.abs(rec.x - xs)) <= 1e-12 * np.max(np.abs(xs))


def test_closed_loop_nan_state_on_block_boundary():
    # B v = inf - inf at step 255 only: x(256) is the first non-finite state
    lin = LinearSS(A=0.5 * np.eye(2), B=np.array([[1e300, -1e300], [0.0, 1.0]]),
                   C=np.array([[1.0, 0.0]]))
    model = AlSsnnModel(lin=lin, h_net=rand_net(1, 2, 3, 52, 0.0),
                        g_net=rand_net(4, 2, 3, 53),
                        eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(2)))
    V = np.zeros((600, 2))
    V[255] = 1e10
    rec = simulate_closed_loop(model, V)   # ||A x + B v|| overflows at step 255
    assert rec.diverged and rec.diverged_at == 256
    assert rec.x.shape == (257, 2) and rec.omega.shape == (256, 2)
    assert np.all(np.isfinite(rec.x[:256])) and not np.isfinite(rec.x[256, 0])


def test_closed_loop_wide_nets_over_three_blocks_match_reference():
    rng = np.random.default_rng(54)
    n, m, p, H = 4, 2, 2, 80
    lin = LinearSS(A=0.6 * np.eye(n) + 0.05 * rng.normal(size=(n, n)),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    model = AlSsnnModel(lin=lin, h_net=rand_net(p, m, H, 55, 0.5),
                        g_net=rand_net(n + m, n, H, 56, 0.1),
                        eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    V = rng.normal(size=(700, m))
    x0 = rng.normal(size=n)
    xs, omegas, k = closed_loop_reference(model, V, x0, 1e8)
    rec = simulate_closed_loop(model, V, x0=x0)
    assert k is None and not rec.diverged and rec.x.shape == xs.shape
    assert np.max(np.abs(rec.x - xs)) <= 1e-12 * np.max(np.abs(xs))
    assert np.max(np.abs(rec.omega - omegas)) <= 1e-12 * np.max(np.abs(omegas))


def test_closed_loop_divergent_run_raises_no_warning():
    # at scale 1e200, building the folded state map overflows as well
    for scale, k_div in ((10.0, 8), (1e200, 1)):
        lin = LinearSS(A=scale * np.eye(2), B=np.ones((2, 1)), C=np.array([[scale, 0.0]]))
        model = AlSsnnModel(lin=lin, h_net=rand_net(1, 1, 3, 57), g_net=rand_net(3, 2, 3, 58),
                            eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = simulate_closed_loop(model, np.ones((1000, 1)), x0=np.ones(2))
        assert rec.diverged and rec.diverged_at == k_div


@pytest.mark.parametrize("n_h, n_g", [(0, 6), (5, 0), (0, 0)])
def test_empty_net_open_and_closed_loop_over_blocks(n_h, n_g):
    # an empty net is a zero-width engine layer in the closed loop (and in
    # the free run when both are empty): its views hold no columns
    rng = np.random.default_rng(60 + 7 * n_h + n_g)
    n, m, p, N = 3, 2, 2, 600
    lin = LinearSS(A=0.6 * np.eye(n) + 0.05 * rng.normal(size=(n, n)),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    model = AlSsnnModel(lin=lin, h_net=rand_net(p, m, n_h, 61, 0.5),
                        g_net=rand_net(n + m, n, n_g, 62, 0.1),
                        eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    V = rng.normal(size=(N, m))
    x0 = rng.normal(size=n)
    xs = [x0]
    for k in range(N):
        xs.append(al_step(model, xs[-1], V[k]))
    xs = np.array(xs)
    traj = simulate(model, V, x0=x0)
    assert not traj.diverged and traj.x.shape == xs.shape
    assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))
    xs, omegas, k = closed_loop_reference(model, V, x0, 1e8)
    rec = simulate_closed_loop(model, V, x0=x0)
    assert k is None and not rec.diverged and rec.x.shape == xs.shape
    assert np.max(np.abs(rec.x - xs)) <= 1e-12 * np.max(np.abs(xs))
    assert np.max(np.abs(rec.omega - omegas)) <= 1e-12 * np.max(np.abs(omegas))


# --- step engine: the folded h layer and its width switch -----------------------

@pytest.mark.parametrize("row", [0, 255, 599])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_closed_loop_non_finite_input_row_is_a_data_error(bad, row):
    # a non-finite reference is malformed data, not a divergent run
    V = np.random.default_rng(81).normal(size=(600, 1))
    V[row, 0] = bad
    with pytest.raises(DataError, match=rf"v sequence row {row} is not finite"):
        simulate_closed_loop(al_model(seed=80), V)


@pytest.mark.parametrize("k_div", [None, 255, 256, 257])
@pytest.mark.parametrize("n_h, n_g", [(_FOLD_MAX - 1, 5), (_FOLD_MAX + 1, 5),
                                      (5, 2 * _FOLD_MAX), (0, 6)])
def test_closed_loop_either_side_of_the_fold_width_matches_reference(n_h, n_g, k_div,
                                                                    set_bound):
    # h, the first layer, folds up to the switch width whatever g's width;
    # an empty h is a zero-width layer and does not fold
    model = growing_model(82, n_h, n_g)
    V = np.random.default_rng(83).normal(size=(300, 2))
    x0 = np.ones(3)
    xs, _, _ = closed_loop_reference(model, V, x0, np.inf)
    norms = np.linalg.norm(xs, axis=1)
    bound = np.inf if k_div is None else 0.5 * (np.max(norms[:k_div]) + norms[k_div])
    xs, omegas, k = closed_loop_reference(model, V, x0, bound)
    set_bound(bound)
    rec = simulate_closed_loop(model, V, x0=x0)
    assert k == k_div and rec.diverged_at == k_div
    assert rec.x.shape == xs.shape and rec.omega.shape == omegas.shape
    assert np.max(np.abs(rec.x - xs)) <= 1e-12 * np.max(np.abs(xs))
    assert np.max(np.abs(rec.omega - omegas)) <= 1e-12 * np.max(np.abs(omegas))
