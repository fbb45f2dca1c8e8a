import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from alssnn import training
from alssnn.dataio import Dataset
from alssnn.errors import DataError, DivergenceError
from alssnn.linear_id import LinearSS
from alssnn.models import _BLOCK, AlSsnnModel, GrSsnnModel, gr_model, simulate
from alssnn.nets import (Equilibrium, Mlp, enforce_equilibrium_zero, mlp_forward,
                         mlp_forward_batch)
from alssnn.training import (LmWorkspace, TrainConfig, jacobian_bptt, lm_step,
                             pack_params, residuals, train, train_gr,
                             unpack_params)


def loss(model, ds, gamma=0.0):
    return training._mean_square(residuals(model, ds, gamma)[0], ds.n_samples)


def chunk_len(model):
    """Samples per chunk of the sensitivity pass for this model."""
    return training._chunk_len(model.lin.n_states, pack_params(model).size)


def rand_net(d_in, d_out, nh, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return Mlp(W_in=rng.normal(size=(nh, d_in)) * scale,
               b_in=rng.normal(size=nh) * scale,
               W_out=rng.normal(size=(d_out, nh)) * scale,
               b_out=rng.normal(size=d_out) * scale)


def rand_al(n=2, m=1, p=1, nh=3, ng=3, seed=0, net_scale=0.3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) * 0.3
    A = A / max(1.0, 1.3 * np.max(np.abs(np.linalg.eigvals(A))))
    lin = LinearSS(A=A, B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    return AlSsnnModel(lin=lin,
                       h_net=rand_net(p, m, nh, seed + 1, net_scale),
                       g_net=rand_net(n + m, n, ng, seed + 2, net_scale),
                       eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))


def rand_gr(n=2, m=1, p=1, nf=3, seed=0, net_scale=0.3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) * 0.3
    A = A / max(1.0, 1.3 * np.max(np.abs(np.linalg.eigvals(A))))
    lin = LinearSS(A=A, B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    return gr_model(lin, rand_net(n + m, n, nf, seed + 1, net_scale))


def pin(model):
    """The AL model with g pinned at its equilibrium, as unpack_params keeps
    it, so finite differences through pack/unpack start from the model."""
    return replace(model, g_net=enforce_equilibrium_zero(model.g_net, model.eq))


def rand_ds(m=1, p=1, N=15, seed=0):
    rng = np.random.default_rng(seed + 100)
    return Dataset(u=rng.normal(size=(N, m)), y=rng.normal(size=(N, p)))


def fd_residual_jac(model, ds, gamma, h=1e-6):
    theta0 = pack_params(model)
    cols = []
    for i in range(theta0.size):
        e = np.zeros_like(theta0)
        e[i] = h
        rp = residuals(unpack_params(model, theta0 + e), ds, gamma)[0]
        rm = residuals(unpack_params(model, theta0 - e), ds, gamma)[0]
        cols.append((rp - rm) / (2 * h))
    return np.column_stack(cols)


# --- residuals and loss ------------------------------------------------------

def test_loss_is_squared_residual_norm_over_n():
    model = rand_al(seed=1)
    ds = rand_ds(seed=1)
    for gamma in (0.0, 0.5, 2.0):
        r, _ = residuals(model, ds, gamma)
        assert abs(loss(model, ds, gamma) - r @ r / ds.n_samples) < 1e-12


def test_residual_blocks_match_free_run():
    model = rand_al(seed=2)
    ds = rand_ds(seed=2)
    gamma = 1.7
    r, X = residuals(model, ds, gamma)
    traj = simulate(model, ds.u)
    assert np.array_equal(X, traj.x[: ds.n_samples])
    e = ds.y - traj.x[: ds.n_samples] @ model.lin.C.T
    cut = e.size
    assert np.allclose(r[:cut].reshape(e.shape), e, atol=1e-14)
    Z = np.hstack([traj.x[: ds.n_samples], ds.u])
    g = mlp_forward_batch(model.g_net, Z)
    assert np.allclose(r[cut:].reshape(g.shape), np.sqrt(gamma) * g, atol=1e-14)


def test_residuals_gr_has_no_penalty_block():
    model = rand_gr(seed=3)
    ds = rand_ds(seed=3)
    r, X = residuals(model, ds)
    assert r.shape == (ds.n_samples * 1,)   # the output rows alone
    assert X.shape == (ds.n_samples, model.lin.n_states)


def test_loss_components_sum():
    model = rand_al(seed=4)
    ds = rand_ds(seed=4)
    r, _ = residuals(model, ds, 0.8)
    cut = ds.n_samples * ds.n_outputs
    out, pen = (training._mean_square(part, ds.n_samples) for part in (r[:cut], r[cut:]))
    assert abs(out + pen - training._mean_square(r, ds.n_samples)) < 1e-12


def test_residuals_dim_mismatch():
    with pytest.raises(DataError, match=r"^record dataset has 2 input channels, model expects 1$"):
        residuals(rand_al(), rand_ds(m=2))


# --- parameter packing -------------------------------------------------------

def test_unpack_params_owns_its_arrays():
    # a later write to theta cannot change the model built from it
    model = rand_al(seed=5)
    theta = pack_params(model) + 0.25
    built = unpack_params(model, theta)
    before = pack_params(built)
    theta[:] = 99.0
    assert np.array_equal(pack_params(built), before)
    assert built.lin.A[0, 0] != 99.0


def test_pack_unpack_round_trip():
    # pinned AL, and GR with its f net's output bias free
    for model in (pin(rand_al(seed=5)), rand_gr(seed=5)):
        back = unpack_params(model, pack_params(model))
        for name in ("A", "B", "C"):
            assert np.array_equal(getattr(back.lin, name), getattr(model.lin, name))
        for net in ("h_net", "g_net"):
            for suffix in ("W_in", "b_in", "W_out", "b_out"):
                assert np.array_equal(getattr(getattr(back, net), suffix),
                                      getattr(getattr(model, net), suffix))


def test_unpack_enforces_equilibrium():
    model = rand_al(seed=7)
    assert "g.b_out" not in training._param_slices(model)[0]
    rng = np.random.default_rng(8)
    theta = pack_params(model) + rng.normal(size=pack_params(model).size)
    new = unpack_params(model, theta)
    z_e = new.eq.stacked()
    assert np.max(np.abs(mlp_forward(new.g_net, z_e))) < 1e-14


def test_one_layout_for_al_and_gr():
    # A, B, h's blocks, then g's; only the free output bias differs: h's for
    # pinned AL, g's for GR, whose h blocks are zero-width
    al, gr = pin(rand_al(seed=30)), rand_gr(seed=30)
    al_cols, gr_cols = training._param_slices(al)[0], training._param_slices(gr)[0]
    nets = [f"{tag}.{s}" for tag in ("h", "g") for s in ("W_in", "b_in", "W_out", "b_out")]
    assert list(al_cols) == ["A", "B"] + [b for b in nets if b != "g.b_out"]
    assert list(gr_cols) == ["A", "B"] + [b for b in nets if b != "h.b_out"]
    assert all(gr_cols[b].start == gr_cols[b].stop for b in ("h.W_in", "h.b_in", "h.W_out"))
    # so GR's vector is A, B and its f net, AL's A, B, h and g but g.b_out
    def flat(model, blocks):
        return np.concatenate([model.lin.A.ravel(), model.lin.B.ravel()] + [
            getattr(getattr(model, f"{b[0]}_net"), b[2:]).ravel() for b in blocks])

    assert np.array_equal(pack_params(al), flat(al, nets[:4] + nets[4:7]))
    assert np.array_equal(pack_params(gr), flat(gr, nets[4:]))


# --- Jacobian ----------------------------------------------------------------

def test_jacobian_matches_fd_al():
    model = pin(rand_al(n=2, m=1, p=1, nh=3, ng=3, seed=9))
    ds = rand_ds(N=12, seed=9)
    J = jacobian_bptt(model, ds, 0.7)
    J_fd = fd_residual_jac(model, ds, 0.7)
    assert np.max(np.abs(J - J_fd)) < 1e-5


def test_jacobian_matches_fd_al_equilibrium_constrained():
    # the FD path goes through unpack, which re-pins g at the equilibrium,
    # so this checks the corrected columns the optimizer actually uses
    model = pin(rand_al(n=2, m=1, p=1, nh=2, ng=3, seed=10))
    ds = rand_ds(N=10, seed=10)
    J = jacobian_bptt(model, ds, 1.3)
    J_fd = fd_residual_jac(model, ds, 1.3)
    assert np.max(np.abs(J - J_fd)) < 1e-5


def test_jacobian_matches_fd_al_pinned_at_a_nonzero_equilibrium():
    # g pinned at (x_e, u_e) != 0: every g column, W_in included, loses the
    # equilibrium point's term
    model = rand_al(n=2, m=1, p=1, nh=2, ng=3, seed=29)
    model = pin(replace(model, eq=Equilibrium(x_e=np.array([0.4, -0.3]),
                                              u_e=np.array([0.6]))))
    ds = rand_ds(N=10, seed=29)
    J = jacobian_bptt(model, ds, 1.3)
    J_fd = fd_residual_jac(model, ds, 1.3)
    assert np.max(np.abs(J - J_fd)) < 1e-5


def test_jacobian_matches_fd_gr():
    model = rand_gr(n=3, m=2, p=2, nf=3, seed=11)
    ds = rand_ds(m=2, p=2, N=10, seed=11)
    J = jacobian_bptt(model, ds)
    J_fd = fd_residual_jac(model, ds, 0.0)
    assert np.max(np.abs(J - J_fd)) < 1e-5


def test_jacobian_matches_fd_across_chunks():
    # a record of three sensitivity chunks: S must carry over both chunk
    # boundaries
    model = pin(rand_al(n=2, m=1, p=1, nh=2, ng=2, seed=25))
    ds = rand_ds(N=2 * chunk_len(model) + 40, seed=25)
    assert ds.n_samples > 2 * chunk_len(model)
    J = jacobian_bptt(model, ds, 0.9)
    J_fd = fd_residual_jac(model, ds, 0.9)
    assert np.max(np.abs(J - J_fd)) < 1e-5


def kill(net, *units):
    """The net with the output weights of `units` set to zero."""
    W_out = net.W_out.copy()
    W_out[:, list(units)] = 0.0
    return replace(net, W_out=W_out)


def unit_columns(model, tag, i):
    """Parameter columns of hidden unit i's input row and bias in net `tag`."""
    cols = training._param_slices(model)[0]
    d_in = getattr(model, f"{tag}_net").W_in.shape[1]
    start = cols[f"{tag}.W_in"].start + i * d_in
    return [*range(start, start + d_in), cols[f"{tag}.b_in"].start + i]


def check_dead_columns_are_zero(model, ds, gamma, dead):
    # the dead units' columns are exactly 0.0, and the other input-layer
    # columns are not: the zeros come from W_out, not from the data
    J = jacobian_bptt(model, ds, gamma)
    assert np.all(J[:, dead] == 0.0)
    cols = training._param_slices(model)[0]
    input_layer = [c for name in ("h.W_in", "h.b_in", "g.W_in", "g.b_in")
                   for c in range(cols[name].start, cols[name].stop)]
    assert all(np.any(J[:, c]) for c in input_layer if c not in dead)


def test_jacobian_columns_of_units_with_zero_output_weights_are_zero_al():
    model = rand_al(n=2, m=1, p=1, nh=3, ng=3, seed=9)
    model = pin(replace(model, h_net=kill(model.h_net, 1), g_net=kill(model.g_net, 2)))
    ds = rand_ds(N=12, seed=9)
    check_dead_columns_are_zero(model, ds, 0.7,
                                unit_columns(model, "h", 1) + unit_columns(model, "g", 2))


def test_jacobian_columns_of_units_with_zero_output_weights_are_zero_nonzero_equilibrium():
    # the pin subtracts the equilibrium point's terms, which carry W_out too
    model = rand_al(n=2, m=1, p=1, nh=2, ng=3, seed=29)
    model = pin(replace(model, h_net=kill(model.h_net, 0), g_net=kill(model.g_net, 1),
                        eq=Equilibrium(x_e=np.array([0.4, -0.3]), u_e=np.array([0.6]))))
    ds = rand_ds(N=10, seed=29)
    check_dead_columns_are_zero(model, ds, 1.3,
                                unit_columns(model, "h", 0) + unit_columns(model, "g", 1))


def test_jacobian_columns_of_units_with_zero_output_weights_are_zero_gr():
    model = rand_gr(n=3, m=2, p=2, nf=3, seed=11)
    model = replace(model, g_net=kill(model.g_net, 0))
    ds = rand_ds(m=2, p=2, N=10, seed=11)
    check_dead_columns_are_zero(model, ds, 0.0, unit_columns(model, "g", 0))


def test_jacobian_scalar_analytic_oracle():
    # pure linear scalar model, A's column (column 0): the sensitivity has
    # the closed form dx(k)/da = sum_j (k-1-j) a^(k-2-j) b u(j)
    a, b, c = 0.7, 1.3, 0.9
    lin = LinearSS(A=np.array([[a]]), B=np.array([[b]]), C=np.array([[c]]))
    zero = Mlp(W_in=np.zeros((1, 1)), b_in=np.zeros(1),
               W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    zero_g = Mlp(W_in=np.zeros((1, 2)), b_in=np.zeros(1),
                 W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    model = AlSsnnModel(lin=lin, h_net=zero, g_net=zero_g,
                        eq=Equilibrium(x_e=np.zeros(1), u_e=np.zeros(1)))
    N = 12
    rng = np.random.default_rng(12)
    u = rng.normal(size=(N, 1))
    ds = Dataset(u=u, y=np.zeros((N, 1)))
    J = jacobian_bptt(model, ds, 0.0)
    expected = np.zeros(N)
    for k in range(N):
        s = 0.0
        for j in range(k - 1):
            s += (k - 1 - j) * a ** (k - 2 - j) * b * u[j, 0]
        expected[k] = -c * s
    assert np.max(np.abs(J[:N, 0] - expected)) < 1e-10


# --- structural equivalence --------------------------------------------------

def test_al_gamma_zero_equals_stacked_gr():
    # B h(Cx) + g(x,u) folds into one net: its hidden layer stacks both nets,
    # with h's input weights composed with C and its output weights with B
    model = rand_al(n=2, m=1, p=1, nh=3, ng=4, seed=13)
    lin = model.lin
    h, g = model.h_net, model.g_net
    n, m = lin.n_states, lin.n_inputs
    W_in_f = np.vstack([
        np.hstack([h.W_in @ lin.C, np.zeros((h.n_hidden, m))]),
        g.W_in,
    ])
    f_net = Mlp(W_in=W_in_f,
                b_in=np.concatenate([h.b_in, g.b_in]),
                W_out=np.hstack([lin.B @ h.W_out, g.W_out]),
                b_out=lin.B @ h.b_out + g.b_out)
    gr = gr_model(lin, f_net)
    ds = rand_ds(N=30, seed=13)
    t_al = simulate(model, ds.u)
    t_gr = simulate(gr, ds.u)
    assert np.max(np.abs(t_al.y - t_gr.y)) < 1e-12
    assert abs(loss(model, ds, 0.0) - loss(gr, ds)) < 1e-12


# --- Levenberg-Marquardt -----------------------------------------------------

def test_lm_step_accept_reject_contract():
    model = rand_al(seed=14, net_scale=0.1)
    ds = rand_ds(N=20, seed=14)
    config = TrainConfig(gamma=0.5)
    ws = LmWorkspace()
    l0 = loss(model, ds, 0.5)
    new, lam, accepted = lm_step(model, ds, config, config.lambda0, workspace=ws)
    if accepted:
        assert loss(new, ds, 0.5) < l0
        assert lam == pytest.approx(config.lambda0 * config.lambda_down)
    else:
        assert new is model
        assert lam == pytest.approx(config.lambda0 * config.lambda_up)


def test_lm_step_rejects_at_exact_minimum():
    # zero residual: no candidate can strictly decrease, so lm_step must
    # reject and push lambda up
    lin = LinearSS(A=np.array([[0.5]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    u = np.random.default_rng(15).normal(size=(20, 1))
    y = simulate(lin, u).y
    ds = Dataset(u=u, y=y)
    f_net = Mlp(W_in=np.zeros((2, 2)), b_in=np.zeros(2),
                W_out=np.zeros((1, 2)), b_out=np.zeros(1))
    model = gr_model(lin, f_net)
    assert loss(model, ds) == 0.0  # exact data: residual already zero
    config = TrainConfig()
    new, lam, accepted = lm_step(model, ds, config, 1e-2)
    assert not accepted
    assert new is model
    assert lam == pytest.approx(1e-2 * config.lambda_up)


def test_lm_step_bias_only_reaches_lstsq_optimum(monkeypatch):
    # at lambda = 1e-12 the step is the Gauss-Newton step, a least-squares
    # solution of J delta = -r. lstsq finds one from the assembled Jacobian
    # by an orthogonal factorization, independently of lm_step's streamed
    # normal equations and Cholesky solve. Any T with C T = C changes the
    # state basis but not the model, so J has a null space, and only
    # J delta, the change of the residuals the step predicts, is unique.
    model = rand_gr(seed=16)
    ds = rand_ds(N=40, seed=16)
    J, r = jacobian_bptt(model, ds), residuals(model, ds)[0]
    delta = np.linalg.lstsq(J, -r, rcond=None)[0]
    steps = []

    def capture(model, theta):
        steps.append(theta - pack_params(model))
        return unpack_params(model, theta)

    monkeypatch.setattr(training, "unpack_params", capture)
    lm_step(model, ds, TrainConfig(), 1e-12)
    # normal equations square the conditioning, so allow a small gap
    assert np.linalg.norm(J @ (steps[0] - delta)) < 1e-6 * np.linalg.norm(r)


def test_lm_workspace_reuse_consistency():
    model = rand_al(seed=17, net_scale=0.1)
    ds = rand_ds(N=15, seed=17)
    config = TrainConfig(gamma=0.3)
    ws = LmWorkspace()
    # two rejected-or-accepted calls from the same model must agree with a
    # fresh-workspace call (cache is transparent)
    m1, l1, a1 = lm_step(model, ds, config, 1e6, workspace=ws)
    m2, l2, a2 = lm_step(model, ds, config, 1e6)
    assert a1 == a2
    if a1:
        assert np.array_equal(pack_params(m1), pack_params(m2))


def test_lm_step_reuses_accepted_candidate_states_bit_identically():
    # after an accepted step the workspace holds the candidate's free run;
    # the refill from it must equal a fresh workspace's refill bit for bit
    model = rand_al(seed=18, net_scale=0.1)
    ds = rand_ds(N=25, seed=18)
    config = TrainConfig(gamma=0.4)
    ws = LmWorkspace()
    lam = 1e-3
    for _ in range(10):
        new, lam, accepted = lm_step(model, ds, config, lam, workspace=ws)
        if accepted:
            break
    assert accepted and ws.problem[0] is new
    runs_before = ws.free_runs
    fresh = LmWorkspace()
    assert not lm_step(new, ds, config, lam, workspace=ws)[2]   # keeps its fill
    lm_step(new, ds, config, lam, workspace=fresh)
    # cached: only the candidate's free run; fresh: the refill's and the candidate's
    assert ws.free_runs == runs_before + 1
    assert fresh.free_runs == 2
    assert np.array_equal(ws.JtJ, fresh.JtJ)
    assert np.array_equal(ws.Jtr, fresh.Jtr)
    assert ws.loss == fresh.loss


def test_lm_step_accept_moves_the_workspace_to_the_candidate():
    # an accepted step leaves the candidate's free run and no fill, and the
    # loss of the model it started from; that model is then another
    # problem, so a call with it again simulates and fills afresh
    model = rand_al(seed=18, net_scale=0.1)
    ds = rand_ds(N=25, seed=18)
    config = TrainConfig(gamma=0.4)
    ws = LmWorkspace()
    candidate, _, accepted = lm_step(model, ds, config, 1e2, workspace=ws)
    assert accepted and candidate is not model
    assert ws.JtJ is None and ws.JtJ_diag is None and ws.Jtr is None
    assert ws.problem[0] is candidate
    assert training._mean_square(ws.rv[0], ds.n_samples) == ws.last_candidate_loss
    assert ws.loss == loss(model, ds, 0.4)
    assert (ws.free_runs, ws.jacobians) == (2, 1)
    lm_step(model, ds, config, 1e2, workspace=ws)
    assert (ws.free_runs, ws.jacobians) == (4, 2) and ws.loss == loss(model, ds, 0.4)


def test_lm_workspace_refills_for_another_model():
    # the cached J'J/J'r and loss belong to the model they were filled for;
    # a call with another model must refill, not judge its step by m1's loss
    m1, m2 = rand_al(seed=1), rand_al(seed=2)
    ds = rand_ds(N=40)
    config = TrainConfig(gamma=0.5)
    ws = LmWorkspace()
    lm_step(m1, ds, config, 1e-2, workspace=ws)
    assert ws.loss == loss(m1, ds, 0.5)
    fresh = LmWorkspace()
    out = lm_step(m2, ds, config, 1e-2, workspace=ws)
    ref = lm_step(m2, ds, config, 1e-2, workspace=fresh)
    assert ws.loss == fresh.loss == loss(m2, ds, 0.5)
    # the step is accepted, which drops the fill; the gradient norm and the
    # step stay to show both solved m2's normal equations
    assert out[2] and ws.JtJ is None and ws.grad_inf == fresh.grad_inf
    assert out[1:] == ref[1:]
    assert np.array_equal(pack_params(out[0]), pack_params(ref[0]))
    assert ws.jacobians == 2


def test_lm_step_refill_drops_the_old_fill_first(monkeypatch):
    # a call with another model drops the old J'J and J'r before it fills,
    # so the old J'J is not alive through the refill; a refill that raises
    # leaves the new model unfilled, so the next call fills instead of
    # reusing the old J'J
    m1, m2 = rand_al(seed=1), rand_al(seed=2)
    ds = rand_ds(N=40)
    config = TrainConfig(gamma=0.5)
    ws = LmWorkspace()
    lm_step(m1, ds, config, 1e-2, workspace=ws)
    cleared = []
    sensitivity_pass = training._sensitivity_chunks

    def failing_pass(*args, **kwargs):
        cleared.append(ws.JtJ is None and ws.Jtr is None and ws.problem[0] is m2)
        raise MemoryError("refill failed")

    monkeypatch.setattr(training, "_sensitivity_chunks", failing_pass)
    with pytest.raises(MemoryError):
        lm_step(m2, ds, config, 1e-2, workspace=ws)
    assert cleared == [True]
    monkeypatch.setattr(training, "_sensitivity_chunks", sensitivity_pass)
    out = lm_step(m1, ds, config, 1e-2, workspace=ws)
    fresh = LmWorkspace()
    ref = lm_step(m1, ds, config, 1e-2, workspace=fresh)
    assert ws.jacobians == 3
    assert ws.JtJ is not None and np.array_equal(ws.JtJ, fresh.JtJ)
    assert np.array_equal(ws.Jtr, fresh.Jtr)
    assert ws.loss == fresh.loss and out[1:] == ref[1:]


def chunk_case(kind, N, n=7, m=2, p=2, nh=4, seed=26):
    """(model, dataset, config) for the streamed normal-equation checks: GR,
    or pinned AL (al_eq), at gamma = 0 (al_gamma0) or with empty nets
    (al_no_nets)."""
    ds = rand_ds(m=m, p=p, N=N, seed=seed)
    if kind == "gr":
        return rand_gr(n=n, m=m, p=p, nf=nh, seed=seed), ds, TrainConfig()
    model = pin(rand_al(n=n, m=m, p=p, nh=0 if kind == "al_no_nets" else nh,
                        ng=0 if kind == "al_no_nets" else nh, seed=seed))
    return model, ds, TrainConfig(gamma=0.0 if kind == "al_gamma0" else 0.8)


def check_streamed_normal_equations(model, ds, config, monkeypatch):
    # J'J straight after the fill, before any solve factors inside it; these
    # models have no dead unit, so the fill covers all P columns in order
    r, X = residuals(model, ds, config.gamma)
    P = pack_params(model).size
    assert np.array_equal(training._live_columns(model), np.arange(P))
    fill_JtJ, fill_Jtr = training._normal_equations(model, ds, config.gamma, r, X)
    J = jacobian_bptt(model, ds, config.gamma)
    JtJ, Jtr = J.T @ J, J.T @ r
    assert np.max(np.abs(fill_JtJ - JtJ)) <= 1e-12 * np.max(np.abs(JtJ))
    assert np.max(np.abs(fill_Jtr - Jtr)) <= 1e-12 * np.max(np.abs(Jtr))
    assert np.array_equal(fill_JtJ, fill_JtJ.T)
    # lm_step fills the same, and its solve leaves J'J in the strict lower
    # triangle and the diagonal vector. An accepted step would drop the
    # fill, so the candidate is refused (invalid_params) after the solve.
    def refuse(model, theta):
        raise DataError("candidate refused")

    ws = LmWorkspace()
    with monkeypatch.context() as patch:
        patch.setattr(training, "unpack_params", refuse)
        lm_step(model, ds, config, 1e-2, workspace=ws)
    assert ws.last_reject_reason == "invalid_params" and ws.solves == 1
    assert np.array_equal(ws.live, np.arange(P))
    assert ws.JtJ.shape == fill_JtJ.shape == (J.shape[1],) * 2
    assert np.array_equal(ws.Jtr, fill_Jtr)
    assert np.array_equal(ws.JtJ_diag, np.diag(fill_JtJ))
    assert np.array_equal(np.tril(ws.JtJ, -1), np.tril(fill_JtJ, -1))


# Every kind's chunk length c lies in (85, 293) (checked below): 85 samples
# fit one chunk, 293 cross a chunk boundary and 768 at least two.
@pytest.mark.parametrize("N", [85, 293, 768])
@pytest.mark.parametrize("kind", ["al_eq", "al_gamma0", "al_no_nets", "gr"])
def test_streamed_normal_equations_equal_assembled_jacobian(kind, N, monkeypatch):
    model, ds, config = chunk_case(kind, N)
    assert 85 < chunk_len(model) < 293
    check_streamed_normal_equations(model, ds, config, monkeypatch)


@pytest.mark.parametrize("kind", ["al_eq", "gr"])
def test_streamed_normal_equations_equal_assembled_jacobian_wide(kind, monkeypatch):
    # P of about 1,000, as on the wide Wiener-Hammerstein nets: a few dozen
    # samples per chunk, and a record of four chunks
    model, ds, config = chunk_case(kind, 100, n=4, m=1, p=1,
                                   nh=80 if kind != "gr" else 100, seed=28)
    assert 1000 <= pack_params(model).size <= 1100
    c = chunk_len(model)
    assert 10 <= c <= 50 and ds.n_samples > 3 * c
    check_streamed_normal_equations(model, ds, config, monkeypatch)
    # and the pass itself, along random unit directions, against central
    # differences of the residuals
    J = jacobian_bptt(model, ds, config.gamma)
    theta, h = pack_params(model), 1e-6
    rng = np.random.default_rng(28)
    for _ in range(3):
        v = rng.normal(size=theta.size)
        v /= np.linalg.norm(v)
        r_p, r_m = (residuals(unpack_params(model, theta + s * h * v), ds,
                              config.gamma)[0] for s in (1, -1))
        assert np.max(np.abs(J @ v - (r_p - r_m) / (2 * h))) < 1e-5


def dead_case(kind):
    """chunk_case's model over three chunks with dead hidden units (zero
    output weights), and the indices of its live columns."""
    model, ds, config = chunk_case(kind, 768)
    if kind == "gr":
        model = replace(model, g_net=kill(model.g_net, 0, 3))
        dead = unit_columns(model, "g", 0) + unit_columns(model, "g", 3)
    else:
        model = pin(replace(model, h_net=kill(model.h_net, 1), g_net=kill(model.g_net, 0, 2)))
        dead = [*unit_columns(model, "h", 1), *unit_columns(model, "g", 0),
                *unit_columns(model, "g", 2)]
    return model, ds, config, np.setdiff1d(np.arange(pack_params(model).size), dead)


@pytest.mark.parametrize("kind", ["al_eq", "al_gamma0", "gr"])
def test_reduced_normal_equations_equal_the_live_block_of_the_assembled_jacobian(kind):
    model, ds, config, live = dead_case(kind)
    assert np.array_equal(training._live_columns(model), live)
    r, X = residuals(model, ds, config.gamma)
    JtJ, Jtr = training._normal_equations(model, ds, config.gamma, r, X)
    J = jacobian_bptt(model, ds, config.gamma)[:, live]
    ref_JtJ, ref_Jtr = J.T @ J, J.T @ r
    assert JtJ.shape == (live.size, live.size) and JtJ.flags.f_contiguous
    assert np.max(np.abs(JtJ - ref_JtJ)) <= 1e-12 * np.max(np.abs(ref_JtJ))
    assert np.max(np.abs(Jtr - ref_Jtr)) <= 1e-12 * np.max(np.abs(ref_Jtr))
    assert np.array_equal(JtJ, JtJ.T)


@pytest.mark.parametrize("kind", ["al_eq", "gr"])
def test_lm_step_solves_the_live_columns_and_steps_dead_ones_by_zero(kind, monkeypatch):
    model, ds, config, live = dead_case(kind)
    P, lam = pack_params(model).size, 1e-2
    dead = np.setdiff1d(np.arange(P), live)
    # the full P x P damped system, zero diagonal entries damped by 1
    J, r = jacobian_bptt(model, ds, config.gamma), residuals(model, ds, config.gamma)[0]
    JtJ = J.T @ J
    damped = JtJ + lam * np.diag(np.where(np.diag(JtJ) == 0.0, 1.0, np.diag(JtJ)))
    d = np.sqrt(np.diag(damped))
    ref = np.linalg.solve(damped / np.outer(d, d), -(J.T @ r) / d) / d
    steps = []

    def capture(model, theta):  # theta = 0 + delta
        steps.append(theta.copy())
        raise DataError("step captured")

    monkeypatch.setattr(training, "pack_params", lambda model: np.zeros(P))
    monkeypatch.setattr(training, "unpack_params", capture)
    ws = LmWorkspace()
    lm_step(model, ds, config, lam, workspace=ws)
    assert ws.last_reject_reason == "invalid_params"
    assert np.array_equal(ws.live, live)
    assert ws.JtJ.shape == (live.size, live.size) and ws.Jtr.shape == (live.size,)
    delta = steps[0]
    assert delta.shape == (P,) and np.all(delta[dead] == 0.0)
    err = np.linalg.norm(d[live] * (delta[live] - ref[live])) / np.linalg.norm(d * ref)
    assert err < 1e-10
    assert ws.last_step_norm == pytest.approx(np.linalg.norm(delta), rel=1e-15)


@pytest.mark.parametrize("kind", ["al", "gr"])
def test_sensitivity_pass_on_half_dead_nets_covers_the_live_columns_alone(kind):
    # half of h's and half of g's units have zero output weights (GR: half
    # of its f net's); the pass yields the L live columns alone, the fill is
    # the Gram of the assembled Jacobian's live columns, whose dead columns
    # are exact zeros, and that Jacobian still matches central differences
    # as tightly as acceptance criterion 01 asks
    ds, gamma = rand_ds(m=1, p=2, N=30, seed=31), 0.0 if kind == "gr" else 0.9
    if kind == "gr":
        model = rand_gr(n=3, m=1, p=2, nf=4, seed=31)
        model = replace(model, g_net=kill(model.g_net, 0, 2))
        dead = unit_columns(model, "g", 0) + unit_columns(model, "g", 2)
    else:
        model = rand_al(n=3, m=1, p=2, nh=4, ng=4, seed=31)
        model = pin(replace(model, h_net=kill(model.h_net, 1, 3), g_net=kill(model.g_net, 0, 2)))
        dead = [c for tag, i in (("h", 1), ("h", 3), ("g", 0), ("g", 2))
                for c in unit_columns(model, tag, i)]
    P = pack_params(model).size
    live = np.setdiff1d(np.arange(P), dead)
    assert np.array_equal(training._live_columns(model), live)
    r, X = residuals(model, ds, gamma)
    widths = {rows.shape[-1] for *_, rows in training._sensitivity_chunks(model, ds, gamma, X)}
    assert widths == {live.size}
    J = jacobian_bptt(model, ds, gamma)
    assert J.shape[1] == P and np.all(J[:, dead] == 0.0)
    JtJ, Jtr = training._normal_equations(model, ds, gamma, r, X)
    ref_JtJ, ref_Jtr = J[:, live].T @ J[:, live], J[:, live].T @ r
    assert np.max(np.abs(JtJ - ref_JtJ)) <= 1e-12 * np.max(np.abs(ref_JtJ))
    assert np.max(np.abs(Jtr - ref_Jtr)) <= 1e-12 * np.max(np.abs(ref_Jtr))
    J_fd = fd_residual_jac(model, ds, gamma)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_train_solves_the_live_columns_until_its_first_accepted_step(monkeypatch):
    # both nets start with zero output weights, so the first fill is over
    # A, B and the output layers; the first accepted step makes every unit live
    ds = linear_ds(N=120, seed=23)
    ds = Dataset(u=ds.u, y=ds.y + 0.05 * np.tanh(3 * ds.y))
    config = TrainConfig(gamma=0.5, max_iters=8, n_h=3, n_g=3)
    shapes, dposv = [], training.dposv

    def recording_dposv(a, b, **kwargs):
        shapes.append(a.shape)
        return dposv(a, b, **kwargs)

    monkeypatch.setattr(training, "dposv", recording_dposv)
    # dead columns: AL's h input layer (3 x (p + 1)) and g's (3 x (n + m + 1)), GR's f
    for fit, n_dead in ((lambda: train(ds, 2, config), 6 + 12),
                        (lambda: train_gr(ds, 2, 3, config), 12)):
        shapes.clear()
        model, report = fit()
        P = pack_params(model).size
        L = P - n_dead
        first = next(rec["iteration"] for rec in report.iterations if rec["accepted"])
        assert first < report.solves == len(shapes)
        assert shapes == [(L, L)] * first + [(P, P)] * (report.solves - first)


def test_lm_step_refill_memory_stays_below_a_quarter_of_the_jacobian():
    # the refill streams J'J and J'r chunk by chunk; building the full
    # Jacobian (or anything its size) would break this bound
    model = rand_al(n=2, m=1, p=1, nh=30, ng=30, seed=27, net_scale=0.1)
    ds = rand_ds(N=8000, seed=27)
    config = TrainConfig(gamma=0.5)
    jac_bytes = ds.n_samples * 3 * pack_params(model).size * 8
    assert jac_bytes >= 32e6
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        lm_step(model, ds, config, 1e-2, workspace=LmWorkspace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < jac_bytes / 4


@pytest.mark.parametrize("P", [1, 63, 64, 65, 130, 200])
def test_mirror_copies_one_strict_triangle_onto_the_other(P):
    # sizes around the block width, against numpy's triangles
    a = np.asfortranarray(np.random.default_rng(P).normal(size=(P, P)))
    up, lo = a.copy(order="F"), a.copy(order="F")
    training._mirror(up)
    training._mirror(lo.T)
    assert np.array_equal(up, np.triu(a) + np.triu(a, 1).T)
    assert np.array_equal(lo, np.tril(a) + np.tril(a, -1).T)


def wide_case():
    """chunk_case's AL model with 80-unit nets: P = 1,061, as on wh-wide."""
    model, ds, config = chunk_case("al_eq", 100, n=4, m=1, p=1, nh=80, seed=28)
    assert pack_params(model).size == 1061
    return model, ds, config


def test_lm_step_solve_allocates_no_normal_matrix():
    # a solve factors inside the workspace's J'J; a damped copy of J'J
    # (P^2 * 8 bytes) would break this bound
    model, ds, config = wide_case()
    P = pack_params(model).size
    ws = LmWorkspace()
    _, lam, accepted = lm_step(model, ds, config, 1e-8, workspace=ws)
    assert not accepted
    runs = ws.free_runs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # after a rejected step: a re-solve on the same fill, with its
        # candidate's free run
        lm_step(model, ds, config, lam, workspace=ws)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert ws.jacobians == 1 and ws.free_runs == runs + 1
    assert ws.last_candidate_loss is not None
    assert peak < 0.5 * P * P * 8


def test_lm_step_resolve_equals_a_fresh_fill_bit_for_bit(monkeypatch):
    # after a rejected step, the re-solve restores J'J from the strict lower
    # triangle over the last factor; its step must be the one a fresh fill
    # solves at that lambda, and a second solve at one lambda must repeat it
    model, ds, config = wide_case()
    steps, dposv = [], training.dposv

    def recording_dposv(*args, **kwargs):
        out = dposv(*args, **kwargs)
        steps.append(out[1].copy())
        return out

    monkeypatch.setattr(training, "dposv", recording_dposv)
    ws = LmWorkspace()
    _, lam, accepted = lm_step(model, ds, config, 1e-8, workspace=ws)
    assert not accepted
    for _ in range(2):
        lm_step(model, ds, config, lam, workspace=ws)
    lm_step(model, ds, config, lam, workspace=LmWorkspace())
    assert ws.jacobians == 1 and ws.solves == 3 and len(steps) == 4
    assert not np.array_equal(steps[0], steps[1])
    assert np.array_equal(steps[1], steps[3]) and np.array_equal(steps[2], steps[1])


def test_residuals_raise_on_non_finite_free_run():
    # B u = inf - inf makes x(1) NaN; it must count as divergence rather
    # than give a NaN loss
    lin = LinearSS(A=np.array([[0.5]]), B=np.array([[1e300, -1e300]]),
                   C=np.array([[1.0]]))
    model = gr_model(lin, rand_net(3, 1, 2, 0))
    ds = Dataset(u=np.full((6, 2), 1e10), y=np.zeros((6, 1)))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        residuals(model, ds)
    assert info.value.step == 1


REJECT_REASONS = {"solve_failed", "non_finite_step", "invalid_params", "diverged",
                  "no_decrease"}


def check_counters(report):
    assert report.free_runs <= report.n_iterations + 1
    assert report.jacobians <= report.n_accepted + 1
    assert report.jacobians >= 1 and report.solves >= 1
    assert report.solves <= report.n_iterations
    for rec in report.iterations:
        if rec["accepted"]:
            assert rec["reason"] is None and rec["step_norm"] > 0
        else:
            assert rec["reason"] in REJECT_REASONS


def test_report_counters_and_reasons_al_and_gr():
    ds = linear_ds(N=120, seed=23)
    ds = Dataset(u=ds.u, y=ds.y + 0.05 * np.tanh(3 * ds.y))
    _, rep_al = train(ds, 2, TrainConfig(gamma=0.5, max_iters=8, n_h=3, n_g=3))
    _, rep_gr = train_gr(ds, 2, 3, TrainConfig(max_iters=8))
    for rep in (rep_al, rep_gr):
        check_counters(rep)
        assert 0 < rep.n_accepted < rep.n_iterations  # both branches exercised
        assert rep.free_runs > 0 and rep.jacobians > 0 and rep.solves > 0


def test_identical_train_calls_return_equal_reports():
    # the report holds no timing, so it is a function of the record and config
    ds = linear_ds(N=120, seed=23)
    config = TrainConfig(gamma=0.5, max_iters=4, n_h=3, n_g=3)
    assert train(ds, 2, config)[1] == train(ds, 2, config)[1]


def test_train_evaluates_the_initial_model_in_its_first_lm_step(monkeypatch):
    # train hands lm_step an empty workspace: every residual evaluation
    # happens inside lm_step, and init_loss is the first step's loss of the
    # model train passed it
    ds = linear_ds(N=120, seed=23)
    config = TrainConfig(gamma=0.5, max_iters=4, n_h=3, n_g=3)
    inside, outside, firsts = [0], [], []
    residuals_, lm_step_ = training.residuals, training.lm_step

    def counted_residuals(*args, **kwargs):
        (outside if inside[0] == 0 else firsts).append(args[0])
        return residuals_(*args, **kwargs)

    def traced_lm_step(model, ds, config, lam, workspace):
        if inside[0] == 0 and not firsts:
            assert workspace.problem is None and workspace.rv is None
        inside[0] += 1
        try:
            return lm_step_(model, ds, config, lam, workspace=workspace)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(training, "residuals", counted_residuals)
    monkeypatch.setattr(training, "lm_step", traced_lm_step)
    for fit in (lambda: train(ds, 2, config), lambda: train_gr(ds, 2, 3, config)):
        firsts.clear()
        report = fit()[1]
        assert outside == [] and report.free_runs == len(firsts)
        assert report.init_loss == loss(firsts[0], ds, config.gamma)


def test_train_final_losses_are_the_returned_models_residuals():
    ds = linear_ds(N=120, seed=23)
    ds = Dataset(u=ds.u, y=ds.y + 0.05 * np.tanh(3 * ds.y))
    config = TrainConfig(gamma=0.5, max_iters=8, n_h=3, n_g=3)
    for model, report in (train(ds, 2, config), train_gr(ds, 2, 3, config)):
        assert report.n_accepted > 0
        r, _ = residuals(model, ds, config.gamma)
        cut = ds.n_samples * ds.n_outputs
        assert report.final_loss == training._mean_square(r, ds.n_samples)
        assert (report.final_output_mse, report.final_penalty_mse) == tuple(
            training._mean_square(part, ds.n_samples) for part in (r[:cut], r[cut:]))


def test_lm_step_reject_reasons():
    model = rand_al(seed=24, net_scale=0.1)
    ds = rand_ds(N=20, seed=24)
    config = TrainConfig(gamma=0.5)
    P = pack_params(model).size
    # a filled workspace whose normal equations are NaN: no usable step
    key = (model, ds, 0.5)
    ws = LmWorkspace(problem=key, loss=1.0, JtJ=np.full((P, P), np.nan, order="F"),
                     JtJ_diag=np.full(P, np.nan), Jtr=np.ones(P))
    _, _, accepted = lm_step(model, ds, config, 1e-2, workspace=ws)
    assert not accepted
    assert ws.last_reject_reason in ("solve_failed", "non_finite_step")
    assert ws.last_step_norm is None and ws.free_runs == 0 and ws.solves == 1
    # a zero step cannot strictly decrease the loss
    ws = LmWorkspace(problem=key, loss=loss(model, ds, 0.5), JtJ=np.eye(P, order="F"),
                     JtJ_diag=np.ones(P), Jtr=np.zeros(P))
    _, _, accepted = lm_step(model, ds, config, 1e-2, workspace=ws)
    assert not accepted and ws.last_reject_reason == "no_decrease"
    assert ws.last_step_norm == 0.0 and ws.free_runs == 1


def test_lm_step_rejects_a_failed_cholesky_as_solve_failed(monkeypatch):
    # dposv reports info != 0 on a system that is not numerically positive
    # definite: the step is rejected, the model returned as it is and lambda
    # raised by lambda_up
    model, ds, config = rand_al(seed=24), rand_ds(N=20, seed=24), TrainConfig(gamma=0.5)
    dposv = training.dposv
    monkeypatch.setattr(training, "dposv", lambda *a, **kw: (*dposv(*a, **kw)[:2], 2))
    ws = LmWorkspace()
    out, lam, accepted = lm_step(model, ds, config, 1e-2, workspace=ws)
    assert out is model and not accepted and lam == 1e-2 * TrainConfig.lambda_up
    assert ws.last_reject_reason == "solve_failed"
    assert ws.last_step_norm is None and ws.last_candidate_loss is None
    assert (ws.free_runs, ws.jacobians, ws.solves) == (1, 1, 1)


def recorded_runs(monkeypatch):
    """Patch training.simulate to record (samples run, samples asked) per call."""
    runs, simulate_ = [], training.simulate

    def recording(model, u_seq, *args, **kwargs):
        traj = simulate_(model, u_seq, *args, **kwargs)
        runs.append((traj.y.shape[0], len(u_seq)))
        return traj

    monkeypatch.setattr(training, "simulate", recording)
    return runs


def stop_case():
    """A record of 600 samples, whose short AL and GR fits reject steps."""
    ds = linear_ds(N=600, seed=23)
    ds = Dataset(u=ds.u, y=ds.y + 0.05 * np.tanh(3 * ds.y))
    return ds, [lambda: train(ds, 2, TrainConfig(gamma=0.5, max_iters=8, n_h=3, n_g=3)),
                lambda: train_gr(ds, 2, 3, TrainConfig(max_iters=8))]


def test_stopping_losing_candidates_early_changes_no_result(monkeypatch):
    # a candidate's free run stops once its output error alone passes N
    # times the loss; with the stop disabled, the same fits run every
    # candidate to the end and return the same models and reports
    ds, fits = stop_case()
    runs = recorded_runs(monkeypatch)
    stopped = []
    for fit in fits:
        runs.clear()
        stopped.append((fit(), sum(done < asked for done, asked in runs)))
    monkeypatch.setattr(training, "_output_error_passes", lambda y, C, bound: None)
    for fit, ((model, report), n_stopped) in zip(fits, stopped):
        runs.clear()
        full_model, full_report = fit()
        assert n_stopped > 0 and all(done == asked for done, asked in runs)
        assert np.array_equal(pack_params(model), pack_params(full_model))
        assert report == full_report


def test_lm_step_stops_a_losing_candidate_after_its_first_block(monkeypatch):
    # a zero step leaves the model as it is, which cannot beat a loss far
    # below its own: its output error passes N times that loss within the
    # first block of the free run, which stops there. last_candidate_loss
    # is then a lower bound on the candidate's loss: the first block's
    # output error over N.
    model = pin(rand_al(seed=24, net_scale=0.1))
    ds = rand_ds(N=3 * _BLOCK, seed=24)
    config = TrainConfig(gamma=0.5)
    P = pack_params(model).size
    runs = recorded_runs(monkeypatch)
    ws = LmWorkspace(problem=(model, ds, 0.5), loss=1e-6, JtJ=np.eye(P, order="F"),
                     JtJ_diag=np.ones(P), Jtr=np.zeros(P))
    out, lam, accepted = lm_step(model, ds, config, 1e-2, workspace=ws)
    assert out is model and not accepted and lam == 1e-2 * TrainConfig.lambda_up
    assert ws.last_reject_reason == "no_decrease" and ws.free_runs == 1
    assert runs == [(_BLOCK, ds.n_samples)]
    assert ws.last_candidate_loss > ws.loss
    e = ds.y[:_BLOCK] - simulate(model, ds.u).y[:_BLOCK]
    assert ws.last_candidate_loss == pytest.approx(np.sum(e**2) / ds.n_samples, rel=1e-12)
    assert ws.last_candidate_loss < loss(model, ds, 0.5)


def test_lm_step_runs_a_winning_candidate_whose_loss_is_all_output_error_to_the_end(
        monkeypatch):
    # at gamma = 0 the output error is the whole loss, and on this record
    # all of it falls in the first block; a candidate whose loss is one ulp
    # below the current one must not be stopped there by its output error,
    # whatever the roundoff of its block sums, and is accepted
    model = pin(rand_al(seed=24, net_scale=0.1))
    u = rand_ds(N=3 * _BLOCK, seed=24).u
    y = simulate(model, u).y
    y[:_BLOCK] += 0.1
    ds = Dataset(u=u, y=y)
    P, current = pack_params(model).size, np.nextafter(loss(model, ds), np.inf)
    runs = recorded_runs(monkeypatch)
    ws = LmWorkspace(problem=(model, ds, 0.0), loss=current, JtJ=np.eye(P, order="F"),
                     JtJ_diag=np.ones(P), Jtr=np.zeros(P))
    _, _, accepted = lm_step(model, ds, TrainConfig(gamma=0.0), 1e-2, workspace=ws)
    assert accepted and runs == [(ds.n_samples, ds.n_samples)]


def test_lm_step_keeps_a_candidate_that_diverges_in_its_stopping_block_diverged(monkeypatch):
    # the divergence check comes first within a block: a candidate that
    # leaves the bound in the block where its output error passes the loss
    # is rejected as diverged, not no_decrease
    model = pin(rand_al(seed=24, net_scale=0.1))
    model = replace(model, lin=replace(model.lin, A=2.0 * np.eye(2)))
    ds = rand_ds(N=3 * _BLOCK, seed=24)
    assert 0 < simulate(model, ds.u).diverged_at < _BLOCK
    P = pack_params(model).size
    runs = recorded_runs(monkeypatch)
    ws = LmWorkspace(problem=(model, ds, 0.5), loss=1e-6, JtJ=np.eye(P, order="F"),
                     JtJ_diag=np.ones(P), Jtr=np.zeros(P))
    _, _, accepted = lm_step(model, ds, TrainConfig(gamma=0.5), 1e-2, workspace=ws)
    assert not accepted and ws.last_reject_reason == "diverged"
    assert ws.free_runs == 1 and len(runs) == 1 and ws.last_candidate_loss is None


def test_every_free_run_of_training_goes_through_training_simulate(monkeypatch):
    # perfbench counts free runs per LM step by the calls to training.simulate,
    # so every candidate run, stopped early or not, must be one of them
    _, fits = stop_case()
    runs = recorded_runs(monkeypatch)
    for fit in fits:
        runs.clear()
        report = fit()[1]
        assert len(runs) == report.free_runs > report.n_iterations - report.n_accepted


def test_lm_step_solve_is_accurate_on_badly_scaled_normal_equations(monkeypatch):
    # J'J = S B S with column scales S spanning 1e-16..1e3 and near-dependent
    # columns in B. LU with partial pivoting loses digits to the scaling
    # (errors 4e-10 to 3e-9 on these draws); Cholesky does not (2e-13).
    model = rand_al(seed=24, net_scale=0.1)
    ds = rand_ds(N=20, seed=24)
    config = TrainConfig(gamma=0.5)
    P = pack_params(model).size
    steps = []

    def capture(model, theta):  # theta = 0 + delta
        steps.append(theta.copy())
        raise DataError("step captured")

    monkeypatch.setattr(training, "pack_params", lambda model: np.zeros(P))
    monkeypatch.setattr(training, "unpack_params", capture)
    lam = 1e-3
    for seed in range(4):
        rng = np.random.default_rng(seed)
        J = rng.normal(size=(3 * P, P))
        near = J[:, 0:-1:4]
        J[:, 1::4] = near + 1e-6 * rng.normal(size=near.shape)
        s = 10.0 ** rng.uniform(-16, 3, P)
        JtJ = s[:, None] * (J.T @ J) * s[None, :]
        JtJ = 0.5 * (JtJ + JtJ.T)
        Jtr = s * rng.normal(size=P)
        ws = LmWorkspace(problem=(model, ds, 0.5), loss=1.0,
                         JtJ=JtJ.copy(order="F"), JtJ_diag=np.diag(JtJ).copy(), Jtr=Jtr)
        lm_step(model, ds, config, lam, workspace=ws)
        assert ws.last_reject_reason == "invalid_params"
        damped = JtJ + lam * np.diag(np.diag(JtJ))
        d = np.sqrt(np.diag(damped))
        ref = np.linalg.solve(damped / np.outer(d, d), -Jtr / d) / d
        err = np.linalg.norm(d * (steps[-1] - ref)) / np.linalg.norm(d * ref)
        assert err < 1e-10


# --- training pipelines ------------------------------------------------------

def linear_ds(N=300, seed=0):
    lin = LinearSS(A=np.array([[0.7, 0.2], [-0.1, 0.5]]),
                   B=np.array([[1.0], [0.4]]), C=np.array([[1.0, -0.8]]))
    u = np.random.default_rng(seed).normal(size=(N, 1))
    return Dataset(u=u, y=simulate(lin, u).y)


def test_train_on_linear_data():
    ds = linear_ds(seed=18)
    # a long horizon makes the truncated impulse-response tail negligible
    config = TrainConfig(gamma=1.0, max_iters=15, n_h=2, n_g=2, seed=0, horizon=60)
    model, report = train(ds, 2, config)
    assert report.family == "al-ssnn"
    assert report.final_loss <= report.init_loss
    # linear init already explains linear data
    assert report.init_loss < 1e-10
    assert report.rmse_train == pytest.approx(np.sqrt(report.final_output_mse))
    assert report.stop_reason in ("max_iters", "grad_tol", "loss_tol")
    assert report.n_iterations <= 15
    assert len(report.iterations) == report.n_iterations


def test_train_accepted_losses_strictly_decrease():
    ds = linear_ds(N=120, seed=19)
    # corrupt outputs so there is something to fit
    y = ds.y + 0.05 * np.tanh(ds.y)
    ds = Dataset(u=ds.u, y=y)
    config = TrainConfig(gamma=0.5, max_iters=25, n_h=3, n_g=3)
    model, report = train(ds, 2, config)
    last = report.init_loss
    for rec in report.iterations:
        if rec["accepted"]:
            assert rec["loss"] < last
            last = rec["loss"]
        else:
            assert rec["loss"] == last
    assert report.final_loss <= report.init_loss


def test_train_equilibrium_pinned_after_training():
    ds = linear_ds(N=100, seed=20)
    y = ds.y + 0.1 * ds.y ** 2
    ds = Dataset(u=ds.u, y=y)
    model, _ = train(ds, 2, TrainConfig(max_iters=10, n_h=2, n_g=2))
    assert np.max(np.abs(mlp_forward(model.g_net, model.eq.stacked()))) < 1e-14


def test_train_stops_on_loss_tol(tanh_record):
    # ten accepted steps that lower the loss by less than loss_tol relative
    config = TrainConfig(gamma=0.1, max_iters=400, n_h=2, n_g=2, seed=3)
    _, rep = train(tanh_record, 2, config)
    assert rep.stop_reason == "loss_tol" and rep.n_iterations < config.max_iters
    losses = [rec["loss"] for rec in rep.iterations if rec["accepted"]]
    assert rep.iterations[-1]["accepted"] and len(losses) == rep.n_accepted >= 10
    old = losses[-11] if len(losses) > 10 else rep.init_loss
    assert old - losses[-1] < TrainConfig.loss_tol * old


def test_train_stops_once_lambda_passes_lambda_max(tanh_record):
    # with one-unit nets every step is rejected from some point on; lambda
    # grows tenfold per step and used to overflow to inf, with a leaked
    # RuntimeWarning and Infinity in the report
    assert TrainConfig.lambda_max == 1 / np.finfo(float).eps
    config = TrainConfig(gamma=0.1, max_iters=400, n_h=1, n_g=1, seed=3)
    _, rep = train(tanh_record, 2, config)
    assert rep.stop_reason == "lambda_max" and rep.n_iterations < config.max_iters
    lams = [rec["lambda"] for rec in rep.iterations]
    assert lams[-1] > TrainConfig.lambda_max >= max(lams[:-1])
    assert not rep.iterations[-1]["accepted"]
    json.loads(json.dumps(asdict(rep), allow_nan=False))


def test_train_gr_baseline():
    ds = linear_ds(N=120, seed=21)
    model, report = train_gr(ds, 2, 3, TrainConfig(max_iters=8))
    assert report.family == "gr-ssnn"
    assert report.final_loss <= report.init_loss
    assert report.final_penalty_mse == 0.0


def test_train_gr_keeps_gr_names_and_the_callers_config():
    ds = linear_ds(N=80, seed=22)
    config = TrainConfig(gamma=0.7, max_iters=2, n_h=5, n_g=6)
    model, report = train_gr(ds, 2, 3, config)
    assert isinstance(model, GrSsnnModel) and model.h_net.n_hidden == 0
    assert report.dims == {"n": 2, "m": 1, "p": 1, "n_f": 3}
    assert set(report.input_scaling) == {"f_input_scale"}
    assert report.config == asdict(replace(config, n_h=0, n_g=3))
    # the config holds what callers set, and only that, for AL as for GR
    settable = ["gamma", "max_iters", "n_h", "n_g", "seed", "horizon"]
    al, al_report = train(ds, 2, config)
    assert list(report.config) == list(al_report.config) == settable
    assert al_report.config == asdict(config)
    # the parameter vector follows from the model, counted by hand (n = 2,
    # m = p = 1): A 4 + B 2, then pinned AL's h (5 + 5 + 5 + 1) and g but
    # its output bias (18 + 6 + 12), GR's f (9 + 3 + 6 + 2); C is never in it
    assert pack_params(al).size == 6 + 16 + 36
    assert pack_params(model).size == 6 + 20
    for gone in ("ParamLayout", "make_layout", "default_layout"):
        assert not hasattr(training, gone) and gone not in training.__all__
    # no penalty rows, whatever gamma is
    assert residuals(model, ds, 5.0)[0].shape == (ds.n_samples,)
    assert report.final_penalty_mse == 0.0


def test_train_config_validation():
    # ints past the float range (10**5000 has no repr either) end as DataErrors too
    for gamma in (-1.0, float("nan"), float("inf"), 10**400, -10**400, 10**5000):
        with pytest.raises(DataError, match=r"^gamma must be finite and non-negative, got "):
            TrainConfig(gamma=gamma)
        with pytest.raises(DataError, match=r"^gamma must be finite and non-negative, got "):
            residuals(rand_al(), rand_ds(), gamma)
    with pytest.raises(DataError, match="max_iters"):
        TrainConfig(max_iters=0)
    with pytest.raises(DataError, match="horizon"):
        TrainConfig(horizon=0)
    with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)   # the nets' generator would refuse it after the linear fit
    # counts are Python or numpy integers, never bools; gamma is a real number
    for key in ("max_iters", "n_h", "n_g", "seed", "horizon"):
        for bad in (2.5, 2.0, True, "3", None if key != "horizon" else [2]):
            with pytest.raises(DataError, match=rf"^{key} must be an integer, got "):
                TrainConfig(**{key: bad})
    for bad in ("1", True, None, 1j):
        with pytest.raises(DataError, match=r"^gamma must be a real number, got "):
            TrainConfig(gamma=bad)
        with pytest.raises(DataError, match=r"^gamma must be a real number, got "):
            residuals(rand_al(), rand_ds(), bad)
    # numpy numbers are taken as the plain numbers the report echoes
    config = TrainConfig(gamma=np.float32(0.5), max_iters=np.int64(3), n_h=np.int32(2),
                         n_g=np.uint8(1), seed=np.int64(4), horizon=np.int16(5))
    assert asdict(config) == {"gamma": 0.5, "max_iters": 3, "n_h": 2, "n_g": 1, "seed": 4,
                              "horizon": 5}
    assert json.dumps(asdict(config)) and type(config.gamma) is float


def test_basis_enrichment_multiplies_input_layer():
    from alssnn.nets import init_small

    net = init_small(3, 5, 2, seed=9)
    assert (TrainConfig.hidden_gain, TrainConfig.hidden_bias_scale) == (2.0, 3.0)
    scale = np.array([0.5, 3.0, 7.0])
    out = training._input_layer(net, scale)
    # the gain first, then the input scales, bit for bit
    assert np.array_equal(out.W_in, (2.0 * net.W_in) / scale)
    assert np.array_equal(out.b_in, 3.0 * net.b_in)
    assert np.array_equal(out.W_out, net.W_out) and np.array_equal(out.b_out, net.b_out)


def test_hidden_input_scales_floor_tiny_states():
    # a near-zero B makes the init free run sit at x ~ 0; unfloored inverse
    # state scales would explode the input layer and saturate tanh the moment
    # training grows the states
    from alssnn.control import _free_run
    from alssnn.training import _hidden_input_scales

    lin = LinearSS(A=np.array([[0.5, 0.1], [0.0, 0.4]]),
                   B=np.array([[1e-12], [1e-12]]),
                   C=np.array([[2.0, 1.0]]))
    rng = np.random.default_rng(3)
    ds = Dataset(u=rng.normal(size=(200, 1)), y=rng.normal(size=(200, 1)))
    y_scale, z_scale = _hidden_input_scales(lin, ds, _free_run(lin, ds))
    floor = 0.1 * y_scale.max() / 2.0
    assert np.all(z_scale[:2] >= floor - 1e-15)
    assert z_scale[2] == pytest.approx(ds.u.std(), rel=1e-12)
