import json
import os
import re
import warnings

import numpy as np
import pytest

from alssnn.errors import DataError
from alssnn.linear_id import LinearSS
from alssnn.models import (_FOLD_MAX, AlSsnnModel, GrSsnnModel, Trajectory, al_step,
                           gr_model, load_model, model_from_json_dict,
                           model_to_json_dict, save_model, simulate)
from alssnn.nets import Equilibrium, Mlp, mlp_forward


def small_lin():
    return LinearSS(A=np.array([[0.5, 0.1], [0.0, 0.4]]),
                    B=np.array([[1.0], [0.5]]),
                    C=np.array([[1.0, -1.0]]))


def small_net(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    nh = 4
    return Mlp(W_in=rng.normal(size=(nh, d_in)) * 0.5,
               b_in=rng.normal(size=nh) * 0.5,
               W_out=rng.normal(size=(d_out, nh)) * 0.5,
               b_out=rng.normal(size=d_out) * 0.5)


def al_model(seed=0):
    lin = small_lin()
    return AlSsnnModel(lin=lin,
                       h_net=small_net(1, 1, seed),
                       g_net=small_net(3, 2, seed + 1),
                       eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))


def small_gr(seed=0):
    return gr_model(small_lin(), small_net(3, 2, seed))


def test_al_step_formula():
    model = al_model()
    x = np.array([0.3, -0.2])
    u = np.array([0.7])
    y = model.lin.C @ x
    expected = (model.lin.A @ x
                + model.lin.B @ (u + mlp_forward(model.h_net, y))
                + mlp_forward(model.g_net, np.concatenate([x, u])))
    assert np.allclose(al_step(model, x, u), expected, atol=1e-15)


def test_al_step_on_gr_is_the_gr_formula():
    # the empty h net adds an exact zero to u, so the AL step is A x + B u + f
    model = small_gr()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, u = rng.normal(size=2), rng.normal(size=1)
        expected = (model.lin.A @ x + model.lin.B @ u
                    + mlp_forward(model.f_net, np.concatenate([x, u])))
        assert np.array_equal(al_step(model, x, u), expected)


def test_gr_model_requires_an_empty_h_net():
    gr = small_gr()
    with pytest.raises(DataError, match="empty"):
        GrSsnnModel(lin=gr.lin, h_net=small_net(1, 1, 0), g_net=gr.g_net, eq=gr.eq)
    bias = Mlp(W_in=np.zeros((0, 1)), b_in=np.zeros(0), W_out=np.zeros((1, 0)),
               b_out=np.array([0.5]))
    with pytest.raises(DataError, match="empty"):
        GrSsnnModel(lin=gr.lin, h_net=bias, g_net=gr.g_net, eq=gr.eq)
    assert gr.h_net.n_hidden == 0 and not np.any(gr.h_net.b_out)
    assert gr.f_net is gr.g_net


def test_gr_model_file_keeps_its_names():
    obj = model_to_json_dict(small_gr())
    assert set(obj) == {"family", "dims", "A", "B", "C", "f_net"}
    assert obj["family"] == "gr-ssnn"
    assert obj["dims"] == {"n": 2, "m": 1, "p": 1, "n_f": 4}


def test_step_shape_validation():
    model = al_model()
    with pytest.raises(DataError):
        al_step(model, np.zeros(3), np.zeros(1))
    with pytest.raises(DataError):
        al_step(small_gr(), np.zeros(2), np.zeros(2))


def test_dims_validation():
    lin = small_lin()
    with pytest.raises(DataError, match="h net"):
        AlSsnnModel(lin=lin, h_net=small_net(2, 1, 0), g_net=small_net(3, 2, 1),
                    eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
    with pytest.raises(DataError, match="g net"):
        AlSsnnModel(lin=lin, h_net=small_net(1, 1, 0), g_net=small_net(2, 2, 1),
                    eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
    with pytest.raises(DataError, match="equilibrium"):
        AlSsnnModel(lin=lin, h_net=small_net(1, 1, 0), g_net=small_net(3, 2, 1),
                    eq=Equilibrium(x_e=np.zeros(3), u_e=np.zeros(1)))
    with pytest.raises(DataError, match="f net"):
        gr_model(lin, small_net(4, 2, 0))


def test_simulate_matches_manual_loop():
    model = al_model(seed=3)
    rng = np.random.default_rng(4)
    U = rng.normal(size=(25, 1))
    traj = simulate(model, U)
    x = np.zeros(2)
    for k in range(25):
        assert np.allclose(traj.y[k], model.lin.C @ x, atol=1e-14)
        x = al_step(model, x, U[k])
        assert np.allclose(traj.x[k + 1], x, atol=1e-14)
    assert not traj.diverged
    assert traj.x.shape == (26, 2)
    assert traj.y.shape == (25, 1)


def test_simulate_linear_model():
    lin = small_lin()
    U = np.ones((10, 1))
    traj = simulate(lin, U)
    x = np.zeros(2)
    for k in range(10):
        x = lin.A @ x + lin.B @ U[k]
    assert np.allclose(traj.x[-1], x, atol=1e-14)


def test_simulate_divergence_truncates(set_bound):
    lin = LinearSS(A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    set_bound(1e3)
    traj = simulate(lin, np.ones((100, 1)), x0=np.array([1.0]))
    assert traj.diverged
    assert traj.diverged_at is not None
    # every retained state is within the bound; the flagged step is first past it
    assert np.all(np.linalg.norm(traj.x[:-1], axis=1) <= 1e3)
    assert np.linalg.norm(traj.x[traj.diverged_at]) > 1e3
    assert traj.y.shape[0] == traj.diverged_at


def test_simulate_input_validation():
    model = al_model()
    with pytest.raises(DataError):
        simulate(model, np.ones((5, 2)))
    with pytest.raises(DataError):
        simulate(model, np.ones((5, 1)), x0=np.zeros(3))


@pytest.mark.parametrize("runs", [3, 2])
def test_simulate_refuses_a_block_of_runs(runs):
    # the trailing axes of a block of runs are the step engine's alone: a
    # model's run is one sequence, never C applied along the runs axis
    lin = LinearSS(A=np.diag([0.5, 0.4, 0.3]), B=np.ones((3, 1)), C=[[1.0, 0.0, 0.0]])
    for model in (lin, al_model()):
        with pytest.raises(DataError, match=rf"input sequence has shape \(4, 1, {runs}\), "
                                            r"expected \(N, 1\)"):
            simulate(model, np.ones((4, 1, runs)))


def test_json_round_trip_bit_exact_al():
    model = al_model(seed=7)
    back = model_from_json_dict(model_to_json_dict(model))
    assert isinstance(back, AlSsnnModel)
    assert np.array_equal(back.lin.A, model.lin.A)
    assert np.array_equal(back.h_net.W_in, model.h_net.W_in)
    assert np.array_equal(back.g_net.b_out, model.g_net.b_out)
    assert np.array_equal(back.eq.x_e, model.eq.x_e)
    assert "c_frozen" not in model_to_json_dict(model)


# An al-ssnn file as earlier versions wrote it, with the "c_frozen" flag that
# files no longer carry.
EARLIER_AL_FILE = """{
 "family": "al-ssnn", "dims": {"n": 1, "m": 1, "p": 1, "n_h": 1, "n_g": 1},
 "A": [[0.5]], "B": [[1.0]], "C": [[2.0]],
 "h_net": {"w_in": [[0.25]], "b_in": [0.5], "w_out": [[-1.5]], "b_out": [0.125],
           "activation": "tanh"},
 "g_net": {"w_in": [[0.75, -0.25]], "b_in": [0.0], "w_out": [[0.375]], "b_out": [0.0],
           "activation": "tanh"},
 "equilibrium": {"x_e": [0.0], "u_e": [0.0]},
 "c_frozen": true
}
"""


def test_loads_an_earlier_file_with_c_frozen_true(tmp_path):
    path = tmp_path / "earlier.model.json"
    path.write_text(EARLIER_AL_FILE)
    model = load_model(path)
    want = AlSsnnModel(lin=LinearSS(A=[[0.5]], B=[[1.0]], C=[[2.0]]),
                       h_net=Mlp(W_in=[[0.25]], b_in=[0.5], W_out=[[-1.5]], b_out=[0.125]),
                       g_net=Mlp(W_in=[[0.75, -0.25]], b_in=[0.0], W_out=[[0.375]],
                                 b_out=[0.0]),
                       eq=Equilibrium(x_e=[0.0], u_e=[0.0]))
    assert model_to_json_dict(model) == model_to_json_dict(want)
    # saved again, the file says the same but for the flag
    save_model(model, tmp_path / "again.model.json")
    again = json.loads((tmp_path / "again.model.json").read_text())
    earlier = json.loads(EARLIER_AL_FILE)
    assert earlier.pop("c_frozen") is True and again == earlier


def test_json_round_trip_bit_exact_gr_and_lti():
    gr = small_gr(seed=9)
    back = model_from_json_dict(model_to_json_dict(gr))
    assert isinstance(back, GrSsnnModel)
    assert np.array_equal(back.f_net.W_out, gr.f_net.W_out)
    lin = small_lin()
    back = model_from_json_dict(model_to_json_dict(lin))
    assert isinstance(back, LinearSS)
    assert np.array_equal(back.B, lin.B)


def test_save_load_file_round_trip(tmp_path):
    model = al_model(seed=11)
    path = tmp_path / "m.model.json"
    save_model(model, path)
    back = load_model(path)
    # file round trip must preserve every float bit for determinism checks
    assert np.array_equal(back.lin.A, model.lin.A)
    assert np.array_equal(back.h_net.W_out, model.h_net.W_out)
    U = np.random.default_rng(0).normal(size=(30, 1))
    assert np.array_equal(simulate(back, U).y, simulate(model, U).y)


def test_load_model_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b'{"family": "lti\xff"}', b"[" * 100_000):
        bad.write_bytes(content)   # not JSON, not UTF-8, nested past the parser
        with pytest.raises(DataError, match="invalid JSON"):
            load_model(bad)


def test_from_json_dict_errors():
    with pytest.raises(DataError, match="family"):
        model_from_json_dict({"family": "mystery"})
    obj = model_to_json_dict(al_model())
    del obj["h_net"]
    with pytest.raises(DataError, match="h_net"):
        model_from_json_dict(obj)
    obj = model_to_json_dict(small_gr())
    del obj["f_net"]
    with pytest.raises(DataError, match="f_net"):
        model_from_json_dict(obj)


# --- lean kernel against the reference step maps ------------------------------

def reference_run(step, C, U, x0, bound):
    """Step-by-step free run with the documented truncation rule: a run
    whose state x(k) first leaves the bound keeps x(0..k) and y(0..k-1)."""
    x = np.asarray(x0, dtype=float)
    xs, ys = [x], []
    for k in range(U.shape[0]):
        if not np.linalg.norm(x) <= bound:
            return np.array(xs), np.array(ys).reshape(k, C.shape[0]), k
        ys.append(C @ x)
        x = step(x, U[k])
        xs.append(x)
    k = None if np.linalg.norm(x) <= bound else U.shape[0]
    return np.array(xs), np.array(ys), k


def three_families(seed, a_scale=1.0):
    rng = np.random.default_rng(seed)
    n, m, p = 3, 2, 2
    lin = LinearSS(A=a_scale * (0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n))),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    def net(d_in, d_out, nh):
        return Mlp(W_in=rng.normal(size=(nh, d_in)), b_in=rng.normal(size=nh),
                   W_out=0.3 * rng.normal(size=(d_out, nh)),
                   b_out=0.3 * rng.normal(size=d_out))
    al = AlSsnnModel(lin=lin, h_net=net(p, m, 5), g_net=net(n + m, n, 6),
                     eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    gr = gr_model(lin, net(n + m, n, 7))
    return al, gr, lin


def family_steppers(seed, a_scale=1.0):
    al, gr, lin = three_families(seed, a_scale)
    return [(al, lambda x, u: al_step(al, x, u)),
            (gr, lambda x, u: al_step(gr, x, u)),
            (lin, lambda x, u: lin.A @ x + lin.B @ u)]


def test_simulate_kernel_matches_step_maps_from_random_x0():
    rng = np.random.default_rng(21)
    U = rng.normal(size=(200, 2))
    x0 = rng.normal(size=3)
    for model, step in family_steppers(seed=22):
        C = model.C if isinstance(model, LinearSS) else model.lin.C
        xs, ys, k = reference_run(step, C, U, x0, 1e8)
        traj = simulate(model, U, x0=x0)
        assert k is None and not traj.diverged and traj.diverged_at is None
        assert traj.x.shape == xs.shape and traj.y.shape == ys.shape
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))
        assert np.max(np.abs(traj.y - ys)) <= 1e-12 * np.max(np.abs(ys))


def test_simulate_kernel_truncates_like_step_maps(set_bound):
    rng = np.random.default_rng(23)
    U = rng.normal(size=(300, 2))
    x0 = rng.normal(size=3)
    set_bound(1e4)
    for model, step in family_steppers(seed=24, a_scale=3.0):
        C = model.C if isinstance(model, LinearSS) else model.lin.C
        xs, ys, k = reference_run(step, C, U, x0, 1e4)
        traj = simulate(model, U, x0=x0)
        assert k is not None and 0 < k < 300
        assert traj.diverged and traj.diverged_at == k
        assert traj.x.shape == xs.shape and traj.y.shape == ys.shape
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))


def test_simulate_divergence_at_final_state_keeps_it(set_bound):
    lin = LinearSS(A=np.array([[2.0]]), B=np.array([[0.0]]), C=np.array([[1.0]]))
    set_bound(10.0)
    traj = simulate(lin, np.zeros((4, 1)), x0=np.array([1.0]))
    # x(4) = 16 is the first state past the bound: x(0..4) kept, y(0..3) kept,
    # as at any other divergence step
    assert traj.diverged and traj.diverged_at == 4
    assert traj.x.shape == (5, 1) and traj.y.shape == (4, 1)
    assert traj.x[4, 0] == 16.0


def test_trajectory_shape_rule_holds_for_diverged_runs():
    # x(0..k) and y(0..k-1) whether or not the run diverged at k
    with pytest.raises(DataError, match="does not match"):
        Trajectory(x=np.zeros((3, 1)), y=np.zeros((1, 1)), diverged=True, diverged_at=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_non_finite_x0_diverges_at_zero(bad):
    for model, _ in family_steppers(seed=25):
        traj = simulate(model, np.ones((10, 2)), x0=np.array([0.0, bad, 0.0]))
        assert traj.diverged and traj.diverged_at == 0
        assert traj.x.shape == (1, 3) and traj.y.shape == (0, 2)


def test_simulate_non_finite_mid_run_counts_as_divergence():
    # B u = 1e300*1e10 - 1e300*1e10 = inf - inf: x(1) is NaN, whose norm
    # compares False against any bound
    lin = LinearSS(A=np.array([[0.5]]), B=np.array([[1e300, -1e300]]),
                   C=np.array([[1.0]]))
    with np.errstate(all="ignore"):
        traj = simulate(lin, np.full((5, 2), 1e10))
    assert traj.diverged and traj.diverged_at == 1
    assert np.all(np.isfinite(traj.y))


# --- model file fields ---------------------------------------------------------

def test_from_json_dict_array_not_fitting_dims():
    obj = model_to_json_dict(LinearSS(A=[[0.5]], B=[[1.0]], C=[[1.0]]))
    obj["A"] = [[1, 2]]
    with pytest.raises(DataError, match="'A'"):
        model_from_json_dict(obj)
    obj = model_to_json_dict(al_model())
    obj["g_net"]["w_in"] = [[0.0]]
    with pytest.raises(DataError, match="g_net.w_in"):
        model_from_json_dict(obj)


def test_from_json_dict_activation_key_is_optional():
    obj = model_to_json_dict(al_model())
    assert obj["h_net"]["activation"] == obj["g_net"]["activation"] == "tanh"
    del obj["h_net"]["activation"], obj["g_net"]["activation"]
    back = model_from_json_dict(obj)
    assert np.array_equal(back.g_net.W_in, al_model().g_net.W_in)


def test_from_json_dict_missing_dims_key():
    obj = model_to_json_dict(small_gr())
    del obj["dims"]["n"]
    with pytest.raises(DataError, match="dims.n"):
        model_from_json_dict(obj)


@pytest.mark.parametrize("model, path, value, field", [
    (al_model(), ("h_net", "activation"), [1], "'h_net.activation'"),
    (al_model(), ("g_net", "activation"), "relu", "'g_net.activation'"),
    (al_model(), ("c_frozen",), "false", "'c_frozen'"),
    (al_model(), ("dims", "n_h"), 5, "'dims.n_h'"),
    (al_model(), ("dims", "n_g"), 3, "'dims.n_g'"),
    (small_gr(), ("dims", "n_f"), 7, "'dims.n_f'"),
    (al_model(), ("B",), [[1.0, 0.5]], "'B'"),
    (small_lin(), ("A",), [[True, 0.0], [0.0, 0.5]], "'A'"),
    (small_lin(), ("h_net",), {}, "'h_net'"),
], ids=["activation_list", "activation_relu", "flag_string", "n_h", "n_g", "n_f",
        "transposed", "true_as_number", "field_of_another_family"])
def test_from_json_dict_mistyped_field_is_named(model, path, value, field):
    # a list or another name as activation, "false" as a flag, widths the
    # nets do not have, a transposed matrix, true as a number and a field of
    # another family
    obj = model_to_json_dict(model)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(DataError, match=field):
        model_from_json_dict(obj)


# --- step engine: block-wise divergence checks and wide nets -------------------

def growing_families(seed, N, n_h=5, n_g=5, n_f=5):
    """AL, GR and LTI models whose state norm grows about 1.2x per step."""
    rng = np.random.default_rng(seed)
    n, m, p = 3, 2, 2
    lin = LinearSS(A=1.2 * np.eye(n) + 0.01 * rng.normal(size=(n, n)),
                   B=0.1 * rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    def net(d_in, d_out, nh):
        return Mlp(W_in=rng.normal(size=(nh, d_in)), b_in=rng.normal(size=nh),
                   W_out=0.01 * rng.normal(size=(d_out, nh)),
                   b_out=0.01 * rng.normal(size=d_out))
    al = AlSsnnModel(lin=lin, h_net=net(p, m, n_h), g_net=net(n + m, n, n_g),
                     eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    gr = gr_model(lin, net(n + m, n, n_f))
    U = rng.normal(size=(N, m))
    return [(al, lambda x, u: al_step(al, x, u)),
            (gr, lambda x, u: al_step(gr, x, u)),
            (lin, lambda x, u: lin.A @ x + lin.B @ u)], U


def bound_first_crossed_at(norms, k):
    """A bound that the state norms first exceed at step k."""
    assert norms[k] > np.max(norms[:k])
    return 0.5 * (np.max(norms[:k]) + norms[k])


@pytest.mark.parametrize("k_div", [1, 255, 256, 257, 300])
def test_simulate_divergence_step_matches_step_maps_across_blocks(k_div, set_bound):
    N = 300
    x0 = np.ones(3)
    families, U = growing_families(seed=40, N=N)
    for model, step in families:
        C = model.C if isinstance(model, LinearSS) else model.lin.C
        xs, _, _ = reference_run(step, C, U, x0, np.inf)
        bound = bound_first_crossed_at(np.linalg.norm(xs, axis=1), k_div)
        xs, ys, k = reference_run(step, C, U, x0, bound)
        set_bound(bound)
        traj = simulate(model, U, x0=x0)
        assert k == k_div and traj.diverged and traj.diverged_at == k_div
        assert traj.x.shape == xs.shape and traj.y.shape == ys.shape
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))


def test_simulate_nan_state_on_block_boundary():
    # B u = inf - inf at step 255 only, so x(256), the first row checked
    # twice (last of one block, first of the next), is the first NaN state
    n = 2
    lin = LinearSS(A=0.5 * np.eye(n), B=np.array([[1e300, -1e300], [0.0, 1.0]]),
                   C=np.array([[1.0, 0.0]]))
    h = small_net(1, 2, 41)
    h = Mlp(W_in=h.W_in, b_in=h.b_in, W_out=0.0 * h.W_out, b_out=np.zeros(2))
    al = AlSsnnModel(lin=lin, h_net=h, g_net=small_net(n + 2, n, 42),
                     eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(2)))
    gr = gr_model(lin, small_net(n + 2, n, 43))
    U = np.zeros((600, 2))
    U[255] = 1e10
    for model in (al, gr, lin):
        traj = simulate(model, U)
        assert traj.diverged and traj.diverged_at == 256
        assert traj.x.shape == (257, n) and traj.y.shape == (256, 1)
        assert np.all(np.isfinite(traj.x[:256])) and np.isnan(traj.x[256, 0])


def test_simulate_wide_nets_over_three_blocks_match_step_maps():
    rng = np.random.default_rng(44)
    n, m, p, H = 4, 2, 2, 80
    lin = LinearSS(A=0.6 * np.eye(n) + 0.05 * rng.normal(size=(n, n)),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    def net(d_in, d_out):
        return Mlp(W_in=0.5 * rng.normal(size=(H, d_in)), b_in=rng.normal(size=H),
                   W_out=0.05 * rng.normal(size=(d_out, H)),
                   b_out=0.1 * rng.normal(size=d_out))
    al = AlSsnnModel(lin=lin, h_net=net(p, m), g_net=net(n + m, n),
                     eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    gr = gr_model(lin, net(n + m, n))
    U = rng.normal(size=(700, m))
    x0 = rng.normal(size=n)
    for model, step in ((al, lambda x, u: al_step(al, x, u)),
                        (gr, lambda x, u: al_step(gr, x, u))):
        xs, ys, k = reference_run(step, lin.C, U, x0, 1e8)
        traj = simulate(model, U, x0=x0)
        assert k is None and not traj.diverged
        assert traj.x.shape == xs.shape and traj.y.shape == ys.shape
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))
        assert np.max(np.abs(traj.y - ys)) <= 1e-12 * np.max(np.abs(ys))


def test_simulate_divergent_run_raises_no_warning():
    # after x(k) leaves the bound the run keeps stepping to the end of its
    # block, through overflow to inf and NaN; none of that may surface, nor
    # the overflow of W_h,in C A in the folded state map at scale 1e200
    for scale, k_div in ((10.0, 8), (1e200, 1)):
        lin = LinearSS(A=scale * np.eye(2), B=np.ones((2, 1)), C=np.array([[scale, 0.0]]))
        al = AlSsnnModel(lin=lin, h_net=small_net(1, 1, 45), g_net=small_net(3, 2, 46),
                         eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
        gr = gr_model(lin, small_net(3, 2, 47))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in (al, gr, lin):
                traj = simulate(model, np.ones((1000, 1)), x0=np.ones(2))
                assert traj.diverged and traj.diverged_at == k_div


# --- step engine: the folded first layer and its width switch -------------------

@pytest.mark.parametrize("row", [0, 255, 599])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_simulate_non_finite_input_row_is_a_data_error(bad, row):
    # a non-finite input is malformed data, not a divergent run
    U = np.random.default_rng(70).normal(size=(600, 2))
    U[row, 1] = bad
    for model, _ in family_steppers(seed=71):
        with pytest.raises(DataError, match=rf"input sequence row {row} is not finite"):
            simulate(model, U)


@pytest.mark.parametrize("k_div", [None, 255, 256, 257])
@pytest.mark.parametrize("width", [_FOLD_MAX - 1, _FOLD_MAX + 1])
def test_simulate_either_side_of_the_fold_width_matches_step_maps(width, k_div, set_bound):
    # the AL and GR first layers are `width` wide: folded below the switch,
    # stepped unfolded above it
    families, U = growing_families(72, 300, width // 2, width - width // 2, width)
    x0 = np.ones(3)
    for model, step in families[:2]:
        xs, _, _ = reference_run(step, model.lin.C, U, x0, np.inf)
        bound = (np.inf if k_div is None
                 else bound_first_crossed_at(np.linalg.norm(xs, axis=1), k_div))
        xs, ys, k = reference_run(step, model.lin.C, U, x0, bound)
        set_bound(bound)
        traj = simulate(model, U, x0=x0)
        assert k == k_div and traj.diverged_at == k_div
        assert traj.x.shape == xs.shape and traj.y.shape == ys.shape
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))
        assert np.max(np.abs(traj.y - ys)) <= 1e-12 * np.max(np.abs(ys))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_save_model_to_a_full_disk_is_a_data_error():
    with pytest.raises(DataError, match=re.escape("cannot write /dev/full: [Errno 28]")):
        save_model(al_model(), "/dev/full")


def test_save_model_makes_a_missing_parent_directory(tmp_path):
    model = al_model(seed=3)
    path = tmp_path / "a" / "b" / "m.model.json"
    save_model(model, path)
    assert model_to_json_dict(load_model(path)) == model_to_json_dict(model)
