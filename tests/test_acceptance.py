"""End-to-end acceptance experiments for the full pipeline.

Each test prints a single `criterion NN: PASS/FAIL (...)` line (run pytest
with -s to see them all). The desk-scale experiments are shared,
module-scoped fixtures, so the whole file is a self-contained benchmark run:
identification on both benchmark systems, the penalty-weight sweep, the
stability-certificate suite, and byte-level reproducibility of the CLI.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from alssnn import training
from alssnn.benchmarks import (
    PreyPredatorParams,
    SinusoidalForcing,
    WhInputSpec,
    default_wh_params,
    generate_wh,
    simulate_prey_predator,
)
from alssnn.cli import main
from alssnn.control import (
    estimate_epsilon,
    ratio_stats,
    rmse,
    rmse_split,
    simulate_closed_loop,
)
from alssnn.dataio import Dataset, SplitSpec, normalize, split
from alssnn.linear_id import LinearSS, linear_init
from alssnn.models import AlSsnnModel, al_step, gr_model, simulate
from alssnn.nets import Equilibrium, Mlp, enforce_equilibrium_zero, mlp_forward
from alssnn.stability import (
    LMI_TOL,
    check_convergence,
    lmi_block,
    solve_certificate,
    verify,
)
from alssnn.training import (
    TrainConfig,
    jacobian_bptt,
    pack_params,
    residuals,
    train,
    train_gr,
    unpack_params,
)


def _line(num: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --- randomized model/data builders ------------------------------------------

def _rand_lin(rng, n, m, p):
    A = rng.uniform(-1, 1, (n, n))
    A *= 0.7 / max(np.max(np.abs(np.linalg.eigvals(A))), 0.1)
    return LinearSS(A=A, B=rng.uniform(-1, 1, (n, m)), C=rng.uniform(-1, 1, (p, n)))


def _rand_net(rng, d_in, nh, d_out, scale=0.4):
    return Mlp(
        W_in=rng.uniform(-1, 1, (nh, d_in)),
        b_in=rng.uniform(-1, 1, nh),
        W_out=scale * rng.uniform(-1, 1, (d_out, nh)),
        b_out=scale * rng.uniform(-1, 1, d_out),
    )


def _rand_al(rng, n, m, p, nh=3, ng=3):
    # g starts pinned at the equilibrium, matching what unpack_params
    # maintains, so FD through pack/unpack probes the same parameterization
    # the optimizer differentiates
    eq = Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m))
    return AlSsnnModel(
        lin=_rand_lin(rng, n, m, p),
        h_net=_rand_net(rng, p, nh, m),
        g_net=enforce_equilibrium_zero(_rand_net(rng, n + m, ng, n, scale=0.2), eq),
        eq=eq,
    )


def _rand_gr(rng, n, m, p, nf=3):
    return gr_model(_rand_lin(rng, n, m, p), _rand_net(rng, n + m, nf, n, scale=0.2))


def _rand_ds(rng, N, m, p, model):
    u = 0.3 * rng.standard_normal((N, m))
    traj = simulate(model, u)
    y = traj.y + 0.05 * rng.standard_normal((N, p))
    return Dataset(u=u, y=y)


def _fd_jacobian(model, ds, gamma, step=1e-6):
    theta0 = pack_params(model)
    cols = []
    for i in range(theta0.size):
        tp = theta0.copy(); tp[i] += step
        tm = theta0.copy(); tm[i] -= step
        rp = residuals(unpack_params(model, tp), ds, gamma)[0]
        rm = residuals(unpack_params(model, tm), ds, gamma)[0]
        cols.append((rp - rm) / (2 * step))
    return np.stack(cols, axis=1)


# --- shared desk-scale experiments -------------------------------------------

@pytest.fixture(scope="module")
def pp_bundle():
    t0 = time.perf_counter()
    ds = simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 10000)
    ds, _ = normalize(ds)
    tr, te = split(ds, SplitSpec(0.5))
    lin = linear_init(tr, 3)
    cfg = TrainConfig(gamma=2.0, max_iters=300, n_h=10, n_g=10, seed=0)
    al, rep = train(tr, 3, cfg)
    gr, grep = train_gr(tr, 3, 10, TrainConfig(gamma=0.0, max_iters=300, seed=0))
    # Held-out figures score the second half of one continuous free run, so
    # both models face the record's future rather than a restart transient.
    return {
        "ds": ds, "tr": tr, "te": te, "lin": lin,
        "al": al, "rep": rep, "gr": gr, "grep": grep,
        "lti_rmse": rmse_split(lin, ds, 0.5)[1],
        "al_rmse": rmse_split(al, ds, 0.5)[1],
        "al_ratios": ratio_stats(al, tr),
        "gr_ratios": ratio_stats(gr, tr),
        "wall_s": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def wh_bundle():
    t0 = time.perf_counter()
    ds = generate_wh(default_wh_params(), WhInputSpec(), 8000, seed=0)
    ds, _ = normalize(ds)
    tr, te = split(ds, SplitSpec(0.5))
    lin = linear_init(tr, 4)
    al, rep = train(tr, 4, TrainConfig(gamma=1.0, max_iters=300, n_h=10, n_g=10, seed=0))
    return {
        "tr": tr, "te": te,
        "al": al, "rep": rep,
        "lti_rmse": rmse_split(lin, ds, 0.5)[1],
        "al_rmse": rmse_split(al, ds, 0.5)[1],
        "wall_s": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def gamma_sweep(pp_bundle):
    # the sweep measures the fit/penalty trade-off, so the RMSE that must
    # rise with gamma is the training-fit RMSE the optimizer trades away
    out = {}
    for gamma in (0.01, 1.0, 100.0):
        cfg = TrainConfig(gamma=gamma, max_iters=150, n_h=10, n_g=10, seed=0)
        model, rep = train(pp_bundle["tr"], 3, cfg)
        out[gamma] = {
            "model": model,
            "rep": rep,
            "g_mean": ratio_stats(model, pp_bundle["tr"]).g_mean,
            "rmse": rep.rmse_train,
        }
    return out


# --- criteria -----------------------------------------------------------------

def test_criterion_01_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(25):
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(1, 4)); m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3)); N = int(rng.integers(5, 31))
        gamma = [0.0, 0.5, 2.0][k % 3]
        if k % 2 == 0:
            model = _rand_al(rng, n, m, p)
        else:
            model = _rand_gr(rng, n, m, p)
        ds = _rand_ds(rng, N, m, p, model)
        J = jacobian_bptt(model, ds, gamma)
        J_fd = _fd_jacobian(model, ds, gamma)
        rel = np.linalg.norm(J - J_fd) / max(np.linalg.norm(J_fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    assert _line("01", ok, f"25 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_loss_is_mean_squared_residual_norm():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(2000 + k)
        n, m, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        model = _rand_al(rng, n, m, p) if k % 2 == 0 else _rand_gr(rng, n, m, p)
        ds = _rand_ds(rng, int(rng.integers(10, 60)), m, p, model)
        gamma = [0.0, 0.3, 1.0, 7.0][k % 4]
        r = residuals(model, ds, gamma)[0]
        direct = float(np.linalg.norm(r) ** 2) / ds.n_samples
        worst = max(worst, abs(training._mean_square(r, ds.n_samples) - direct))
    ok = worst <= 1e-12
    assert _line("02", ok, f"20 models, worst |loss - ||r||^2/N| = {worst:.2e}")


def test_criterion_03_linear_system_recovery():
    # held-out data is an independent record from the same system (its own
    # free run from rest), so the figure is pure model error, not a restart
    # transient inherited from splitting one trajectory mid-flight
    lin_true = LinearSS(A=np.array([[0.8, 0.1], [0.0, 0.7]]),
                        B=np.array([[1.0], [0.5]]),
                        C=np.array([[1.0, 0.3]]))

    def record(seed, N):
        u = np.random.default_rng(seed).standard_normal((N, 1))
        return Dataset(u=u, y=simulate(lin_true, u).y)

    # horizon long enough that the truncated impulse-response tail (0.8^L)
    # sits below the target precision
    model = linear_init(record(7, 2000), 2, horizon=100)
    te = record(8, 1000)
    rel = rmse(model, te) / float(np.sqrt(np.mean(te.y**2)))
    ok = rel < 1e-6
    assert _line("03", ok, f"held-out relative RMSE {rel:.2e}")


def test_criterion_04_feedback_cancellation_identity():
    worst = 0.0
    count = 0
    for k in range(100):
        rng = np.random.default_rng(4000 + k)
        n, m, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        model = _rand_al(rng, n, m, p)
        A, B, C = model.lin.A, model.lin.B, model.lin.C
        for _ in range(100):
            x = rng.uniform(-2, 2, n)
            v = rng.uniform(-2, 2, m)
            u = v - mlp_forward(model.h_net, C @ x)
            lhs = al_step(model, x, u)
            rhs = A @ x + B @ v + mlp_forward(model.g_net, np.concatenate([x, u]))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            count += 1
    ok = worst <= 1e-12 and count == 10000
    assert _line("04", ok, f"{count} samples, worst |lhs - rhs| = {worst:.2e}")


def test_criterion_05_prey_predator_experiment(pp_bundle):
    b = pp_bundle
    bar_rmse = 0.2 * b["lti_rmse"]
    bar_ratio = 0.1 * b["gr_ratios"].f_mean
    ok_a = b["al_rmse"] <= bar_rmse
    ok_b = b["al_ratios"].g_mean <= bar_ratio
    ok_t = b["wall_s"] < 900.0
    ok = ok_a and ok_b and ok_t
    assert _line(
        "05", ok,
        f"5a {b['al_rmse']:.4f} <= {bar_rmse:.4f}: {ok_a}; "
        f"5b {b['al_ratios'].g_mean:.5f} <= {bar_ratio:.5f}: {ok_b}; "
        f"{b['wall_s']:.0f}s < 900s: {ok_t}",
    )


def test_criterion_06_wiener_hammerstein_experiment(wh_bundle):
    b = wh_bundle
    bar = 0.2 * b["lti_rmse"]
    ok = b["al_rmse"] <= bar and b["wall_s"] < 900.0
    assert _line(
        "06", ok,
        f"AL test RMSE {b['al_rmse']:.5f} <= {bar:.5f}, {b['wall_s']:.0f}s < 900s",
    )


def test_criterion_07_penalty_weight_sweep(gamma_sweep):
    g = [gamma_sweep[x]["g_mean"] for x in (0.01, 1.0, 100.0)]
    r = [gamma_sweep[x]["rmse"] for x in (0.01, 1.0, 100.0)]
    spread = g[0] / max(g[2], 1e-300)
    ok = g[0] > g[1] > g[2] and r[0] < r[1] < r[2] and spread >= 10.0
    assert _line(
        "07", ok,
        f"g-ratio {g[0]:.2e} > {g[1]:.2e} > {g[2]:.2e}, "
        f"rmse {r[0]:.4f} < {r[1]:.4f} < {r[2]:.4f}, spread {spread:.1f}x",
    )


def test_criterion_08_stability_certificate_suite(pp_bundle):
    certs = []
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        certs.append((np.array([[a]]), solve_certificate(np.array([[a]]), 0.5)))
    for seed in (0, 1, 2):
        rng = np.random.default_rng(8000 + seed)
        n = 2 + seed % 2
        A = rng.uniform(-1, 1, (n, n))
        A *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(A))), 0.1)
        certs.append((A, solve_certificate(A, 0.3)))

    # (d) end-to-end on the trained model: disturbance bound from data,
    # certificate, then closed-loop regulation entering the invariant ball
    al = pp_bundle["al"]
    m = al.lin.B.shape[1]
    driven = simulate_closed_loop(al, pp_bundle["tr"].u)
    x_far = driven.x[np.argmax(np.linalg.norm(driven.x, axis=1))]
    reg = simulate_closed_loop(al, np.zeros((5000, m)), x0=x_far)
    eps = estimate_epsilon(al, [pp_bundle["tr"], pp_bundle["te"]],
                           records=[driven, reg])
    cert_pp = solve_certificate(al.lin.A, eps)
    certs.append((al.lin.A, cert_pp))
    conv = check_convergence(cert_pp, reg)
    ok_d = (conv["first_entry"] is not None
            and conv["fraction_inside_after_entry"] >= 0.99)

    ok_a = True
    ok_b = True
    for A, cert in certs:
        passed, _ = verify(cert, A)
        ok_a = ok_a and passed
        n = A.shape[0]
        M = lmi_block(A, cert.P, cert.phi, cert.psi)
        rng = np.random.default_rng(81)
        Z = rng.standard_normal((10000, 2 * n))
        Z *= np.array([0.1, 1.0, 10.0])[rng.integers(0, 3, 10000)][:, None]
        vals = np.einsum("ki,ij,kj->k", Z, M, Z)
        ok_b = ok_b and bool(np.all(vals < 0.0))

    ok_c = True
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        cert = solve_certificate(np.array([[a]]), 0.5)
        ok_c = ok_c and cert.phi < 1.0 - a * a + 1e-12
    ok = ok_a and ok_b and ok_c and ok_d
    assert _line(
        "08", ok,
        f"a verify x{len(certs)}: {ok_a}; b sampled 1e4 each: {ok_b}; "
        f"c scalar boundary: {ok_c}; d entry {conv['first_entry']} "
        f"frac {conv['fraction_inside_after_entry']:.3f}: {ok_d}",
    )


def test_criterion_09_byte_identical_reruns(tmp_path):
    # two consecutive runs of the identical pipeline (same argv, same output
    # paths); the first run's bytes are snapshotted before the rerun
    # overwrites them
    root = tmp_path / "run"
    root.mkdir()
    steps = [
        ["gen-data", "wh-synthetic", "--n", "600", "--seed", "3",
         "--normalize", "-o", str(root / "data.csv")],
        ["identify", "al-ssnn", "--data", str(root / "data.csv"),
         "--order", "2", "--nh", "3", "--ng", "3", "--gamma", "1.0",
         "--iters", "5", "--seed", "0", "--train-frac", "0.75",
         "-o", str(root / "al")],
        ["identify", "lti", "--data", str(root / "data.csv"),
         "--order", "2", "-o", str(root / "lti")],
        ["evaluate", "--model", str(root / "al.model.json"),
         "--data", str(root / "data.csv"), "--split", "0.75",
         "-o", str(root / "eval")],
        ["closedloop", "--model", str(root / "al.model.json"),
         "--data", str(root / "data.csv"), "-o", str(root / "cl")],
    ]
    spec = root / "pipeline.json"
    spec.write_text(json.dumps({"steps": steps}))

    def run_once():
        assert main(["run", str(spec)]) == 0
        return {q.name: q.read_bytes()
                for q in root.iterdir() if q.name != "pipeline.json"}

    first = run_once()
    second = run_once()
    same_names = sorted(first) == sorted(second)
    diff = [nm for nm in sorted(first) if first[nm] != second.get(nm)]
    ok = same_names and not diff
    assert _line(
        "09", ok,
        f"{len(first)} artifacts, mismatched: {diff if diff else 'none'}",
    )


def test_criterion_10_monotone_accepted_losses(pp_bundle, wh_bundle, gamma_sweep):
    reports = [pp_bundle["rep"], pp_bundle["grep"], wh_bundle["rep"]]
    reports += [gamma_sweep[g]["rep"] for g in (0.01, 1.0, 100.0)]
    ok = True
    checked = 0
    for rep in reports:
        seq = [rep.init_loss] + [r["loss"] for r in rep.iterations if r["accepted"]]
        ok = ok and all(b < a for a, b in zip(seq, seq[1:]))
        ok = ok and rep.final_loss <= rep.init_loss
        checked += 1
    assert _line("10", ok, f"{checked} training runs, all strictly decreasing")
