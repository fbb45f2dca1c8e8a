"""The three benchmark workloads and the output checks they run.

Every workload is a closed loop of public alssnn calls made through module
attributes (``training.train``, ``control.rmse_split``, ...), so the tracer
in tracing.py sees them. ``setup`` builds the inputs, ``identify`` fits
models and ``analyze`` evaluates, closes the loop and certifies them. An
episode is identify + analyze; repeated set-ups and episodes in one run redo
identical work on identical inputs, so their times are repeats of one
measurement and the harness can check that results repeat bit for bit.

Why each workload exists and what it stresses is in README.md.
"""

from __future__ import annotations

import math
import os

import numpy as np

from alssnn import benchmarks, control, dataio, models, nets, stability, training
from alssnn.dataio import Dataset, SplitSpec
from alssnn.linear_id import LinearSS
from alssnn.models import AlSsnnModel
from alssnn.nets import Equilibrium, Mlp
from alssnn.training import LmWorkspace, TrainConfig

SPOT_POINTS = 16            # cancellation-identity samples per AL model
CANCELLATION_TOL = 1e-12    # relative to max(1, |rhs|); criterion 04 uses 1e-12
CONVERGENCE_FRACTION = 0.99  # check_convergence share inside after entry


class OpFailed(Exception):
    """An operation raised; the episode cannot go on without its result."""


class Ops:
    """Counts public calls and their output checks.

    A call that raises counts as failed and aborts the episode through
    OpFailed; a call whose output check fails counts as failed and the
    episode continues with the result.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, what, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, recorded
            self._fail(f"{what} raised {type(exc).__name__}: {exc}")
            raise OpFailed(what) from exc
        if check is not None:
            ok, detail = check(out)
            if not ok:
                self._fail(f"{what}: {detail}")
        return out

    def check(self, what, ok: bool, detail: str) -> None:
        """An output check that is not tied to a single call."""
        self.attempted += 1
        if not ok:
            self._fail(f"{what}: {detail}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# --- output checks ------------------------------------------------------------

def _losses_decrease(result):
    """Criterion 10: accepted losses strictly decrease, final <= initial."""
    _, rep = result
    seq = [rep.init_loss] + [r["loss"] for r in rep.iterations if r["accepted"]]
    ok = all(b < a for a, b in zip(seq, seq[1:])) and rep.final_loss <= rep.init_loss
    return ok, f"accepted losses {seq} are not strictly decreasing"


def _not_diverged(rec):
    return not rec.diverged, f"closed loop diverged at step {rec.diverged_at}"


def _finite(value):
    vals = np.ravel(np.asarray(value, dtype=float))
    return bool(np.all(np.isfinite(vals))), f"non-finite output {value}"


def _ratio_finite(stats):
    return _finite(stats.g_mean if stats.g_mean is not None else stats.f_mean)


def _cancellation(model: AlSsnnModel, points):
    """al_step(x, v - h(Cx)) == Ax + Bv + g(x, u) at the seeded points."""
    lin = model.lin
    worst = 0.0
    for x, v in points:
        u = control.linearizing_input(model, v, lin.C @ x)
        lhs = models.al_step(model, x, u)
        rhs = lin.A @ x + lin.B @ v + nets.mlp_forward(model.g_net, np.concatenate([x, u]))
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))))
    return worst


def _check_cancellation(ops, model, points):
    ops.call("models.al_step", _cancellation, model, points,
             check=lambda w: (w <= CANCELLATION_TOL, f"cancellation identity off by {w:.3e}"))


def _spot_points(rng, n, m):
    return [(rng.uniform(-2, 2, n), rng.uniform(-2, 2, m)) for _ in range(SPOT_POINTS)]


def _csv_round_trip(ops, ds: Dataset, path) -> Dataset:
    """save_csv then load_csv, as the CLI's gen-data and identify steps do."""
    ops.call("dataio.save_csv", dataio.save_csv, ds, path)
    back = ops.call("dataio.load_csv", dataio.load_csv, path, name=ds.name,
                    check=lambda b: (np.array_equal(b.u, ds.u) and np.array_equal(b.y, ds.y),
                                     "CSV round trip changed the data"))
    os.remove(path)
    return back


def _halves(ops, ds: Dataset, path, rng, order: int) -> dict:
    """CSV round trip, normalize and split a generated record in halves.

    Also draws the seeded spot-check points for the cancellation identity.
    """
    ds = _csv_round_trip(ops, ds, path)
    ds, _ = ops.call("dataio.normalize", dataio.normalize, ds)
    tr, te = ops.call("dataio.split", dataio.split, ds, SplitSpec(0.5))
    return {"ds": ds, "tr": tr, "te": te,
            "points": _spot_points(rng, order, ds.n_inputs)}


def _geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# --- shared analysis ----------------------------------------------------------

def _certify(ops, model: AlSsnnModel, datasets, v_drive, reg_steps, points):
    """Driven and regulation closed loops, epsilon, certificate and its checks.

    As in acceptance criterion 08, the regulation run (v = 0) starts at the
    driven run's state of largest norm and must enter the certified ball and
    stay there. Returns the certified radius.
    """
    m = model.lin.n_inputs
    _check_cancellation(ops, model, points)
    driven = ops.call("control.simulate_closed_loop", control.simulate_closed_loop,
                      model, v_drive, check=_not_diverged)
    far = driven.x[np.argmax(np.linalg.norm(driven.x, axis=1))]
    reg = ops.call("control.simulate_closed_loop", control.simulate_closed_loop,
                   model, np.zeros((reg_steps, m)), x0=far, check=_not_diverged)
    eps = ops.call("control.estimate_epsilon", control.estimate_epsilon, model, datasets,
                   records=[driven, reg], check=_finite)
    A = model.lin.A
    cert = ops.call("stability.solve_certificate", stability.solve_certificate, A, eps)
    ops.call("stability.verify", stability.verify, cert, A,
             check=lambda res: (res[0], f"certificate fails verify: {res[1]}"))

    def entered(conv):
        ok = (conv["first_entry"] is not None
              and conv["fraction_inside_after_entry"] >= CONVERGENCE_FRACTION)
        return ok, (f"regulation entry {conv['first_entry']}, fraction inside "
                    f"{conv['fraction_inside_after_entry']:.4f}")

    ops.call("stability.check_convergence", stability.check_convergence, cert, reg,
             check=entered)
    return cert.radius


def _score(ops, model, ds: Dataset, tr: Dataset, fraction: float):
    """(held-out RMSE, open-loop residual ratio) of one model."""
    _, test = ops.call("control.rmse_split", control.rmse_split, model, ds, fraction,
                       check=_finite)
    stats = ops.call("control.ratio_stats", control.ratio_stats, model, tr,
                     check=_ratio_finite)
    return test, stats.g_mean


# --- workloads ----------------------------------------------------------------

class PpTrain:
    """Paper experiment on the prey-predator record: AL and GR, then analysis."""

    name = "pp-train"
    N = 10_000          # record length; the first half (5,000) trains
    ORDER = 3
    HIDDEN = 10
    GAMMA = 2.0
    ITERS = 8           # LM budget per training run
    REG_STEPS = 2_000

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, ops, workdir):
        ds = ops.call("benchmarks.simulate_prey_predator", benchmarks.simulate_prey_predator,
                      benchmarks.PreyPredatorParams(), benchmarks.SinusoidalForcing(), self.N)
        return _halves(ops, ds, os.path.join(workdir, "pp.csv"),
                       np.random.default_rng([self.seed, 1]), self.ORDER)

    def identify(self, ops, st):
        al = ops.call("training.train", training.train, st["tr"], self.ORDER,
                      TrainConfig(gamma=self.GAMMA, max_iters=self.ITERS,
                                  n_h=self.HIDDEN, n_g=self.HIDDEN),
                      check=_losses_decrease)
        gr = ops.call("training.train_gr", training.train_gr, st["tr"], self.ORDER,
                      self.HIDDEN, TrainConfig(gamma=0.0, max_iters=self.ITERS),
                      check=_losses_decrease)
        return {"al": al[0], "gr": gr[0], "reports": [al[1], gr[1]]}

    def analyze(self, ops, st, fit):
        ds, tr, te, al = st["ds"], st["tr"], st["te"], fit["al"]
        test_rmse, g_ratio = _score(ops, al, ds, tr, 0.5)
        _score(ops, fit["gr"], ds, tr, 0.5)
        radius = _certify(ops, al, [tr, te], tr.u, self.REG_STEPS, st["points"])
        return {
            "loss_ratio": _geomean([r.final_loss / r.init_loss for r in fit["reports"]]),
            "test_rmse": test_rmse,
            "g_ratio": g_ratio,
            "cert_radius": radius,
        }


class WhWide:
    """Wide nets on the Wiener-Hammerstein record, an AL gamma sweep."""

    name = "wh-wide"
    N = 4_000           # record length; the first half (2,000) trains
    ORDER = 4
    HIDDEN = 80
    GAMMAS = (0.1, 1.0, 10.0)
    CERTIFIED = 1       # index into GAMMAS of the model that is certified
    ITERS = 10          # the default damping schedule rejects the first five
    REG_STEPS = 2_000

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, ops, workdir):
        ds = ops.call("benchmarks.generate_wh", benchmarks.generate_wh,
                      benchmarks.default_wh_params(), benchmarks.WhInputSpec(), self.N, seed=0)
        return _halves(ops, ds, os.path.join(workdir, "wh.csv"),
                       np.random.default_rng([self.seed, 2]), self.ORDER)

    def identify(self, ops, st):
        fits = [ops.call("training.train", training.train, st["tr"], self.ORDER,
                         TrainConfig(gamma=g, max_iters=self.ITERS,
                                     n_h=self.HIDDEN, n_g=self.HIDDEN),
                         check=_losses_decrease)
                for g in self.GAMMAS]
        return {"al": [f[0] for f in fits], "reports": [f[1] for f in fits]}

    def analyze(self, ops, st, fit):
        ds, tr, te = st["ds"], st["tr"], st["te"]
        scores = [_score(ops, al, ds, tr, 0.5) for al in fit["al"]]
        radius = _certify(ops, fit["al"][self.CERTIFIED], [tr, te], tr.u, self.REG_STEPS,
                          st["points"])
        for i, al in enumerate(fit["al"]):
            if i != self.CERTIFIED:
                _check_cancellation(ops, al, st["points"])
        return {
            "loss_ratio": _geomean([r.final_loss / r.init_loss for r in fit["reports"]]),
            "test_rmse": _geomean([s[0] for s in scores]),
            "g_ratio": _geomean([s[1] for s in scores]),
            "cert_radius": radius,
        }


def _draw_al(rng, n: int, rho: float, hidden: int) -> AlSsnnModel:
    """Seeded AL model with spectral radius exactly rho.

    A = Q blockdiag(rotations) Q' has eigenvalue moduli drawn in
    [0.3 rho, rho] with the largest pinned at rho; net scales follow the
    acceptance-test generators (h output 0.4, g output 0.2, g pinned to zero
    at the origin).
    """
    moduli = np.sort(rng.uniform(0.3 * rho, rho, n))[::-1]
    moduli[0] = rho
    D = np.zeros((n, n))
    i = 0
    while i < n:
        if i + 1 < n:
            th = rng.uniform(0.1, 1.0)
            r = moduli[i]
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
            i += 2
        else:
            D[i, i] = moduli[i] * rng.choice([-1.0, 1.0])
            i += 1
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lin = LinearSS(A=Q @ D @ Q.T, B=rng.uniform(-1, 1, (n, 1)),
                   C=rng.uniform(-1, 1, (1, n)))

    def net(d_in, d_out, scale):
        return Mlp(W_in=rng.uniform(-1, 1, (hidden, d_in)), b_in=rng.uniform(-1, 1, hidden),
                   W_out=scale * rng.uniform(-1, 1, (d_out, hidden)),
                   b_out=scale * rng.uniform(-1, 1, d_out))

    eq = Equilibrium(x_e=np.zeros(n), u_e=np.zeros(1))
    return AlSsnnModel(lin=lin, h_net=net(1, 1, 0.4),
                       g_net=nets.enforce_equilibrium_zero(net(n + 1, n, 0.2), eq), eq=eq)


def _excitation(rng, N: int, smoothing: float = 0.8) -> np.ndarray:
    """Unit-std lowpass-filtered white noise, shape (N, 1)."""
    e = rng.standard_normal(N)
    u = np.empty(N)
    prev = 0.0
    for k in range(N):
        prev = smoothing * prev + (1 - smoothing) * e[k]
        u[k] = prev
    return (u / np.std(u)).reshape(-1, 1)


class Certify:
    """Seeded AL models at n = 1, 3, 6: closed loops and certificates."""

    name = "certify"
    ORDERS = (1, 3, 6)
    RADII = (0.6, 0.97)     # spectral radii: moderate and near 1
    HIDDEN = 3
    FIXED_SEED = 0          # models and signals; see README.md on seeds
    PLANT_N = 2_000         # plant record per model; the first half is fitted
    NOISE = 0.05
    POLISH_STEPS = 3        # LM steps refining each model on its plant record
    DRIVEN_STEPS = 5_000
    REG_STEPS = 2_000

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, ops, workdir):
        fixed = np.random.default_rng(self.FIXED_SEED)
        rng = np.random.default_rng([self.seed, 3])
        cases = []
        for n in self.ORDERS:
            for rho in self.RADII:
                model = _draw_al(fixed, n, rho, self.HIDDEN)
                u = _excitation(fixed, self.PLANT_N)
                traj = ops.call("models.simulate", models.simulate, model, u,
                                check=lambda t: (not t.diverged, "plant record diverged"))
                y = traj.y + self.NOISE * fixed.standard_normal(traj.y.shape)
                ds = _csv_round_trip(ops, Dataset(u=u, y=y, name=f"plant-n{n}"),
                                     os.path.join(workdir, f"plant-n{n}-{rho}.csv"))
                tr, _ = ops.call("dataio.split", dataio.split, ds, SplitSpec(0.5))
                cases.append({
                    "model": model, "ds": ds, "tr": tr,
                    "v": _excitation(fixed, self.DRIVEN_STEPS),
                    "points": _spot_points(rng, n, 1),
                })
        return {"cases": cases}

    def identify(self, ops, st):
        """A few LM steps from each drawn model on the first half of its record."""
        config = TrainConfig(gamma=1.0)
        polished, ratios = [], []
        for case in st["cases"]:
            model, ws, lam = case["model"], LmWorkspace(), config.lambda0
            first = None
            for _ in range(self.POLISH_STEPS):
                model, lam, accepted = ops.call(
                    "training.lm_step", training.lm_step, model, case["tr"], config, lam,
                    workspace=ws, check=lambda out: (
                        not out[2] or ws.last_candidate_loss < ws.loss,
                        f"accepted step raised the loss from {ws.loss}"))
                first = ws.loss if first is None else first
                final = ws.last_candidate_loss if accepted else ws.loss
            polished.append(model)
            ratios.append(final / first)
        return {"al": polished, "loss_ratios": ratios}

    def analyze(self, ops, st, fit):
        radii, scores = [], []
        for case, model in zip(st["cases"], fit["al"]):
            scores.append(_score(ops, model, case["ds"], case["tr"], 0.5))
            radii.append(_certify(ops, model, [case["ds"]], case["v"], self.REG_STEPS,
                                  case["points"]))
        return {
            "loss_ratio": _geomean(fit["loss_ratios"]),
            "test_rmse": _geomean([s[0] for s in scores]),
            "g_ratio": _geomean([s[1] for s in scores]),
            "cert_radius": _geomean(radii),
        }


WORKLOADS = {w.name: w for w in (PpTrain, WhWide, Certify)}
