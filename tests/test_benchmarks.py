import json
from dataclasses import replace

import numpy as np
import pytest

from alssnn.benchmarks import (POPULATION_BOUND, PreyPredatorParams,
                               SinusoidalForcing, WhInputSpec, WhParams,
                               default_wh_params, generate_wh,
                               second_order_block, simulate_prey_predator)
from alssnn.cli import _plain
from alssnn.errors import DataError, NumericalError
from alssnn.linear_id import LinearSS, linear_init
from alssnn.models import simulate


def test_zero_forcing_from_origin_stays_zero():
    params = replace(PreyPredatorParams(), x0=(0.0, 0.0, 0.0))
    forcing = SinusoidalForcing(A1=0.0, A2=0.0)
    ds = simulate_prey_predator(params, forcing, 50)
    assert np.all(ds.y == 0.0)
    assert np.all(ds.u == 0.0)


def test_decoupled_exponential_decay_oracle():
    # with all couplings and forcing gains zero each species decays as
    # x_i(t) = x_i(0) exp(a_i t); RK4 at this dt is far below the tolerance
    params = PreyPredatorParams(a1=-0.3, a2=-0.3, b1=0, b2=0, c1=0, c2=0,
                                d1=0, d2=0, e=0.5, f=0, g=0,
                                dt=1e-3, x0=(1.0, 1.0, 2.0))
    N = 2000
    ds = simulate_prey_predator(params, SinusoidalForcing(), N)
    t = np.arange(N) * params.dt
    assert np.max(np.abs(ds.y[:, 0] - 2.0 * np.exp(-0.5 * t))) < 1e-10


def test_rk4_fourth_order_convergence():
    # error vs a dt/16 reference must shrink ~16x when dt halves
    forcing = SinusoidalForcing()

    def y_at_t5(dt):
        k = round(5.0 / dt)
        params = replace(PreyPredatorParams(), dt=dt)
        ds = simulate_prey_predator(params, forcing, k + 1)
        return ds.y[k, 0]

    ref = y_at_t5(0.1 / 16)
    e1 = abs(y_at_t5(0.1) - ref)
    e2 = abs(y_at_t5(0.05) - ref)
    assert e1 > 0 and e2 > 0
    assert 10.0 < e1 / e2 < 24.0


def test_forcing_sample_matches_formula():
    forcing = SinusoidalForcing(A1=1.5, A2=0.7, phi1=0.2, phi2=-0.4)
    N, dt = 64, 0.37
    u = forcing.sample(N, dt)
    t = np.arange(N) * dt
    u1 = forcing.A1 * np.sin(t + forcing.phi1) + forcing.A1 * np.sin(t / 10 + forcing.phi1)
    u2 = forcing.A2 * np.sin(t + forcing.phi2) + forcing.A2 * np.sin(t / 10 + forcing.phi2)
    assert np.array_equal(u, np.column_stack([u1, u2]))


def reference_prey_predator(params, forcing, N):
    """The generator as first written: one RK4 step of numpy arrays per sample,
    the forcing evaluated per stage time. Returns (u, y) or raises."""
    def at(t):
        return np.array([
            forcing.A1 * np.sin(t + forcing.phi1) + forcing.A1 * np.sin(t / 10 + forcing.phi1),
            forcing.A2 * np.sin(t + forcing.phi2) + forcing.A2 * np.sin(t / 10 + forcing.phi2),
        ])

    def rhs(x, u):
        x1, x2, x3 = x
        u1sq, u2sq = u[0] ** 2, u[1] ** 2
        return np.array([
            params.a1 * x1 - params.b1 * x1 * x2 - params.c1 * x1 * x3 + params.d1 * u1sq,
            params.a2 * x2 - params.b2 * x1 * x2 - params.c2 * x1 * x3 + params.d2 * u2sq,
            -params.e * x3 + params.f * x1 * x3 + params.g * x2 * x3,
        ])

    dt = params.dt
    x = np.array(params.x0, dtype=float)
    ys = np.empty((N, 1))
    for k in range(N):
        t = k * dt
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > POPULATION_BOUND:
            raise NumericalError(
                f"prey-predator simulation diverged at step {k} (t={t:.6g}); "
                "reduce dt or the forcing amplitude"
            )
        ys[k, 0] = x[2]
        k1 = rhs(x, at(t))
        k2 = rhs(x + 0.5 * dt * k1, at(t + 0.5 * dt))
        k3 = rhs(x + 0.5 * dt * k2, at(t + 0.5 * dt))
        k4 = rhs(x + dt * k3, at(t + dt))
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return forcing.sample(N, dt), ys


@pytest.mark.parametrize("params, forcing, N", [
    (PreyPredatorParams(), SinusoidalForcing(), 4000),
    (PreyPredatorParams(a1=-0.15, a2=-0.35, b1=0.01, c2=0.08, d1=0.7, d2=0.3,
                        e=0.4, f=0.03, g=0.015, dt=0.3, x0=(3, 12.5, 1.0)),
     SinusoidalForcing(A1=1.5, A2=2.7, phi1=0.2, phi2=-0.4), 3000),
])
def test_prey_predator_bit_identical_to_reference_rk4(params, forcing, N):
    u_ref, y_ref = reference_prey_predator(params, forcing, N)
    ds = simulate_prey_predator(params, forcing, N)
    assert np.array_equal(ds.u, u_ref)
    assert np.array_equal(ds.y, y_ref)


@pytest.mark.parametrize("params, forcing", [
    (replace(PreyPredatorParams(), a1=2.0, a2=2.0), SinusoidalForcing()),
    (PreyPredatorParams(), SinusoidalForcing(A1=1e200)),  # u^2 overflows
])
def test_prey_predator_diverges_at_reference_step(params, forcing):
    with pytest.raises(NumericalError) as ref, np.errstate(all="ignore"):
        reference_prey_predator(params, forcing, 500)
    with pytest.raises(NumericalError) as new:
        simulate_prey_predator(params, forcing, 500)
    assert str(new.value) == str(ref.value)


def test_default_prey_predator_bounded_and_alive():
    ds = simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 50000)
    y = ds.y[:, 0]
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) < POPULATION_BOUND
    assert np.min(y) > 0  # the predator never goes extinct or negative
    assert np.max(y) - np.min(y) > 0.5  # and visibly oscillates


def test_prey_predator_deterministic():
    a = simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 400)
    b = simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 400)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.y, b.y)


def test_prey_predator_is_even_in_its_input():
    # the plant squares its inputs, so a negated forcing gives the same
    # output bytes (ROADMAP, "What the models know")
    ds = simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 10_000)
    neg = simulate_prey_predator(PreyPredatorParams(),
                                 SinusoidalForcing(A1=-2.0, A2=-2.0), 10_000)
    assert np.array_equal(neg.u, -ds.u)
    assert neg.y.tobytes() == ds.y.tobytes()


def test_prey_predator_divergence_names_step():
    params = replace(PreyPredatorParams(), a1=2.0, a2=2.0)
    with pytest.raises(NumericalError, match="diverged at step"):
        simulate_prey_predator(params, SinusoidalForcing(), 500)


def test_prey_predator_sample_count_guard():
    with pytest.raises(DataError, match="at least 2"):
        simulate_prey_predator(PreyPredatorParams(), SinusoidalForcing(), 1)


def test_second_order_block_has_unit_dc_gain():
    blk = second_order_block(0.7, 0.2)
    dc = (blk.C @ np.linalg.solve(np.eye(2) - blk.A, blk.B)).item()
    assert dc == pytest.approx(1.0, abs=1e-12)
    assert blk.spectral_radius() == pytest.approx(np.hypot(0.7, 0.2))


def test_wh_identity_cascade_is_linear():
    # identity nonlinearity collapses the cascade to a 4th-order linear
    # system, which the linear pipeline must recover to free-run precision
    params = default_wh_params(nl_kind="identity")
    ds = generate_wh(params, WhInputSpec(), 4000, seed=0)
    lin = linear_init(ds, 4, horizon=100)
    y_hat = simulate(lin, ds.u).y
    rel = np.linalg.norm(y_hat - ds.y) / np.linalg.norm(ds.y)
    assert rel < 1e-6


def test_wh_nonlinearity_formula():
    params = default_wh_params()
    z = np.linspace(-2, 2, 9)
    assert np.allclose(params.nonlinearity(z),
                       np.tanh(params.nl_c1 * z + params.nl_c3 * z**3),
                       atol=1e-15)
    assert params.nonlinearity(np.zeros(3)) == pytest.approx(0.0)


def test_wh_deterministic_and_seed_sensitive():
    params = default_wh_params()
    a = generate_wh(params, WhInputSpec(), 500, seed=7)
    b = generate_wh(params, WhInputSpec(), 500, seed=7)
    c = generate_wh(params, WhInputSpec(), 500, seed=8)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.u, c.u)


def test_wh_noise_obeys_std_flag():
    clean = generate_wh(default_wh_params(), WhInputSpec(), 500, seed=1)
    noisy = generate_wh(default_wh_params(noise_std=0.1), WhInputSpec(), 500, seed=1)
    assert np.array_equal(clean.u, noisy.u)
    d = noisy.y - clean.y
    assert 0.05 < np.std(d) < 0.2


def test_wh_input_spec_scaling():
    u = WhInputSpec(std=2.5, smoothing=0.6).sample(2000, np.random.default_rng(0))
    assert u.shape == (2000, 1)
    assert np.std(u) == pytest.approx(2.5)


def test_wh_validation():
    bad = LinearSS(A=np.array([[1.05]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    with pytest.raises(NumericalError, match="front block is not Schur stable"):
        WhParams(front=bad, back=second_order_block(0.8, 0.1))
    with pytest.raises(DataError, match="unknown nonlinearity"):
        default_wh_params(nl_kind="cubic")
    with pytest.raises(DataError, match="noise_std"):
        default_wh_params(noise_std=-0.1)
    with pytest.raises(DataError, match="std"):
        WhInputSpec(std=0.0)
    with pytest.raises(DataError, match="smoothing"):
        WhInputSpec(smoothing=1.0)
    with pytest.raises(DataError, match="at least 2"):
        generate_wh(default_wh_params(), WhInputSpec(), 1)
    with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
        generate_wh(default_wh_params(), WhInputSpec(), 500, seed=-1)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="noise_std must be finite"):
            default_wh_params(noise_std=bad)
        with pytest.raises(DataError, match="input std must be finite"):
            WhInputSpec(std=bad)


def test_wh_divergent_block_names_block_and_step():
    # an input std of 1e9 takes the front block's state past the simulation
    # bound at its first update
    with pytest.raises(NumericalError, match="front block diverged at step 1"):
        generate_wh(default_wh_params(), WhInputSpec(std=1e9), 400)


def test_params_validation():
    with pytest.raises(DataError, match="dt"):
        replace(PreyPredatorParams(), dt=0.0)
    with pytest.raises(DataError, match="finite"):
        replace(PreyPredatorParams(), e=np.nan)
    with pytest.raises(DataError, match="finite"):
        SinusoidalForcing(A1=np.inf)


def test_metadata_dicts():
    # the generator parameters reach a .meta.json through the CLI's one JSON
    # rule: a dataclass becomes its fields, an array nested lists
    def plain(obj):
        return json.loads(json.dumps(obj, default=_plain))
    pp = plain(PreyPredatorParams())
    assert pp["dt"] == PreyPredatorParams().dt and pp["x0"] == [8.0, 8.0, 4.0]
    assert set(plain(SinusoidalForcing())) == {"A1", "A2", "phi1", "phi2"}
    wh = plain(default_wh_params())
    assert wh["nl_kind"] == "tanh-poly"
    assert set(wh["front"]) == {"A", "B", "C"}
    assert np.array(wh["front"]["A"]).shape == (2, 2)
    assert plain(WhInputSpec()) == {"std": 1.0, "smoothing": 0.5}
