import numpy as np
import pytest

from alssnn.errors import DataError
from alssnn.nets import (Equilibrium, Mlp, enforce_equilibrium_zero,
                         init_small, mlp_forward, mlp_forward_batch)


def random_net(d_in=3, n_hidden=5, d_out=2, seed=0, scale=0.7):
    rng = np.random.default_rng(seed)
    return Mlp(
        W_in=rng.normal(size=(n_hidden, d_in)) * scale,
        b_in=rng.normal(size=n_hidden) * scale,
        W_out=rng.normal(size=(d_out, n_hidden)) * scale,
        b_out=rng.normal(size=d_out) * scale,
    )


def test_forward_matches_formula():
    net = random_net()
    z = np.array([0.3, -1.2, 0.5])
    ref = net.W_out @ np.tanh(net.W_in @ z + net.b_in) + net.b_out
    assert np.allclose(mlp_forward(net, z), ref, atol=1e-15)


def test_forward_batch_matches_loop():
    net = random_net(seed=2)
    Z = np.random.default_rng(3).normal(size=(11, 3))
    batch = mlp_forward_batch(net, Z)
    for k in range(11):
        assert np.allclose(batch[k], mlp_forward(net, Z[k]), atol=1e-15)


def test_zero_hidden_units_is_constant_map():
    net = Mlp(W_in=np.zeros((0, 3)), b_in=np.zeros(0),
              W_out=np.zeros((2, 0)), b_out=np.array([1.5, -0.5]))
    assert np.allclose(mlp_forward(net, np.ones(3)), [1.5, -0.5])


def test_enforce_equilibrium_zero():
    net = random_net(d_in=3, n_hidden=5, d_out=2, seed=7)
    eq = Equilibrium(x_e=np.array([0.3, -0.1]), u_e=np.array([0.2]))
    fixed = enforce_equilibrium_zero(net, eq)
    assert np.max(np.abs(mlp_forward(fixed, eq.stacked()))) < 1e-15
    # only b_out changed
    assert np.array_equal(fixed.W_in, net.W_in)
    assert np.array_equal(fixed.b_in, net.b_in)
    assert np.array_equal(fixed.W_out, net.W_out)


def test_enforce_equilibrium_idempotent():
    net = random_net(seed=8)
    eq = Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1))
    once = enforce_equilibrium_zero(net, eq)
    twice = enforce_equilibrium_zero(once, eq)
    assert np.array_equal(once.b_out, twice.b_out)


def test_enforce_equilibrium_dimension_check():
    net = random_net(seed=8)
    with pytest.raises(DataError, match="dimension"):
        enforce_equilibrium_zero(net, Equilibrium(x_e=np.zeros(3), u_e=np.zeros(3)))


def test_init_small_deterministic_and_scaled():
    a = init_small(3, 6, 2, seed=9)
    b = init_small(3, 6, 2, seed=9)
    assert np.array_equal(a.W_in, b.W_in) and np.array_equal(a.b_in, b.b_in)
    # a generic input layer, U(-0.5, 0.5), and a zero output layer
    assert 0 < np.max(np.abs(a.W_in)) <= 0.5 and 0 < np.max(np.abs(a.b_in)) <= 0.5
    assert not np.any(a.W_out) and not np.any(a.b_out)
    assert np.array_equal(mlp_forward(a, np.array([0.3, -1.0, 2.0])), np.zeros(2))


def test_mlp_shape_validation():
    with pytest.raises(DataError):
        Mlp(W_in=np.zeros((4, 3)), b_in=np.zeros(5),
            W_out=np.zeros((2, 4)), b_out=np.zeros(2))
