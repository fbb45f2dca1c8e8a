"""The frozen value types own their arrays.

Dataset, LinearSS, Mlp, Equilibrium and IssCertificate each keep a finite,
read-only copy of every array they are given: the caller's array keeps its
flags, a later write to it leaves the value unchanged, and a non-finite or
non-numeric entry is a DataError naming the field.
"""

import re

import numpy as np
import pytest

from alssnn.dataio import Dataset
from alssnn.errors import DataError
from alssnn.models import LinearSS
from alssnn.nets import Equilibrium, Mlp
from alssnn.stability import IssCertificate, solve_certificate, verify

A2 = np.array([[0.5, 0.1], [0.0, 0.4]])


# Per type, a function returning fresh, writable arguments for one value.
ARGS = {
    Dataset: lambda: {"u": np.linspace(0.0, 1.0, 5), "y": np.ones((5, 2))},
    LinearSS: lambda: {"A": A2.copy(), "B": np.ones((2, 1)), "C": np.array([[1.0, 0.0]])},
    Mlp: lambda: {"W_in": np.ones((3, 2)), "b_in": np.zeros(3),
                  "W_out": np.ones((1, 3)), "b_out": np.zeros(1)},
    Equilibrium: lambda: {"x_e": np.zeros(2), "u_e": np.zeros(1)},
    IssCertificate: lambda: {"P": np.eye(2), "phi": 0.5, "psi": 2.0, "epsilon": 0.1,
                             "lmi_max_eig": -1.0},
}


FIELDS = [(Dataset, "u"), (Dataset, "y"), (LinearSS, "A"), (LinearSS, "B"), (LinearSS, "C"),
          (Mlp, "W_in"), (Mlp, "b_in"), (Mlp, "W_out"), (Mlp, "b_out"),
          (Equilibrium, "x_e"), (Equilibrium, "u_e"), (IssCertificate, "P")]
IDS = [f"{kind.__name__}.{key}" for kind, key in FIELDS]


@pytest.mark.parametrize("kind, key", FIELDS, ids=IDS)
def test_a_write_to_the_callers_array_leaves_the_value_unchanged(kind, key):
    args = ARGS[kind]()
    value = kind(**args)
    before = getattr(value, key).copy()
    assert args[key].flags.writeable
    args[key][...] = 5.0
    assert np.array_equal(getattr(value, key), before)


@pytest.mark.parametrize("kind, key", FIELDS, ids=IDS)
def test_the_values_own_arrays_are_read_only(kind, key):
    arr = getattr(kind(**ARGS[kind]()), key)
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 5.0


@pytest.mark.parametrize("kind, key", FIELDS, ids=IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_entry_names_its_field(kind, key, bad):
    args = ARGS[kind]()
    args[key].flat[0] = bad
    with pytest.raises(DataError, match=rf"^{kind.__name__}\.{key} has non-finite entries$"):
        kind(**args)


@pytest.mark.parametrize("kind, key", FIELDS, ids=IDS)
@pytest.mark.parametrize("bad", [[["1.0", "oops"]], [[1.0], [2.0, 3.0]], [[10**400]],
                                 np.array([[0.5 + 1j]]), [[1j]]],
                         ids=["string", "ragged", "huge-int", "complex-array", "complex"])
def test_a_non_numeric_entry_names_its_field(kind, key, bad):
    args = ARGS[kind]()
    args[key] = bad
    with pytest.raises(DataError, match=rf"^{kind.__name__}\.{key} is not a numeric array"):
        kind(**args)


def test_views_and_lists_are_copied_in_the_shapes_each_type_keeps():
    b = np.zeros((1, 1))
    net = Mlp(W_in=[1.0, 2.0, 3.0], b_in=b[0], W_out=np.ones((2, 1)), b_out=[[0.0, 1.0]])
    b[0, 0] = 5.0   # b_in was given as a view of b
    assert net.W_in.shape == (1, 3) and net.b_out.shape == (2,)
    assert np.array_equal(net.b_in, [0.0])
    ds = Dataset(u=[0.0, 1.0, 2.0], y=[[1.0], [2.0], [3.0]])
    assert ds.u.shape == ds.y.shape == (3, 1) and not ds.u.flags.writeable
    eq = Equilibrium(x_e=np.zeros((2, 1)), u_e=0.0)
    assert eq.x_e.shape == (2,) and eq.u_e.shape == (1,)


def test_a_certificate_keeps_its_p_when_the_callers_p_changes():
    cert = solve_certificate(A2, 0.1)
    P = np.array(cert.P)
    own = IssCertificate(P=P, phi=cert.phi, psi=cert.psi, epsilon=cert.epsilon,
                         lmi_max_eig=cert.lmi_max_eig)
    assert verify(own, A2)[0]
    P[...] = -1.0   # the certificate holds its own copy
    assert verify(own, A2)[0] and np.array_equal(own.P, cert.P)


def test_a_nan_p_is_a_data_error_not_a_linalg_error():
    with pytest.raises(DataError, match=re.escape("IssCertificate.P has non-finite entries")):
        IssCertificate(P=[[np.nan, 0.0], [0.0, 1.0]], phi=0.5, psi=2.0, epsilon=0.1,
                       lmi_max_eig=-1.0)
