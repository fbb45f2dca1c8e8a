"""Property test: one corruption of a valid model file's JSON object either
loads the model that object describes, which is the original model whenever
the corruption left every value as it was, or raises a DataError."""

import copy
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alssnn.errors import DataError  # noqa: E402
from alssnn.linear_id import LinearSS  # noqa: E402
from alssnn.models import (AlSsnnModel, gr_model, model_from_json_dict,  # noqa: E402
                           model_to_json_dict)
from alssnn.nets import Equilibrium, Mlp  # noqa: E402


def originals():
    rng = np.random.default_rng(11)
    n, m, p = 2, 1, 1

    def net(d_in, d_out, nh):
        return Mlp(W_in=rng.normal(size=(nh, d_in)), b_in=rng.normal(size=nh),
                   W_out=rng.normal(size=(d_out, nh)), b_out=rng.normal(size=d_out))

    lin = LinearSS(A=0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n)),
                   B=rng.normal(size=(n, m)), C=rng.normal(size=(p, n)))
    al = AlSsnnModel(lin=lin, h_net=net(p, m, 3), g_net=net(n + m, n, 2),
                     eq=Equilibrium(x_e=np.zeros(n), u_e=np.zeros(m)))
    # as earlier versions wrote it, with the flag that only loads as true
    al_file = {**model_to_json_dict(al), "c_frozen": True}
    return {"al-ssnn": al_file,
            "gr-ssnn": model_to_json_dict(gr_model(lin, net(n + m, n, 2))),
            "lti": model_to_json_dict(lin)}


ORIGINALS = originals()

LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.integers(), st.floats(),
    st.text(max_size=5),
    st.sampled_from(["tanh", "lti", "gr-ssnn", "al-ssnn", "false", "1.5",
                     10**400, -(10**400), 1e308]),
)
JSON_VALUE = st.recursive(
    LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2), max_leaves=5)


def canonical(value):
    """value with JSON's number/boolean distinction kept: 2 and 2.0 compare
    equal, true and 1 do not."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (type(value).__name__, value)
    try:
        return float(value)
    except OverflowError:
        return ("int", value)


def with_defaults(obj):
    """The object as a loaded model writes it: the fields a file may leave
    out set to their defaults, and an al-ssnn file's "c_frozen": true,
    which files no longer carry, dropped."""
    obj = copy.deepcopy(obj)
    if obj.get("family") == "al-ssnn":
        obj.pop("c_frozen", None)
    for key in ("h_net", "g_net", "f_net"):
        if isinstance(obj.get(key), dict):
            obj[key].setdefault("activation", "tanh")
    return obj


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupted_model_loads_what_it_says_or_raises_data_error(data):
    family = data.draw(st.sampled_from(sorted(ORIGINALS)))
    obj = copy.deepcopy(ORIGINALS[family])
    # walk down from the root to the node to corrupt, stopping anywhere below it
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node:
        if parent is not None and data.draw(st.integers(0, 3)) == 0:
            break
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        parent, node = node, node[key]
    kind = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if kind == "replace":   # the value itself and finite numbers keep it loadable
        parent[key] = data.draw(st.one_of(JSON_VALUE, st.just(copy.deepcopy(node)),
                                          st.floats(allow_nan=False, allow_infinity=False)))
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = data.draw(JSON_VALUE)
    else:
        parent.insert(key, data.draw(JSON_VALUE))

    text = json.dumps(obj)
    try:
        model = model_from_json_dict(json.loads(text))
    except DataError as exc:
        assert str(exc).startswith("model file: "), exc
        if parent is obj and key == "c_frozen" and kind == "replace":
            assert "'c_frozen'" in str(exc), exc   # C is never a parameter
        return
    assert canonical(model_to_json_dict(model)) == canonical(with_defaults(obj)), text
