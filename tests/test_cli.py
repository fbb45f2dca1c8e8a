import json
from pathlib import Path

import numpy as np
import pytest

from alssnn import cli, models, training
from alssnn.cli import main
from alssnn.control import (estimate_epsilon, ratio_stats, rmse, rmse_split,
                             simulate_closed_loop)
from alssnn.dataio import Dataset, SplitSpec, load_csv, save_csv, split
from alssnn.errors import DataError
from alssnn.linear_id import LinearSS
from alssnn.models import AlSsnnModel, GrSsnnModel, load_model, save_model, simulate
from alssnn.nets import Equilibrium, Mlp, mlp_forward_batch


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: one small dataset and one model per family."""
    root = tmp_path_factory.mktemp("cliws")
    wh = root / "wh.csv"
    assert main(["gen-data", "wh-synthetic", "--n", "400", "--seed", "0",
                 "-o", str(wh)]) == 0
    lti = root / "lti"
    assert main(["identify", "lti", "--data", str(wh), "--order", "2",
                 "-o", str(lti)]) == 0
    al = root / "al"
    assert main(["identify", "al-ssnn", "--data", str(wh), "--order", "2",
                 "--nh", "2", "--ng", "2", "--iters", "3", "-o", str(al)]) == 0
    gr = root / "gr"
    assert main(["identify", "gr-ssnn", "--data", str(wh), "--order", "2",
                 "--nf", "2", "--iters", "3", "-o", str(gr)]) == 0
    return {"root": root, "wh": wh, "lti": lti, "al": al, "gr": gr}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- gen-data

def test_gen_data_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "pp.csv"
    assert main(["gen-data", "prey-predator", "--n", "60", "-o", str(out)]) == 0
    assert out.exists()
    meta = read_json(tmp_path / "pp.meta.json")
    assert meta["generator"] == "prey-predator"
    assert meta["n_samples"] == 60
    assert meta["seed"] == 0
    assert meta["normalized"] is False
    assert meta["source"]["system"] == "prey-predator"
    header = out.read_text().splitlines()[0]
    assert header == "t,u1,u2,y1"


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["gen-data", "wh-synthetic", "--n", "200", "--seed", "5",
                     "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


def test_gen_data_normalize(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["gen-data", "wh-synthetic", "--n", "300", "--normalize",
                 "-o", str(out)]) == 0
    ds = load_csv(out)
    assert abs(np.mean(ds.y)) < 1e-12
    assert np.std(ds.y) == pytest.approx(1.0)
    meta = read_json(tmp_path / "n.meta.json")
    assert meta["normalized"] is True
    assert "y_mean" in meta["normalization"]


@pytest.mark.parametrize("flag, value, rc, message", [
    ("--noise-std", "nan", 2, "noise_std must be finite"),
    ("--input-std", "inf", 2, "input std must be finite"),
    ("--input-std", "1e9", 3, "front block diverged at step 1"),
])
def test_gen_data_wh_bad_input_exits_without_writing(tmp_path, capsys, flag, value, rc,
                                                     message):
    out = tmp_path / "wh.csv"
    assert main(["gen-data", "wh-synthetic", "--n", "400", flag, value,
                 "-o", str(out)]) == rc
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [".", ""])
def test_gen_data_out_without_file_name_exit_2_before_generating(tmp_path, capsys,
                                                                  monkeypatch, out):
    def generate(*args, **kwargs):
        raise AssertionError("generated before the output path was checked")

    monkeypatch.setattr(cli, "generate_wh", generate)
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "wh-synthetic", "--n", "400", "-o", out]) == 2
    err = capsys.readouterr().err
    assert f"output path {out!r} names no file" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- identify

def test_identify_lti_outputs(ws):
    model = load_model(str(ws["lti"]) + ".model.json")
    assert isinstance(model, LinearSS)
    rep = read_json(str(ws["lti"]) + ".report.json")
    assert rep["family"] == "lti"
    assert rep["config"]["order"] == 2
    assert rep["rmse_train"] > 0
    assert rep["spectral_radius"] < 1.0


def test_identify_creates_the_output_directory(ws, tmp_path):
    out = tmp_path / "new" / "sub" / "lti"
    assert main(["identify", "lti", "--data", str(ws["wh"]), "--order", "2",
                 "-o", str(out)]) == 0
    assert load_model(str(out) + ".model.json").n_states == 2
    assert read_json(str(out) + ".report.json")["family"] == "lti"


def test_identify_al_outputs(ws):
    model = load_model(str(ws["al"]) + ".model.json")
    assert isinstance(model, AlSsnnModel)
    rep = read_json(str(ws["al"]) + ".report.json")
    assert rep["family"] == "al-ssnn"
    assert rep["report"]["config"]["gamma"] == 1.0
    assert rep["report"]["final_loss"] <= rep["report"]["init_loss"]
    assert "g_mean" in rep["train_ratios"] and "h_mean" in rep["train_ratios"]
    assert "wall_time_s" not in rep["report"]  # timing is opt-in


def test_identify_record_timing_opt_in(ws, tmp_path):
    # wall time is written only on request; the rest of the report is the same
    reports = []
    for flags in ([], ["--record-timing"]):
        out = tmp_path / f"t{len(flags)}"
        assert main(["identify", "gr-ssnn", "--data", str(ws["wh"]), "--order", "2",
                     "--nf", "2", "--iters", "2", "-o", str(out), *flags]) == 0
        reports.append(read_json(str(out) + ".report.json")["report"])
    untimed, timed = reports
    assert "wall_time_s" not in untimed and timed.pop("wall_time_s") > 0
    assert timed == untimed


def test_identify_lti_record_timing_opt_in(ws, tmp_path):
    # the LTI fit is timed as AL and GR training is; its report is flat, so
    # the wall time sits at the top level
    reports = []
    for flags in ([], ["--record-timing"]):
        out = tmp_path / f"t{len(flags)}"
        assert main(["identify", "lti", "--data", str(ws["wh"]), "--order", "2",
                     "-o", str(out), *flags]) == 0
        reports.append(read_json(str(out) + ".report.json"))
    untimed, timed = reports
    assert "wall_time_s" not in untimed and timed.pop("wall_time_s") > 0
    assert timed == untimed


def test_identify_gr_outputs(ws):
    model = load_model(str(ws["gr"]) + ".model.json")
    assert isinstance(model, GrSsnnModel)
    rep = read_json(str(ws["gr"]) + ".report.json")
    assert "f_mean" in rep["train_ratios"]
    assert "g_mean" not in rep["train_ratios"]


def test_identify_deterministic_bytes(ws, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
            "--nh", "2", "--ng", "2", "--iters", "2"]
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    m1 = (tmp_path / "r1.model.json").read_bytes()
    m2 = (tmp_path / "r2.model.json").read_bytes()
    assert m1 == m2
    r1 = (tmp_path / "r1.report.json").read_bytes()
    r2 = (tmp_path / "r2.report.json").read_bytes()
    assert r1 == r2


def test_identify_gamma_sweep(ws, tmp_path):
    out = tmp_path / "sweep"
    assert main(["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
                 "--nh", "2", "--ng", "2", "--iters", "2",
                 "--gamma", "0.1,10", "-o", str(out)]) == 0
    assert (tmp_path / "sweep.gamma-0.1.model.json").exists()
    assert (tmp_path / "sweep.gamma-10.model.json").exists()
    sweep = read_json(tmp_path / "sweep.sweep.json")
    assert sweep["gammas"] == [0.1, 10.0]
    assert len(sweep["entries"]) == 2
    assert all("g_ratio_mean" in e for e in sweep["entries"])


@pytest.mark.parametrize("gammas, first, second", [
    ("0.1234567,0.1234568", "0.1234567", "0.1234568"), ("1,1", "1.0", "1.0")])
def test_identify_gammas_sharing_a_file_name_exit_2(ws, tmp_path, capsys, gammas,
                                                     first, second):
    # both would write <out>.gamma-<value:g>.*, so the first model would be lost
    rc = main(["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
               "--nh", "2", "--ng", "2", "--iters", "2", "--gamma", gammas,
               "-o", str(tmp_path / "sweep")])
    assert rc == 2
    assert f"--gamma values {first} and {second}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # refused before any training


def test_identify_bad_gamma(ws, tmp_path, capsys):
    rc = main(["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
               "--gamma", "abc", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "--gamma expects" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "1,nan"])
def test_identify_non_finite_gamma_exit_2(ws, tmp_path, capsys, gamma):
    rc = main(["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
               "--nh", "2", "--ng", "2", "--iters", "3", "--gamma", gamma,
               "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "gamma must be finite and non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--train-frac", "0", "train fraction must lie in (0, 1], got 0.0"),
    ("--gamma", ",", "--gamma expects at least one value, got ','"),
])
def test_identify_bad_option_values_exit_2(ws, tmp_path, capsys, flag, value, message):
    rc = main(["identify", "al-ssnn", "--data", str(ws["wh"]), "--order", "2",
               flag, value, "-o", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family", ["lti", "al-ssnn"])
def test_identify_all_zero_inputs_exit_3(tmp_path, capsys, family):
    # no input moves, so the linear initializer's FIR fit has nothing to regress on
    data = tmp_path / "zero.csv"
    save_csv(Dataset(u=np.zeros((200, 1)), y=np.random.default_rng(0).normal(size=(200, 1))),
             data)
    rc = main(["identify", family, "--data", str(data), "--order", "2", "--iters", "2",
               "-o", str(tmp_path / "m")])
    assert rc == 3
    assert capsys.readouterr().err == "error: FIR regressor is identically zero\n"
    assert not (tmp_path / "m.model.json").exists()


def big_input_record(path):
    """A stable plant (spectral radius 0.87) driven by inputs of std 1e7,
    whose state leaves the divergence bound 1e8 at step 57."""
    u = 1e7 * np.random.default_rng(2).normal(size=(1000, 1))
    A, B, C = np.array([[0.9, 0.2], [-0.2, 0.8]]), np.array([5.0, 3.0]), np.array([1.0, 0.5])
    x, y = np.zeros(2), np.empty((1000, 1))
    for k in range(1000):
        y[k] = C @ x
        x = A @ x + B * u[k, 0]
    save_csv(Dataset(u=u, y=y), path)


@pytest.mark.parametrize("family", ["lti", "al-ssnn", "gr-ssnn"])
def test_identify_inputs_past_the_bound_exit_3(tmp_path, capsys, family):
    # the linear initializer's own runs meet the bound, so each family stops
    # at the step where the model's free run on the training half leaves it
    data = tmp_path / "big.csv"
    big_input_record(data)
    rc = main(["identify", family, "--data", str(data), "--order", "2", "--iters", "3",
               "-o", str(tmp_path / "m")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: the free run on {data}:train diverged at step 57\n"
    assert not (tmp_path / "m.model.json").exists()


def test_identify_stops_at_lambda_max_with_a_strict_json_report(tmp_path, capsys,
                                                                tanh_record):
    # lambda used to overflow to inf: a leaked RuntimeWarning (an error in
    # this suite) and Infinity, which is not JSON, in the report
    data = tmp_path / "r.csv"
    save_csv(tanh_record, data)
    assert main(["identify", "al-ssnn", "--data", str(data), "--order", "2", "--nh", "1",
                 "--ng", "1", "--gamma", "0.1", "--iters", "400", "--seed", "3",
                 "--train-frac", "1", "-o", str(tmp_path / "m")]) == 0
    assert "stop=lambda_max" in capsys.readouterr().out

    def refuse(name):
        raise AssertionError(f"{name} in the report")
    text = (tmp_path / "m.report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=refuse)["report"]
    assert report["stop_reason"] == "lambda_max" and report["n_iterations"] < 400


@pytest.mark.parametrize("argv", [
    ["identify", "al-ssnn", "--order", "2", "--seed", "-1"],
    ["identify", "gr-ssnn", "--order", "2", "--seed", "-3"],
    ["gen-data", "wh-synthetic", "--n", "300", "--seed", "-1"],
], ids=["al", "gr", "gen-data"])
def test_negative_seed_exit_2_before_any_fit(ws, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(training, "_linear_fit", lambda *a, **k: pytest.fail("fitted"))
    data = [] if argv[0] == "gen-data" else ["--data", str(ws["wh"])]
    assert main([*argv, *data, "-o", str(tmp_path / "out.csv")]) == 2
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- evaluate

def test_evaluate_whole_record(ws, tmp_path):
    out = tmp_path / "ev"
    assert main(["evaluate", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    assert res["family"] == "al-ssnn"
    assert res["rmse"] > 0
    assert res["ratios"]["partition"] == "all"
    lines = (tmp_path / "ev.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("rmse,") for line in lines)
    # every line ends in CRLF, as in the record CSV, and a cell is its value's repr
    raw = (tmp_path / "ev.csv").read_bytes().split(b"\r\n")
    assert raw.pop() == b"" and not any(b"\r" in s or b"\n" in s for s in raw)
    assert f"rmse,{res['rmse']!r}" in lines


def test_evaluate_split(ws, tmp_path):
    out = tmp_path / "evs"
    assert main(["evaluate", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "--split", "0.5", "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    assert "rmse_train" in res and "rmse_test" in res
    assert res["ratios"]["partition"] == "test"


def test_evaluate_split_ratios_continue_the_free_run(ws, tmp_path):
    # the (test) ratios are taken on rows k.. of the one free run over the
    # whole record, the run rmse_test is scored on, not on a free run of
    # the test half restarted at x(0) = 0
    out = tmp_path / "evr"
    model_path = str(ws["al"]) + ".model.json"
    assert main(["evaluate", "--model", model_path, "--data", str(ws["wh"]),
                 "--split", "0.5", "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    model, ds = load_model(model_path), load_csv(ws["wh"])
    k = SplitSpec(0.5).index(ds.n_samples)
    X, U = simulate(model, ds.u).x[k:-1], ds.u[k:]
    dens = np.linalg.norm(X @ model.lin.A.T + U @ model.lin.B.T, axis=1)
    g = np.linalg.norm(mlp_forward_batch(model.g_net, np.hstack([X, U])), axis=1) / dens
    h = np.linalg.norm(mlp_forward_batch(model.h_net, X @ model.lin.C.T), axis=1) / dens
    ratios = res["ratios"]
    assert (ratios["partition"], ratios["n_steps"], ratios["n_excluded"]) == (
        "test", ds.n_samples - k, 0)
    assert [ratios[key] for key in ("g_mean", "g_max", "h_mean", "h_max")] == pytest.approx(
        [g.mean(), g.max(), h.mean(), h.max()], rel=1e-12)
    _, test_half = split(ds, SplitSpec(0.5))
    assert ratios["g_mean"] != ratio_stats(model, test_half).g_mean
    assert res["rmse_test"] == rmse_split(model, ds, 0.5)[1] != rmse(model, test_half)


def test_evaluate_lti_has_no_ratios(ws, tmp_path):
    out = tmp_path / "evl"
    assert main(["evaluate", "--model", str(ws["lti"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    assert "ratios" not in res


@pytest.mark.parametrize("command", ["evaluate", "closedloop"])
@pytest.mark.parametrize("victim", ["data", "model"])
def test_output_over_an_input_exit_2(ws, tmp_path, capsys, command, victim):
    # -o <data stem> would write <stem>.csv over the data and -o <model
    # stem> <stem>.json over the model; both are refused before any output
    data, model = tmp_path / "rec.csv", tmp_path / "m.model.json"
    data.write_bytes(ws["wh"].read_bytes())
    model.write_bytes((ws["root"] / "al.model.json").read_bytes())
    before = {p: p.read_bytes() for p in (data, model)}
    out, hit = (tmp_path / "rec", data) if victim == "data" else (tmp_path / "m.model", model)
    assert main([command, "--model", str(model), "--data", str(data), "-o", str(out)]) == 2
    assert f"output {hit} would overwrite an input" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in (data, model)} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)


def test_identify_output_over_its_data_exit_2(ws, tmp_path, capsys):
    data = tmp_path / "d.report.json"
    data.write_bytes(ws["wh"].read_bytes())
    assert main(["identify", "lti", "--data", str(data), "--order", "2",
                 "-o", str(tmp_path / "d")]) == 2
    assert "would overwrite an input" in capsys.readouterr().err
    assert data.read_bytes() == ws["wh"].read_bytes()


def test_evaluate_missing_model_exit_2(ws, tmp_path, capsys):
    rc = main(["evaluate", "--model", str(tmp_path / "nope.json"),
               "--data", str(ws["wh"]), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _break_model(obj, breakage):
    """Damage a model file's object; returns the field the error must name."""
    if breakage == "array_not_fitting_dims":
        obj["A"] = [[1, 2]]
        return "'A'"
    if breakage == "missing_dims_key":
        del obj["dims"]["n"]
        return "dims.n"
    if breakage == "activation_not_a_string":
        obj["h_net"]["activation"] = [1]
        return "h_net"
    if breakage == "flag_as_a_string":
        obj["c_frozen"] = "false"
        return "c_frozen"
    if breakage == "flag_false":   # C is never a parameter: only true loads
        obj["c_frozen"] = False
        return "c_frozen"
    if breakage in ("nan_entry", "entry_past_float_range"):   # JSON reads 1e400 as inf
        obj["A"][0][0] = float("nan") if breakage == "nan_entry" else "1e400"
        return "model file: field 'A' has non-finite entries"
    obj["dims"]["n_g"] += 1
    return "dims.n_g"


@pytest.mark.parametrize("breakage", ["array_not_fitting_dims", "missing_dims_key",
                                      "activation_not_a_string", "flag_as_a_string",
                                      "flag_false", "width_not_matching_dims", "nan_entry",
                                      "entry_past_float_range"])
def test_evaluate_malformed_model_exit_2(ws, tmp_path, capsys, breakage):
    family = "lti" if breakage in ("array_not_fitting_dims", "missing_dims_key") else "al"
    obj = read_json(str(ws[family]) + ".model.json")
    field = _break_model(obj, breakage)
    bad = tmp_path / "bad.model.json"
    bad.write_text(json.dumps(obj).replace('"1e400"', "1e400"))
    rc = main(["evaluate", "--model", str(bad), "--data", str(ws["wh"]),
               "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err


@pytest.mark.parametrize("content, message", [
    ("", "empty file"), ("t,u1,y1\n0,1,2\n", "need at least 2 data rows, got 1")])
def test_evaluate_record_without_two_rows_exit_2(ws, tmp_path, capsys, content, message):
    short = tmp_path / "short.csv"
    short.write_text(content)
    rc = main(["evaluate", "--model", str(ws["al"]) + ".model.json",
               "--data", str(short), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {short}: {message}\n"
    assert list(tmp_path.iterdir()) == [short]


def test_evaluate_non_uniform_time_exit_2(ws, tmp_path, capsys):
    bad = tmp_path / "jump.csv"
    bad.write_text("t,u1,y1\n0,1,2\n1,1,2\n5,1,2\n2,1,2\n")
    rc = main(["evaluate", "--model", str(ws["al"]) + ".model.json",
               "--data", str(bad), "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 4" in err


def test_evaluate_non_utf8_data_exit_2(ws, tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"t,u1,y1\n0,1,2\n1,1,2\n2,\xe9,2\n")
    rc = main(["evaluate", "--model", str(ws["al"]) + ".model.json",
               "--data", str(bad), "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 4: not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("p", [1, 2])
def test_evaluate_output_count_mismatch_exit_2(ws, tmp_path, capsys, p):
    # a p-output model on a record with p + 1 outputs and the same input
    model = str(ws["al"]) + ".model.json"
    if p == 2:
        model = tmp_path / "lti2.model.json"
        save_model(LinearSS(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.eye(2)), model)
    u = np.random.default_rng(0).normal(size=(50, 1))
    data = tmp_path / "wide.csv"
    save_csv(Dataset(u=u, y=np.zeros((50, p + 1))), data)
    for split in ([], ["--split", "0.5"]):
        rc = main(["evaluate", "--model", str(model), "--data", str(data), *split,
                   "-o", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"record {data} has {p + 1} output channels, model expects {p}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("family", ["al", "lti"])
def test_evaluate_input_count_mismatch_names_the_record(ws, tmp_path, capsys, family):
    data = tmp_path / "two_in.csv"
    rng = np.random.default_rng(2)
    save_csv(Dataset(u=rng.normal(size=(300, 2)), y=np.zeros((300, 1))), data)
    for split in ([], ["--split", "0.5"]):
        rc = main(["evaluate", "--model", str(ws[family]) + ".model.json",
                   "--data", str(data), *split, "-o", str(tmp_path / "x")])
        assert rc == 2
        assert (f"error: record {data} has 2 input channels, model expects 1\n"
                == capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("family", ["al", "gr", "lti"])
def test_evaluate_free_runs_the_model_once(ws, tmp_path, monkeypatch, family):
    # the RMSEs and the ratios are all scored on one free run
    runs = []
    engine = models._step_engine

    def counted(*args, **kwargs):
        runs.append(args[-1])
        return engine(*args, **kwargs)

    monkeypatch.setattr(models, "_step_engine", counted)
    for split in ([], ["--split", "0.5"]):
        runs.clear()
        assert main(["evaluate", "--model", str(ws[family]) + ".model.json",
                     "--data", str(ws["wh"]), *split, "-o", str(tmp_path / "x")]) == 0
        assert runs == ["input"]


# ---------------------------------------------------------------- closedloop

def test_closedloop_outputs(ws, tmp_path):
    out = tmp_path / "cl"
    assert main(["closedloop", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    summary = read_json(str(out) + ".json")
    assert summary["n_steps"] == 400
    assert summary["diverged"] is False
    assert summary["epsilon"] >= summary["max_omega_norm"]
    # the table holds [k*dt, v, y, lin_norm, |omega|] bit for bit, CRLF after every line
    lines = (tmp_path / "cl.csv").read_bytes().decode("ascii").split("\r\n")
    assert lines.pop() == "" and not any("\r" in line or "\n" in line for line in lines)
    assert lines[0] == "t,v1,y1,lin_norm,omega_norm"
    assert len(lines) == 401
    ds = load_csv(ws["wh"])
    record = simulate_closed_loop(load_model(str(ws["al"]) + ".model.json"), ds.u)
    want = np.column_stack([[k * ds.dt for k in range(400)], record.v, record.y,
                            record.lin_norm, np.linalg.norm(record.omega, axis=1)])
    got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert got.tobytes() == want.tobytes()


def test_closedloop_rejects_non_al(ws, tmp_path, capsys):
    rc = main(["closedloop", "--model", str(ws["lti"]) + ".model.json",
               "--data", str(ws["wh"]), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "requires an al-ssnn model" in capsys.readouterr().err


def two_output_record(tmp_path):
    """A record with the AL model's one input and two outputs."""
    data = tmp_path / "two-out.csv"
    u = np.random.default_rng(1).normal(size=(300, 1))
    save_csv(Dataset(u=u, y=np.zeros((300, 2))), data)
    return data


# ---------------------------------------------------------------- record fit

# The library entries that take a model and a record, each called on a record
RECORD_ENTRIES = {
    "residuals": lambda model, ds: training.residuals(model, ds, 1.0),
    "jacobian_bptt": lambda model, ds: training.jacobian_bptt(model, ds, 1.0),
    "rmse": rmse,
    "rmse_split": lambda model, ds: rmse_split(model, ds, 0.5),
    "ratio_stats": ratio_stats,
    "estimate_epsilon": lambda model, ds: estimate_epsilon(model, [ds]),
}


@pytest.mark.parametrize("extra", ["input", "output"])
@pytest.mark.parametrize("entry", [*RECORD_ENTRIES, "evaluate", "closedloop", "certify"])
def test_every_entry_refuses_a_record_that_does_not_fit(ws, tmp_path, capsys, entry, extra):
    # a 20-sample record with one channel more than the model's one input
    # and one output: every entry refuses it with the one message
    data = tmp_path / f"two-{extra[:-3]}.csv"   # two-in.csv, two-out.csv
    rng = np.random.default_rng(3)
    save_csv(Dataset(u=rng.normal(size=(20, 1 + (extra == "input"))),
                     y=rng.normal(size=(20, 1 + (extra == "output")))), data)
    message = f"record {data} has 2 {extra} channels, model expects 1"
    model = str(ws["al"]) + ".model.json"
    if entry in RECORD_ENTRIES:
        with pytest.raises(DataError) as exc:
            RECORD_ENTRIES[entry](load_model(model), load_csv(data))
        assert str(exc.value) == message
    else:
        assert main([entry, "--model", model, "--data", str(data),
                     "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [data]


# ---------------------------------------------------------------- certify

def test_certify_outputs(ws, tmp_path):
    out = tmp_path / "cert"
    assert main(["certify", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    cert = read_json(str(out) + ".certificate.json")
    assert cert["verified"] is True
    assert cert["epsilon_source"] == "estimated"
    assert cert["radius"] == pytest.approx(
        cert["psi"] * cert["epsilon"] ** 2 / cert["phi"])
    check = read_json(str(out) + ".check.json")
    assert isinstance(check["decrement_holds"], bool)
    assert check["radius"] == cert["radius"]


def test_certify_epsilon_override_zero(ws, tmp_path):
    out = tmp_path / "cert0"
    assert main(["certify", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "--epsilon", "0", "-o", str(out)]) == 0
    cert = read_json(str(out) + ".certificate.json")
    assert cert["epsilon"] == 0.0
    assert cert["radius"] == 0.0
    assert cert["epsilon_source"] == "override"


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_certify_non_finite_epsilon_exit_2(ws, tmp_path, capsys, epsilon):
    assert main(["certify", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "--epsilon", epsilon,
                 "-o", str(tmp_path / "c")]) == 2
    assert "epsilon must be finite and non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_certify_output_count_mismatch_exit_2(ws, tmp_path, capsys):
    # every record is checked, not only the first, which drives the loops
    data = two_output_record(tmp_path)
    rc = main(["certify", "--model", str(ws["al"]) + ".model.json",
               "--data", str(ws["wh"]), str(data), "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"record {data} has 2 output channels, model expects 1" in err
    assert not (tmp_path / "x.certificate.json").exists()


def test_certify_refuses_a_diverged_driven_loop_exit_3(tmp_path, capsys):
    # g's 1e9 output gain throws the driven loop past its bound at step 2;
    # a regulation run from that escaped state would have no steps, and its
    # vacuous check would pass. --epsilon skips the open-loop run that
    # would diverge first.
    lin = LinearSS(A=np.array([[0.5, 0.1], [0.0, 0.4]]), B=np.array([[1.0], [0.5]]),
                   C=np.array([[1.0, 0.0]]))
    h = Mlp(W_in=np.ones((2, 1)), b_in=np.zeros(2), W_out=np.zeros((1, 2)),
            b_out=np.zeros(1))
    g = Mlp(W_in=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), b_in=np.zeros(2),
            W_out=1e9 * np.eye(2), b_out=np.zeros(2))
    model = AlSsnnModel(lin=lin, h_net=h, g_net=g,
                        eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1)))
    mpath, data = tmp_path / "esc.model.json", tmp_path / "d.csv"
    save_model(model, mpath)
    u = np.random.default_rng(0).normal(size=(300, 1))
    save_csv(Dataset(u=u, y=np.zeros((300, 1))), data)
    for extra in (["--epsilon", "1"], []):
        rc = main(["certify", "--model", str(mpath), "--data", str(data), *extra,
                   "-o", str(tmp_path / "c")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"the driven closed loop on {data} diverged at step 2" in err
        assert not (tmp_path / "c.check.json").exists()


def zero_net_model(tmp_path, a):
    """Save x+ = a x + u with 1-unit zero nets, pinned at 0; returns the path."""
    lin = LinearSS(A=np.array([[a]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    zero1 = Mlp(W_in=np.zeros((1, 1)), b_in=np.zeros(1),
                W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    zero2 = Mlp(W_in=np.zeros((1, 2)), b_in=np.zeros(1),
                W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    model = AlSsnnModel(lin=lin, h_net=zero1, g_net=zero2,
                        eq=Equilibrium(x_e=np.zeros(1), u_e=np.zeros(1)))
    mpath = tmp_path / "bad.model.json"
    save_model(model, mpath)
    return mpath


def certify_zero_net_model(tmp_path, a):
    """Run certify on x+ = a x + u with zero nets; returns the exit code."""
    mpath = zero_net_model(tmp_path, a)
    rng = np.random.default_rng(0)
    save_csv(Dataset(u=rng.normal(size=(30, 1)) * 0.01,
                     y=rng.normal(size=(30, 1)) * 0.01), tmp_path / "d.csv")
    return main(["certify", "--model", str(mpath), "--data", str(tmp_path / "d.csv"),
                 "-o", str(tmp_path / "c")])


@pytest.mark.parametrize("command", ["evaluate", "closedloop"])
def test_a_diverging_free_run_names_its_record(tmp_path, capsys, command):
    # x+ = 1.5 x + u leaves the bound within 200 steps; in closedloop the
    # free run is estimate_epsilon's, after the closed loop has run
    mpath, data = zero_net_model(tmp_path, 1.5), tmp_path / "r.csv"
    save_csv(Dataset(u=np.random.default_rng(0).normal(size=(200, 1)),
                     y=np.zeros((200, 1))), data)
    k = simulate(load_model(mpath), load_csv(data).u).diverged_at
    assert k is not None
    assert main([command, "--model", str(mpath), "--data", str(data),
                 "-o", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: the free run on {data} diverged at step {k}\n"


def test_certify_unstable_model_exit_3(tmp_path, capsys):
    assert certify_zero_net_model(tmp_path, 1.1) == 3
    assert "not Schur stable" in capsys.readouterr().err


def test_certify_infeasible_model_exit_3(tmp_path, capsys):
    # Schur stable, but no grid phi lies below 1 - a^2 = 2e-6
    assert certify_zero_net_model(tmp_path, 0.999999) == 3
    err = capsys.readouterr().err
    assert "no (P, phi)" in err and "lmi_max_eig:" in err
    assert not (tmp_path / "c.certificate.json").exists()


def test_certify_overflowing_lyapunov_solve_exit_3_without_warnings(tmp_path, capsys):
    # Schur stable, but A's 1e200 coupling overflows the solve's Kronecker
    # product; the all-zero record keeps every run at x = 0
    lin = LinearSS(A=np.array([[0.5, 1e200], [0.0, 0.5]]), B=np.array([[0.0], [1.0]]),
                   C=np.array([[1.0, 0.0]]))
    h = Mlp(W_in=np.ones((1, 1)), b_in=np.zeros(1), W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    g = Mlp(W_in=np.ones((1, 3)), b_in=np.zeros(1), W_out=np.zeros((2, 1)), b_out=np.zeros(2))
    save_model(AlSsnnModel(lin=lin, h_net=h, g_net=g,
                           eq=Equilibrium(x_e=np.zeros(2), u_e=np.zeros(1))),
               tmp_path / "m.json")
    save_csv(Dataset(u=np.zeros((200, 1)), y=np.zeros((200, 1))), tmp_path / "d.csv")
    assert main(["certify", "--model", str(tmp_path / "m.json"),
                 "--data", str(tmp_path / "d.csv"), "-o", str(tmp_path / "c")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: discrete Lyapunov solve failed: ") and "Warning" not in err
    assert not (tmp_path / "c.certificate.json").exists()


@pytest.mark.parametrize("command, extra", [("evaluate", []), ("closedloop", []),
                                            ("certify", []), ("certify", ["--epsilon", "0.1"])])
def test_ratios_below_the_guard_are_absent_not_fatal(tmp_path, capsys, command, extra):
    # u = 0 from x(0) = 0: every step's linear term is 0, below the ratio guard
    mpath, data = zero_net_model(tmp_path, 0.5), tmp_path / "d.csv"
    save_csv(Dataset(u=np.zeros((30, 1)), y=np.zeros((30, 1))), data)
    assert main([command, "--model", str(mpath), "--data", str(data), *extra,
                 "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    if command == "evaluate":
        ratios = read_json(tmp_path / "out.json")["ratios"]
        assert ratios == {"partition": "all", "n_steps": 30, "n_excluded": 30}
    elif command == "closedloop":
        summary = read_json(tmp_path / "out.json")
        assert (summary["omega_ratio_mean"], summary["omega_ratio_max"],
                summary["n_excluded"]) == (None, None, 30)
        assert "\nomega_ratio_mean  -\n" in out


def tiny_input_record(path):
    """A stable plant driven by inputs of std 1e-11: every linear term of a
    model fitted to it stays below the ratio guard 1e-9."""
    u = 1e-11 * np.random.default_rng(0).normal(size=(600, 1))
    save_csv(Dataset(u=u, y=simulate(LinearSS(A=[[0.8, 0.1], [-0.1, 0.7]], B=[[1.0], [0.5]],
                                              C=[[1.0, 0.0]]), u).y), path)


@pytest.mark.parametrize("family, extra", [("al-ssnn", []), ("gr-ssnn", []),
                                           ("al-ssnn", ["--gamma", "0.1,10"])])
def test_identify_ratios_below_the_guard_are_absent_not_fatal(tmp_path, capsys, family,
                                                              extra):
    data, out = tmp_path / "tiny.csv", tmp_path / "m"
    tiny_input_record(data)
    assert main(["identify", family, "--data", str(data), "--order", "2", "--nh", "2",
                 "--ng", "2", "--nf", "2", "--iters", "3", *extra, "-o", str(out)]) == 0
    suffix = ".gamma-0.1" if extra else ""
    ratios = read_json(f"{out}{suffix}.report.json")["train_ratios"]
    assert ratios == {"n_steps": 300, "n_excluded": 300}   # the training half
    printed = capsys.readouterr().out
    assert "_ratio_mean=- " in printed
    if suffix:
        assert read_json(f"{out}.sweep.json")["entries"][0]["g_ratio_mean"] is None
        assert [line.split()[2:] for line in printed.splitlines()
                if line.startswith("       0.1")] == [["-", "-"]]


@pytest.mark.parametrize("command", ["evaluate", "closedloop", "certify"])
@pytest.mark.parametrize("fields", [("h_net.w_in", "C"), ("h_net.w_out", "B"),
                                    ("g_net.w_out",)], ids=["h_in_C", "h_out_B", "g_out"])
def test_extreme_finite_weights_diverge_without_warnings(ws, tmp_path, capsys, command,
                                                         fields):
    # 1e200 weights overflow the folded maps and omega; RuntimeWarnings are
    # errors in this suite, so a leaked one would end the command in a traceback
    obj = read_json(str(ws["al"]) + ".model.json")
    for field in fields:
        *net, key = field.split(".")
        node = obj[net[0]] if net else obj
        node[key] = np.full(np.shape(node[key]), 1e200).tolist()
    model = tmp_path / "x.model.json"
    model.write_text(json.dumps(obj))
    rc = main([command, "--model", str(model), "--data", str(ws["wh"]),
               "-o", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.endswith(" diverged at step 1\n")


# ---------------------------------------------------------------- run

def test_run_pipeline(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m"
    pipeline = tmp_path / "p.json"
    pipeline.write_text(json.dumps({"steps": [
        ["gen-data", "wh-synthetic", "--n", "200", "-o", str(data)],
        ["identify", "lti", "--data", str(data), "--order", "2", "-o", str(model)],
    ]}))
    assert main(["run", str(pipeline)]) == 0
    assert (tmp_path / "m.model.json").exists()


def test_run_pipeline_continues_after_a_version_step(tmp_path, capsys):
    # --version and --help end their own step only, not the pipeline
    data = tmp_path / "d.csv"
    pipeline = tmp_path / "p.json"
    pipeline.write_text(json.dumps({"steps": [
        ["--version"],
        ["gen-data", "--help"],
        ["gen-data", "wh-synthetic", "--n", "300", "-o", str(data)],
    ]}))
    assert main(["run", str(pipeline)]) == 0
    assert data.exists()
    assert "[3/3] alssnn gen-data" in capsys.readouterr().out


def test_run_pipeline_propagates_failure(tmp_path, capsys):
    pipeline = tmp_path / "p.json"
    pipeline.write_text(json.dumps({"steps": [
        ["evaluate", "--model", "missing.json", "--data", "missing.csv",
         "-o", str(tmp_path / "x")],
    ]}))
    assert main(["run", str(pipeline)]) == 2
    assert "failed with exit code 2" in capsys.readouterr().err


def test_run_pipeline_shape_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"steps": "gen-data"}))
    assert main(["run", str(bad)]) == 2
    assert "pipeline must be" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"steps": "\xff"}', "invalid JSON"),
    (b"[" * 100_000, "invalid JSON"),
    (b'{"steps": [["run", SELF]]}', "step 1 (run "),
    (b'{"steps": [["--version"], "gen-data"]}',
     "error: pipeline step 2: must be a non-empty list of strings, got 'gen-data'\n"),
    (b'{"steps": [["--version"], []]}',
     "error: pipeline step 2: must be a non-empty list of strings, got []\n"),
    (b'{"steps": [["--version"], ["identify", 2]]}',
     "error: pipeline step 2: must be a non-empty list of strings, got ['identify', 2]\n"),
    (b'{"steps": [["--version"]], "step": []}', "error: pipeline: unknown field 'step'\n"),
], ids=["not_utf8", "nested_too_deep", "runs_itself", "step_not_a_list", "empty_step",
        "argument_not_a_string", "unknown_field"])
def test_run_malformed_pipeline_file_exit_2(tmp_path, capsys, content, message):
    # SELF stands for the pipeline's own path: a pipeline that runs itself
    # is refused before any step runs, as pipelines do not nest; a step that
    # ran, such as --version, would have printed
    bad = tmp_path / "bad.json"
    bad.write_bytes(content.replace(b"SELF", json.dumps(str(bad)).encode()))
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert main(["identify"]) == 1  # missing required arguments
    assert "usage:" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1  # unknown subcommand
    err = capsys.readouterr().err
    assert "usage:" in err and "alssnn: error: argument command" in err


GEN = ["gen-data", "wh-synthetic", "--n", "50", "-o", "{tmp}/out.csv"]
LTI = ["identify", "lti", "--data", "{wh}", "--order", "2", "-o", "{tmp}/out"]
AL = ["identify", "al-ssnn", "--data", "{wh}", "--order", "2", "--nh", "2", "--ng", "2",
      "--iters", "2", "-o", "{tmp}/out"]
EVALUATE = ["evaluate", "--model", "{lti}.model.json", "--data", "{wh}", "-o", "{tmp}/out"]
CLOSEDLOOP = ["closedloop", "--model", "{al}.model.json", "--data", "{wh}", "-o", "{tmp}/out"]
CERTIFY = ["certify", "--model", "{al}.model.json", "--data", "{wh}", "-o", "{tmp}/out"]


@pytest.mark.parametrize("argv, output, in_the_way", [
    # the output prefix lies under a regular file
    (LTI[:-1] + ["{tmp}/afile/out"], "{tmp}/afile/out", "{tmp}/afile"),
    # otherwise the output's name is taken by a directory
    (EVALUATE[:-1] + ["{tmp}/adir"], "{tmp}/adir.json", None),
    (GEN, "{tmp}/out.csv", None),
    (GEN, "{tmp}/out.meta.json", None),
    (LTI, "{tmp}/out.report.json", None),
    (LTI, "{tmp}/out.model.json", None),
    (AL, "{tmp}/out.model.json", None),
    (AL[:-2] + ["--gamma", "0.5,1", "-o", "{tmp}/out"], "{tmp}/out.sweep.json", None),
    (EVALUATE, "{tmp}/out.csv", None),
    (CLOSEDLOOP, "{tmp}/out.json", None),
    (CLOSEDLOOP, "{tmp}/out.csv", None),
    (CERTIFY, "{tmp}/out.certificate.json", None),
    (CERTIFY, "{tmp}/out.check.json", None),
], ids=["identify_prefix_under_a_file", "evaluate_json", "gen_data_csv", "gen_data_meta",
        "identify_report", "identify_lti_model", "identify_al_model", "identify_sweep",
        "evaluate_csv", "closedloop_json", "closedloop_csv", "certify_certificate",
        "certify_check"])
def test_unwritable_output_exit_2(ws, tmp_path, capsys, argv, output, in_the_way):
    # every output is checked before the first is written, so a command
    # that cannot write one of its outputs leaves no other behind
    def path(text):
        return text.format(tmp=tmp_path, **ws)
    if in_the_way is None:
        Path(path(output)).mkdir()
    else:
        Path(path(in_the_way)).write_text("")
    before = sorted(tmp_path.rglob("*"))
    rc = main([path(a) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot write {path(output)}" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_output_in_a_directory_without_write_permission_exit_2(ws, tmp_path, monkeypatch,
                                                               capsys):
    # permission is checked with the other outputs, before anything is
    # written (os.access stands in for a read-only directory, which the
    # superuser could write all the same)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != tmp_path)
    rc = main([a.format(tmp=tmp_path, **ws) for a in GEN])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path}/out.csv: " in err and "Permission denied" in err
    assert list(tmp_path.iterdir()) == []


def test_json_inputs_may_start_with_a_byte_order_mark(ws, tmp_path, capsys):
    model = tmp_path / "bom.model.json"
    plain = Path(str(ws["lti"]) + ".model.json")
    model.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for name, model_path in [("plain", plain), ("bom", model)]:
        assert main(["evaluate", "--model", str(model_path), "--data", str(ws["wh"]),
                     "-o", str(tmp_path / name)]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    pipeline = tmp_path / "bom.json"
    pipeline.write_bytes(b'\xef\xbb\xbf{"steps": [["--version"]]}')
    capsys.readouterr()
    assert main(["run", str(pipeline)]) == 0
    assert "alssnn " in capsys.readouterr().out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "alssnn" in capsys.readouterr().out


def test_help_flag(capsys):
    assert main(["identify", "--help"]) == 0
    assert "usage: alssnn identify" in capsys.readouterr().out
