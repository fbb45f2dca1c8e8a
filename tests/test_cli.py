import json

import numpy as np
import pytest

from alssnn.cli import main
from alssnn.control import ratio_stats, rmse, rmse_split
from alssnn.dataio import Dataset, SplitSpec, load_csv, save_csv, split
from alssnn.linear_id import LinearSS
from alssnn.models import AlSsnnModel, GrSsnnModel, load_model, save_model
from alssnn.nets import Equilibrium, Mlp


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


# ---------------------------------------------------------------- identify

def test_identify_lti_outputs(ws):
    model = load_model(str(ws["lti"]) + ".model.json")
    assert isinstance(model, LinearSS)
    rep = read_json(str(ws["lti"]) + ".report.json")
    assert rep["family"] == "lti"
    assert rep["config"]["order"] == 2
    assert rep["rmse_train"] > 0
    assert rep["spectral_radius"] < 1.0


def test_identify_al_outputs(ws):
    model = load_model(str(ws["al"]) + ".model.json")
    assert isinstance(model, AlSsnnModel)
    rep = read_json(str(ws["al"]) + ".report.json")
    assert rep["family"] == "al-ssnn"
    assert rep["report"]["config"]["gamma"] == 1.0
    assert rep["report"]["final_loss"] <= rep["report"]["init_loss"]
    assert "g_mean" in rep["train_ratios"] and "h_mean" in rep["train_ratios"]
    assert "wall_time_s" not in rep["report"]  # timing is opt-in


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


def test_evaluate_split(ws, tmp_path):
    out = tmp_path / "evs"
    assert main(["evaluate", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "--split", "0.5", "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    assert "rmse_train" in res and "rmse_test" in res
    assert res["ratios"]["partition"] == "test"


def test_evaluate_split_ratios_restart_the_test_half(ws, tmp_path):
    # the (test) ratios come from a free run of the test half alone,
    # restarted at x(0) = 0, while rmse_test continues the one free run over
    # the whole record
    out = tmp_path / "evr"
    model_path = str(ws["al"]) + ".model.json"
    assert main(["evaluate", "--model", model_path, "--data", str(ws["wh"]),
                 "--split", "0.5", "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    model, ds = load_model(model_path), load_csv(ws["wh"])
    _, test_half = split(ds, SplitSpec(0.5))
    assert res["ratios"] == {"partition": "test", **ratio_stats(model, test_half).as_dict()}
    assert res["rmse_test"] == rmse_split(model, ds, 0.5)[1] != rmse(model, test_half)


def test_evaluate_lti_has_no_ratios(ws, tmp_path):
    out = tmp_path / "evl"
    assert main(["evaluate", "--model", str(ws["lti"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    res = read_json(str(out) + ".json")
    assert "ratios" not in res


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
    obj["dims"]["n_g"] += 1
    return "dims.n_g"


@pytest.mark.parametrize("breakage", ["array_not_fitting_dims", "missing_dims_key",
                                      "activation_not_a_string", "flag_as_a_string",
                                      "width_not_matching_dims"])
def test_evaluate_malformed_model_exit_2(ws, tmp_path, capsys, breakage):
    family = "lti" if breakage in ("array_not_fitting_dims", "missing_dims_key") else "al"
    obj = read_json(str(ws[family]) + ".model.json")
    field = _break_model(obj, breakage)
    bad = tmp_path / "bad.model.json"
    bad.write_text(json.dumps(obj))
    rc = main(["evaluate", "--model", str(bad), "--data", str(ws["wh"]),
               "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err


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
        assert f"record has {p + 1} output(s), model has {p}" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------- closedloop

def test_closedloop_outputs(ws, tmp_path):
    out = tmp_path / "cl"
    assert main(["closedloop", "--model", str(ws["al"]) + ".model.json",
                 "--data", str(ws["wh"]), "-o", str(out)]) == 0
    summary = read_json(str(out) + ".json")
    assert summary["n_steps"] == 400
    assert summary["diverged"] is False
    assert summary["epsilon"] >= summary["max_omega_norm"]
    lines = (tmp_path / "cl.csv").read_text().splitlines()
    assert lines[0] == "t,v1,y1,lin_norm,omega_norm"
    assert len(lines) == 401


def test_closedloop_rejects_non_al(ws, tmp_path, capsys):
    rc = main(["closedloop", "--model", str(ws["lti"]) + ".model.json",
               "--data", str(ws["wh"]), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "requires an al-ssnn model" in capsys.readouterr().err


def test_closedloop_channel_mismatch(ws, tmp_path, capsys):
    pp = tmp_path / "pp.csv"
    assert main(["gen-data", "prey-predator", "--n", "50", "-o", str(pp)]) == 0
    rc = main(["closedloop", "--model", str(ws["al"]) + ".model.json",
               "--data", str(pp), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "input channels" in capsys.readouterr().err


def two_output_record(tmp_path):
    """A record with the AL model's one input and two outputs."""
    data = tmp_path / "two-out.csv"
    u = np.random.default_rng(1).normal(size=(300, 1))
    save_csv(Dataset(u=u, y=np.zeros((300, 2))), data)
    return data


def test_closedloop_output_count_mismatch_exit_2(ws, tmp_path, capsys):
    data = two_output_record(tmp_path)
    rc = main(["closedloop", "--model", str(ws["al"]) + ".model.json",
               "--data", str(data), "-o", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"record {data} has 2 output channels, model expects 1" in err
    assert not (tmp_path / "x.json").exists()


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


def certify_zero_net_model(tmp_path, a):
    """Run certify on x+ = a x + u with zero nets; returns the exit code."""
    lin = LinearSS(A=np.array([[a]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    zero1 = Mlp(W_in=np.zeros((1, 1)), b_in=np.zeros(1),
                W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    zero2 = Mlp(W_in=np.zeros((1, 2)), b_in=np.zeros(1),
                W_out=np.zeros((1, 1)), b_out=np.zeros(1))
    model = AlSsnnModel(lin=lin, h_net=zero1, g_net=zero2,
                        eq=Equilibrium(x_e=np.zeros(1), u_e=np.zeros(1)))
    mpath = tmp_path / "bad.model.json"
    save_model(model, mpath)
    rng = np.random.default_rng(0)
    save_csv(Dataset(u=rng.normal(size=(30, 1)) * 0.01,
                     y=rng.normal(size=(30, 1)) * 0.01), tmp_path / "d.csv")
    return main(["certify", "--model", str(mpath), "--data", str(tmp_path / "d.csv"),
                 "-o", str(tmp_path / "c")])


def test_certify_unstable_model_exit_3(tmp_path, capsys):
    assert certify_zero_net_model(tmp_path, 1.1) == 3
    assert "not Schur stable" in capsys.readouterr().err


def test_certify_infeasible_model_exit_3(tmp_path, capsys):
    # Schur stable, but no grid phi lies below 1 - a^2 = 2e-6
    assert certify_zero_net_model(tmp_path, 0.999999) == 3
    err = capsys.readouterr().err
    assert "no (P, phi)" in err and "lmi_max_eig:" in err
    assert not (tmp_path / "c.certificate.json").exists()


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


@pytest.mark.parametrize("content", [b'{"steps": "\xff"}', b"[" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
def test_run_malformed_pipeline_file_exit_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert main(["identify"]) == 1  # missing required arguments
    assert main(["frobnicate"]) == 1  # unknown subcommand
    err = capsys.readouterr().err
    assert "usage:" in err


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ALSSNN_THREADS", "abc")
    assert main(["gen-data", "wh-synthetic", "--n", "50",
                 "-o", str(tmp_path / "a.csv")]) == 1
    assert "ALSSNN_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("ALSSNN_THREADS", "0")
    assert main(["gen-data", "wh-synthetic", "--n", "50",
                 "-o", str(tmp_path / "a.csv")]) == 1
    monkeypatch.setenv("ALSSNN_THREADS", "2")
    assert main(["gen-data", "wh-synthetic", "--n", "50",
                 "-o", str(tmp_path / "a.csv")]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert "alssnn" in capsys.readouterr().out
