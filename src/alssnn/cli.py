"""Command-line front end tying generation, identification, evaluation,
closed-loop analysis and certification into reproducible runs.

Every command is deterministic given (flags, files, seed); reports embed the
resolved configuration. Exit codes: 0 success, 1 usage error, 2 data error
(including an output that cannot be written), 3 numerical or infeasibility
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import reprlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import (PreyPredatorParams, SinusoidalForcing, WhInputSpec,
                         default_wh_params, generate_wh, simulate_prey_predator)
from .control import (
    _free_run,
    _ratio_stats,
    _rmse,
    estimate_epsilon,
    ratio_stats,
    simulate_closed_loop,
)
from .dataio import (SplitSpec, _write_table, _write_text, load_csv, load_json, normalize,
                     save_csv, split)
from .errors import DataError, DivergenceError, NumericalError
from .linear_id import _linear_fit, default_horizon
from .models import AlSsnnModel, _check_record, _family, load_model, save_model
from .stability import check_convergence, solve_certificate, verify
from .training import TrainConfig, train, train_gr

__all__ = ["main", "build_parser"]


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _print_table(rows) -> None:
    width = max(len(k) for k, _ in [("metric", None), *rows])
    print(f"{'metric':<{width}}  value")
    print("-" * (width + 7))
    for k, v in rows:
        print(f"{k:<{width}}  {_fmt(v)}")


def _plain(obj):
    """The one JSON rule for library results: an array becomes nested lists,
    a dataclass its fields less those that are None."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: v for f in dataclasses.fields(obj)
                if (v := getattr(obj, f.name)) is not None}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=1, sort_keys=True, default=_plain) + "\n")


def _check_outputs(inputs, outputs) -> None:
    """DataError, before the command writes anything, if a path it writes
    is one of the files it reads, is a directory or cannot be created, with
    the message its write would end in: so a command that cannot write all
    of its outputs writes none of them."""
    read = {Path(p).resolve() for p in inputs}
    for out in outputs:
        path = Path(out)
        if path.resolve() in read:
            raise DataError(f"output {out} would overwrite an input of this command")
        try:
            # the nearest ancestor that exists must be a directory we may write in
            ancestor = next(a for a in path.absolute().parents if a.exists())
            if path.is_dir():
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
            if not ancestor.is_dir():
                raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(ancestor))
            if not os.access(path if path.exists() else ancestor, os.W_OK):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(out))
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc}") from exc


def _train_part(ds, train_frac: float):
    if not (0.0 < train_frac <= 1.0):
        raise DataError(f"train fraction must lie in (0, 1], got {train_frac}")
    return ds if train_frac == 1.0 else split(ds, SplitSpec(train_frac))[0]


def _parse_gammas(text: str) -> list[float]:
    try:
        vals = [float(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise DataError(f"--gamma expects a number or comma list, got {text!r}")
    if not vals:
        raise DataError(f"--gamma expects at least one value, got {text!r}")
    labels = [f"{val:g}" for val in vals]   # a sweep writes <out>.gamma-<label>.*
    for j, label in enumerate(labels):
        if (i := labels.index(label)) < j:
            raise DataError(f"--gamma values {vals[i]!r} and {vals[j]!r} would both "
                            f"write the files .gamma-{label}.*")
    return vals


# ---------------------------------------------------------------- gen-data


def cmd_gen_data(args) -> int:
    if not Path(args.out).name:   # '.', '' or '/': no file to write, nor a sidecar beside it
        raise DataError(f"gen-data: output path {args.out!r} names no file")
    meta_path = Path(args.out).with_suffix(".meta.json")
    _check_outputs([], [args.out, meta_path])
    if args.generator == "prey-predator":
        params = PreyPredatorParams() if args.dt is None else PreyPredatorParams(dt=args.dt)
        forcing = SinusoidalForcing()
        ds = simulate_prey_predator(params, forcing, args.n)
        source = {"system": args.generator, **_plain(params), "forcing": forcing}
    else:
        params = default_wh_params(noise_std=args.noise_std)
        input_spec = WhInputSpec(std=args.input_std)
        ds = generate_wh(params, input_spec, args.n, seed=args.seed)
        source = {"system": args.generator, **_plain(params), "input": input_spec}
    meta = {
        "generator": args.generator,
        "n_samples": args.n,
        "seed": args.seed,
        "dt": ds.dt,
        "normalized": bool(args.normalize),
        "source": source,
    }
    if args.normalize:
        ds, norm = normalize(ds)
        meta["normalization"] = norm
    save_csv(ds, args.out)
    _write_json(meta_path, meta)
    print(f"wrote {args.out} and {meta_path} "
          f"(N={ds.n_samples}, m={ds.n_inputs}, p={ds.n_outputs})")
    return 0


# ---------------------------------------------------------------- identify


def _lti_identify(args, ds_train) -> int:
    horizon = args.horizon if args.horizon is not None else default_horizon(args.order)
    t0 = time.perf_counter()
    lin, X = _linear_fit(ds_train, args.order, horizon)
    wall_time_s = time.perf_counter() - t0
    report = {
        "command": "identify",
        "family": "lti",
        "data": args.data,
        "train_fraction": args.train_frac,
        "config": {"order": args.order, "horizon": horizon},
        "dims": {"n": lin.n_states, "m": lin.n_inputs, "p": lin.n_outputs},
        "rmse_train": _rmse(lin, ds_train, X),
        "spectral_radius": lin.spectral_radius(),
        **({"wall_time_s": wall_time_s} if args.record_timing else {}),
    }
    _write_json(str(args.out) + ".report.json", report)
    save_model(lin, str(args.out) + ".model.json")
    print(f"lti: n={args.order} rmse_train={_fmt(report['rmse_train'])} "
          f"rho(A)={_fmt(report['spectral_radius'])}")
    print(f"wrote {args.out}.model.json and {args.out}.report.json")
    return 0


def cmd_identify(args) -> int:
    # GR has no penalty and LTI no training, so each fits once
    gammas = [0.0] if args.family != "al-ssnn" else _parse_gammas(args.gamma)
    suffixes = [f".gamma-{gamma:g}" for gamma in gammas] if len(gammas) > 1 else [""]
    outs = [str(args.out) + s + ext for s in suffixes for ext in (".report.json", ".model.json")]
    _check_outputs([args.data], outs + [str(args.out) + ".sweep.json"] * (len(gammas) > 1))
    ds_full = load_csv(args.data)
    ds_train = _train_part(ds_full, args.train_frac)

    if args.family == "lti":
        return _lti_identify(args, ds_train)

    gr = args.family == "gr-ssnn"
    configs = [TrainConfig(gamma=gamma, max_iters=args.iters, n_h=args.nh, n_g=args.ng,
                           seed=args.seed, horizon=args.horizon)
               for gamma in gammas]   # all checked up front
    sweep_rows = []
    for gamma, config, suffix in zip(gammas, configs, suffixes):
        t0 = time.perf_counter()
        if gr:
            model, rep = train_gr(ds_train, args.order, args.nf, config)
        else:
            model, rep = train(ds_train, args.order, config)
        wall_time_s = time.perf_counter() - t0
        stats = ratio_stats(model, ds_train)
        _write_json(str(args.out) + suffix + ".report.json", {
            "command": "identify",
            "family": args.family,
            "data": args.data,
            "train_fraction": args.train_frac,
            # wall time is opt-in so identical runs write identical reports
            "report": {**_plain(rep), "wall_time_s": wall_time_s} if args.record_timing else rep,
            "train_ratios": stats,
        })
        save_model(model, str(args.out) + suffix + ".model.json")
        sweep_rows.append({
            "gamma": gamma,
            "rmse_train": rep.rmse_train,
            "g_ratio_mean": stats.g_mean,
            "g_ratio_max": stats.g_max,
            "h_ratio_mean": stats.h_mean,
            "stop_reason": rep.stop_reason,
            "n_iterations": rep.n_iterations,
        })
        label, ratio = ("gr-ssnn", "f") if gr else (f"al-ssnn gamma={gamma:g}", "g")
        print(f"{label}: rmse_train={_fmt(rep.rmse_train)} "
              f"{ratio}_ratio_mean={_fmt(getattr(stats, ratio + '_mean'))} "
              f"stop={rep.stop_reason} iters={rep.n_iterations}")
    if len(gammas) > 1:
        _write_json(str(args.out) + ".sweep.json", {
            "command": "identify-sweep",
            "family": "al-ssnn",
            "data": args.data,
            "train_fraction": args.train_frac,
            "gammas": gammas,
            "entries": sweep_rows,
        })
        header = f"{'gamma':>10}  {'rmse_train':>12}  {'g_ratio_mean':>12}  {'g_ratio_max':>12}"
        print(header)
        print("-" * len(header))
        for row in sweep_rows:
            print(f"{row['gamma']:>10g}  {_fmt(row['rmse_train']):>12}  "
                  f"{_fmt(row['g_ratio_mean']):>12}  {_fmt(row['g_ratio_max']):>12}")
        print(f"wrote per-gamma model/report files and {args.out}.sweep.json")
    else:
        print(f"wrote {args.out}.model.json and {args.out}.report.json")
    return 0


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    _check_outputs([args.model, args.data], [str(args.out) + ".json", str(args.out) + ".csv"])
    model = load_model(args.model)
    ds = load_csv(args.data)
    X = _free_run(model, ds)   # the one free run every score reads
    result = {
        "command": "evaluate",
        "model": args.model,
        "data": args.data,
        "family": _family(model),
    }
    start = 0 if args.split is None else SplitSpec(args.split).index(ds.n_samples)
    if args.split is None:
        partition, result["rmse"] = "all", _rmse(model, ds, X)
    else:
        partition, result["split"] = "test", args.split
        result["rmse_train"] = _rmse(model, ds, X, slice(start))
        result["rmse_test"] = _rmse(model, ds, X, slice(start, None))
    rows = [(k, result[k]) for k in ("rmse", "rmse_train", "rmse_test") if k in result]
    if isinstance(model, AlSsnnModel):
        ratios = _plain(_ratio_stats(model, X[start:], ds.u[start:]))
        result["ratios"] = {"partition": partition, **ratios}
        rows += [(f"{k} ({partition})", v) for k, v in ratios.items()]
    _write_json(str(args.out) + ".json", result)
    _write_text(str(args.out) + ".csv", "metric,value\r\n"
                + "".join(f"{k.split(' ')[0]},{v!r}\r\n" for k, v in rows))
    _print_table(rows)
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


# ---------------------------------------------------------------- closedloop


def cmd_closedloop(args) -> int:
    _check_outputs([args.model, args.data], [str(args.out) + ".json", str(args.out) + ".csv"])
    model = load_model(args.model)
    ds = load_csv(args.data)
    _check_record(model, ds)
    record = simulate_closed_loop(model, ds.u)
    epsilon = estimate_epsilon(model, [ds], records=[record])
    summary = {
        "command": "closedloop",
        "model": args.model,
        "data": args.data,
        "n_steps": record.n_steps,
        "diverged": record.diverged,
        "diverged_at": record.diverged_at,
        "omega_ratio_mean": record.omega_ratio_mean,
        "omega_ratio_max": record.omega_ratio_max,
        "n_excluded": record.n_excluded,
        "max_omega_norm": record.max_omega_norm,
        "max_lin_norm": float(np.max(record.lin_norm)) if record.n_steps else 0.0,
        "epsilon": epsilon,
    }
    _write_json(str(args.out) + ".json", summary)
    m, p = record.v.shape[1], record.y.shape[1]
    cols = (["t"] + [f"v{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(p)]
            + ["lin_norm", "omega_norm"])
    _write_table(str(args.out) + ".csv", cols, np.column_stack([
        np.arange(record.n_steps) * ds.dt, record.v, record.y, record.lin_norm,
        np.linalg.norm(record.omega, axis=1)]))
    rows = [(k, v) for k, v in summary.items() if k not in ("command", "model", "data")]
    _print_table(rows)
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


# ---------------------------------------------------------------- certify


def cmd_certify(args) -> int:
    _check_outputs([args.model, *args.data], [str(args.out) + ".certificate.json",
                                              str(args.out) + ".check.json"])
    model = load_model(args.model)
    datasets = [load_csv(p) for p in args.data]
    for ds in datasets:
        _check_record(model, ds)
    driven = simulate_closed_loop(model, datasets[0].u)
    if driven.diverged:
        raise DivergenceError(driven.diverged_at, f"the driven closed loop on {args.data[0]} "
                              f"diverged at step {driven.diverged_at}")
    # The certificate's decrement statement is about the regulation loop
    # (v = 0), so convergence is checked on a v = 0 run started from the
    # farthest state the driven loop visited.
    x_far = driven.x[np.argmax(np.linalg.norm(driven.x, axis=1))]
    v_zero = np.zeros((datasets[0].n_samples, model.dims["m"]))
    regulation = simulate_closed_loop(model, v_zero, x0=x_far)
    if args.epsilon is not None:
        epsilon, eps_source = args.epsilon, "override"
    else:
        epsilon = estimate_epsilon(model, datasets, records=[driven, regulation])
        eps_source = "estimated"
    cert = solve_certificate(model.lin.A, epsilon)
    ok, diag = verify(cert, model.lin.A)
    conv = check_convergence(cert, regulation)
    _write_json(str(args.out) + ".certificate.json", {
        **_plain(cert),
        "model": args.model,
        "data": list(args.data),
        "epsilon_source": eps_source,
        "verified": ok,
        "p_min_eig": diag["p_min_eig"],
    })
    _write_json(str(args.out) + ".check.json", {
        "command": "certify",
        "model": args.model,
        "data": list(args.data),
        **conv,
    })
    rows = [
        ("spectral_radius(A)", model.lin.spectral_radius()),
        ("epsilon", epsilon),
        ("phi", cert.phi),
        ("psi", cert.psi),
        ("radius", cert.radius),
        ("lmi_max_eig", cert.lmi_max_eig),
        ("p_min_eig", diag["p_min_eig"]),
        ("first_entry", conv["first_entry"]),
        ("fraction_inside_after_entry", conv["fraction_inside_after_entry"]),
        ("decrement_holds", conv["decrement_holds"]),
    ]
    _print_table(rows)
    print(f"wrote {args.out}.certificate.json and {args.out}.check.json")
    return 0


# ---------------------------------------------------------------- run


def cmd_run(args) -> int:
    obj = load_json(args.pipeline)
    steps = obj.get("steps") if isinstance(obj, dict) else None
    if not isinstance(steps, list) or not steps:
        raise DataError('pipeline must be {"steps": [["gen-data", ...], ["identify", ...], '
                        '...]} with at least one step')
    for key in obj:
        if key != "steps":
            raise DataError(f"pipeline: unknown field {key!r}")
    for i, step in enumerate(steps, start=1):
        if not isinstance(step, list) or not step or not all(isinstance(a, str) for a in step):
            raise DataError(f"pipeline step {i}: must be a non-empty list of strings, "
                            f"got {reprlib.repr(step)}")
        if step[0] == "run":   # a pipeline that runs itself would never end
            raise DataError(f"pipeline step {i} ({' '.join(step)}) is a 'run' step; "
                            "pipelines do not nest")
    for i, step in enumerate(steps, start=1):
        print(f"[{i}/{len(steps)}] alssnn {' '.join(step)}")
        rc = main(step)
        if rc != 0:
            print(f"pipeline step {i} failed with exit code {rc}", file=sys.stderr)
            return rc
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alssnn",
        description="Identify feedback-linearizable neural state-space models, "
                    "analyze the linearizing loop, and certify ISS bounds.",
    )
    parser.add_argument("--version", action="version", version=f"alssnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a benchmark dataset (CSV + meta JSON)")
    p.add_argument("generator", choices=["prey-predator", "wh-synthetic"])
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=None,
                   help="prey-predator integration step (default 0.5)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale u and y channels to zero mean, unit std")
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="wh-synthetic additive output noise std")
    p.add_argument("--input-std", type=float, default=1.0,
                   help="wh-synthetic excitation std")
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("identify", help="fit a model family to a dataset")
    p.add_argument("family", choices=["lti", "gr-ssnn", "al-ssnn"])
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--order", type=int, required=True, help="state dimension n")
    p.add_argument("--nh", type=int, default=10, help="hidden units of the output-feedback net")
    p.add_argument("--ng", type=int, default=10, help="hidden units of the residual net")
    p.add_argument("--nf", type=int, default=10, help="hidden units of the gr-ssnn net")
    p.add_argument("--gamma", default="1.0",
                   help="al-ssnn penalty weight; a comma list runs a sweep")
    p.add_argument("--iters", type=int, default=300, help="max accepted+rejected iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.5,
                   help="leading fraction used for training (1 = use all)")
    p.add_argument("--horizon", type=int, default=None,
                   help="impulse-fit window of the linear initializer")
    p.add_argument("--record-timing", action="store_true",
                   help="include wall time in reports (breaks byte determinism)")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="free-run RMSE and residual-ratio report")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--split", type=float, default=None,
                   help="train fraction; one full free run scored per half, "
                        "the test half as a continuation")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("closedloop",
                       help="simulate the output-feedback linearizing loop")
    p.add_argument("--model", required=True, help="al-ssnn model JSON")
    p.add_argument("--data", required=True, help="dataset CSV providing v")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_closedloop)

    p = sub.add_parser("certify", help="solve the ISS certificate and check a run")
    p.add_argument("--model", required=True, help="al-ssnn model JSON")
    p.add_argument("--data", required=True, nargs="+",
                   help="dataset CSVs used to estimate the disturbance bound")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the estimated disturbance bound")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("run", help="replay a JSON pipeline of subcommands")
    p.add_argument("pipeline", help='JSON file: {"steps": [[subcommand, arg, ...], ...]}')
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse has printed help, the version or a usage error
        return 1 if exc.code else 0
    try:
        return int(args.func(args))
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, val in getattr(exc, "diagnostics", {}).items():
            print(f"  {key}: {val}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
