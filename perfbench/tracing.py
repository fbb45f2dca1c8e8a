"""In-memory span tracing around alssnn's public functions.

The tracer wraps each function at every module attribute its callers look it
up by (``from .models import simulate`` binds ``training.simulate``,
``control.simulate`` and ``benchmarks.simulate`` separately), so calls the
library makes to itself are seen as well as calls from the harness. Each call
becomes a span ``[name, site, start, end, parent, run, detail]``; ``site`` is
the module whose attribute was called. ``nets.mlp_forward`` runs twice per
model step, so it is only counted, never spanned.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from alssnn import (benchmarks, control, dataio, linear_id, models, stability,
                    training)

_MODULES = {
    "benchmarks": benchmarks, "control": control, "dataio": dataio,
    "linear_id": linear_id, "models": models, "stability": stability,
    "training": training,
}

# span name -> (module, attribute) sites that callers look the function up by
SPANNED = {
    "models.simulate": [("models", "simulate"), ("training", "simulate"),
                        ("control", "simulate"), ("benchmarks", "simulate")],
    "training.train": [("training", "train")],
    "training.train_gr": [("training", "train_gr")],
    "training.lm_step": [("training", "lm_step")],
    "training.residuals": [("training", "residuals")],
    "training.jacobian_bptt": [("training", "jacobian_bptt")],
    "linear_id.linear_init": [("training", "linear_init")],
    "benchmarks.generate": [("benchmarks", "simulate_prey_predator"),
                            ("benchmarks", "generate_wh")],
    "dataio.save_csv": [("dataio", "save_csv")],
    "dataio.load_csv": [("dataio", "load_csv")],
    "control.simulate_closed_loop": [("control", "simulate_closed_loop")],
    "control.rmse_split": [("control", "rmse_split")],
    "control.ratio_stats": [("control", "ratio_stats")],
    "control.estimate_epsilon": [("control", "estimate_epsilon")],
    "stability.solve_certificate": [("stability", "solve_certificate")],
    "stability.verify": [("stability", "verify")],
    "stability.check_convergence": [("stability", "check_convergence")],
}
COUNTED = {"nets.mlp_forward": [("models", "mlp_forward"), ("control", "mlp_forward")]}

# What each span keeps from its call: samples stepped, Jacobian shape,
# acceptance, certificate order or bytes written.
_DETAIL = {
    "models.simulate": lambda args, out: len(args[1]),
    "control.simulate_closed_loop": lambda args, out: len(args[1]),
    "training.residuals": lambda args, out: args[1].n_samples,
    "training.jacobian_bptt": lambda args, out: [args[1].n_samples, *out.shape],
    "training.lm_step": lambda args, out: bool(out[2]),
    "stability.solve_certificate": lambda args, out: len(args[0]),
    "dataio.save_csv": lambda args, out: os.path.getsize(args[1]),
}

NAME, SITE, START, END, PARENT, RUN, DETAIL = range(7)


class Tracer:
    """Records spans and call counts inside `recording` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.run_id: str | None = None
        self._stack: list[int] = []

    def _span(self, name, site, fn):
        spans, stack, detail = self.spans, self._stack, _DETAIL.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, site, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if detail is not None:
                rec[DETAIL] = detail(args, out)
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.run_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def recording(self, run_id: str):
        """Patch every site and tag spans with run_id for the block, then restore."""
        saved = []
        try:
            for table, make in ((SPANNED, self._span), (COUNTED, None)):
                for name, sites in table.items():
                    for mod, attr in sites:
                        module = _MODULES[mod]
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        wrapped = (make(name, mod, fn) if make is not None
                                   else self._count(name, fn))
                        setattr(module, attr, wrapped)
            self.run_id = run_id
            yield
        finally:
            self.run_id = None
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self, run_id: str) -> dict:
        """Per span name: calls, seconds, self seconds, (site, detail, seconds)."""
        idx = [i for i, s in enumerate(self.spans) if s[RUN] == run_id]
        child = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i in idx:
            s = self.spans[i]
            t = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "details": []})
            dur = s[END] - s[START]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
            t["details"].append((s[SITE], s[DETAIL], dur))
        return out

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        keys = ("name", "site", "start", "end", "parent", "run", "detail")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            for (name, run), calls in sorted(self.counts.items()):
                fh.write(json.dumps({"name": name, "run": run, "calls": calls}) + "\n")


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "details": []}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _episode_layers(tracer: Tracer, run_id: str) -> dict:
    t = tracer.layer_totals(run_id)
    sim, res, jac, lm, cl, cert = (t.get(name, _EMPTY) for name in (
        "models.simulate", "training.residuals", "training.jacobian_bptt",
        "training.lm_step", "control.simulate_closed_loop",
        "stability.solve_certificate"))
    out = {
        "models.simulate.calls": sim["calls"],
        "models.simulate.s": sim["s"],
        "models.simulate.us_per_sample":
            _ratio(1e6 * sim["s"], sum(d for _, d, _ in sim["details"])),
        "nets.mlp_forward.calls": tracer.counts.get(("nets.mlp_forward", run_id), 0),
        "training.free_runs_per_step":
            _ratio(sum(site == "training" for site, _, _ in sim["details"]), lm["calls"]),
        "training.residuals.calls": res["calls"],
        "training.residuals.s": res["s"],
        "training.jacobian_bptt.calls": jac["calls"],
        "training.jacobian_bptt.self_s": jac["self_s"],
        "training.jacobian_bptt.us_per_sample":
            _ratio(1e6 * jac["s"], sum(d[0] for _, d, _ in jac["details"])),
        "training.jacobian_mb":
            max((d[1] * d[2] * 8 / 1e6 for _, d, _ in jac["details"]), default=0.0),
        "training.lm_step.calls": lm["calls"],
        "training.lm_step.self_s": lm["self_s"],
        "training.lm_step.accept_ratio":
            _ratio(sum(d for _, d, _ in lm["details"]), lm["calls"]),
        "linear_id.linear_init.calls": t.get("linear_id.linear_init", _EMPTY)["calls"],
        "control.simulate_closed_loop.s": cl["s"],
        "control.simulate_closed_loop.us_per_sample":
            _ratio(1e6 * cl["s"], sum(d for _, d, _ in cl["details"])),
        "stability.solve_certificate.calls": cert["calls"],
    }
    for name in ("linear_id.linear_init", "control.rmse_split", "control.ratio_stats",
                 "control.estimate_epsilon", "stability.solve_certificate",
                 "stability.verify", "stability.check_convergence"):
        out[f"{name}.s"] = t.get(name, _EMPTY)["s"]
    for n in (1, 3, 4, 6):
        out[f"stability.solve_certificate.s.n{n}"] = sum(
            dur for _, order, dur in cert["details"] if order == n)
    return out


def _setup_layers(tracer: Tracer, run_id: str) -> dict:
    t = tracer.layer_totals(run_id)
    out = {f"{name}.s": t.get(name, _EMPTY)["s"]
           for name in ("benchmarks.generate", "dataio.save_csv", "dataio.load_csv")}
    written = t.get("dataio.save_csv", _EMPTY)["details"]
    out["dataio.csv_mb"] = sum(size for _, size, _ in written) / 1e6
    return out


def per_layer_metrics(tracer: Tracer, setup_ids, episode_ids, overhead_s: float) -> dict:
    """Median over runs of each layer metric; counts repeat exactly run to run."""
    out = {}
    for ids, fn in ((setup_ids, _setup_layers), (episode_ids, _episode_layers)):
        rows = [fn(tracer, r) for r in ids]
        for key in rows[0]:
            out[key] = statistics.median(row[key] for row in rows)
    out["trace.overhead_s"] = overhead_s
    return out
