"""alssnn benchmark harness.

    python3 perfbench/run.py --workload pp-train --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout. It runs rounds of set-up plus one episode of the workload
back to back for about ``--seconds`` seconds. Each phase's wall time is
rescaled to a reference core speed measured by a speed probe, and the
reported times are medians over rounds. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the machine, library
versions and every round's phase times. A traced run also writes its spans
to ``.perfbench/trace-<workload>-<seed>.jsonl``. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS reads its thread count when numpy loads, so the cap is set first. One
# thread keeps the work on one core, the core the speed probe measures.
NPROC = len(os.sched_getaffinity(0))
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_PERIOD_S = 0.05   # how often the speed probe runs during a timed phase
PROBE_REF_S = 4e-4      # probe time that defines the reference speed
PHASES = ("setup", "identify", "analyze")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_libraries():
    """(name, threads, version) of every OpenBLAS numpy and scipy bundle."""
    import scipy

    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):  # numpy's build has 64-bit integer symbols
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get is not None and config is not None:
                    get.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    found.append((Path(path).name, get(), config().decode()))
                    break
    return found


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "alssnn").glob("*.py"))


class SpeedProbe:
    """Times a fixed slice of model-step-like work.

    The slice does what a model step does: small matrix products, tanh and
    concatenation, driven from a Python loop. A core slowed by other tenants
    slows it about as much as it slows the workloads (README.md,
    Steadiness), so the probe's time says how fast the core is right now.
    Once created, the probe also runs on every SIGALRM.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.W, self.b = rng.uniform(-1, 1, (10, 4)), rng.uniform(-1, 1, 10)
        self.V = rng.uniform(-1, 1, (3, 10))
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, *_signal_args) -> None:
        W, b, V = self.W, self.b, self.V
        t0 = perf_counter()
        x = np.ones(4)
        for _ in range(60):
            x = np.concatenate([V @ np.tanh(W @ x + b), x[:1]]) * 0.5
        self.samples.append((t0, perf_counter() - t0))


def _timed(probe, fn, *args):
    """Run one phase; return (result, wall seconds, reference seconds).

    The probe runs just before and after the phase and every PROBE_PERIOD_S
    during it. Wall seconds exclude the probe's own time. Reference seconds
    are wall seconds scaled by PROBE_REF_S over the probe's speed: the
    phase's time on a core where the probe takes PROBE_REF_S. The speed is
    the mean of the fastest 90 % of the probe times, because a host stall
    that lands in a 0.4 ms probe weighs far more in the mean than it costs
    the phase.
    """
    probe.samples = []
    probe.sample()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        out = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
    probe.sample()
    wall = t1 - t0 - sum(dt for start, dt in probe.samples if t0 < start < t1)
    times = sorted(dt for _, dt in probe.samples)
    speed = statistics.fmean(times[:max(1, len(times) * 9 // 10)])
    return out, wall, wall * PROBE_REF_S / speed


def _episode(wl, state, ops, probe):
    """Identify, then analyze the fitted models; both phases timed."""
    fit, *identify = _timed(probe, wl.identify, ops, state)
    quality, *analyze = _timed(probe, wl.analyze, ops, state, fit)
    return {"identify": identify, "analyze": analyze, "quality": quality}


def measure(wl, seconds: float, tracer, workdir):
    """Run rounds of set-up plus one episode for about `seconds`.

    Each round sets up afresh and runs its episode on that set-up, so set-up
    is timed as often as the episode, at times spread over the whole run. A
    new round starts while the run would end closer to `seconds` with it
    than without it; at least one runs (two when tracing: untraced and
    traced alternate). Returns (ops, rounds).
    """
    from workloads import OpFailed, Ops

    ops = Ops()
    probe = SpeedProbe()
    rounds = []
    start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        t0 = perf_counter()
        try:
            with tracer.recording(f"setup{i}") if traced else nullcontext():
                state, *setup = _timed(probe, wl.setup, ops, workdir)
            with tracer.recording(f"episode{i}") if traced else nullcontext():
                ep = _episode(wl, state, ops, probe)
        except OpFailed:
            ep = None
        if ep is not None:
            ep.update(index=i, traced=traced, setup=setup, wall_s=perf_counter() - t0)
            if rounds:
                first = rounds[0]["quality"]
                ops.check("identify rerun", ep["quality"] == first,
                          f"rerun gave {ep['quality']}, first run {first}")
            rounds.append(ep)
        i += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / i / 2 > seconds and (tracer is None or i >= 2):
            return ops, rounds


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "alssnn" / "__init__.py").is_file():
        print(f"perfbench: no alssnn sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy

    import alssnn

    if Path(alssnn.__file__).resolve().parent != (SRC / "alssnn").resolve():
        print(f"perfbench: imported alssnn from {alssnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    blas = _blas_libraries()
    if not blas or any(threads > THREAD_CAP for _, threads, _ in blas):
        print(f"perfbench: BLAS thread cap {THREAD_CAP} not in effect: {blas}",
              file=sys.stderr)
        return 3

    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    tracer = Tracer() if args.trace else None
    try:
        ops, rounds = measure(wl, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in ops.failures:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    if not plain or (tracer is not None and not traced):
        print("perfbench: no episode completed; nothing to report", file=sys.stderr)
        return 1

    if tracer is None:
        quality = rounds[0]["quality"]
        values = {
            **{f"{phase}_s": statistics.median(r[phase][1] for r in rounds)
               for phase in PHASES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - ops.failed / ops.attempted,
            **quality,
        }
    else:
        def reference_s(r):
            return sum(r[phase][1] for phase in PHASES)

        overhead = (statistics.median(map(reference_s, traced))
                    - statistics.median(map(reference_s, plain)))
        values = per_layer_metrics(tracer, [f"setup{r['index']}" for r in traced],
                                   [f"episode{r['index']}" for r in traced], overhead)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": [{"wall_s": {phase: r[phase][0] for phase in PHASES},
                    "reference_s": {phase: r[phase][1] for phase in PHASES},
                    "round_wall_s": r["wall_s"], "traced": r["traced"]} for r in rounds],
        "nproc": NPROC, "blas_thread_cap": THREAD_CAP,
        "blas": [{"lib": name, "threads": t, "config": c} for name, t, c in blas],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _commit(), "src_lines": _src_lines(),
    }
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
