"""One command for the repo's benchmark.

    python3 perfbench/run.py --workload fleet_wave --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` repeats the workload
(set-up, then the timed phase) until ``--seconds`` have passed, checks
every repeat's output, and reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced repeats, reports the per-layer metrics
with the tracing overhead, and also runs the held-out seed once. The
last line of standard output is the result object; the line before it
is the full record (environment, every repeat, tail percentile).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"

#: Never used while sizing the workloads; run once by every traced run.
HELD_OUT_SEED = 90210
MIN_REPEATS = 3
MAX_REPEATS = 40
MIN_PAIRS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "makespan_s": "sim_s",
    "latency_p50_s": "sim_s",
    "latency_tail_s": "sim_s",
    "wan_mib": "sim_MiB",
    "failed_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_p50_s"):
        return "sim_s"
    if name.endswith("_per_s"):
        return "1/s"
    if name in ("gridftp.bytes_served_mib", "gridftp.eret_decoded_mib",
                "campaign.retransfer_mib"):
        return "sim_MiB"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_pct"):
        return "%"
    if (name.endswith(("_ratio", "_share", "_per_op", "_per_request",
                       "_per_reallocation"))):
        return "ratio"
    return "count"


def _load():
    """Import the program from this checkout (never from elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/repro under {ROOT}; run from the "
                         f"root of a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    # Every module must be loaded before the tracer wraps them.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def environment(repeats: int) -> dict:
    import numpy

    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, timeout=20,
                                 capture_output=True, text=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": (bool(status) if status is not None else None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "repeats": repeats,
    }


def repeat(workload, seed: int, tracer=None) -> dict:
    """One set-up plus one timed phase; tracing when ``tracer`` is set."""
    # perfbench modules import repro, so they load only after _load().
    from perfbench.layers import COUNTED, snapshot
    from perfbench.stats import fingerprint

    gc.collect()
    if tracer is not None:
        tracer.install(COUNTED)
    try:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        t1 = time.perf_counter()
        before = snapshot(state["tb"], state.get("camp"))
        if tracer is not None:
            tracer.reset()
            with tracer.region():
                t1 = time.perf_counter()
                outcome = workload.run(state)
                t2 = time.perf_counter()
        else:
            outcome = workload.run(state)
            t2 = time.perf_counter()
        after = snapshot(state["tb"], state.get("camp"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if outcome.check is not None:
        outcome.violations.extend(outcome.check())
    # Keep no testbed alive across repeats: peak RSS is one repeat's.
    outcome.tb = outcome.check = None
    rep = {"setup_s": t1 - t0, "wall_s": t2 - t1, "outcome": outcome,
           "fingerprint": fingerprint(outcome.records),
           "counters": (before, after)}
    if tracer is not None:
        rep["self_time"] = dict(tracer.self_time)
        rep["calls"] = dict(tracer.calls)
        rep["totals"] = dict(tracer.totals)
    return rep


def rep_failures(rep: dict) -> int:
    o = rep["outcome"]
    return min(o.operations, o.failed_ops + len(o.violations))


def simulated_metrics(outcome) -> tuple:
    from perfbench.stats import latency_tail, median

    tail, pct, n = latency_tail(outcome.latencies)
    return ({
        "makespan_s": outcome.makespan,
        "latency_p50_s": median(outcome.latencies),
        "latency_tail_s": tail,
        "wan_mib": outcome.wan_bytes / 2**20,
    }, {"percentile": pct, "samples": n})


def measure_end_to_end(workload, seed: int, seconds: float) -> tuple:
    from perfbench.stats import failure_upper_bound, median

    began = time.perf_counter()
    reps = []
    while len(reps) < MAX_REPEATS:
        reps.append(repeat(workload, seed))
        if (len(reps) >= MIN_REPEATS
                and time.perf_counter() - began >= seconds):
            break
    first = reps[0]["outcome"]
    prints = {r["fingerprint"] for r in reps}
    failed = sum(rep_failures(r) for r in reps) + (len(prints) - 1)
    attempted = sum(r["outcome"].operations for r in reps)
    sim, tail = simulated_metrics(first)
    metrics = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0),
        **sim,
        "failed_frac": failure_upper_bound(
            max(rep_failures(r) for r in reps) + (len(prints) - 1),
            first.operations),
    }
    detail = {
        "tail": tail,
        "fingerprints": sorted(prints),
        "violations": sorted({v for r in reps
                              for v in r["outcome"].violations})[:20],
        "repeats": [{"setup_s": r["setup_s"], "wall_s": r["wall_s"]}
                    for r in reps],
    }
    return metrics, attempted, failed, detail, len(reps)


def measure_per_layer(workload, seed: int, seconds: float) -> tuple:
    from perfbench.layers import layer_metrics
    from perfbench.layertrace import LAYERS, UNATTRIBUTED, LayerTracer
    from perfbench.stats import median, quartiles

    tracer = LayerTracer()
    began = time.perf_counter()
    pairs = []
    while len(pairs) < MAX_REPEATS:
        # alternate which side runs first, so drift hits both equally
        first_traced = len(pairs) % 2 == 1
        a = repeat(workload, seed, tracer if first_traced else None)
        b = repeat(workload, seed, None if first_traced else tracer)
        pairs.append((b, a) if first_traced else (a, b))
        if (len(pairs) >= MIN_PAIRS
                and time.perf_counter() - began >= seconds):
            break
    untraced = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    prints = {r["fingerprint"] for r in untraced + traced}
    held_out = repeat(workload, HELD_OUT_SEED)
    reps = untraced + traced + [held_out]
    failed = sum(rep_failures(r) for r in reps) + (len(prints) - 1)
    attempted = sum(r["outcome"].operations for r in reps)

    last = traced[-1]
    self_time = {layer: median([r["self_time"].get(layer, 0.0)
                                for r in traced])
                 for layer in LAYERS}
    untraced_wall = median([r["wall_s"] for r in untraced])
    metrics = layer_metrics(*last["counters"],
                            last["calls"], last["totals"], self_time,
                            last["outcome"].operations, untraced_wall)
    ratios = [t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs]
    q1, mid, q3 = quartiles(ratios)
    spread = q3 - q1 if len(ratios) >= 4 else max(ratios) - min(ratios)
    conclusive = mid > 0 and spread < mid
    metrics["trace.overhead_pct"] = 100.0 * max(mid, 0.0)
    metrics["trace.overhead_conclusive"] = 1.0 if conclusive else 0.0
    metrics["trace.unattributed_share"] = median(
        [r["self_time"].get(UNATTRIBUTED, 0.0) / r["wall_s"]
         for r in traced])
    detail = {
        "self_time": "span wrappers around every function of each "
                     "repro.<package>; no profiler rollup",
        "overhead": {"pairs": len(pairs), "median_pct": 100.0 * mid,
                     "spread_pct": 100.0 * spread,
                     "verdict": "conclusive" if conclusive
                     else "inconclusive"},
        "held_out_seed": HELD_OUT_SEED,
        "held_out_violations": held_out["outcome"].violations[:20],
        "fingerprints": sorted(prints),
        "violations": sorted({v for r in reps
                              for v in r["outcome"].violations})[:20],
        "repeats": [{"untraced_wall_s": u["wall_s"],
                     "traced_wall_s": t["wall_s"]} for u, t in pairs],
    }
    return metrics, attempted, failed, detail, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics, attempted, failed, detail, repeats = measure(
        workload, args.seed, args.seconds)
    unit = per_layer_unit if args.trace else END_TO_END_UNITS.get
    record = {"workload": workload.name, "why": workload.why,
              "seed": args.seed, "trace": args.trace,
              "env": environment(repeats), **detail}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
