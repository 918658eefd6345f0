"""Set-up, timed passes, metrics and the result line of one benchmark run."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import hostspeed, tracing, workloads

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: batch workloads repeat passes until the time is up, at least this many.
MIN_PASSES = 3
#: spans of traced runs are written here, inside the checkout.
OUT_DIR = ".perfbench_out"


@dataclass
class Workload:
    setup: Callable
    #: (state, seconds of this pass, tracer or None) -> PassResult
    run_pass: Callable
    teardown: Callable
    #: live workloads split the time into LIVE_PASSES equal passes and
    #: have their times corrected for host steal; batch workloads repeat
    #: fixed passes until the time is up and have their times scaled to
    #: the reference host speed (see hostspeed.py).
    live: bool
    #: what one work item and one latency sample are, for the report.
    item: str
    operation: str
    quality: str


def _live_pass(state, seconds: float, tracer) -> workloads.PassResult:
    if tracer is not None and state.client_wrapper is None:
        tracing.install_live(tracer, state)
    return workloads.run_live_pass(state, seconds)


def _des_pass(state, _seconds: float, tracer) -> workloads.PassResult:
    engine = workloads.make_engine(state)
    if tracer is not None:
        tracing.install_engine(tracer, engine)
    return workloads.run_des_pass(state, engine)


def _sim_pass(state, _seconds: float, tracer) -> workloads.PassResult:
    def run(sim):
        if tracer is not None:
            tracing.install_simulator(tracer, sim)
        return sim.run()

    return workloads.run_sim_pass(state, run)


def _no_teardown(_state) -> Dict[str, object]:
    return {"child_mb": 0.0, "problems": []}


WORKLOADS: Dict[str, Workload] = {
    "infer-router": Workload(
        workloads.setup_infer_router, _live_pass, workloads.teardown_live, True,
        "request", "request", "accuracy",
    ),
    "classify-proc": Workload(
        workloads.setup_classify_proc, _live_pass, workloads.teardown_live, True,
        "request", "request", "accuracy",
    ),
    "des-isolation": Workload(
        workloads.setup_des, _des_pass, _no_teardown, False,
        "arrival", "engine pass", "within-SLO completions per arrival",
    ),
    "sim-gen2": Workload(
        workloads.setup_sim, _sim_pass, _no_teardown, False,
        "simulated task", "episode", "utility per task",
    ),
}


def run_passes(spec: Workload, state, seconds: float, tracer, speed) -> list:
    """Timed passes, each bracketed by host-speed samples and steal
    readings; sets each pass's ``scale``: raw time -> time the host did not
    steal (live) or time at the reference speed (batch)."""
    passes = []
    before = speed.sample()
    start = time.perf_counter()
    while True:
        if spec.live:
            if len(passes) == workloads.LIVE_PASSES:
                break
        elif len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
        steal0 = steal_ticks()
        result = spec.run_pass(state, seconds / workloads.LIVE_PASSES, tracer)
        result.steal_cpus = stolen_cpus(steal0, steal_ticks(), result.wall_s)
        after = speed.sample()
        if spec.live:
            result.scale = hostspeed.unstolen(result.steal_cpus)
        else:
            result.scale = hostspeed.scale(before, after)
        before = after
        passes.append(result)
    return passes


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def steal_ticks() -> Optional[int]:
    """Cumulative CPU steal ticks of the host, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def stolen_cpus(ticks0: Optional[int], ticks1: Optional[int], wall_s: float) -> float:
    """CPU-seconds the host stole from the machine per second of an
    interval (0 where ``/proc/stat`` has no steal count)."""
    if ticks0 is None or ticks1 is None or wall_s <= 0:
        return 0.0
    return (ticks1 - ticks0) / (os.sysconf("SC_CLK_TCK") * wall_s)


def environment() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
    }


def stop_helper_processes() -> None:
    """Reap any leftover child and stop the shared-memory resource tracker
    that ``multiprocessing`` starts on first use."""
    for child in multiprocessing.active_children():
        child.join(5.0)
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def import_program() -> float:
    """Import every program module the workloads use, so that set-up times
    do not include first-import costs; returns the seconds it took."""
    t0 = time.perf_counter()
    import repro.cluster  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.scheduler.gen2  # noqa: F401
    import repro.scheduler.simulator  # noqa: F401
    import repro.service  # noqa: F401
    import repro.workload  # noqa: F401

    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes: list, setup_times: List[float], peak_mb: float,
               scaled: bool = True) -> Dict[str, tuple]:
    """name -> (value, unit) for every end-to-end metric.  Times are
    corrected by each pass's ``scale`` unless ``scaled`` is false."""

    def s(p) -> float:
        return p.scale if scaled else 1.0

    quality = (
        sum(p.quality_num for p in passes) / sum(p.quality_den for p in passes)
    )
    throughput = statistics.median(p.items / (p.wall_s * s(p)) for p in passes)
    if len(passes[0].latencies) > 1:
        p50 = statistics.median(float(np.median(p.latencies)) * s(p) for p in passes)
    else:
        p50 = statistics.median(p.latencies[0] * s(p) for p in passes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "quality": (quality, "1"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def tail_line(passes: list, spec: Workload) -> str:
    """The p99 latency, for the report only: on this host it is not steady
    enough to gate on (see README)."""
    pooled = np.concatenate([np.asarray(p.latencies) * p.scale for p in passes])
    if len(pooled) < 1000:
        return f"latency samples ({spec.operation}s): {len(pooled)}, too few for a p99"
    return (
        f"latency samples ({spec.operation}s): {len(pooled)}; p99 "
        f"{1e3 * float(np.percentile(pooled, 99)):.6g} ms"
    )


def main(args, root: Path) -> int:
    spec = WORKLOADS[args.workload]
    env = environment()
    steal0 = steal_ticks()
    wall0 = time.perf_counter()
    env["pinned_cpu"] = hostspeed.pin_to_one_cpu()
    import_s = import_program()
    speed = hostspeed.HostSpeed()
    try:
        return _run(args, root, spec, env, steal0, wall0, import_s, speed)
    finally:
        stop_helper_processes()


def _run(args, root, spec, env, steal0, wall0, import_s, speed) -> int:
    raw_setups: List[float] = []
    setup_times: List[float] = []
    problems: List[str] = []
    lifecycle_ops = 0
    lifecycle_failed = 0
    state = None
    for k in range(SETUPS):
        before = speed.sample()
        ticks0 = steal_ticks()
        t0 = time.perf_counter()
        state = spec.setup(args.seed)
        raw = time.perf_counter() - t0
        ticks1 = steal_ticks()
        raw_setups.append(raw)
        after = speed.sample()
        if spec.live:
            factor = hostspeed.unstolen(stolen_cpus(ticks0, ticks1, raw))
        else:
            factor = hostspeed.scale(before, after)
        setup_times.append(raw * factor)
        if k < SETUPS - 1:
            found = spec.teardown(state)["problems"]
            lifecycle_ops += 1
            lifecycle_failed += bool(found)
            problems += found
            state = None
            gc.collect()

    speed.threads = threading.active_count()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is None:
            passes = run_passes(spec, state, args.seconds, None, speed)
            untraced = None
        else:
            untraced = run_passes(spec, state, args.seconds / 2, None, speed)
            passes = run_passes(spec, state, args.seconds / 2, tracer, speed)
    finally:
        ended = spec.teardown(state)
    lifecycle_ops += 1
    lifecycle_failed += bool(ended["problems"])
    problems += ended["problems"]
    peak_mb = workloads.read_vm_hwm_mb() + ended["child_mb"]

    all_passes = passes + (untraced or [])
    attempted = lifecycle_ops + sum(p.attempted for p in all_passes)
    failed = lifecycle_failed + sum(p.failed for p in all_passes)
    wrong = lifecycle_failed + sum(p.wrong for p in all_passes)
    for p in all_passes:
        problems += p.problems

    measured = untraced or passes
    e2e = end_to_end(measured, setup_times, peak_mb)
    raw_e2e = end_to_end(measured, raw_setups, peak_mb, scaled=False)
    steal1 = steal_ticks()
    wall = time.perf_counter() - wall0
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}",
        f"environment {json.dumps(env, sort_keys=True)}",
        f"host steal ticks over the run: "
        f"{(steal1 - steal0) if steal0 is not None and steal1 is not None else 'n/a'}"
        f" in {wall:.1f} s",
        f"host speed: calibration loop {1e3 * statistics.median(speed.samples):.3f} ms "
        f"median (reference {1e3 * hostspeed.CAL_REF_S:.3f} ms), "
        f"range {1e3 * min(speed.samples):.3f}-{1e3 * max(speed.samples):.3f} ms; "
        f"{speed.disturbed} samples disturbed by the program "
        f"(the passes they bracket are unscaled)",
        f"program import: {import_s:.3f} s (not part of setup_s)",
        f"set-up times (s, raw): {', '.join(f'{t:.3f}' for t in raw_setups)}",
        f"passes: {len(measured)}  {spec.item}s per pass: "
        f"{', '.join(str(p.items) for p in measured)}",
        tail_line(measured, spec),
        f"quality = {spec.quality}",
    ]
    lines.append(
        "per-pass throughput raw/scaled, stolen CPUs: "
        + " ".join(f"{p.items / p.wall_s:.5g}/{p.items / (p.wall_s * p.scale):.5g}"
                   f",{p.steal_cpus:.3f}" for p in measured)
    )
    extra_keys = sorted({k for p in measured for k in p.extra})
    for key in extra_keys:
        values = [p.extra[key] for p in measured]
        lines.append(f"{key}: median {statistics.median(values):.6g} per pass")
    for name, (value, unit) in e2e.items():
        lines.append(
            f"{name} = {value:.6g} {unit}  (raw {raw_e2e[name][0]:.6g})"
        )
    lines.append(f"attempted {attempted}  failed {failed}")
    for problem in problems[:20]:
        lines.append(f"PROBLEM {problem}")

    if tracer is None:
        metrics = e2e
    else:
        served = sum(p.extra.get("served_stages", 0) for p in passes)
        executed = sum(p.extra.get("executed_stages", 0) for p in passes)
        metrics = tracing.layer_metrics(tracer, served, executed)
        traced_e2e = end_to_end(passes, setup_times, peak_mb)
        overhead = 100.0 * (
            e2e["throughput_per_s"][0] / traced_e2e["throughput_per_s"][0] - 1.0
        )
        metrics["tracing.overhead_pct"] = (overhead, "%")
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        kept = tracer.write_jsonl(path)
        lines.append(
            f"traced half: throughput {traced_e2e['throughput_per_s'][0]:.6g} 1/s, "
            f"p50 {traced_e2e['latency_p50_ms'][0]:.6g} ms; untraced half: "
            f"throughput {e2e['throughput_per_s'][0]:.6g} 1/s, "
            f"p50 {e2e['latency_p50_ms'][0]:.6g} ms"
        )
        lines.append(
            f"spans: {kept} written to {path.relative_to(root)}"
            + (f", {tracer.dropped} past the cap counted only" if tracer.dropped else "")
        )
        for name, reason in tracing.not_measured(args.workload).items():
            lines.append(f"{name}: not measured ({reason})")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.6g} {unit}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0
