"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer where their caller
looks them up (an instance attribute, or a module global the caller reads
at call time), records one span per call and counts work at the same
boundaries.  Spans stay in memory, up to :data:`MAX_SPANS`, and are written
as JSON lines when the run ends; the per-layer aggregates cover every call.

Layers that run inside a replica child process cannot be reached from
here; they are reported as not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

#: spans kept for the JSON-lines dump; aggregates are exact past the cap.
MAX_SPANS = 100_000


class Tracer:
    """In-memory span store plus per-name aggregates."""

    def __init__(self) -> None:
        #: finished spans as (id, name, start_ns, end_ns, parent id, request
        #: id, thread id); tuples of plain values, which the cyclic garbage
        #: collector stops scanning, so a long trace does not slow the run.
        self.spans: List[tuple] = []
        self.dropped = 0
        #: name -> [calls, total ns]
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: id(request object) -> request id, for hops onto other threads.
        self.request_ids: Dict[int, int] = {}

    # -- request identity ------------------------------------------------
    def new_request(self) -> int:
        rid = next(self._rids)
        self._local.rid = rid
        return rid

    def current_request(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    def set_request(self, rid: Optional[int]) -> None:
        self._local.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans -----------------------------------------------------------
    def open(self, name: str, parent: Optional[int] = None) -> tuple:
        """Start span ``name``; returns its token (id, parent, start)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._span_ids)
        stack.append(span_id)
        return span_id, parent, perf_counter_ns()

    def close(self, name: str, token: tuple) -> int:
        end = perf_counter_ns()
        span_id, parent, start = token
        self._stack().pop()
        span = (span_id, name, start, end, parent, self.current_request(),
                threading.get_ident())
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1
            total = self.totals[name]
            total[0] += 1
            total[1] += end - start
        return end - start

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             spans: bool = True) -> Callable:
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs,
        duration_ns)`` may count work from the call's inputs and output.
        With ``spans=False`` only the aggregates are kept: for layers called
        ~10^5 times per pass, where spans would cost more than the call."""
        if not spans:
            total = self.totals[name]
            lock = self._lock

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf_counter_ns() - start
                    with lock:
                        total[0] += 1
                        total[1] += duration
                if after is not None:
                    after(result, args, kwargs, duration)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.close(name, token)
            if after is not None:
                after(result, args, kwargs, duration)
            return result

        return traced

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_ms(self, name: str) -> float:
        return self.totals[name][1] / 1e6 if name in self.totals else 0.0

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0

    def write_jsonl(self, path) -> int:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, rid, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "request": rid,
                         "thread": thread}
                    )
                    + "\n"
                )
        return len(self.spans)


def _union_ns(intervals: List[tuple]) -> int:
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


# ----------------------------------------------------------------------
# Live serving path
# ----------------------------------------------------------------------
class _ModelProxy:
    """Stands in for the staged model inside one runtime run: records each
    stem/stage call with the run's request id, forwards everything else."""

    def __init__(self, model, tracer: Tracer, run: "dict") -> None:
        self._model = model
        self._tracer = tracer
        self._run = run

    def __getattr__(self, name):
        return getattr(self._model, name)

    def _timed(self, name: str, fn, rows: int, *args):
        tracer = self._tracer
        tracer.set_request(self._run["rid"])
        token = tracer.open(name, parent=self._run["span"])
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            tracer.close(name, token)
            with tracer._lock:
                self._run["stages"].append((token[2], end))
            if name == "nn.stage":
                tracer.add("nn.images", rows)

    def infer_stem(self, x):
        return self._timed("nn.stem", self._model.infer_stem, len(x), x)

    def infer_stage(self, features, stage_idx):
        return self._timed(
            "nn.stage", self._model.infer_stage, len(features), features, stage_idx
        )


def _traced_runtime_class(tracer: Tracer, base):
    """A runtime subclass that records each run, its queue wait (run start
    to first stem call), its tail (last stage return to run return) and its
    self time (run time not covered by stage calls)."""

    class TracedRuntime(base):
        def __init__(self, model, policy, config=None):
            self._bench_run = {"rid": tracer.current_request(), "span": None,
                               "stages": []}
            policy.plan = tracer.wrap("policy.plan", policy.plan)
            super().__init__(_ModelProxy(model, tracer, self._bench_run), policy, config)

        def run_until_complete(self):
            run = self._bench_run
            run["stages"] = []
            token = tracer.open("runtime.run")
            run["span"] = token[0]
            try:
                results = super().run_until_complete()
            finally:
                tracer.close("runtime.run", token)
            end = perf_counter_ns()
            stages = run["stages"]
            if stages:
                tracer.add("runtime.queue_wait_ns", min(s for s, _ in stages) - token[2])
                tracer.add("runtime.tail_ns", end - max(e for _, e in stages))
                tracer.add("runtime.self_ns", (end - token[2]) - _union_ns(stages))
            sizes = [len(tids) for _, tids in self.batch_log]
            tracer.add("runtime.batches", len(sizes))
            tracer.add("runtime.batched_tasks", sum(sizes))
            tracer.add(
                "runtime.served_stages",
                sum(r.served_stage + 1 for r in results if r.served_stage is not None),
            )
            return results

    return TracedRuntime


def install_live(tracer: Tracer, state) -> None:
    """Wrap client, router, replica, transport, service, runtime and nn."""
    from repro.cluster import proc_replica
    from repro.cluster.transport import MIN_SHM_BYTES
    from repro.service import server

    router = state.router
    endpoint = state.endpoint

    def wrap_client(client):
        inner = tracer.wrap("client", getattr(client, endpoint))

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            tracer.new_request()
            return inner(*args, **kwargs)

        setattr(client, endpoint, traced)
        return client

    state.client_wrapper = wrap_client

    def routed(fn):
        inner = tracer.wrap("router", fn)

        @functools.wraps(fn)
        def traced(request):
            tracer.request_ids[id(request)] = tracer.current_request()
            try:
                return inner(request)
            finally:
                tracer.request_ids.pop(id(request), None)

        return traced

    setattr(router, endpoint, routed(getattr(router, endpoint)))

    for replica in router.replicas.values():
        is_proc = isinstance(replica, proc_replica.ProcessReplica)
        replica.call = tracer.wrap(
            "proc_replica.call" if is_proc else "replica.call", replica.call
        )
        service = getattr(replica, "service", None)
        if service is not None:
            inner = tracer.wrap(f"service.{endpoint}", getattr(service, endpoint))

            def in_service(request, _inner=inner):
                tracer.set_request(tracer.request_ids.get(id(request)))
                return _inner(request)

            setattr(service, endpoint, in_service)

    def shm_bytes(obj) -> int:
        if not dataclasses.is_dataclass(obj):
            return 0
        return sum(
            v.nbytes
            for v in (getattr(obj, f.name, None) for f in dataclasses.fields(obj))
            if isinstance(v, np.ndarray) and v.nbytes >= MIN_SHM_BYTES
        )

    def after_encode(result, args, kwargs, _ns):
        _payload, refs = result
        if refs:
            tracer.add("transport.shm_bytes", shm_bytes(args[0]))
        tracer.add("transport.inline_fallbacks", len(kwargs.get("fallbacks") or ()))

    def after_decode(result, args, kwargs, _ns):
        if result is not args[0]:
            tracer.add("transport.shm_bytes", shm_bytes(result))

    proc_replica.encode_payload = tracer.wrap(
        "transport.encode", proc_replica.encode_payload, after_encode
    )
    proc_replica.decode_payload = tracer.wrap(
        "transport.decode", proc_replica.decode_payload, after_decode
    )
    server.StagedInferenceRuntime = _traced_runtime_class(
        tracer, server.StagedInferenceRuntime
    )
    if state.admission is not None:
        install_admission(tracer, state.admission)


def install_admission(tracer: Tracer, controller) -> None:
    def after_admit(decision, _args, _kwargs, _ns):
        if not decision.admitted:
            tracer.add("admission.rejected")

    controller.admit = tracer.wrap(
        "admission.admit", controller.admit, after_admit, spans=False
    )


def install_engine(tracer: Tracer, engine) -> None:
    install_admission(tracer, engine.admission)
    engine.run = tracer.wrap("engine.run", engine.run)


def install_simulator(tracer: Tracer, sim) -> None:
    policy = sim.policy
    policy.plan = tracer.wrap("policy.plan", policy.plan, spans=False)
    planner = policy._planner
    planner.plan_budgets = tracer.wrap(
        "gen2.plan_budgets", planner.plan_budgets, spans=False
    )
    sim.run = tracer.wrap("simulator.run", sim.run)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, served_stages: float = 0.0,
                  executed_stages: float = 0.0) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric.

    ``served_stages`` and ``executed_stages`` are the simulator's counts
    (the runtime's are counted by the traced runtime itself).
    """
    t = tracer
    c = t.counts

    def per(total: float, calls: int) -> float:
        return total / calls if calls else 0.0

    replica_calls = t.calls("replica.call") + t.calls("proc_replica.call")
    replica_ms = t.total_ms("replica.call") + t.total_ms("proc_replica.call")
    runs = t.calls("runtime.run")
    admits = t.calls("admission.admit")
    sim_ms = t.total_ms("simulator.run")
    engine_ms = t.total_ms("engine.run")
    stage_execs = c["runtime.batched_tasks"]
    return {
        "client.calls": (t.calls("client"), "count"),
        "client.self_ms": (per(t.total_ms("client") - t.total_ms("router"), t.calls("client")), "ms"),
        "router.calls": (t.calls("router"), "count"),
        "router.self_ms": (per(t.total_ms("router") - replica_ms, t.calls("router")), "ms"),
        "router.replica_wait_ms": (per(replica_ms, replica_calls), "ms"),
        "proc_replica.roundtrip_ms": (t.mean_ms("proc_replica.call"), "ms"),
        "transport.encode_us": (1e3 * t.mean_ms("transport.encode"), "us"),
        "transport.decode_us": (1e3 * t.mean_ms("transport.decode"), "us"),
        "transport.shm_bytes_per_call": (per(c["transport.shm_bytes"], t.calls("proc_replica.call")), "B"),
        "transport.inline_fallbacks": (c["transport.inline_fallbacks"], "count"),
        "admission.admits": (admits, "count"),
        "admission.admit_ns": (1e6 * t.mean_ms("admission.admit"), "ns"),
        "admission.rejected": (c["admission.rejected"], "count"),
        "admission.admitted_ratio": (per(admits - c["admission.rejected"], admits), "ratio"),
        "service.infer_ms": (t.mean_ms("service.infer"), "ms"),
        "runtime.runs": (runs, "count"),
        "runtime.queue_wait_ms": (per(c["runtime.queue_wait_ns"], runs) / 1e6, "ms"),
        "runtime.tail_ms": (per(c["runtime.tail_ns"], runs) / 1e6, "ms"),
        "runtime.self_ms": (per(c["runtime.self_ns"], runs) / 1e6, "ms"),
        "runtime.batch_size_mean": (per(stage_execs, c["runtime.batches"]), "count"),
        "runtime.useful_stage_ratio": (per(c["runtime.served_stages"], stage_execs), "ratio"),
        "policy.plan_calls": (t.calls("policy.plan"), "count"),
        "policy.plan_us": (1e3 * t.mean_ms("policy.plan"), "us"),
        "gen2.plan_budgets_us": (1e3 * t.mean_ms("gen2.plan_budgets"), "us"),
        "simulator.episode_ms": (t.mean_ms("simulator.run"), "ms"),
        "simulator.plan_share": (per(t.total_ms("policy.plan"), sim_ms) if sim_ms else 0.0, "ratio"),
        "simulator.useful_stage_ratio": (per(served_stages, executed_stages), "ratio"),
        "engine.run_s": (t.mean_ms("engine.run") / 1e3, "s"),
        "engine.admission_share": (per(t.total_ms("admission.admit"), engine_ms) if engine_ms else 0.0, "ratio"),
        "nn.stage_calls": (t.calls("nn.stage"), "count"),
        "nn.stage_ms": (t.mean_ms("nn.stage"), "ms"),
        "nn.images_per_call": (per(c["nn.images"], t.calls("nn.stage")), "count"),
    }


#: Per-layer figures this harness cannot reach, by workload.
_CHILD = "runs inside the replica child process; carrying a trace across the process boundary is not done yet"


def not_measured(workload: str) -> Dict[str, str]:
    """Per-layer figures that exist on ``workload`` but cannot be measured
    from the benchmark process, with the reason."""
    if workload == "classify-proc":
        return {
            "service.classify_ms": _CHILD,
            "nn.predict_proba_ms": _CHILD,
            "nn.stage_calls, nn.stage_ms, nn.images_per_call": _CHILD,
            "transport (child side: request decode, response encode)": _CHILD,
        }
    return {}
