"""The four benchmark workloads.

Each workload has the same shape:

- ``setup(seed)`` builds everything the timed phase needs (artifact load,
  predictor fit, cluster spawn, model registration, trace or oracle build,
  warm-up) and returns a state object;
- ``run_pass(state)`` runs one timed pass and returns a :class:`PassResult`;
- ``teardown(state)`` stops whatever ``setup`` started.

Inputs come only from the seed.  The program under test receives the
generated inputs; the references the checks compare against are computed
here, apart from the serving path.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import checks

#: per-request latency constraint on infer-router; generous, so nothing is
#: evicted and any late response is a fault.
INFER_CONSTRAINT_S = 1.0
#: images per live round (drawn from the test split without replacement).
LIVE_POOL = 600
#: classify-proc request mix: exact share of 16-image requests in a round,
#: the rest 1-image.
CLASSIFY_BIG_SHARE = 0.2
CLASSIFY_BIG_SIZE = 16
CLASSIFY_REQUESTS = 400
#: live timed phases are split into this many equal passes; the median
#: over them is reported.
LIVE_PASSES = 20

#: des-isolation trace: shaped like the isolation experiment, scaled so a
#: pass takes a few wall seconds.
DES_DURATION_S = 10.0
DES_COMPLIANT = 4
DES_COMPLIANT_RATE = 350.0
DES_CAPACITY = 3500.0
DES_ABUSE = 10.0
#: the set-up warm-up pass runs a trace this long (virtual seconds).
DES_WARMUP_S = 2.0

#: sim-gen2 episodes: the anytime gate's pool at 3x its capacity.
SIM_TASKS = 60
SIM_EPISODES = 120
SIM_WORKERS = 2
SIM_CONCURRENCY = 8
SIM_CONSTRAINT_S = 6.0
SIM_LOAD = 3.0


@dataclass
class PassResult:
    """What one timed pass did."""

    #: work items completed (requests, trace arrivals, simulated tasks).
    items: int
    wall_s: float
    #: per-operation wall latencies in seconds (requests, passes, episodes).
    latencies: List[float]
    attempted: int
    failed: int
    wrong: int
    #: numerator and denominator of the quality metric.
    quality_num: float
    quality_den: float
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: raw time -> corrected time (set by the harness).
    scale: float = 1.0
    #: CPU-seconds the host stole from the machine per second of the pass.
    steal_cpus: float = 0.0


def load_artifacts():
    """The trained benchmark model, read from ``.bench_cache`` afresh."""
    from repro.experiments import common

    common._MEMORY_CACHE.clear()
    return common.get_benchmark_artifacts()


def fit_predictor(artifacts):
    from repro.scheduler.confidence import GPConfidencePredictor

    return GPConfidencePredictor(
        num_classes=artifacts.model.config.num_classes, seed=0
    ).fit(artifacts.train_outputs["confidences"])


#: images per reference forward pass; small batches keep the benchmark's
#: own im2col buffers from dominating peak memory.
REF_BATCH = 25


def reference_probs(model, images: np.ndarray) -> List[np.ndarray]:
    """Per-stage probabilities from the benchmark's own copy of the weights."""
    chunks = [
        model.predict_proba(images[i : i + REF_BATCH])
        for i in range(0, len(images), REF_BATCH)
    ]
    return [np.concatenate(stage) for stage in zip(*chunks)]


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
@dataclass
class LiveState:
    router: object
    model_id: str
    images: np.ndarray
    labels: np.ndarray
    #: ref[s][i]: stage-s probabilities of pool image i.
    ref: List[np.ndarray]
    #: the round: one tuple of pool indices per request.
    requests: List[np.ndarray]
    clients: int
    endpoint: str
    admission: object = None
    tenant: Optional[str] = None
    replica_pids: List[int] = field(default_factory=list)
    #: applied to every client a pass creates (the traced run's hook).
    client_wrapper: Optional[Callable] = None
    #: next request of the round; passes continue where the last one ended.
    cursor: int = 0


def _pool(artifacts, rng):
    test = artifacts.test_set
    idx = rng.choice(len(test.inputs), size=LIVE_POOL, replace=False)
    return test.inputs[idx], test.labels[idx]


def setup_infer_router(seed: int) -> LiveState:
    from repro.cluster import RouterConfig, make_cluster

    artifacts = load_artifacts()
    predictor = fit_predictor(artifacts)
    rng = np.random.default_rng(seed)
    images, labels = _pool(artifacts, rng)
    ref = reference_probs(artifacts.model, images)
    router = make_cluster(
        2, backend="thread", config=RouterConfig(replication_factor=2)
    )
    model_id = router.register_model(
        "bench", artifacts.model, predictor=predictor
    )
    state = LiveState(
        router=router,
        model_id=model_id,
        images=images,
        labels=labels,
        ref=ref,
        requests=[np.array([i]) for i in range(LIVE_POOL)],
        clients=2,
        endpoint="infer",
    )
    _warm_up(state)
    return state


def setup_classify_proc(seed: int) -> LiveState:
    from repro.admission import AdmissionController, TenantQuota
    from repro.cluster import RouterConfig, make_cluster

    artifacts = load_artifacts()
    rng = np.random.default_rng(seed)
    images, labels = _pool(artifacts, rng)
    ref = reference_probs(artifacts.model, images)
    # An exact share of big requests in seeded order; requests walk the pool
    # in order, so every pool image is served about equally often.
    sizes = np.ones(CLASSIFY_REQUESTS, dtype=np.int64)
    sizes[: round(CLASSIFY_BIG_SHARE * CLASSIFY_REQUESTS)] = CLASSIFY_BIG_SIZE
    rng.shuffle(sizes)
    starts = np.cumsum(sizes) - sizes
    requests = [np.arange(s, s + n) % LIVE_POOL for s, n in zip(starts, sizes)]
    # Quotas far above anything one closed-loop client can offer: the gate
    # runs on every call but never rejects.
    admission = AdmissionController(
        per_tenant={"bench": TenantQuota(weight=1.0, rate_per_s=1e6, burst=1e6)},
        tenant_capacity_per_s=1e6,
    )
    router = make_cluster(
        1,
        backend="process",
        config=RouterConfig(replication_factor=1),
        admission=admission,
        start_method="spawn",
    )
    model_id = router.register_model("bench", artifacts.model)
    state = LiveState(
        router=router,
        model_id=model_id,
        images=images,
        labels=labels,
        ref=ref,
        requests=requests,
        clients=1,
        endpoint="classify",
        admission=admission,
        tenant="bench",
        replica_pids=[r.pid for r in router.replicas.values()],
    )
    _warm_up(state)
    return state


def _make_client(state: LiveState):
    from repro.service import EugeneClient

    client = EugeneClient(state.router, tenant=state.tenant)
    if state.client_wrapper is not None:
        client = state.client_wrapper(client)
    return client


def _call(state: LiveState, client, pool_idx: np.ndarray):
    x = state.images[pool_idx]
    if state.endpoint == "infer":
        return client.infer(
            state.model_id, x, latency_constraint_s=INFER_CONSTRAINT_S
        )
    return client.classify(state.model_id, x)


def _check(state: LiveState, response, pool_idx: np.ndarray, latency: float):
    """Problems with one response, and how many served answers are right."""
    if state.endpoint == "infer":
        i = int(pool_idx[0])
        problems = checks.check_infer(
            response,
            [probs[i] for probs in state.ref],
            latency,
            INFER_CONSTRAINT_S,
        )
        right = int(response.predictions[0] == state.labels[i])
        return problems, right
    problems = checks.check_classify(response, state.ref[-1][pool_idx])
    right = int(np.sum(np.asarray(response.predictions) == state.labels[pool_idx]))
    return problems, right


def _warm_up(state: LiveState) -> None:
    client = _make_client(state)
    for k in range(8):
        _call(state, client, state.requests[k % len(state.requests)])


def run_live_pass(state: LiveState, seconds: float) -> PassResult:
    """Closed loop: each client sends its next request only after the
    previous one returned, until ``seconds`` have passed.  Requests cycle
    through the round, each pass continuing where the last one ended."""
    lock = threading.Lock()
    cursor = [state.cursor]
    latencies: List[float] = []
    tallies = {"attempted": 0, "failed": 0, "wrong": 0, "right": 0, "answers": 0}
    problems: List[str] = []
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        client = _make_client(state)
        while time.perf_counter() < deadline:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            pool_idx = state.requests[k % len(state.requests)]
            t0 = time.perf_counter()
            try:
                response = _call(state, client, pool_idx)
            except Exception as error:  # any error is a failed operation, counted
                with lock:
                    tallies["attempted"] += 1
                    tallies["failed"] += 1
                    problems.append(f"{type(error).__name__}: {error}")
                continue
            latency = time.perf_counter() - t0
            found, right = _check(state, response, pool_idx, latency)
            with lock:
                tallies["attempted"] += 1
                latencies.append(latency)
                tallies["right"] += right
                tallies["answers"] += len(pool_idx)
                if found:
                    tallies["failed"] += 1
                    tallies["wrong"] += 1
                    problems.extend(found)

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}")
        for i in range(state.clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    state.cursor = cursor[0]
    return PassResult(
        items=len(latencies),
        wall_s=wall,
        latencies=latencies,
        attempted=tallies["attempted"],
        failed=tallies["failed"],
        wrong=tallies["wrong"],
        quality_num=tallies["right"],
        quality_den=tallies["answers"],
        problems=problems,
    )


def read_vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of a process, from ``/proc/<pid>/status``."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def teardown_live(state: LiveState) -> Dict[str, object]:
    """Stop the cluster; return child peak memory and leak-check problems."""
    from repro.cluster.shm import ShmLeakError

    child_mb = 0.0
    for pid in state.replica_pids:
        child_mb += read_vm_hwm_mb(pid)
    replicas = list(state.router.replicas.values())
    state.router.shutdown()
    problems = []
    for replica in replicas:
        check = getattr(replica, "assert_no_shm_leaks", None)
        if check is None:
            continue
        try:
            check()
        except ShmLeakError as error:
            problems.append(f"shm leak: {error}")
    return {"child_mb": child_mb, "problems": problems}


# ----------------------------------------------------------------------
# des-isolation
# ----------------------------------------------------------------------
@dataclass
class DesState:
    trace: object
    tenant_counts: Dict[str, int]
    names: List[str]
    seed: int


def des_specs() -> list:
    from repro.workload import TenantSpec

    fair_share = DES_CAPACITY / (DES_COMPLIANT + 1)
    specs = [
        TenantSpec(
            name=f"tenant-{i:02d}",
            rate_per_s=DES_COMPLIANT_RATE,
            diurnal_amplitude=0.2,
            diurnal_period_s=DES_DURATION_S,
            diurnal_phase=2.0 * math.pi * i / DES_COMPLIANT,
            burst_multiplier=1.5,
            burst_fraction=0.05,
            burst_mean_s=1.0,
            flash_group="des" if i % 2 == 0 else None,
        )
        for i in range(DES_COMPLIANT)
    ]
    specs.append(TenantSpec(name="abuser", rate_per_s=DES_ABUSE * fair_share))
    return specs


def des_trace(seed: int, duration_s: float):
    from repro.workload import generate_trace
    from repro.workload.trace import FlashCrowd

    return generate_trace(
        des_specs(),
        duration_s=duration_s,
        seed=seed,
        flash_crowds=(
            FlashCrowd(
                group="des",
                start_s=0.3 * duration_s,
                duration_s=0.1 * duration_s,
                multiplier=1.3,
            ),
        ),
    )


def setup_des(seed: int) -> DesState:
    def state_for(trace) -> DesState:
        counts = np.bincount(trace.tenant_idx, minlength=len(trace.tenant_names))
        return DesState(
            trace=trace,
            tenant_counts={n: int(c) for n, c in zip(trace.tenant_names, counts)},
            names=list(trace.tenant_names),
            seed=seed,
        )

    state = state_for(des_trace(seed, DES_DURATION_S))
    warm_up = run_des_pass(state_for(des_trace(seed, DES_WARMUP_S)))
    if warm_up.problems:
        raise RuntimeError(f"des warm-up pass failed: {warm_up.problems}")
    return state


def make_engine(state: DesState):
    from repro.admission import AdmissionController, TenantQuota
    from repro.workload import EngineConfig, WorkloadEngine

    admission = AdmissionController(
        per_tenant={name: TenantQuota(weight=1.0) for name in state.names},
        tenant_capacity_per_s=DES_CAPACITY,
        tenant_capacity_burst=max(1.0, 0.05 * DES_CAPACITY),
    )
    return WorkloadEngine(
        config=EngineConfig(servers=96, max_queue=50_000, slo_s=1.0),
        admission=admission,
        weights={name: 1.0 for name in state.names},
        seed=state.seed,
    )


def run_des_pass(state: DesState, engine=None) -> PassResult:
    engine = engine or make_engine(state)
    t0 = time.perf_counter()
    report = engine.run(state.trace)
    wall = time.perf_counter() - t0
    problems = checks.check_engine_report(
        report, len(state.trace), state.tenant_counts
    )
    within = sum(t.within_slo for t in report.tenants.values())
    bad = 1 if problems else 0
    return PassResult(
        items=report.total_arrivals,
        wall_s=wall,
        latencies=[wall],
        attempted=1,
        failed=bad,
        wrong=bad,
        quality_num=within,
        quality_den=report.total_arrivals,
        problems=problems,
        extra={
            "goodput_rps": within / report.duration_s,
            "admitted": report.total_admitted,
            "rejected": report.total_rejected,
        },
    )


# ----------------------------------------------------------------------
# sim-gen2
# ----------------------------------------------------------------------
@dataclass
class SimState:
    oracles: list
    oracle_conf: np.ndarray
    predictor: object
    #: per episode: (test-split image of each task, arrival times).
    episodes: List[tuple]


def setup_sim(seed: int) -> SimState:
    from repro.scheduler.arrivals import poisson_arrivals
    from repro.scheduler.simulator import TaskOracle

    artifacts = load_artifacts()
    predictor = fit_predictor(artifacts)
    oracles = TaskOracle.table_from_outputs(artifacts.test_outputs)
    num_stages = len(artifacts.test_outputs["confidences"])
    rate = SIM_LOAD * SIM_WORKERS / float(num_stages)  # unit stage times
    rng = np.random.default_rng(seed)
    episodes = []
    for e in range(SIM_EPISODES):
        images = rng.choice(len(oracles), size=SIM_TASKS, replace=False)
        arrivals = poisson_arrivals(SIM_TASKS, rate=rate, seed=seed * 1000 + e)
        episodes.append((images, arrivals))
    state = SimState(
        oracles=oracles,
        oracle_conf=np.asarray(artifacts.test_outputs["confidences"]),
        predictor=predictor,
        episodes=episodes,
    )
    run_episode(state, 0)  # warm-up
    return state


def make_simulator(state: SimState, e: int):
    from repro.scheduler.gen2 import Gen2Policy
    from repro.scheduler.simulator import PoolSimulator, SimulationConfig

    images, arrivals = state.episodes[e]
    num_stages = state.oracles[0].num_stages
    policy = Gen2Policy(
        predictor=state.predictor, num_workers=SIM_WORKERS, stage_time_s=1.0
    )
    config = SimulationConfig(
        num_workers=SIM_WORKERS,
        concurrency=SIM_CONCURRENCY,
        stage_times=tuple(1.0 for _ in range(num_stages)),
        latency_constraint=SIM_CONSTRAINT_S,
        anytime=True,
    )
    return PoolSimulator(
        [state.oracles[i] for i in images], policy, config, arrival_times=arrivals
    )


def run_episode(state: SimState, e: int):
    return make_simulator(state, e).run()


def run_sim_pass(state: SimState, run=None) -> PassResult:
    run = run or (lambda sim: sim.run())
    latencies = []
    failed = 0
    problems: List[str] = []
    utility = 0.0
    tasks = 0
    served_stages = 0
    executed_stages = 0
    wall = 0.0
    for e in range(len(state.episodes)):
        sim = make_simulator(state, e)
        t0 = time.perf_counter()
        result = run(sim)
        dt = time.perf_counter() - t0
        wall += dt
        latencies.append(dt)
        images = state.episodes[e][0]
        found = checks.check_episode(result, state.oracle_conf, images, len(images))
        if found:
            failed += 1
            problems.extend(found)
        utility += checks.episode_utility(result.records, state.oracle_conf, images)
        tasks += len(images)
        served_stages += sum(
            r.outcomes[-1].stage + 1
            for r in result.records
            if r.outcomes and not r.evicted and not r.shed
        )
        executed_stages += int(round(result.busy_time))  # unit stage times
    return PassResult(
        items=tasks,
        wall_s=wall,
        latencies=latencies,
        attempted=len(state.episodes),
        failed=failed,
        wrong=failed,
        quality_num=utility,
        quality_den=tasks,
        problems=problems,
        extra={
            "utility_per_episode": utility / len(state.episodes),
            "served_stages": served_stages,
            "executed_stages": executed_stages,
        },
    )
