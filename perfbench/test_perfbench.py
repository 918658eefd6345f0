"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The checker tests feed each correctness check a deliberately wrong output
and require it to be caught; the smoke tests run every workload for about a
second through the real command line.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import THREAD_ENV  # noqa: E402

# As in run.py, before numpy is imported: an idle BLAS pool thread spins
# for a while after each call and would disturb the calibration samples.
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import checks, hostspeed, workloads  # noqa: E402
from repro.scheduler.task import StageOutcome  # noqa: E402
from repro.service.messages import ClassifyResponse, InferResponse  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _softmax_rows(rng, n, classes=10):
    z = rng.normal(size=(n, classes))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _infer_response(probs, stage):
    return InferResponse(
        predictions=[int(np.argmax(probs))],
        confidences=[float(np.max(probs))],
        stages_executed=[stage + 1],
        evicted=[False],
        degraded=[False],
        served_stage=[stage],
        shed=[False],
        anytime_served=[False],
    )


# ----------------------------------------------------------------------
# Each checker catches a wrong output
# ----------------------------------------------------------------------
def test_infer_check_accepts_correct_and_catches_flipped_prediction():
    rng = np.random.default_rng(0)
    ref = [_softmax_rows(rng, 1)[0] for _ in range(3)]
    good = _infer_response(ref[2], 2)
    assert checks.check_infer(good, ref, 0.01, 1.0) == []
    flipped = copy.deepcopy(good)
    flipped.predictions[0] = (flipped.predictions[0] + 1) % 10
    assert any("prediction" in p for p in checks.check_infer(flipped, ref, 0.01, 1.0))


def test_infer_check_catches_wrong_confidence_and_wrong_stage():
    rng = np.random.default_rng(1)
    ref = [_softmax_rows(rng, 1)[0] for _ in range(3)]
    off = _infer_response(ref[2], 2)
    off.confidences[0] += 1e-6
    assert any("confidence" in p for p in checks.check_infer(off, ref, 0.01, 1.0))
    wrong_stage = _infer_response(ref[2], 2)
    wrong_stage.served_stage[0] = 0
    assert checks.check_infer(wrong_stage, ref, 0.01, 1.0)


def test_infer_check_catches_late_response():
    rng = np.random.default_rng(2)
    ref = [_softmax_rows(rng, 1)[0] for _ in range(3)]
    late = checks.check_infer(_infer_response(ref[2], 2), ref, 1.2, 1.0)
    assert any("later than" in p for p in late)


def test_classify_check_catches_flipped_prediction():
    ref = _softmax_rows(np.random.default_rng(3), 16)
    good = ClassifyResponse(
        predictions=ref.argmax(axis=1), confidences=ref.max(axis=1)
    )
    assert checks.check_classify(good, ref) == []
    bad = copy.deepcopy(good)
    bad.predictions[5] = (bad.predictions[5] + 1) % 10
    assert checks.check_classify(bad, ref)


@pytest.fixture(scope="module")
def des_pass():
    state = workloads.setup_des(seed=5)
    return state, workloads.make_engine(state).run(state.trace)


def test_engine_check_accepts_real_pass(des_pass):
    state, report = des_pass
    assert checks.check_engine_report(report, len(state.trace), state.tenant_counts) == []


@pytest.mark.parametrize("field", ["total_rejected", "total_admitted", "total_arrivals"])
def test_engine_check_catches_off_by_one_total(des_pass, field):
    state, report = des_pass
    bad = copy.deepcopy(report)
    setattr(bad, field, getattr(bad, field) + 1)
    assert checks.check_engine_report(bad, len(state.trace), state.tenant_counts)


def test_engine_check_catches_off_by_one_tenant_count(des_pass):
    state, report = des_pass
    bad = copy.deepcopy(report)
    bad.tenants["abuser"].served -= 1
    assert checks.check_engine_report(bad, len(state.trace), state.tenant_counts)


@pytest.fixture(scope="module")
def sim_episode():
    state = workloads.setup_sim(seed=5)
    images = state.episodes[1][0]
    return state, images, workloads.run_episode(state, 1)


def test_episode_check_accepts_real_episode(sim_episode):
    state, images, result = sim_episode
    assert checks.check_episode(result, state.oracle_conf, images, len(images)) == []
    assert result.num_served > 0


def _served(result):
    return next(r for r in result.records if r.outcomes and not r.evicted and not r.shed)


def test_episode_check_catches_late_answer(sim_episode):
    state, images, result = sim_episode
    bad = copy.deepcopy(result)
    record = _served(bad)
    record.finish_time = record.deadline + 0.5
    found = checks.check_episode(bad, state.oracle_conf, images, len(images))
    assert any("after their deadline" in p for p in found)


def test_episode_check_catches_utility_mismatch(sim_episode):
    state, images, result = sim_episode
    bad = copy.deepcopy(result)
    record = _served(bad)
    last = record.outcomes[-1]
    record.outcomes[-1] = StageOutcome(
        stage=last.stage, prediction=last.prediction,
        confidence=last.confidence * 0.5, correct=last.correct,
    )
    found = checks.check_episode(bad, state.oracle_conf, images, len(images))
    assert any("utility" in p for p in found)


def test_episode_check_catches_lost_task(sim_episode):
    state, images, result = sim_episode
    bad = copy.deepcopy(result)
    bad.records.pop()
    assert checks.check_episode(bad, state.oracle_conf, images, len(images))


# ----------------------------------------------------------------------
# Host-speed calibration notices a program that is not idle
# ----------------------------------------------------------------------
def test_calibration_sample_is_disturbed_by_the_programs_own_threads():
    speed = hostspeed.HostSpeed()
    speed.threads = threading.active_count()
    assert speed.sample() is not None
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        assert speed.sample() is None  # a thread more than after set-up
        speed.threads = threading.active_count()
        assert speed.sample() is None  # CPU used by another thread
    finally:
        stop.set()
        worker.join()
    assert speed.disturbed == 2
    assert hostspeed.scale(None, hostspeed.CAL_REF_S) == 1.0
    assert hostspeed.scale(hostspeed.CAL_REF_S, hostspeed.CAL_REF_S) == 1.0


def test_steal_correction_is_capped():
    assert hostspeed.unstolen(0.0) == 1.0
    assert hostspeed.unstolen(0.25) == 0.75
    assert hostspeed.unstolen(2.0) == 1.0 - hostspeed.MAX_STOLEN_CPUS


# ----------------------------------------------------------------------
# The command line, end to end
# ----------------------------------------------------------------------
def _run(workload, trace=0, seconds=1.0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_every_workload(workload):
    done = _run(workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    done = _run("infer-router", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["runtime.runs"]["value"] > 0
    assert result["metrics"]["nn.stage_calls"]["value"] > 0
    spans = (ROOT / ".perfbench_out" / "infer-router-seed3.spans.jsonl").read_text()
    first = json.loads(spans.splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "request", "thread"}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sim-gen2", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
