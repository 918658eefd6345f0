"""Correctness checks made apart from the program under test.

Every checker takes plain data (the program's output plus a reference the
benchmark computed itself) and returns a list of problems; an empty list
means the output is correct.  The benchmark counts an operation with any
problem as failed and reports ``correct: false`` for the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Confidences are compared with this absolute tolerance.  Served and
#: reference probabilities come from the same weights but possibly from
#: different batch shapes, which changes BLAS accumulation order in the
#: last few ULPs only.
CONF_TOL = 1e-9


def check_prediction(
    prediction: Optional[int],
    confidence: Optional[float],
    stage: Optional[int],
    ref_probs: Sequence[np.ndarray],
) -> List[str]:
    """One served answer against the reference probabilities of its image.

    ``ref_probs[s]`` is the benchmark's own softmax output of stage ``s``
    for this image.  The served prediction must be its argmax and the
    served confidence its max.
    """
    if prediction is None or confidence is None or stage is None:
        return ["no answer served"]
    if not 0 <= stage < len(ref_probs):
        return [f"served stage {stage} out of range"]
    probs = ref_probs[stage]
    problems = []
    if int(prediction) != int(np.argmax(probs)):
        problems.append(
            f"prediction {prediction} != reference argmax {int(np.argmax(probs))} "
            f"at stage {stage}"
        )
    if abs(float(confidence) - float(np.max(probs))) > CONF_TOL:
        problems.append(
            f"confidence {float(confidence)!r} != reference max "
            f"{float(np.max(probs))!r} at stage {stage}"
        )
    return problems


def check_infer(
    response,
    ref_probs: Sequence[np.ndarray],
    latency_s: float,
    constraint_s: float,
) -> List[str]:
    """A 1-image ``infer()`` response: correct answer, never late."""
    problems = []
    if len(response.predictions) != 1:
        return [f"{len(response.predictions)} answers for 1 image"]
    if response.evicted[0] or response.shed[0]:
        problems.append("task evicted or shed under a generous constraint")
    problems += check_prediction(
        response.predictions[0],
        response.confidences[0],
        response.served_stage[0],
        ref_probs,
    )
    if latency_s > constraint_s:
        problems.append(
            f"response after {latency_s:.4f}s, later than its "
            f"{constraint_s:g}s constraint"
        )
    return problems


def check_classify(response, ref_final: np.ndarray) -> List[str]:
    """A ``classify()`` response against the final-stage reference rows."""
    predictions = np.asarray(response.predictions)
    confidences = np.asarray(response.confidences, dtype=np.float64)
    if predictions.shape != (len(ref_final),):
        return [f"{predictions.shape} answers for {len(ref_final)} images"]
    problems = []
    expected = ref_final.argmax(axis=-1)
    wrong = np.flatnonzero(predictions != expected)
    if len(wrong):
        problems.append(f"{len(wrong)} predictions differ from reference argmax")
    gap = np.abs(confidences - ref_final.max(axis=-1))
    if np.any(gap > CONF_TOL):
        problems.append(f"confidence off by {float(gap.max())!r}")
    return problems


def check_engine_report(report, trace_len: int, tenant_counts: Dict[str, int]) -> List[str]:
    """Exact accounting of one ``WorkloadEngine.run`` pass.

    ``tenant_counts`` is the per-tenant arrival count the benchmark read
    from the trace itself.
    """
    problems = []
    if not report.accounting_exact:
        problems.append(f"engine accounting not exact: {report.accounting_detail}")
    if report.total_arrivals != trace_len:
        problems.append(
            f"arrivals {report.total_arrivals} != trace length {trace_len}"
        )
    if report.total_admitted + report.total_rejected != report.total_arrivals:
        problems.append(
            f"admitted {report.total_admitted} + rejected "
            f"{report.total_rejected} != arrivals {report.total_arrivals}"
        )
    tenants = report.tenants.values()
    for field, total in (
        ("arrivals", report.total_arrivals),
        ("admitted", report.total_admitted),
        ("rejected", report.total_rejected),
        ("served", report.total_served),
    ):
        summed = sum(getattr(t, field) for t in tenants)
        if summed != total:
            problems.append(f"per-tenant {field} sum {summed} != total {total}")
    for name, count in tenant_counts.items():
        got = report.tenants[name].arrivals if name in report.tenants else 0
        if got != count:
            problems.append(f"tenant {name}: {got} arrivals, trace has {count}")
    if report.total_served != report.total_admitted:
        problems.append(
            f"served {report.total_served} != admitted {report.total_admitted} "
            "after the drain"
        )
    return problems


def episode_utility(records, oracle_conf: np.ndarray, task_images: Sequence[int]) -> float:
    """Utility recomputed from the oracle table, not from the records' own
    confidences: the sum, over served tasks, of the reference confidence at
    the stage each was served from."""
    total = 0.0
    for record in records:
        if record.outcomes and not record.evicted and not record.shed:
            stage = record.outcomes[-1].stage
            total += float(oracle_conf[stage, task_images[record.task_id]])
    return total


def check_episode(
    result,
    oracle_conf: np.ndarray,
    task_images: Sequence[int],
    submitted: int,
) -> List[str]:
    """One ``PoolSimulator.run`` episode: never late, exact accounting,
    utility equal to the independently recomputed sum."""
    problems = []
    records = result.records
    late = [
        r.task_id
        for r in records
        if r.outcomes and not r.evicted and not r.shed
        and r.finish_time is not None and r.finish_time > r.deadline + 1e-9
    ]
    if late:
        problems.append(f"{len(late)} tasks served after their deadline")
    served = sum(1 for r in records if r.outcomes and not r.evicted and not r.shed)
    evicted = sum(1 for r in records if r.evicted)
    shed = sum(1 for r in records if r.shed)
    if served + evicted + shed != submitted or len(records) != submitted:
        problems.append(
            f"served {served} + evicted {evicted} + shed {shed} != "
            f"submitted {submitted}"
        )
    expected = episode_utility(records, oracle_conf, task_images)
    if abs(expected - result.accrued_utility) > CONF_TOL * max(1, submitted):
        problems.append(
            f"accrued utility {result.accrued_utility!r} != recomputed {expected!r}"
        )
    return problems
