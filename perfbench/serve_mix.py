"""Serving workload ``serve-mix``: a closed loop against ``SliceService``.

Inputs: ``NUM_DATA`` adult-like datasets (``load_dataset("adult",
scale=0.1)``, 3,256 x 14, 0/1 errors), each relabelled by the run's seed,
submitted as explicit arrays with ``SliceLineConfig(k=4, max_level=3)``.

A session opens a service over a fresh ``state_dir`` (journal fsync on,
``WORKERS`` thread workers) and runs the fixed job list of :func:`job_list`
from one generator thread that keeps at most ``OUTSTANDING`` jobs in
flight: 30% cold misses (new data), 30% warm-start misses (seen data, new
alpha) and 40% exact repeats.  A warm job or a repeat is submitted only
after the job it depends on has completed, so each job's class follows
from the list, not from timing.  The service is then shut down and
reopened ``REOPENS`` times on the same ``state_dir`` (the ``recover_s``
samples).  Sessions repeat until the run's measuring time is used up; the
journal of every session is the same length, so recovery time does not
grow with throughput.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass

import numpy as np

from repro import JobSpec, SliceLineConfig, SliceService, slice_line
from repro.datasets.registry import load_dataset

from arms import direct_arms
from checker import LevelTwoOracle, check_result
from common import (
    SERVICE_LAYERS,
    Outcome,
    cpu_seconds,
    median,
    nproc,
    peak_rss_mb,
    percentile,
    relabel,
    result_problems,
    same_result,
)

NUM_DATA = 12
WARM_ALPHA = 0.9
#: One worker and one job in flight: with two workers and four jobs in
#: flight, the service's time per session relative to a direct call varied
#: twice as much (CV 14% against 8%), because the threads contend for the
#: two vCPUs whenever the host slows one, and ten-run spreads reached 31%.
WORKERS = 1
OUTSTANDING = 1
REOPENS = 3
TENANTS = ("tenant-a", "tenant-b")
#: warm-start results re-run cold outside the service for the exactness check
WARM_SAMPLE = 3
#: completed jobs resubmitted after a restart, per session
RESUBMIT_SAMPLE = 4
#: a job not finished after this long counts as hung
JOB_TIMEOUT_S = 60

COLD_CONFIG = SliceLineConfig(k=4, max_level=3)
WARM_CONFIG = COLD_CONFIG.with_overrides(alpha=WARM_ALPHA)


@dataclass(frozen=True)
class Job:
    kind: str  # "cold", "warm" or "hit"
    data: int
    #: index in the job list of the job this one depends on (-1: none)
    origin: int


def job_list() -> list[Job]:
    """Cold job ``i`` first; its warm job three steps later; repeats of the
    first eight cold and warm jobs six and nine steps later."""
    jobs: list[Job] = []
    first_of: dict[tuple[str, int], int] = {}

    def add(kind: str, data: int, origin_kind: str | None) -> None:
        origin = first_of[(origin_kind, data)] if origin_kind else -1
        if kind != "hit":
            first_of[(kind, data)] = len(jobs)
        jobs.append(Job(kind, data, origin))

    for step in range(NUM_DATA + 9):
        if step < NUM_DATA:
            add("cold", step, None)
        if 0 <= step - 3 < NUM_DATA:
            add("warm", step - 3, "cold")
        if 0 <= step - 6 < 8:
            add("hit", step - 6, "cold")
        if 0 <= step - 9 < 8:
            add("hit", step - 9, "warm")
    return jobs


@dataclass
class JobOutcome:
    """What a finished job's record said (kept instead of the record)."""

    state: str
    reason: str
    error: str | None
    cache_hit: bool
    warm_seeds: int
    coalesced: bool
    submitted_at: float
    started_at: float | None
    finished_at: float
    result: object


@dataclass
class Inputs:
    data: list  # [(x0, errors)]


def build(workload: str, seed: int) -> Inputs:
    """Base datasets ``0..NUM_DATA-1``, each relabelled by *seed*."""
    data = []
    for i in range(NUM_DATA):
        bundle = load_dataset("adult", scale=0.1, seed=i)
        data.append(relabel(bundle.x0, bundle.errors,
                            np.random.default_rng([seed, i])))
    return Inputs(data)


def open_service(state_dir: str) -> SliceService:
    return SliceService(num_workers=min(WORKERS, nproc()),
                        state_dir=state_dir, wal_fsync=True)


def _spec(inputs: Inputs, jobs: list[Job], index: int) -> JobSpec:
    job = jobs[index]
    # A repeat resubmits its origin's spec exactly.
    source = jobs[job.origin] if job.kind == "hit" else job
    config = WARM_CONFIG if source.kind == "warm" else COLD_CONFIG
    x0, errors = inputs.data[source.data]
    return JobSpec(tenant=TENANTS[index % 2], x0=x0, errors=errors,
                   config=config)


def _wait(record) -> None:
    """Wait for a job; a job that never finishes ends the run with an error."""
    if not record.wait(JOB_TIMEOUT_S):
        raise RuntimeError(f"job {record.job_id} still {record.state} "
                           f"after {JOB_TIMEOUT_S} s")


def run_session(inputs: Inputs, jobs: list[Job], state_dir: str) -> dict:
    """One closed loop over the job list, then shutdown and reopenings."""
    service = open_service(state_dir)
    records, submit_s = [], []
    in_flight: list = []
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        for index, job in enumerate(jobs):
            while len(in_flight) >= OUTSTANDING:
                _wait(in_flight[0])
                in_flight = [r for r in in_flight if not r.terminal]
            if job.origin >= 0:
                _wait(records[job.origin])
            spec = _spec(inputs, jobs, index)
            began = time.perf_counter()
            record = service.submit(spec)
            submit_s.append(time.perf_counter() - began)
            records.append(record)
            if not record.terminal:
                in_flight.append(record)
        for record in records:
            _wait(record)
        loop_s = time.perf_counter() - start
        loop_cpu = cpu_seconds() - cpu
        stats = service.stats()
    finally:
        service.shutdown()
    recover_s = []
    reopened_stats = None
    for _ in range(REOPENS):
        began = time.perf_counter()
        reopened = open_service(state_dir)
        recover_s.append(time.perf_counter() - began)
        reopened_stats = reopened.stats()
        recovered_jobs = len(reopened.jobs)
        reopened.shutdown()
    outcomes = [
        JobOutcome(r.state, r.reason, r.error, r.cache_hit, len(r.warm_seeds),
                   r.coalesced, r.submitted_at, r.started_at, r.finished_at,
                   r.result)
        for r in records
    ]
    return {
        "records": outcomes, "submit_s": submit_s, "loop_s": loop_s,
        "loop_cpu": loop_cpu, "stats": stats, "recover_s": recover_s,
        "reopened_stats": reopened_stats, "recovered_jobs": recovered_jobs,
        "wal_bytes": os.path.getsize(os.path.join(state_dir, "wal", "journal.wal")),
        "state_bytes": _tree_bytes(state_dir),
    }


def _tree_bytes(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _job_class_problems(jobs: list[Job], records) -> list[str]:
    problems = []
    for index, (job, record) in enumerate(zip(jobs, records)):
        if record.state != "completed":
            problems.append(f"job {index} ({job.kind}) ended {record.state}: "
                            f"{record.reason} {record.error or ''}")
            continue
        actual = ("hit" if record.cache_hit else
                  "warm" if record.warm_seeds else "cold")
        if record.coalesced or actual != job.kind:
            problems.append(f"job {index} meant {job.kind} ran as {actual}"
                            + (" (coalesced)" if record.coalesced else ""))
    return problems


def _sessions(inputs: Inputs, seconds: float, work_dir: str,
              direct: bool) -> list[dict]:
    """Sessions until *seconds* are used up; with *direct*, each starts with
    an untraced ``slice_line`` call on every cold input (``find_s``)."""
    jobs = job_list()
    sessions = []
    start = time.perf_counter()
    while True:
        calls = []
        if direct:
            began = time.perf_counter()
            calls = [slice_line(x0, errors, COLD_CONFIG)
                     for x0, errors in inputs.data]
            direct_s = (time.perf_counter() - began) / len(calls)
        state_dir = os.path.join(work_dir, f"state-{len(sessions)}")
        sessions.append(run_session(inputs, jobs, state_dir))
        sessions[-1].update(state_dir=state_dir, direct=calls,
                            direct_s=direct_s if direct else None)
        # A shut-down service lingers in reference cycles; collect it so
        # peak memory does not depend on how many sessions fit in the run.
        gc.collect()
        if time.perf_counter() - start >= seconds:
            return sessions


def _latencies_ms(jobs, sessions, kinds) -> list[float]:
    return [
        1000 * (record.finished_at - record.submitted_at)
        for session in sessions
        for job, record in zip(jobs, session["records"])
        if job.kind in kinds
    ]


def measure(inputs: Inputs, seconds: float, work_dir: str) -> Outcome:
    jobs = job_list()
    sessions = _sessions(inputs, seconds, work_dir, direct=True)
    rss = peak_rss_mb()

    outcome = Outcome(attempted=sum(
        NUM_DATA + len(jobs) + REOPENS + RESUBMIT_SAMPLE for _ in sessions))
    direct = sessions[0]["direct"]
    for number, session in enumerate(sessions[1:], start=1):
        for index, (a, b) in enumerate(zip(direct, session["direct"])):
            if not same_result(a, b):
                outcome.failed += 1
                outcome.problems.append(
                    f"session {number} direct call {index} differs from the first")
    _verify(outcome, inputs, jobs, sessions, direct)

    all_ms = _latencies_ms(jobs, sessions, ("cold", "warm", "hit"))
    loop_s = sum(s["loop_s"] for s in sessions)
    outcome.metrics = {
        "find_s": {"value": median([s["direct_s"] for s in sessions]),
                   "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "jobs_per_s": {"value": len(all_ms) / loop_s, "unit": "1/s"},
        "job_p50_ms": {"value": percentile(all_ms, 50), "unit": "ms"},
        "job_p90_ms": {"value": percentile(all_ms, 90), "unit": "ms"},
        "cold_p50_ms": {"value": median(_latencies_ms(jobs, sessions, ("cold",))),
                        "unit": "ms"},
        "warm_p50_ms": {"value": median(_latencies_ms(jobs, sessions, ("warm",))),
                        "unit": "ms"},
        "recover_s": {"value": median([t for s in sessions for t in s["recover_s"]]),
                      "unit": "s"},
    }
    outcome.report.append(
        f"serve-mix: {len(sessions)} sessions x {len(jobs)} jobs "
        f"({len(all_ms)} latencies), {WORKERS} workers, {OUTSTANDING} outstanding"
    )
    return outcome


def _verify(outcome: Outcome, inputs: Inputs, jobs, sessions, direct) -> None:
    """Classes, checker, hit == origin, warm == cold, recovery."""
    def fail(problems: list[str], what: str) -> None:
        if problems:
            outcome.failed += 1
            outcome.problems += [f"{what}: {p}" for p in problems]

    if not all(np.isin(errors, (0.0, 1.0)).all() for _, errors in inputs.data):
        fail(["errors are not 0/1"], "serve-mix inputs")
    sigma = COLD_CONFIG.resolve_sigma(inputs.data[0][0].shape[0])
    for index, ((x0, errors), result) in enumerate(zip(inputs.data, direct)):
        oracle = LevelTwoOracle(x0, errors, sigma, 2)
        fail(result_problems(result) + check_result(
            x0, errors, result.top_slices, k=COLD_CONFIG.k, sigma=sigma,
            alpha=COLD_CONFIG.alpha, max_level=COLD_CONFIG.max_level,
            oracle=oracle), f"direct call {index}")
        warm = next(r for j, r in zip(jobs, sessions[0]["records"])
                    if j.kind == "warm" and j.data == index)
        if warm.result is not None:
            fail(result_problems(warm.result) + check_result(
                x0, errors, warm.result.top_slices, k=WARM_CONFIG.k,
                sigma=sigma, alpha=WARM_ALPHA, max_level=WARM_CONFIG.max_level,
                oracle=oracle), f"warm job on data {index}")
        if index < WARM_SAMPLE and warm.result is not None:
            cold = slice_line(x0, errors, WARM_CONFIG)
            if not same_result(cold, warm.result):
                fail(["differs from a cold slice_line"], f"warm job on data {index}")

    first = sessions[0]["records"]
    for number, session in enumerate(sessions):
        records = session["records"]
        for problem in _job_class_problems(jobs, records):
            fail([problem], f"session {number}")
        for index, (job, record) in enumerate(zip(jobs, records)):
            if record.result is None:
                continue
            if job.kind == "cold" and not same_result(record.result, direct[job.data]):
                fail(["differs from the direct call"], f"session {number} job {index}")
            reference = records[job.origin] if job.kind == "hit" else first[index]
            if reference.result is None or not same_result(record.result, reference.result):
                fail(["differs from its origin / the first session"],
                     f"session {number} job {index}")
        durability = session["reopened_stats"].get("durability", {})
        fail([f"recovery errors {durability.get('recovery_errors')}"]
             if durability.get("recovery_errors") else [], f"session {number} reopen")
        fail([f"WAL quarantine {durability.get('wal_quarantined')}"]
             if durability.get("wal_quarantined") else [], f"session {number} reopen")
        fail(_resubmit_problems(inputs, jobs, session), f"session {number} restart")


def _resubmit_problems(inputs: Inputs, jobs, session) -> list[str]:
    """Completed specs resubmitted after a restart are equal cache hits."""
    records = session["records"]
    sample = [i for i, job in enumerate(jobs) if job.kind != "hit"][:RESUBMIT_SAMPLE]
    problems = []
    service = open_service(session["state_dir"])
    try:
        for index in sample:
            record = service.submit(_spec(inputs, jobs, index))
            if not record.wait(JOB_TIMEOUT_S) or not record.cache_hit:
                problems.append(f"job {index} resubmitted was not a cache hit "
                                f"({record.state})")
            elif not same_result(record.result, records[index].result):
                problems.append(f"job {index} resubmitted differs from before")
    finally:
        service.shutdown()
    return problems


def trace(inputs: Inputs, seconds: float, work_dir: str, nproc: int) -> Outcome:
    """Per-layer figures: service layers from job timestamps, stats and
    state-dir sizes; enumeration layers from direct traced calls on the
    cold inputs."""
    jobs = job_list()
    arms = direct_arms([(x0, e, COLD_CONFIG) for x0, e in inputs.data],
                       seconds / 2, nproc)
    sessions = _sessions(inputs, seconds / 2, work_dir, direct=False)
    outcome = Outcome(attempted=arms.calls + sum(
        len(jobs) + REOPENS + RESUBMIT_SAMPLE for _ in sessions))
    _verify(outcome, inputs, jobs, sessions, arms.results)
    if arms.problems:
        outcome.failed += 1
        outcome.problems += arms.problems

    def per_session(fn) -> float:
        return median([fn(s) for s in sessions])

    def run_ms(kind):
        return median([1000 * (r.finished_at - r.started_at)
                       for s in sessions for j, r in zip(jobs, s["records"])
                       if j.kind == kind])

    def evaluated(kind):
        return float(np.mean([r.result.total_evaluated
                              for j, r in zip(jobs, sessions[0]["records"])
                              if j.kind == kind]))

    events = sessions[0]["stats"]["events"]
    metrics = dict(arms.metrics)
    metrics["cpu_s"] = {"value": per_session(lambda s: s["loop_cpu"]), "unit": "s"}
    values = {
        "serve.admission_ms": 1000 * median(
            [t for s in sessions for t in s["submit_s"]]),
        "serve.queue_wait_ms": median([
            1000 * (r.started_at - r.submitted_at) for s in sessions
            for r in s["records"] if r.started_at is not None]),
        "serve.run_ms.cold": run_ms("cold"),
        "serve.run_ms.warm": run_ms("warm"),
        "serve.cold_evaluated": evaluated("cold"),
        "serve.warm_evaluated": evaluated("warm"),
        "serve.hit_ms": median(_latencies_ms(jobs, sessions, ("hit",))),
        "serve.cache_hits": events.get("serve.cache_hits", 0),
        "serve.cache_misses": events.get("serve.cache_misses", 0),
        "serve.warm_starts": events.get("serve.warm_starts", 0),
        "serve.wal_bytes": per_session(lambda s: s["wal_bytes"]),
        "serve.wal_records": per_session(
            lambda s: s["reopened_stats"]["durability"]["wal_replayed"]),
        "serve.state_bytes": per_session(lambda s: s["state_bytes"]),
        "serve.recovered_jobs": per_session(lambda s: s["recovered_jobs"]),
    }
    metrics.update({name: {"value": values[name], "unit": unit}
                    for name, unit in SERVICE_LAYERS.items()})
    outcome.metrics = metrics
    outcome.report.append(
        f"serve-mix: {arms.rounds} traced rounds over {NUM_DATA} inputs, "
        f"{len(sessions)} sessions; kernel backends (input 0) " + " ".join(arms.backends)
    )
    return outcome
