"""Helpers shared by the workloads: outcome record, statistics, equality."""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field

import numpy as np


#: per-layer metrics of the serving layer, with their units
SERVICE_LAYERS = {
    "serve.admission_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms.cold": "ms",
    "serve.run_ms.warm": "ms",
    "serve.cold_evaluated": "count",
    "serve.warm_evaluated": "count",
    "serve.hit_ms": "ms",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.warm_starts": "count",
    "serve.wal_bytes": "bytes",
    "serve.wal_records": "count",
    "serve.state_bytes": "bytes",
    "serve.recovered_jobs": "count",
}


@dataclass
class Outcome:
    """What one workload run measured and found."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    report: list = field(default_factory=list)


def relabel(x0: np.ndarray, errors: np.ndarray, rng: np.random.Generator):
    """An isomorphic copy of ``(x0, errors)`` drawn from *rng*.

    Rows, features and each feature's value codes are permuted (code 0,
    missing, stays 0).  The copy poses the same slice-finding problem -- the
    same lattice, candidate counts and top-K up to renaming -- in different
    bytes, row order, column order and one-hot layout.
    """
    rows = rng.permutation(x0.shape[0])
    features = rng.permutation(x0.shape[1])
    moved = x0[rows][:, features]
    out = np.empty_like(moved)
    for j in range(moved.shape[1]):
        codes = np.concatenate([[0], 1 + rng.permutation(int(moved[:, j].max()))])
        out[:, j] = codes[moved[:, j]]
    return out, errors[rows].copy()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """The process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def same_result(a, b) -> bool:
    """Bitwise equality of two results' top-K slices and statistics."""
    return (
        np.array_equal(a.top_slices_encoded, b.top_slices_encoded)
        and np.array_equal(a.top_stats, b.top_stats)
        and [s.predicates for s in a.top_slices]
        == [s.predicates for s in b.top_slices]
    )


def result_problems(result) -> list[str]:
    """The run finished: no budget tripped and it was not suspended."""
    if not result.completed or result.suspended:
        return ["run did not complete"]
    return []


def counter_notes(result) -> list[str]:
    """Broken flow-conservation identities of the run's counters.

    Reported, not failed: the priority-evaluation loop breaks one of them on
    the batch workloads for every seed (see the FOUND line in CHANGES.md).
    """
    return [f"counter identity broken: {p}" for p in result.counters.reconcile()]


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
