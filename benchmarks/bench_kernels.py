"""Evaluation-kernel backends: measured speedup behind an exactness gate.

The pluggable kernels of :mod:`repro.linalg.kernels` (sparse CSR x CSC
and packed bitset, plus the ``auto`` per-level cost model choosing between
them) are pure performance optimizations — every backend must produce
*bitwise identical* slices and statistics.  This bench asserts exactly that (the exactness gate: any
divergence fails the suite) and **reports** the measured numbers: end-to-
end seconds per backend plus the per-level ``level{L}.evaluate`` kernel
seconds and the backend each level actually chose, written to
``benchmarks/BENCH_kernels.json``.

Speedups are not asserted — they depend on the machine — but the JSON
records the level-2 kernel ratio on ``kdd98`` (696k candidates at this
bench scale), which is where the bitset path's advantage is largest.

Workloads: ``kdd98`` (feature-rich, widest one-hot space — the packed
table pays off most) and ``adult`` (the paper's canonical workload).
Override with ``BENCH_KERNELS_WORKLOADS=adult`` for the CI smoke run.
"""

import json
import os
import pathlib

import numpy as np

from repro.core import slice_line
from repro.experiments import bench_config

from conftest import bench_dataset, run_once

BACKENDS = ("sparse", "bitset", "auto")

#: override with a comma-separated list (the CI smoke runs just ``adult``)
WORKLOADS = tuple(
    os.environ.get("BENCH_KERNELS_WORKLOADS", "kdd98,adult").split(",")
)
OUT_PATH = pathlib.Path(__file__).parent / "BENCH_kernels.json"
#: timing samples per arm; arms are interleaved (sparse, bitset, ... then
#: again) so thermal drift hits all equally, and the min per arm is kept
SAMPLES = 2


def _assert_bitwise_identical(ref, other, name):
    """The exactness gate: any backend divergence fails the bench."""
    assert np.array_equal(ref.top_stats, other.top_stats), name
    assert np.array_equal(ref.top_slices_encoded, other.top_slices_encoded), name
    assert [s.predicates for s in ref.top_slices] == [
        s.predicates for s in other.top_slices
    ], name


def _level_records(result):
    """``level -> (evaluate span seconds, chosen backend, candidates)``."""
    out = {}
    for record in result.counters.levels:
        if record.level < 2 or record.evaluated == 0:
            continue
        span = result.trace.find(f"level{record.level}.evaluate")
        out[record.level] = {
            "evaluate_seconds": span.elapsed_seconds if span else None,
            "backend_chosen": record.backend_chosen,
            "evaluated": record.evaluated,
        }
    return out


def _bench_workload(name):
    bundle = bench_dataset(name)
    cfg = bench_config(name, bundle.num_rows)

    def run(backend, trace=None):
        return slice_line(
            bundle.x0, bundle.errors,
            cfg.with_overrides(kernel_backend=backend),
            num_threads=1, trace=trace,
        )

    # Traced arms: the exactness gate + per-level kernel spans.
    traced = {backend: run(backend, trace=True) for backend in BACKENDS}
    for backend in BACKENDS[1:]:
        _assert_bitwise_identical(
            traced["sparse"], traced[backend], f"{name}:{backend}"
        )

    # Untraced arms, interleaved per round: end-to-end timing.  Sub-second
    # workloads get extra rounds so the min is not noise-dominated.
    samples = {backend: [] for backend in BACKENDS}
    for backend in BACKENDS:
        samples[backend].append(run(backend).total_seconds)
    rounds = SAMPLES if max(s[0] for s in samples.values()) > 2.0 else 5
    for _ in range(rounds - 1):
        for backend in BACKENDS:
            samples[backend].append(run(backend).total_seconds)

    sparse_seconds = min(samples["sparse"])
    arms = {}
    for backend in BACKENDS:
        seconds = min(samples[backend])
        arms[backend] = {
            "seconds": seconds,
            "speedup_vs_sparse": sparse_seconds / seconds if seconds else 0.0,
            "levels": _level_records(traced[backend]),
        }

    # The headline kernel ratio: sparse vs best alternative at each level.
    kernel_speedups = {}
    sparse_levels = arms["sparse"]["levels"]
    for level, record in sparse_levels.items():
        base = record["evaluate_seconds"]
        if base is None:
            continue
        best_backend, best_seconds = None, None
        for backend in BACKENDS[1:]:
            other = arms[backend]["levels"].get(level, {})
            seconds = other.get("evaluate_seconds")
            if seconds is not None and (best_seconds is None or seconds < best_seconds):
                best_backend, best_seconds = backend, seconds
        if best_seconds:
            kernel_speedups[level] = {
                "candidates": record["evaluated"],
                "sparse_seconds": base,
                "best_request": best_backend,
                "best_seconds": best_seconds,
                "speedup": base / best_seconds,
            }

    return {
        "workload": name,
        "num_rows": traced["sparse"].num_rows,
        "num_onehot_columns": traced["sparse"].num_onehot_columns,
        "projected_columns": traced["sparse"].counters.level(1).cols_alive,
        "arms": arms,
        "kernel_speedups": kernel_speedups,
    }


def test_kernel_backend_speedup(benchmark):
    records = run_once(
        benchmark, lambda: [_bench_workload(name) for name in WORKLOADS]
    )
    document = {"schema": "repro.bench_kernels/v1", "workloads": records}
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print(f"\nkernel backends (exactness-gated), written to {OUT_PATH}")
    for record in records:
        print(
            f"{record['workload']}: {record['num_rows']} rows, "
            f"{record['projected_columns']} projected cols"
        )
        for backend, arm in record["arms"].items():
            chosen = ",".join(
                f"L{level}={rec['backend_chosen']}"
                for level, rec in sorted(arm["levels"].items())
            )
            print(
                f"  {backend:<12} {arm['seconds']:>8.3f}s "
                f"({arm['speedup_vs_sparse']:>5.2f}x) {chosen}"
            )
        for level, rec in sorted(record["kernel_speedups"].items()):
            print(
                f"  level {level} kernel: {rec['candidates']} candidates, "
                f"{rec['sparse_seconds'] * 1e3:.1f} -> "
                f"{rec['best_seconds'] * 1e3:.1f} ms "
                f"({rec['speedup']:.2f}x via {rec['best_request']})"
            )
    assert len(records) == len(WORKLOADS)
    for record in records:
        assert record["arms"]["sparse"]["levels"], (
            f"{record['workload']} never reached level 2"
        )
