"""Batch workloads: ``kdd98-cont`` and ``covtype-01``.

Both call :func:`repro.slice_line` directly on arrays generated from the
seed, with the Section-5 configuration of
:func:`repro.experiments.bench_config`.  One round is

1. a cold call (the ``find_s`` sample),
2. ``BURST`` resumes from the previous round's checkpoints (the
   ``recover_s`` samples; the last round's get theirs after the loop),
3. a warm-started call at ``WARM_ALPHA`` seeded with the cold call's top-K
   that writes level-boundary checkpoints, as a serving job does, and
4. ``BURST`` resumes from those checkpoints.

Rounds repeat until the run's measuring time is used up.  Resumes are short
and the host's speed drifts over seconds, so they are taken in bursts on
both sides of a long call rather than all at once.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import SliceLineConfig, slice_line
from repro.datasets.registry import load_dataset
from repro.experiments.workloads import bench_config

from arms import direct_arms, timed
from checker import LevelTwoOracle, check_result
from common import (
    Outcome,
    SERVICE_LAYERS,
    counter_notes,
    median,
    peak_rss_mb,
    percentile,
    relabel,
    result_problems,
    same_result,
)

#: workload -> (registry dataset, scale, errors must be 0/1)
SPECS = {
    "kdd98-cont": ("kdd98", 0.01, False),
    "covtype-01": ("covtype", 0.02, True),
}

#: generator seed of the base dataset; the run's seed relabels it (see
#: ``common.relabel``): independent draws per seed changed the amount of
#: work by up to ~10%, more than the bounds allow
BASE_SEED = 0

#: alpha of the warm-started call: same data, new alpha
WARM_ALPHA = 0.9

#: checkpoint resumes per burst; each round's checkpoints get two bursts
BURST = 8


@dataclass
class Inputs:
    workload: str
    x0: np.ndarray
    errors: np.ndarray
    config: SliceLineConfig


def build(workload: str, seed: int) -> Inputs:
    """The base dataset, relabelled by *seed*."""
    dataset, scale, _ = SPECS[workload]
    bundle = load_dataset(dataset, scale=scale, seed=BASE_SEED)
    x0, errors = relabel(bundle.x0, bundle.errors, np.random.default_rng(seed))
    return Inputs(workload, x0, errors, bench_config(dataset, bundle.num_rows))


def input_problems(inputs: Inputs) -> list[str]:
    """The generated inputs have the make-up the workload stands for."""
    zero_one = bool(np.isin(inputs.errors, (0.0, 1.0)).all())
    if zero_one != SPECS[inputs.workload][2]:
        kind = "0/1" if SPECS[inputs.workload][2] else "continuous"
        return [f"{inputs.workload}: errors are not {kind}"]
    return []


def measure(inputs: Inputs, seconds: float, work_dir: str) -> Outcome:
    """Untraced rounds of cold, warm and resumed calls."""
    x0, errors, cold_cfg = inputs.x0, inputs.errors, inputs.config
    warm_cfg = cold_cfg.with_overrides(alpha=WARM_ALPHA)
    cold_s, warm_s, recover_s = [], [], []
    colds, warms, resumed = [], [], []

    def burst(checkpoints: str) -> None:
        for _ in range(BURST):
            elapsed, again = timed(slice_line, x0, errors, warm_cfg,
                                   resume_from=checkpoints)
            recover_s.append(elapsed)
            resumed.append(again)

    previous = None
    start = time.perf_counter()
    while True:
        elapsed, cold = timed(slice_line, x0, errors, cold_cfg)
        cold_s.append(elapsed)
        colds.append(cold)
        if previous is not None:
            burst(previous)
        previous = os.path.join(work_dir, f"checkpoints-{len(colds)}")
        elapsed, warm = timed(slice_line, x0, errors, warm_cfg,
                              seed_slices=cold.top_slices,
                              checkpoint_dir=previous)
        warm_s.append(elapsed)
        warms.append(warm)
        burst(previous)
        if time.perf_counter() - start >= seconds:
            break
    burst(previous)
    rss = peak_rss_mb()

    outcome = Outcome(attempted=len(colds) + len(warms) + len(resumed))
    outcome.problems += input_problems(inputs)
    oracle = LevelTwoOracle(x0, errors, cold_cfg.sigma,
                            min(cold_cfg.max_level, 2))
    _verify(outcome, x0, errors, colds, cold_cfg, oracle, "cold")
    _verify(outcome, x0, errors, warms + resumed, warm_cfg, oracle, "warm")

    jobs_ms = [1000 * s for s in cold_s + warm_s]
    outcome.metrics = {
        "find_s": {"value": median(cold_s), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "jobs_per_s": {"value": len(jobs_ms) / (sum(jobs_ms) / 1000), "unit": "1/s"},
        "job_p50_ms": {"value": percentile(jobs_ms, 50), "unit": "ms"},
        "job_p90_ms": {"value": percentile(jobs_ms, 90), "unit": "ms"},
        "cold_p50_ms": {"value": 1000 * median(cold_s), "unit": "ms"},
        "warm_p50_ms": {"value": 1000 * median(warm_s), "unit": "ms"},
        "recover_s": {"value": median(recover_s), "unit": "s"},
    }
    outcome.report.append(
        f"{inputs.workload}: {len(colds)} rounds; cold {_fmt(cold_s)} s, "
        f"warm {_fmt(warm_s)} s, resume {_fmt(recover_s)} s; "
        f"{len(oracle)} level-1/2 slices brute-forced"
    )
    outcome.report += counter_notes(colds[0])
    return outcome


def _verify(outcome, x0, errors, results, cfg, oracle, label) -> None:
    """Checker on the first result; every other must equal it bitwise."""
    first = results[0]
    problems = result_problems(first) + check_result(
        x0, errors, first.top_slices, k=cfg.k, sigma=cfg.sigma,
        alpha=cfg.alpha, max_level=cfg.max_level, oracle=oracle,
    )
    if problems:
        outcome.failed += 1
        outcome.problems += [f"{label} result: {p}" for p in problems]
    for index, other in enumerate(results[1:], start=1):
        if not same_result(first, other):
            outcome.failed += 1
            outcome.problems.append(f"{label} result {index} differs from the first")


def _fmt(values) -> str:
    return "/".join(f"{v:.3f}" for v in values)


def trace(inputs: Inputs, seconds: float, work_dir: str, nproc: int) -> Outcome:
    """Per-layer figures: untraced, traced and traced ``nproc`` calls."""
    arms = direct_arms([(inputs.x0, inputs.errors, inputs.config)], seconds, nproc)
    outcome = Outcome(attempted=arms.calls)
    outcome.problems += input_problems(inputs)
    cfg = inputs.config
    reference = arms.results[0]
    problems = check_result(inputs.x0, inputs.errors, reference.top_slices,
                            k=cfg.k, sigma=cfg.sigma, alpha=cfg.alpha,
                            max_level=cfg.max_level)
    problems += result_problems(reference)
    problems += arms.problems
    if problems:
        outcome.failed += 1
        outcome.problems += problems
    outcome.metrics = arms.metrics
    # No service in a batch workload: its serving layers do no work.
    outcome.metrics.update(
        {name: {"value": 0, "unit": unit} for name, unit in SERVICE_LAYERS.items()})
    outcome.report.append(
        f"{inputs.workload}: {arms.rounds} traced rounds; kernel backends "
        + " ".join(arms.backends)
    )
    return outcome
