"""Direct-call arms of the traced mode, shared by every workload."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import slice_line

import layers
from common import cpu_seconds, median, same_result


def timed(fn, *args, **kwargs):
    """``(wall seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@dataclass
class Arms:
    metrics: dict
    results: list
    problems: list
    backends: list
    rounds: int
    calls: int


def direct_arms(calls, seconds: float, nproc: int) -> Arms:
    """Rounds of an untraced serial, a traced serial and a traced ``nproc``
    call on each ``(x0, errors, config)`` in *calls*.

    Layer seconds are summed over one round's calls and divided by their
    number (the figures of an average call); each is the median over rounds.
    """
    per_round: list[dict] = []
    untraced_s, traced_s = [], []
    results, problems = [], []
    counts: dict[str, float] = {}
    backends: list[str] = []
    start = time.perf_counter()
    while True:
        sums: dict[str, float] = {}
        plain_total = traced_total = 0.0
        for index, (x0, errors, cfg) in enumerate(calls):
            cpu = cpu_seconds()
            elapsed, plain = timed(slice_line, x0, errors, cfg)
            sums["cpu_s"] = sums.get("cpu_s", 0.0) + cpu_seconds() - cpu
            plain_total += elapsed
            elapsed, traced = timed(slice_line, x0, errors, cfg, trace=True)
            traced_total += elapsed
            sums["core.find_s"] = sums.get("core.find_s", 0.0) + elapsed
            doc = traced.to_obs_dict()
            for name, value in layers.span_seconds(doc).items():
                sums[name] = sums.get(name, 0.0) + value
            elapsed, par = timed(slice_line, x0, errors, cfg,
                                  num_threads=nproc, trace=True)
            par_layers = layers.span_seconds(par.to_obs_dict())
            for name, value in (("par.find_s", elapsed),
                                ("par.pairs_s", par_layers["core.pairs_s"]),
                                ("par.evaluate_s", par_layers["core.evaluate_s"])):
                sums[name] = sums.get(name, 0.0) + value
            if not per_round:
                results.append(plain)
                for name, value in layers.enumeration_counts(doc).items():
                    counts[name] = counts.get(name, 0.0) + value / len(calls)
                backends = backends or layers.backends(doc)
            for label, other in (("traced", traced), (f"{nproc}-thread", par)):
                if not same_result(results[index], other):
                    problems.append(f"{label} result {index} differs from untraced")
        per_round.append({name: value / len(calls) for name, value in sums.items()})
        untraced_s.append(plain_total)
        traced_s.append(traced_total)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name in per_round[0]:
        metrics[name] = {"value": median([r[name] for r in per_round]),
                         "unit": "s"}
    for name, value in counts.items():
        metrics[name] = {"value": value,
                         "unit": "ratio" if name.endswith("_per_evaluated") else "count"}
    metrics["trace.overhead_pct"] = {
        "value": 100 * (median(traced_s) / median(untraced_s) - 1), "unit": "%"}
    return Arms(metrics, results, problems, backends, len(per_round),
                3 * len(calls) * len(per_round))
