"""Tests of the independent output checker.

Run from the repository root::

    python3 -m pytest perfbench/test_checker.py

The checker must agree with the naive lattice oracle on small random inputs
(missing codes, continuous and 0/1 errors) and must reject corrupted
results.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checker import LevelTwoOracle, check_result, check_slices  # noqa: E402
from repro import SliceLineConfig, slice_line  # noqa: E402
from repro.baselines.naive import naive_top_k  # noqa: E402


def _inputs(seed: int, continuous: bool, rows: int = 240, features: int = 5):
    rng = np.random.default_rng(seed)
    domains = rng.integers(2, 5, size=features)
    x0 = np.column_stack([rng.integers(1, d + 1, size=rows) for d in domains])
    x0[rng.random(x0.shape) < 0.08] = 0  # missing codes
    # keep every code observed so the domains are the intended ones
    for f, d in enumerate(domains):
        x0[: d, f] = np.arange(1, d + 1)
    if continuous:
        errors = rng.exponential(1.0, size=rows)
        errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] *= 4.0
    else:
        errors = (rng.random(rows) < 0.2).astype(np.float64)
        errors[(x0[:, 0] == 2) & (x0[:, 2] == 1)] = 1.0
    return x0, errors


CASES = [(seed, continuous, level)
         for seed in (1, 2, 3) for continuous in (True, False) for level in (2, 3)]


def _check(x0, errors, slices, k, sigma, alpha, level):
    return check_result(x0, errors, slices, k=k, sigma=sigma, alpha=alpha,
                        max_level=level)


@pytest.mark.parametrize("seed,continuous,level", CASES)
def test_agrees_with_naive_oracle(seed, continuous, level):
    x0, errors = _inputs(seed, continuous)
    k, sigma, alpha = 6, 8, 0.9
    naive = naive_top_k(x0, errors, k=k, sigma=sigma, alpha=alpha, max_level=level)
    assert naive, "the inputs must have valid slices"
    assert _check(x0, errors, naive, k, sigma, alpha, level) == []


@pytest.mark.parametrize("seed,continuous,level", CASES)
def test_accepts_slice_line(seed, continuous, level):
    x0, errors = _inputs(seed, continuous)
    cfg = SliceLineConfig(k=6, sigma=8, alpha=0.9, max_level=level)
    result = slice_line(x0, errors, cfg)
    assert _check(x0, errors, result.top_slices, 6, 8, 0.9, level) == []


def test_brute_force_counts_every_valid_level_two_slice():
    x0, errors = _inputs(4, True)
    sigma, alpha = 8, 0.9
    oracle = LevelTwoOracle(x0, errors, sigma, 2)
    everything = naive_top_k(x0, errors, k=10**6, sigma=sigma, alpha=alpha,
                             max_level=2)
    assert int((oracle.scores(alpha) > 0).sum()) == len(everything)


@pytest.fixture
def reference():
    x0, errors = _inputs(5, True)
    k, sigma, alpha = 6, 8, 0.9
    return x0, errors, naive_top_k(x0, errors, k=k, sigma=sigma, alpha=alpha,
                                   max_level=2), (k, sigma, alpha)


def test_rejects_wrong_size(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    bad = list(top)
    bad[2] = dataclasses.replace(bad[2], size=bad[2].size + 1)
    assert any("size" in p for p in _check(x0, errors, bad, k, sigma, alpha, 2))


def test_rejects_dropped_best_slice(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    problems = _check(x0, errors, top[1:], k, sigma, alpha, 2)
    assert any("missing" in p for p in problems)


def test_rejects_best_slice_replaced_by_a_worse_one(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    runner_up = naive_top_k(x0, errors, k=k + 1, sigma=sigma, alpha=alpha,
                            max_level=2)[-1]
    problems = _check(x0, errors, top[1:] + [runner_up], k, sigma, alpha, 2)
    assert any("missing" in p for p in problems)


def test_rejects_level_two_slice_that_beats_a_deeper_one(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    oracle = LevelTwoOracle(x0, errors, sigma, 2)
    best, runner_up = naive_top_k(x0, errors, k=2, sigma=sigma, alpha=alpha,
                                  max_level=2)
    # a level-3 slice scoring below the left-out runner-up takes its place
    deeper = dataclasses.replace(best, predicates={0: 1, 1: 1, 2: 1},
                                 score=runner_up.score / 2)
    problems = oracle.check([best, deeper], k=2, alpha=alpha)
    assert any("missing" in p for p in problems)
    assert oracle.check([best, runner_up], k=2, alpha=alpha) == []


def test_rejects_swapped_slices(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    swapped = [top[1], top[0]] + list(top[2:])
    problems = _check(x0, errors, swapped, k, sigma, alpha, 2)
    assert any("above the previous" in p for p in problems)


def test_rejects_wrong_error_and_max_error(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    bad = [dataclasses.replace(top[0], error=top[0].error * (1 + 1e-6),
                               max_error=top[0].max_error + 1.0)] + list(top[1:])
    problems = check_slices(x0, errors, bad, k=k, sigma=sigma, alpha=alpha,
                            max_level=2)
    assert any("max error" in p for p in problems)
    assert any(": error" in p for p in problems)


def test_rejects_shape_violations(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    problems = check_slices(x0, errors, list(top), k=len(top) - 1, sigma=sigma,
                            alpha=alpha, max_level=1)
    assert any("more than k" in p for p in problems)
    assert any("outside 1..1" in p for p in problems)
    problems = check_slices(x0, errors, list(top), k=k, sigma=10**6,
                            alpha=alpha, max_level=2)
    assert any("below sigma" in p for p in problems)


def test_rejects_two_predicates_on_one_feature(reference):
    x0, errors, top, (k, sigma, alpha) = reference
    feature, value = next(iter(top[0].predicates.items()))
    doubled = dataclasses.replace(top[0], predicates=[(feature, value), (feature, value)])
    problems = check_slices(x0, errors, [doubled], k=k, sigma=sigma,
                            alpha=alpha, max_level=3)
    assert any("more than one predicate" in p for p in problems)
