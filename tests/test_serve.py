"""Tests for the multi-tenant job service (repro.serve).

The load-bearing guarantees:

- job fingerprints are deterministic content hashes (same data + config
  -> same id; any result-affecting change -> different id);
- an exact-fingerprint resubmission is served from cache with zero
  enumeration (no ``level{L}.evaluate`` spans on its trace);
- a same-data/different-config miss warm-starts from the cached top-K
  and still matches a cold run bitwise;
- a suspended-then-resumed job matches an uninterrupted run bitwise;
- admission control and fair-share scheduling behave under concurrency
  (N tenants x M jobs always terminate, cancellations release slots).
"""

from __future__ import annotations

import gc
import json
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import slice_line
from repro.core.config import SliceLineConfig
from repro.exceptions import ConfigError, ServeError
from repro.resilience.budgets import BudgetConfig, SuspendHook
from repro.resilience.checkpoint import (
    fingerprint_config,
    fingerprint_digest,
    fingerprint_inputs,
    job_fingerprint,
)
from repro.serve import (
    JobQueue,
    JobSpec,
    JobState,
    ResultCache,
    SliceService,
    TenantQuota,
    load_job_document,
    load_job_file,
)
from repro.serve.scheduler import Scheduler
from repro.streaming import PredictionBatch, SliceMonitor


def _span_names(tracer):
    return [span.name for root in tracer.spans for span in root.iter_spans()]


@pytest.fixture
def service_workdir(tmp_path):
    return str(tmp_path / "serve-work")


# ---------------------------------------------------------------------------
# fingerprints


class TestJobFingerprint:
    def test_deterministic_across_calls(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        assert job_fingerprint(x0, errors, cfg) == job_fingerprint(
            x0.copy(), errors.copy(), cfg
        )

    def test_is_a_hex_digest(self, planted_dataset):
        x0, errors, _ = planted_dataset
        digest = job_fingerprint(x0, errors, SliceLineConfig())
        assert len(digest) == 64
        int(digest, 16)

    def test_sensitive_to_data_and_config(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        base = job_fingerprint(x0, errors, cfg)
        assert job_fingerprint(x0, errors, SliceLineConfig(k=4)) != base
        flipped = errors.copy()
        flipped[0] = 1.0 - flipped[0]
        assert job_fingerprint(x0, flipped, cfg) != base

    def test_digest_separates_fingerprint_order(self, planted_dataset):
        x0, errors, _ = planted_dataset
        data = fingerprint_inputs(x0, errors)
        cfg = fingerprint_config(SliceLineConfig())
        assert fingerprint_digest(data, cfg) != fingerprint_digest(cfg, data)
        assert fingerprint_digest(data) != fingerprint_digest(data, cfg)


# ---------------------------------------------------------------------------
# BudgetConfig.merged


class TestBudgetMerge:
    def test_tightest_wins_per_field(self):
        tenant = BudgetConfig(deadline_s=10.0, max_candidates_per_level=1000)
        job = BudgetConfig(deadline_s=30.0, max_memory_bytes=1 << 20)
        merged = tenant.merged(job)
        assert merged.deadline_s == 10.0
        assert merged.max_candidates_per_level == 1000
        assert merged.max_memory_bytes == 1 << 20

    def test_job_cannot_loosen_tenant_limits(self):
        tenant = BudgetConfig(max_candidates_per_level=100)
        job = BudgetConfig(max_candidates_per_level=100_000)
        assert tenant.merged(job).max_candidates_per_level == 100

    def test_none_returns_self(self):
        tenant = BudgetConfig(deadline_s=5.0)
        assert tenant.merged(None) is tenant

    def test_type_validation(self):
        with pytest.raises(ConfigError):
            BudgetConfig().merged({"deadline_s": 1.0})

    def test_merged_is_commutative(self):
        a = BudgetConfig(deadline_s=10.0, max_memory_bytes=1 << 30)
        b = BudgetConfig(deadline_s=3.0, max_candidates_per_level=50)
        assert a.merged(b) == b.merged(a)


# ---------------------------------------------------------------------------
# SuspendHook + slice_line suspension


class TestSuspension:
    def test_suspend_hook_roundtrip(self):
        hook = SuspendHook()
        assert not hook.requested
        hook.request()
        assert hook.requested
        hook.clear()
        assert not hook.requested

    def test_pre_requested_hook_suspends_at_first_boundary(
        self, planted_dataset, tmp_path
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3, max_level=3)
        hook = SuspendHook()
        hook.request()
        result = slice_line(
            x0, errors, cfg, checkpoint_dir=str(tmp_path), suspend=hook
        )
        assert result.suspended
        assert not result.completed
        assert result.budget_trip is None
        assert result.counters.events.get("suspend.yield") == 1

    def test_resume_after_suspend_is_bitwise_identical(
        self, planted_dataset, tmp_path
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=5, max_level=4)
        hook = SuspendHook()
        hook.request()
        partial = slice_line(
            x0, errors, cfg, checkpoint_dir=str(tmp_path), suspend=hook
        )
        assert partial.suspended
        hook.clear()
        resumed = slice_line(
            x0, errors, cfg, resume_from=str(tmp_path), suspend=hook
        )
        cold = slice_line(x0, errors, cfg)
        assert resumed.completed and not resumed.suspended
        assert np.array_equal(resumed.top_stats, cold.top_stats)
        assert np.array_equal(
            resumed.top_slices_encoded, cold.top_slices_encoded
        )

    def test_unrequested_hook_changes_nothing(self, planted_dataset):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=3)
        with_hook = slice_line(x0, errors, cfg, suspend=SuspendHook())
        without = slice_line(x0, errors, cfg)
        assert np.array_equal(with_hook.top_stats, without.top_stats)
        assert with_hook.completed


# ---------------------------------------------------------------------------
# result cache


class TestResultCache:
    def _result(self, planted, cfg):
        x0, errors, _ = planted
        return slice_line(x0, errors, cfg)

    def test_exact_hit_and_lru_eviction(self, planted_dataset):
        cache = ResultCache(capacity=2)
        result = self._result(planted_dataset, SliceLineConfig(k=2))
        cache.put("fp-a", "data", result)
        cache.put("fp-b", "data", result)
        assert cache.get("fp-a") is result
        cache.put("fp-c", "data", result)  # evicts fp-b (LRU)
        assert cache.get("fp-b") is None
        assert cache.get("fp-a") is result
        assert len(cache) == 2

    def test_partial_results_are_never_cached(self, planted_dataset):
        x0, errors, _ = planted_dataset
        partial = slice_line(
            x0, errors, SliceLineConfig(k=2),
            budgets=BudgetConfig(max_candidates_per_level=1),
        )
        assert not partial.completed
        cache = ResultCache()
        assert not cache.put("fp", "data", partial)
        assert len(cache) == 0

    def test_warm_seeds_prefers_most_recent_same_data(self, planted_dataset):
        cache = ResultCache()
        r1 = self._result(planted_dataset, SliceLineConfig(k=2))
        r2 = self._result(planted_dataset, SliceLineConfig(k=4))
        cache.put("fp-1", "data-x", r1)
        cache.put("fp-2", "data-x", r2)
        assert cache.warm_seeds("data-x") == list(r2.top_slices)
        assert cache.warm_seeds("data-unknown") == []


# ---------------------------------------------------------------------------
# declarative job files


class TestDeclarative:
    DOC = {
        "defaults": {
            "tenant": "analytics",
            "dataset": "salaries",
            "config": {"k": 4, "max_level": 3},
        },
        "jobs": [
            {"name": "baseline"},
            {"name": "deep", "config": {"max_level": 5}},
            {
                "name": "mon",
                "kind": "monitor",
                "tenant": "ops",
                "batch_size": 64,
            },
        ],
    }

    def test_defaults_merge_key_wise(self):
        specs = load_job_document(self.DOC)
        assert [s.name for s in specs] == ["baseline", "deep", "mon"]
        assert specs[0].config.k == 4 and specs[0].config.max_level == 3
        # "deep" overrides max_level but inherits k from the defaults
        assert specs[1].config.k == 4 and specs[1].config.max_level == 5
        assert specs[2].kind == "monitor" and specs[2].tenant == "ops"

    def test_unknown_keys_rejected(self):
        doc = {"jobs": [{"dataset": "salaries", "bogus_knob": 1}]}
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_job_document(doc)
        doc = {"jobs": [{"dataset": "salaries", "config": {"topk": 3}}]}
        with pytest.raises(ConfigError, match="topk"):
            load_job_document(doc)

    def test_jobs_array_required(self):
        with pytest.raises(ConfigError, match="non-empty"):
            load_job_document({"defaults": {}, "jobs": []})

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.DOC))
        specs = load_job_file(str(path))
        assert len(specs) == 3

    def test_toml_file(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        assert tomllib is not None
        path = tmp_path / "jobs.toml"
        path.write_text(
            "[defaults]\n"
            'tenant = "analytics"\n'
            'dataset = "salaries"\n'
            "[defaults.config]\n"
            "k = 4\n"
            "[[jobs]]\n"
            'name = "baseline"\n'
            "[[jobs]]\n"
            'name = "deep"\n'
            "[jobs.config]\n"
            "max_level = 5\n"
        )
        specs = load_job_file(str(path))
        assert len(specs) == 2
        assert specs[1].config.k == 4 and specs[1].config.max_level == 5

    def test_budgets_table(self):
        doc = {
            "jobs": [
                {"dataset": "salaries", "budgets": {"deadline_s": 2.5}}
            ]
        }
        specs = load_job_document(doc)
        assert specs[0].budgets == BudgetConfig(deadline_s=2.5)


# ---------------------------------------------------------------------------
# job spec validation


class TestJobSpec:
    def test_needs_exactly_one_data_source(self, planted_dataset):
        x0, errors, _ = planted_dataset
        with pytest.raises(ConfigError):
            JobSpec(tenant="t")  # no source
        with pytest.raises(ConfigError):
            JobSpec(tenant="t", dataset="salaries", x0=x0, errors=errors)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            JobSpec(kind="train", dataset="salaries")


# ---------------------------------------------------------------------------
# queue: admission control + fair share


class TestJobQueue:
    def _record(self, tenant="a", interactive=False):
        return __import__("repro.serve.spec", fromlist=["JobRecord"]).JobRecord(
            job_id=f"{tenant}/{id(object())}",
            spec=JobSpec(
                tenant=tenant,
                dataset="salaries",
                interactive=interactive,
            ),
            fingerprint="fp",
            data_digest="dd",
        )

    def test_backlog_limit_rejects_with_typed_reason(self):
        quota = TenantQuota(max_running=1, max_queued=2)
        queue = JobQueue(lambda tenant: quota)
        assert queue.admit(self._record(), quota).admitted
        assert queue.admit(self._record(), quota).admitted
        decision = queue.admit(self._record(), quota)
        assert not decision.admitted
        assert decision.reason == "queue-full"

    def test_over_quota_submission_is_queued_not_rejected(self):
        quota = TenantQuota(max_running=1, max_queued=10)
        queue = JobQueue(lambda tenant: quota)
        queue.admit(self._record(), quota)
        first = queue.take(timeout=0.1)
        assert first is not None
        decision = queue.admit(self._record(), quota)
        assert decision.admitted
        assert decision.reason == "queued-over-quota"
        # tenant at max_running: nothing is dispatchable until release
        assert queue.take(timeout=0.05) is None
        queue.release(first)
        assert queue.take(timeout=0.1) is not None

    def test_fair_share_alternates_tenants(self):
        quota = TenantQuota(max_running=4, max_queued=16)
        queue = JobQueue(lambda tenant: quota)
        for _ in range(2):
            queue.admit(self._record("noisy"), quota)
        queue.admit(self._record("quiet"), quota)
        first = queue.take(timeout=0.1)
        second = queue.take(timeout=0.1)
        # both tenants get a slot before any tenant gets its second
        assert {first.spec.tenant, second.spec.tenant} == {"noisy", "quiet"}

    def test_weight_biases_fair_share(self):
        quotas = {
            "heavy": TenantQuota(max_running=8, weight=4.0),
            "light": TenantQuota(max_running=8, weight=1.0),
        }
        queue = JobQueue(lambda tenant: quotas[tenant])
        for _ in range(4):
            queue.admit(self._record("heavy"), quotas["heavy"])
            queue.admit(self._record("light"), quotas["light"])
        taken = [queue.take(timeout=0.1).spec.tenant for _ in range(5)]
        # with 4x weight, "heavy" accumulates service 4x slower
        assert taken.count("heavy") > taken.count("light")

    def test_interactive_jumps_batch_jobs(self):
        quota = TenantQuota(max_running=4, max_queued=16)
        queue = JobQueue(lambda tenant: quota)
        queue.admit(self._record("batch"), quota)
        queue.admit(self._record("live", interactive=True), quota)
        assert queue.take(timeout=0.1).spec.tenant == "live"

    def test_requeue_goes_to_the_front(self):
        quota = TenantQuota(max_running=4, max_queued=16)
        queue = JobQueue(lambda tenant: quota)
        first = self._record("a")
        second = self._record("a")
        queue.admit(first, quota)
        queue.admit(second, quota)
        taken = queue.take(timeout=0.1)
        assert taken is first
        queue.requeue(taken)
        assert queue.take(timeout=0.1) is first

    def test_remove_withdraws_queued_job(self):
        quota = TenantQuota()
        queue = JobQueue(lambda tenant: quota)
        record = self._record()
        queue.admit(record, quota)
        assert queue.remove(record)
        assert not queue.remove(record)
        assert queue.depth() == 0

    def test_served_is_charged_once_across_preemption_retakes(self):
        quota = TenantQuota(max_running=4, max_queued=16)
        queue = JobQueue(lambda tenant: quota)
        record = self._record("a")
        queue.admit(record, quota)
        assert queue.take(timeout=0.1) is record
        queue.requeue(record)  # preempted
        assert queue.take(timeout=0.1) is record  # resumed
        # one unit of historical service, not one per dispatch
        assert queue.tenant_stats()["a"]["served"] == 1

    def test_interactive_behind_same_tenant_batch_still_jumps(self):
        quota = TenantQuota(max_running=4, max_queued=16)
        queue = JobQueue(lambda tenant: quota)
        batch = self._record("t")
        live = self._record("t", interactive=True)
        queue.admit(batch, quota)
        queue.admit(live, quota)
        assert queue.take(timeout=0.1) is live
        assert queue.take(timeout=0.1) is batch


# ---------------------------------------------------------------------------
# service end-to-end


class TestSliceService:
    def _spec(self, planted, cfg=None, **kwargs):
        x0, errors, _ = planted
        return JobSpec(
            x0=x0, errors=errors, config=cfg or SliceLineConfig(k=3),
            **kwargs,
        )

    def test_exact_resubmission_hits_cache_without_enumeration(
        self, planted_dataset, service_workdir
    ):
        with SliceService(
            num_workers=1, workdir=service_workdir, trace=True
        ) as service:
            first = service.submit(self._spec(planted_dataset))
            result = service.result(first.job_id, timeout=60)
            second = service.submit(self._spec(planted_dataset))
            again = service.result(second.job_id, timeout=60)
            assert second.cache_hit
            assert again is result
            # zero enumeration on the hit: no evaluate spans at any level
            names = _span_names(second.tracer)
            assert not any(".evaluate" in name for name in names)
            assert service.registry.gauges["serve.cache_hits"] >= 1
            assert service.registry.events["serve.cache_hits"] == 1

    def test_shut_down_service_is_freed_without_cyclic_gc(
        self, planted_dataset, service_workdir
    ):
        """The queue and scheduler must not keep a shut-down service alive.

        Both hold bound methods of the service; if shutdown leaves them in
        place, the service, its records, results and input arrays survive
        until a full cyclic collection.
        """
        gc.collect()
        gc.disable()
        try:
            service = SliceService(num_workers=1, workdir=service_workdir)
            record = service.submit(self._spec(planted_dataset))
            service.result(record.job_id, timeout=60)
            service.shutdown()
            ref = weakref.ref(service)
            del service, record
            assert ref() is None
        finally:
            gc.enable()

    def test_cache_hit_matches_cold_run_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=4)
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            service.result(
                service.submit(self._spec(planted_dataset, cfg)).job_id,
                timeout=60,
            )
            hit = service.submit(self._spec(planted_dataset, cfg))
            cached = service.result(hit.job_id, timeout=60)
        cold = slice_line(x0, errors, cfg)
        assert np.array_equal(cached.top_stats, cold.top_stats)
        assert np.array_equal(
            cached.top_slices_encoded, cold.top_slices_encoded
        )

    def test_same_data_different_config_warm_starts_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            service.result(
                service.submit(
                    self._spec(planted_dataset, SliceLineConfig(k=3))
                ).job_id,
                timeout=60,
            )
            miss = service.submit(
                self._spec(planted_dataset, SliceLineConfig(k=5))
            )
            warmed = service.result(miss.job_id, timeout=60)
            assert not miss.cache_hit
            assert len(miss.warm_seeds) > 0
            assert warmed.warm_start is not None
        cold = slice_line(x0, errors, SliceLineConfig(k=5))
        assert np.array_equal(warmed.top_stats, cold.top_stats)
        assert np.array_equal(
            warmed.top_slices_encoded, cold.top_slices_encoded
        )

    def test_concurrent_duplicates_coalesce(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            first = service.submit(self._spec(planted_dataset))
            second = service.submit(self._spec(planted_dataset))
            assert second.coalesced
            service.start()
            r1 = service.result(first.job_id, timeout=60)
            r2 = service.result(second.job_id, timeout=60)
            assert r2 is r1
            assert second.cache_hit
        finally:
            service.shutdown()

    def test_budget_tripped_origin_does_not_settle_waiters(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            origin = service.submit(
                self._spec(
                    planted_dataset,
                    budgets=BudgetConfig(max_candidates_per_level=1),
                )
            )
            # budgets are not part of the fingerprint, so this coalesces
            waiter = service.submit(self._spec(planted_dataset))
            assert waiter.coalesced
            service.start()
            partial = service.result(origin.job_id, timeout=60)
            assert not partial.completed
            # the waiter must not inherit the truncated top-K: it is
            # promoted and re-run under its own (absent) budgets
            full = service.result(waiter.job_id, timeout=60)
            assert full.completed
            assert not waiter.cache_hit
            assert len(service.cache) == 1  # only the full result is cached
        finally:
            service.shutdown()
        cold = slice_line(x0, errors, SliceLineConfig(k=3))
        assert np.array_equal(full.top_stats, cold.top_stats)
        assert np.array_equal(
            full.top_slices_encoded, cold.top_slices_encoded
        )

    def test_cancelled_pending_origin_promotes_coalesced_waiter(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            origin = service.submit(self._spec(planted_dataset))
            waiter = service.submit(self._spec(planted_dataset))
            assert waiter.coalesced
            assert service.cancel(origin.job_id)
            assert origin.state == JobState.CANCELLED
            service.start()
            result = service.result(waiter.job_id, timeout=60)
            assert result.completed
            assert waiter.state == JobState.COMPLETED
        finally:
            service.shutdown()

    def test_preempted_then_resumed_matches_cold_bitwise(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(k=5, max_level=4)
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False, trace=True
        )
        try:
            record = service.submit(self._spec(planted_dataset, cfg))
            record.suspend.request()  # suspend at the first level boundary
            service.start()
            result = service.result(record.job_id, timeout=120)
            assert record.preemptions >= 1
            assert record.resumes >= 1
            assert "suspend.yield" in _span_names(record.tracer)
        finally:
            service.shutdown()
        cold = slice_line(x0, errors, cfg)
        assert np.array_equal(result.top_stats, cold.top_stats)
        assert np.array_equal(
            result.top_slices_encoded, cold.top_slices_encoded
        )

    def test_interactive_submission_preempts_running_batch_job(
        self, planted_dataset, service_workdir
    ):
        quotas = {"batch": TenantQuota(max_running=2)}
        service = SliceService(
            quotas=quotas, num_workers=1, workdir=service_workdir,
            start=False,
        )
        try:
            batch = service.submit(
                self._spec(
                    planted_dataset,
                    SliceLineConfig(k=5, max_level=4),
                    tenant="batch",
                )
            )
            scheduler = service.scheduler
            scheduler._executing[batch.job_id] = batch  # simulate running
            batch.started_at = time.time()
            assert not batch.suspend.requested
            # submit() itself triggers preemption for interactive jobs
            live = service.submit(
                self._spec(planted_dataset, tenant="live", interactive=True)
            )
            assert live.spec.interactive
            assert batch.suspend.requested
            # the victim is now suspending; no second victim is picked
            assert scheduler.maybe_preempt(live) is None
        finally:
            service.shutdown()

    def test_no_preemption_when_interactive_tenant_has_no_free_slot(
        self, planted_dataset, service_workdir
    ):
        quotas = {
            "batch": TenantQuota(max_running=2),
            "live": TenantQuota(max_running=1),
        }
        service = SliceService(
            quotas=quotas, num_workers=1, workdir=service_workdir,
            start=False,
        )
        try:
            batch = service.submit(
                self._spec(
                    planted_dataset,
                    SliceLineConfig(k=5, max_level=4),
                    tenant="batch",
                )
            )
            scheduler = service.scheduler
            scheduler._executing[batch.job_id] = batch  # simulate running
            batch.started_at = time.time()
            service.queue._running["live"] = 1  # live is at max_running
            live = service.submit(
                self._spec(planted_dataset, tenant="live", interactive=True)
            )
            assert live.spec.interactive
            # suspending the batch job would free a worker "live" cannot
            # use yet, so no victim is picked
            assert not batch.suspend.requested
            assert scheduler.maybe_preempt(live) is None
        finally:
            service.shutdown()

    def test_rejection_carries_typed_reason(
        self, planted_dataset, service_workdir
    ):
        quotas = {"t": TenantQuota(max_running=1, max_queued=1)}
        service = SliceService(
            quotas=quotas, num_workers=1, workdir=service_workdir,
            start=False,
        )
        try:
            okay = service.submit(self._spec(planted_dataset, tenant="t"))
            assert okay.state == JobState.PENDING
            # different config -> different fingerprint -> no coalescing
            rejected = service.submit(
                self._spec(
                    planted_dataset, SliceLineConfig(k=7), tenant="t"
                )
            )
            assert rejected.state == JobState.REJECTED
            assert rejected.reason == "queue-full"
            with pytest.raises(ServeError, match="queue-full"):
                service.result(rejected.job_id, timeout=1)
        finally:
            service.shutdown()

    def test_cancelled_queued_job_releases_slot(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            record = service.submit(self._spec(planted_dataset))
            assert service.cancel(record.job_id)
            assert record.state == JobState.CANCELLED
            assert service.queue.depth() == 0
            assert not service.cancel(record.job_id)  # already terminal
            with pytest.raises(ServeError, match="cancelled"):
                service.result(record.job_id, timeout=1)
        finally:
            service.shutdown()

    def test_tenant_quota_budgets_clamp_job_budgets(
        self, planted_dataset, service_workdir
    ):
        quotas = {
            "t": TenantQuota(budgets=BudgetConfig(max_candidates_per_level=5))
        }
        with SliceService(
            quotas=quotas, num_workers=1, workdir=service_workdir
        ) as service:
            record = service.submit(
                self._spec(
                    planted_dataset,
                    tenant="t",
                    budgets=BudgetConfig(
                        max_candidates_per_level=10_000, deadline_s=60.0
                    ),
                )
            )
            assert record.effective_budgets.max_candidates_per_level == 5
            assert record.effective_budgets.deadline_s == 60.0
            result = service.result(record.job_id, timeout=60)
            # tripped budget -> partial result, completed job, not cached
            assert not result.completed
            assert len(service.cache) == 0

    def test_failed_job_raises_from_result(self, service_workdir):
        bad = np.array([[1, 1], [1, 2]], dtype=np.int64)
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(
                JobSpec(x0=bad, errors=np.array([-1.0, 1.0]))
            )
            record.wait(timeout=30)
            assert record.state == JobState.FAILED
            with pytest.raises(ServeError, match="failed"):
                service.result(record.job_id, timeout=5)
            assert service.registry.events["serve.failures"] == 1

    def test_unknown_job_id(self, service_workdir):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False
        )
        try:
            with pytest.raises(ServeError, match="unknown job id"):
                service.status("nope")
        finally:
            service.shutdown()

    def test_monitor_job_exposes_quarantine_and_drift(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(
                JobSpec(
                    kind="monitor", x0=x0, errors=errors,
                    config=SliceLineConfig(k=3, max_level=2),
                    batch_size=100, tick_every=2,
                )
            )
            service.result(record.job_id, timeout=120)
            status = service.status(record.job_id)
            assert status["monitor"]["num_ticks"] >= 2
            assert isinstance(status["monitor"]["quarantined"], list)
            assert isinstance(status["monitor"]["drift"], list)
            # ticks after the first carry drift signals for tracked slices
            assert record.monitor.drift_history()[-1] == (
                record.monitor.latest_drift()
            )
            json.dumps(status)  # the whole record must be JSON-safe

    def test_status_is_consistent_while_monitor_job_runs(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(
                JobSpec(
                    kind="monitor", x0=x0, errors=errors,
                    config=SliceLineConfig(k=3, max_level=2),
                    batch_size=50, tick_every=1,
                )
            )
            seen_errors = []

            def hammer():
                # status() must never observe torn monitor state while the
                # worker ingests/ticks concurrently
                while not record.done.is_set():
                    try:
                        json.dumps(service.status(record.job_id))
                    except Exception as exc:  # pragma: no cover
                        seen_errors.append(exc)
                        return
                    time.sleep(0.001)

            thread = threading.Thread(target=hammer)
            thread.start()
            service.result(record.job_id, timeout=120)
            thread.join(timeout=30)
            assert seen_errors == []

    def test_status_document_schema(self, planted_dataset, service_workdir):
        with SliceService(num_workers=1, workdir=service_workdir) as service:
            record = service.submit(self._spec(planted_dataset))
            service.result(record.job_id, timeout=60)
            doc = service.status_document()
        assert doc["schema"] == "repro.serve/v1"
        assert [job["job_id"] for job in doc["jobs"]] == [record.job_id]
        assert "default" in doc["tenants"]
        assert doc["gauges"]["serve.queue_depth"] == 0
        json.dumps(doc)


# ---------------------------------------------------------------------------
# monitor plumbing (streaming satellite)


class TestMonitorStatusPlumbing:
    def test_quarantine_records_retrievable_without_dir(self, planted_dataset):
        x0, errors, _ = planted_dataset
        monitor = SliceMonitor(config=SliceLineConfig(k=2, max_level=2))
        monitor.ingest(PredictionBatch(x0=x0, errors=errors, timestamp=0.0))
        bad = PredictionBatch.__new__(PredictionBatch)
        object.__setattr__(bad, "x0", x0)
        object.__setattr__(bad, "errors", np.full(x0.shape[0], np.nan))
        object.__setattr__(bad, "timestamp", 1.0)
        object.__setattr__(bad, "batch_id", 1)
        record = monitor.ingest(bad)
        assert record is not None
        assert monitor.quarantine_records() == [record]

    def test_drift_history_aligns_with_ticks(self, planted_dataset):
        x0, errors, _ = planted_dataset
        monitor = SliceMonitor(
            config=SliceLineConfig(k=2, max_level=2), window_size=4
        )
        assert monitor.latest_drift() == []
        for start in (0, 250):
            monitor.ingest(
                PredictionBatch(
                    x0=x0[start : start + 250],
                    errors=errors[start : start + 250],
                    timestamp=float(start),
                )
            )
            monitor.tick()
        history = monitor.drift_history()
        assert len(history) == len(monitor.ticks) == 2
        assert history[-1] == monitor.latest_drift()
        assert history[0] == []  # no baseline before the first tick
        assert len(history[1]) == len(monitor.ticks[0].top_slices)


# ---------------------------------------------------------------------------
# concurrency stress


class TestSchedulerStress:
    @settings(max_examples=5, deadline=None)
    @given(
        num_tenants=st.integers(min_value=1, max_value=3),
        jobs_per_tenant=st.integers(min_value=1, max_value=3),
        num_workers=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_n_tenants_m_jobs_always_terminate(
        self, num_tenants, jobs_per_tenant, num_workers, seed, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        x0 = np.column_stack(
            [rng.integers(1, 4, size=120) for _ in range(3)]
        ).astype(np.int64)
        errors = rng.random(120)
        workdir = str(tmp_path_factory.mktemp("stress"))
        with SliceService(
            num_workers=num_workers, workdir=workdir,
            default_quota=TenantQuota(max_running=2, max_queued=32),
        ) as service:
            records = []
            for tenant_index in range(num_tenants):
                for job_index in range(jobs_per_tenant):
                    records.append(
                        service.submit(
                            JobSpec(
                                tenant=f"tenant-{tenant_index}",
                                x0=x0,
                                errors=errors,
                                # vary k so fingerprints differ across jobs
                                config=SliceLineConfig(
                                    k=1 + job_index, max_level=2
                                ),
                            )
                        )
                    )
            assert service.wait(timeout=120)
            for record in records:
                assert record.terminal
                assert record.state in (
                    JobState.COMPLETED, JobState.REJECTED
                )
            # every slot released: nothing queued or running afterwards
            assert service.queue.depth() == 0
            assert service.queue.running_count() == 0

    def test_concurrent_identical_submissions_one_enumeration(
        self, planted_dataset, service_workdir
    ):
        x0, errors, _ = planted_dataset
        service = SliceService(
            num_workers=2, workdir=service_workdir, start=False
        )
        try:
            records = []
            lock = threading.Lock()

            def submit():
                record = service.submit(
                    JobSpec(x0=x0, errors=errors, config=SliceLineConfig(k=3))
                )
                with lock:
                    records.append(record)

            threads = [
                threading.Thread(target=submit) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.start()
            assert service.wait(timeout=120)
            results = {id(record.result) for record in records}
            assert len(results) == 1  # every duplicate shares one result
            assert (
                sum(1 for record in records if record.coalesced)
                == len(records) - 1
            )
        finally:
            service.shutdown()

    def test_cancelled_jobs_release_slots_under_load(
        self, planted_dataset, service_workdir
    ):
        service = SliceService(
            num_workers=1, workdir=service_workdir, start=False,
            default_quota=TenantQuota(max_running=1, max_queued=32),
        )
        try:
            x0, errors, _ = planted_dataset
            records = [
                service.submit(
                    JobSpec(
                        x0=x0, errors=errors,
                        config=SliceLineConfig(k=1 + index, max_level=2),
                    )
                )
                for index in range(4)
            ]
            # cancel two while everything is still queued
            assert service.cancel(records[1].job_id)
            assert service.cancel(records[2].job_id)
            service.start()
            assert service.wait(timeout=120)
            assert records[0].state == JobState.COMPLETED
            assert records[1].state == JobState.CANCELLED
            assert records[2].state == JobState.CANCELLED
            assert records[3].state == JobState.COMPLETED
            assert service.queue.running_count() == 0
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# CLI


class TestServeCli:
    def test_cli_runs_job_file_and_writes_status(self, tmp_path, capsys):
        from repro.cli import main

        jobs = {
            "defaults": {
                "tenant": "analytics",
                "dataset": "salaries",
                "config": {"k": 3, "max_level": 3},
            },
            "jobs": [{"name": "one"}, {"name": "one-again"}],
        }
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        status_path = tmp_path / "status.json"
        code = main(
            [
                "serve", str(jobs_path),
                "--workers", "1",
                "--workdir", str(tmp_path / "work"),
                "--status-json", str(status_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        doc = json.loads(status_path.read_text())
        assert doc["schema"] == "repro.serve/v1"
        assert doc["events"]["serve.cache_hits"] >= 1
        states = [job["state"] for job in doc["jobs"]]
        assert states == ["completed", "completed"]
        assert any(job["cache_hit"] for job in doc["jobs"])

    def test_cli_reports_bad_job_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["serve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_accepts_job_directory(self, tmp_path, capsys):
        from repro.cli import main

        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / "a.json").write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "dataset": "salaries",
                            "config": {"k": 2, "max_level": 2},
                        }
                    ]
                }
            )
        )
        code = main(
            [
                "serve", str(jobs_dir),
                "--workers", "1",
                "--workdir", str(tmp_path / "work"),
            ]
        )
        assert code == 0
        assert "completed" in capsys.readouterr().out
