"""Admission control and fair-share job ordering.

:class:`TenantQuota` is the per-tenant contract: how many jobs may run at
once, how deep the tenant's backlog may grow, the tenant's fair-share
weight, and an optional :class:`~repro.resilience.BudgetConfig` every job
of the tenant is clamped to (tightest-wins against the job's own budgets).

:class:`JobQueue` enforces it.  ``admit`` either queues a job or rejects it
with a typed :class:`AdmissionDecision`; ``take`` hands workers the next
job under fair-share ordering: interactive jobs first, then the eligible
tenant with the fewest running jobs per unit weight, ties broken by
historical service received (so a quiet tenant is served before a noisy
one) and finally by tenant name for determinism.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.exceptions import ConfigError
from repro.resilience.budgets import BudgetConfig
from repro.serve.spec import JobRecord


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission and scheduling contract."""

    max_running: int = 2
    max_queued: int = 64
    weight: float = 1.0
    budgets: BudgetConfig | None = None

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ConfigError(f"max_running must be >= 1, got {self.max_running}")
        if self.max_queued < 0:
            raise ConfigError(f"max_queued must be >= 0, got {self.max_queued}")
        if self.weight <= 0:
            raise ConfigError(f"weight must be > 0, got {self.weight}")

    def to_dict(self) -> dict:
        return {
            "max_running": self.max_running,
            "max_queued": self.max_queued,
            "weight": self.weight,
            "budgets": (
                {
                    "deadline_s": self.budgets.deadline_s,
                    "max_candidates_per_level": (
                        self.budgets.max_candidates_per_level
                    ),
                    "max_memory_bytes": self.budgets.max_memory_bytes,
                }
                if self.budgets is not None
                else None
            ),
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admission control, with a machine-readable reason.

    ``reason`` vocabulary: ``"queued"`` (admitted, a slot is or will become
    available), ``"queued-over-quota"`` (admitted but the tenant is at its
    running limit — the job waits for a slot), ``"queue-full"`` (rejected:
    backlog at ``max_queued``), ``"service-shutdown"`` (rejected).
    """

    admitted: bool
    reason: str
    detail: str = ""


class JobQueue:
    """Thread-safe per-tenant pending queues with fair-share ``take``.

    The queue only orders and gates; it never runs anything.  Slot
    accounting: ``take`` acquires a tenant slot, ``release`` returns it
    (job finished in any way), ``requeue`` returns it *and* parks the job
    back at the *front* of its tenant's backlog (a suspended job resumes
    before the tenant's newer submissions).
    """

    def __init__(self, quota_for) -> None:
        #: callable ``tenant -> TenantQuota`` (the service owns the table)
        self._quota_for = quota_for
        self._cond = threading.Condition()
        self._pending: dict[str, deque[JobRecord]] = {}
        self._running: dict[str, int] = {}
        self._served: dict[str, int] = {}
        self._closed = False

    def admit(
        self, record: JobRecord, quota: TenantQuota, front: bool = False
    ) -> AdmissionDecision:
        """Queue *record* (or reject it with a typed decision).

        ``front=True`` parks the job at the head of its tenant's backlog —
        used by journal recovery to put orphaned (previously dispatched or
        suspended) jobs back in line before anything newer.
        """
        tenant = record.spec.tenant
        with self._cond:
            if self._closed:
                return AdmissionDecision(
                    False, "service-shutdown", "the service is shutting down"
                )
            backlog = self._pending.setdefault(tenant, deque())
            if len(backlog) >= quota.max_queued:
                return AdmissionDecision(
                    False,
                    "queue-full",
                    f"tenant {tenant!r} already has {len(backlog)} queued "
                    f"job(s) (max_queued={quota.max_queued})",
                )
            if front:
                backlog.appendleft(record)
            else:
                backlog.append(record)
            running = self._running.get(tenant, 0)
            self._cond.notify()
            if running >= quota.max_running:
                return AdmissionDecision(
                    True,
                    "queued-over-quota",
                    f"tenant {tenant!r} has {running} running job(s) "
                    f"(max_running={quota.max_running}); queued until a "
                    "slot frees",
                )
            return AdmissionDecision(True, "queued", "")

    def take(self, timeout: float | None = None) -> JobRecord | None:
        """Next job under fair-share ordering; ``None`` on timeout/close."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                choice = self._pick_locked()
                if choice is not None:
                    tenant, index = choice
                    backlog = self._pending[tenant]
                    record = backlog[index]
                    del backlog[index]
                    self._running[tenant] = self._running.get(tenant, 0) + 1
                    if not record.dispatched:
                        # Historical service counts a job once; re-takes of
                        # a preempted job must not skew the fair-share
                        # tie-break against preemption victims.
                        record.dispatched = True
                        self._served[tenant] = self._served.get(tenant, 0) + 1
                    return record
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def _pick_locked(self) -> tuple[str, int] | None:
        """The eligible tenant and backlog index of the job to run next.

        Interactive jobs are served first even when queued behind a batch
        job of the same tenant, so the candidate per tenant is its first
        interactive job when it has one, its head job otherwise.
        """
        best = None
        best_key = None
        for tenant, backlog in self._pending.items():
            if not backlog:
                continue
            quota = self._quota_for(tenant)
            running = self._running.get(tenant, 0)
            if running >= quota.max_running:
                continue
            index = next(
                (
                    i
                    for i, job in enumerate(backlog)
                    if job.spec.interactive
                ),
                0,
            )
            key = (
                0 if backlog[index].spec.interactive else 1,
                running / quota.weight,
                self._served.get(tenant, 0) / quota.weight,
                tenant,
            )
            if best_key is None or key < best_key:
                best, best_key = (tenant, index), key
        return best

    def requeue(self, record: JobRecord) -> None:
        """Park a suspended job at the front of its tenant's backlog."""
        tenant = record.spec.tenant
        with self._cond:
            self._pending.setdefault(tenant, deque()).appendleft(record)
            self._running[tenant] = max(0, self._running.get(tenant, 0) - 1)
            self._cond.notify()

    def release(self, record: JobRecord) -> None:
        """Return the tenant slot of a job that left execution for good."""
        tenant = record.spec.tenant
        with self._cond:
            self._running[tenant] = max(0, self._running.get(tenant, 0) - 1)
            self._cond.notify()

    def remove(self, record: JobRecord) -> bool:
        """Withdraw a queued job (cancellation); False when not queued."""
        with self._cond:
            backlog = self._pending.get(record.spec.tenant)
            if backlog is None:
                return False
            try:
                backlog.remove(record)
            except ValueError:
                return False
            return True

    def has_free_slot(self, tenant: str) -> bool:
        """True when *tenant* is below its ``max_running`` limit."""
        with self._cond:
            if self._closed:
                return False
            quota = self._quota_for(tenant)
            return self._running.get(tenant, 0) < quota.max_running

    def depth(self) -> int:
        with self._cond:
            return sum(len(backlog) for backlog in self._pending.values())

    def running_count(self) -> int:
        with self._cond:
            return sum(self._running.values())

    def tenant_stats(self) -> dict[str, dict]:
        with self._cond:
            tenants = (
                set(self._pending) | set(self._running) | set(self._served)
            )
            return {
                tenant: {
                    "queued": len(self._pending.get(tenant, ())),
                    "running": self._running.get(tenant, 0),
                    "served": self._served.get(tenant, 0),
                }
                for tenant in sorted(tenants)
            }

    def close(self) -> None:
        """Refuse admissions and wake every ``take`` with ``None``.

        A closed queue never consults quotas again, so the quota callable
        is dropped: it is usually a bound method of the owning service, and
        keeping it would hold the service in a reference cycle.
        """
        with self._cond:
            self._closed = True
            self._quota_for = None
            self._cond.notify_all()


__all__ = ["AdmissionDecision", "JobQueue", "TenantQuota"]
