"""Supervised multi-process workers for the serving layer.

:class:`ProcessWorkerSupervisor` is a drop-in alternative to the thread
:class:`~repro.serve.scheduler.Scheduler`: same constructor shape, same
``start``/``shutdown``/``executing``/``maybe_preempt`` surface, same
cooperative preemption semantics.  The difference is *where* enumeration
runs: each worker slot owns a **spawned child process**, and the heavy
``slice_line`` call of a ``find`` job executes there — so a worker that is
SIGKILL'd mid-level (OOM killer, operator, chaos suite) takes down neither
the service nor the other workers.

Supervision contract per worker slot:

* the child writes a **heartbeat file** (``worker-N.json``) every
  ``heartbeat_interval_s`` with its pid and current job; a child that is
  alive but silent past ``heartbeat_timeout_s`` is presumed hung, killed
  (SIGKILL) and treated as crashed;
* a dead child (``exitcode`` set — ``-9`` is the SIGKILL signature) raises
  :class:`WorkerCrash` into the service's execute callback, whose handler
  **requeues the orphaned job at the front** of its tenant's backlog; the
  job resumes from its last ``repro.ckpt/v1`` level-boundary checkpoint,
  so the recovered result is bitwise-identical to a fault-free run;
* the slot is **restarted with exponential backoff** (delays from the
  shared :class:`~repro.resilience.retry.RetryPolicy`); after
  ``restart_policy.max_attempts`` consecutive crashes with no successful
  job in between the slot is retired (the pool keeps running on the
  remaining slots).

Job state transitions stay in the parent — the service's lock-guarded
state machine is untouched; the child only computes.  Monitor jobs run
inline on the dispatcher thread (their live monitor object feeds the
status API and cannot live in another process).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

from repro.exceptions import ServeError
from repro.resilience.atomic import atomic_write_json
from repro.resilience.budgets import SuspendHook
from repro.resilience.retry import RetryPolicy
from repro.serve.queue import JobQueue
from repro.serve.spec import JobRecord


class WorkerCrash(ServeError):
    """A worker process died (or went silent) while executing a job.

    Raised out of :meth:`ProcessWorkerSupervisor.run_find` into the
    service's execute callback, which requeues the orphaned job at the
    front instead of failing it.  ``kind`` is ``"sigkill"`` (exit by
    signal 9), ``"exit"`` (any other death), or ``"heartbeat"`` (alive
    but past the heartbeat deadline; the supervisor killed it).
    """

    def __init__(self, message: str, kind: str = "exit") -> None:
        super().__init__(message)
        self.kind = kind


def read_heartbeat(path: str) -> dict | None:
    """Parse one heartbeat file (``None`` when absent or torn)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _heartbeat_loop(path, worker_id, interval, state, stop) -> None:
    while not stop.is_set():
        atomic_write_json(
            path,
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "ts": time.time(),
                "job_id": state.get("job_id"),
            },
            durable=False,
            indent=None,
        )
        stop.wait(interval)


def _control_loop(control_q, state, stop) -> None:
    """Child-side thread: turn control messages into suspend requests."""
    while not stop.is_set():
        try:
            message = control_q.get(timeout=0.1)
        except Exception:  # noqa: BLE001 — Empty, or a closed queue at exit
            continue
        if message[0] == "suspend":
            hook = state.get("hook")
            # Stale suspends (from a job this child already finished) are
            # dropped by the job-id tag.
            if hook is not None and state.get("job_id") == message[1]:
                hook.request()


def worker_main(
    worker_id: int,
    task_q,
    result_q,
    control_q,
    heartbeat_path: str,
    heartbeat_interval_s: float,
) -> None:
    """Entry point of one spawned worker process."""
    # Local import: the child re-imports the package under spawn; pulling
    # the heavy core in here keeps the module importable without it.
    from repro.core.algorithm import slice_line

    state: dict = {"job_id": None, "hook": None}
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat_path, worker_id, heartbeat_interval_s, state, stop),
        daemon=True,
    ).start()
    threading.Thread(
        target=_control_loop, args=(control_q, state, stop), daemon=True
    ).start()
    while True:
        message = task_q.get()
        if message[0] == "stop":
            break
        _, job_id, task = message
        hook = SuspendHook()
        state["hook"] = hook
        state["job_id"] = job_id
        try:
            result = slice_line(suspend=hook, **task)
            result_q.put(("ok", job_id, result))
        except Exception as exc:  # noqa: BLE001 — job errors go to the parent
            result_q.put(("error", job_id, f"{type(exc).__name__}: {exc}"))
        finally:
            state["job_id"] = None
            state["hook"] = None
    stop.set()


class _WorkerSlot:
    """Parent-side handle of one worker process and its queues."""

    def __init__(self, index: int, context, run_dir: str) -> None:
        self.index = index
        self.context = context
        self.heartbeat_path = os.path.join(run_dir, f"worker-{index}.json")
        self.process = None
        self.task_q = None
        self.result_q = None
        self.control_q = None
        #: crashes since the last successful job on this slot
        self.consecutive_crashes = 0
        self.retired = False

    def spawn(self, heartbeat_interval_s: float) -> None:
        self.task_q = self.context.Queue()
        self.result_q = self.context.Queue()
        self.control_q = self.context.Queue()
        self.process = self.context.Process(
            target=worker_main,
            args=(
                self.index,
                self.task_q,
                self.result_q,
                self.control_q,
                self.heartbeat_path,
                heartbeat_interval_s,
            ),
            daemon=True,
            name=f"repro-serve-proc-{self.index}",
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def heartbeat_age(self) -> float | None:
        beat = read_heartbeat(self.heartbeat_path)
        if beat is None or beat.get("pid") != self.process.pid:
            return None
        return time.time() - float(beat.get("ts", 0.0))

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def drop_queues(self) -> None:
        for q in (self.task_q, self.result_q, self.control_q):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self.task_q = self.result_q = self.control_q = None


class ProcessWorkerSupervisor:
    """Runs queued jobs on a supervised pool of spawned worker processes.

    Drop-in for :class:`~repro.serve.scheduler.Scheduler` (the service
    picks one or the other via ``worker_mode``).  One dispatcher thread
    per slot drains the :class:`~repro.serve.queue.JobQueue` and runs the
    service's execute callback; the callback's ``slice_line`` call is
    delegated to the slot's child process through :meth:`run_find`.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute,
        num_workers: int = 2,
        preemption: bool = True,
        run_dir: str | None = None,
        heartbeat_interval_s: float = 0.2,
        heartbeat_timeout_s: float = 30.0,
        restart_policy: RetryPolicy | None = None,
        on_event=None,
    ) -> None:
        self.queue = queue
        self._execute = execute
        self.num_workers = max(1, int(num_workers))
        self.preemption = preemption
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.restart_policy = restart_policy or RetryPolicy(
            max_attempts=4, backoff_base_s=0.05, backoff_cap_s=2.0
        )
        self._on_event = on_event or (lambda name: None)
        if run_dir is None:
            import tempfile

            run_dir = tempfile.mkdtemp(prefix="repro-serve-workers-")
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self._context = multiprocessing.get_context("spawn")
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._executing: dict[str, JobRecord] = {}
        self._slots: list[_WorkerSlot] = []
        self._local = threading.local()
        #: total worker crashes / restarts observed (exposed in stats)
        self.crashes = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        self._slots = []
        for index in range(self.num_workers):
            slot = _WorkerSlot(index, self._context, self.run_dir)
            slot.spawn(self.heartbeat_interval_s)
            self._slots.append(slot)
            thread = threading.Thread(
                target=self._dispatcher,
                args=(slot,),
                name=f"repro-serve-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def started(self) -> bool:
        return bool(self._threads)

    def shutdown(self, wait: bool = True) -> None:
        self._stop.set()
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)
            # Same cycle break as Scheduler.shutdown.
            self._execute = None
        for slot in self._slots:
            if slot.alive:
                try:
                    slot.task_q.put(("stop",))
                    slot.process.join(timeout=2.0)
                except (OSError, ValueError):
                    pass
            slot.kill()
            slot.drop_queues()
        self._threads = []
        # _slots stays populated so worker_stats() (and the status JSON
        # the CLI writes after shutdown) still reports the final fleet.

    # -- dispatch ------------------------------------------------------------

    def _dispatcher(self, slot: _WorkerSlot) -> None:
        self._local.slot = slot
        while not self._stop.is_set():
            if not slot.retired and not slot.alive:
                self._respawn(slot)
            record = self.queue.take(timeout=0.1)
            if record is None:
                continue
            with self._lock:
                self._executing[record.job_id] = record
            try:
                self._execute(record)
            finally:
                with self._lock:
                    self._executing.pop(record.job_id, None)

    def _respawn(self, slot: _WorkerSlot) -> None:
        """Restart a dead worker with bounded exponential backoff."""
        slot.drop_queues()
        slot.consecutive_crashes += 1
        if slot.consecutive_crashes > self.restart_policy.max_attempts:
            slot.retired = True
            self._on_event("serve.workers_retired")
            return
        delay = self.restart_policy.backoff_delay(
            slot.index, slot.consecutive_crashes
        )
        if self._stop.wait(delay):
            return
        slot.spawn(self.heartbeat_interval_s)
        self.restarts += 1
        self._on_event("serve.worker_restarts")

    def run_find(self, record: JobRecord, task: dict):
        """Execute one ``slice_line`` call on this dispatcher's worker.

        Blocks until the child returns a result, forwards suspend
        requests from the parent-side :class:`SuspendHook` into the
        child, and raises :class:`WorkerCrash` when the child dies or
        misses its heartbeat deadline.  Called from the service's execute
        callback on a dispatcher thread.
        """
        slot = getattr(self._local, "slot", None)
        if slot is None:
            raise ServeError(
                "run_find must be called from a dispatcher thread"
            )
        if slot.retired or not slot.alive:
            raise WorkerCrash(
                f"worker {slot.index} is not available", kind="exit"
            )
        slot.task_q.put(("run", record.job_id, task))
        sent_at = time.monotonic()
        suspend_sent = False
        while True:
            try:
                kind, job_id, payload = slot.result_q.get(timeout=0.1)
            except Exception:  # noqa: BLE001 — queue.Empty from mp.Queue
                self._check_worker(slot, record, sent_at)
                if record.suspend.requested and not suspend_sent:
                    slot.control_q.put(("suspend", record.job_id))
                    suspend_sent = True
                continue
            if job_id != record.job_id:
                # A reply from a job whose parent already gave up on this
                # slot (cannot happen with one dispatcher per slot, but
                # cheap to be safe about).
                continue
            slot.consecutive_crashes = 0
            if kind == "ok":
                return payload
            raise ServeError(payload)

    def _check_worker(
        self, slot: _WorkerSlot, record: JobRecord, sent_at: float
    ) -> None:
        if not slot.alive:
            exitcode = slot.process.exitcode
            self.crashes += 1
            self._on_event("serve.worker_crashes")
            kind = (
                "sigkill"
                if exitcode == -int(signal.SIGKILL)
                else "exit"
            )
            raise WorkerCrash(
                f"worker {slot.index} died with exit code {exitcode} while "
                f"executing {record.job_id!r}",
                kind=kind,
            )
        age = slot.heartbeat_age()
        if age is None:
            # No heartbeat from this pid yet: a child stopped (or hung)
            # during interpreter boot never writes one, so the deadline
            # falls back to time since the task was dispatched.
            age = time.monotonic() - sent_at
        if age > self.heartbeat_timeout_s:
            slot.kill()
            self.crashes += 1
            self._on_event("serve.worker_crashes")
            raise WorkerCrash(
                f"worker {slot.index} missed its heartbeat deadline "
                f"({age:.1f}s > {self.heartbeat_timeout_s}s) while "
                f"executing {record.job_id!r}; killed",
                kind="heartbeat",
            )

    # -- introspection / preemption (Scheduler-compatible) -------------------

    def executing(self) -> list[JobRecord]:
        with self._lock:
            return list(self._executing.values())

    def worker_stats(self) -> list[dict]:
        out = []
        for slot in self._slots:
            out.append(
                {
                    "worker": slot.index,
                    "alive": slot.alive,
                    "retired": slot.retired,
                    "pid": slot.process.pid if slot.process else None,
                    "consecutive_crashes": slot.consecutive_crashes,
                }
            )
        return out

    def maybe_preempt(self, incoming: JobRecord) -> JobRecord | None:
        """Same contract as :meth:`Scheduler.maybe_preempt`."""
        if not self.preemption or not incoming.spec.interactive:
            return None
        if not self.queue.has_free_slot(incoming.spec.tenant):
            return None
        with self._lock:
            if len(self._executing) < self.num_workers:
                return None
            victims = [
                record
                for record in self._executing.values()
                if record.spec.kind == "find"
                and not record.spec.interactive
                and not record.suspend.requested
            ]
            if not victims:
                return None
            victim = max(victims, key=lambda r: r.started_at or 0.0)
            victim.suspend.request()
            return victim


__all__ = [
    "ProcessWorkerSupervisor",
    "WorkerCrash",
    "read_heartbeat",
    "worker_main",
]
