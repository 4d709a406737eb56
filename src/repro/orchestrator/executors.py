"""Pluggable executor backends for the sweep orchestrator.

The :class:`~repro.orchestrator.orchestrator.SweepOrchestrator` owns
*policy* -- resume, dedup, bounded retry, timeouts, restart budgets,
cancellation -- while a backend owns *mechanism*: where a RunKey
actually executes. The protocol is deliberately small
(``submit/poll/abandon/restart/cancel``) so every backend inherits the
same fault-tolerance semantics, enforced by the shared conformance
suite in ``tests/test_executors.py``:

* :class:`InlineExecutor` -- serial execution in the calling process
  (the ``workers=1`` path and the terminal degradation target);
* :class:`LocalExecutor` -- the historical ``ProcessPoolExecutor``
  path, extracted behind the protocol;
* :class:`ShardedExecutor` -- coordinator-free horizontal scaling:
  deterministically claims the subset of RunKeys whose fingerprint
  hashes to this shard (:func:`shard_of`) and delegates their
  execution to an inner backend. N hosts each run one shard into the
  same (shared or later-merged) atomic ResultStore; a plain unsharded
  re-run on any host is the merge/straggler pass;
* :class:`RemoteExecutor` -- a thin client of one ``repro serve``
  coordinator: uncached points become single-point jobs that the
  coordinator and its ``repro worker --connect`` fleet drain, and 429
  backpressure surfaces as :class:`Backpressure`.

Backends raise :class:`BackendError` when their transport is gone
(pool unbuildable, coordinator down); the orchestrator responds
with its restart-then-degrade-to-inline ladder, so a sweep always
terminates with an honest report.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.system import RunResult
from repro.experiments.runner import ExperimentRunner, RunKey

# ----------------------------------------------------------------------
# Worker-process side (LocalExecutor). The initializer builds one
# runner per worker process (the GPU config is pickled once, not per
# point); tasks then only ship a RunKey out and a RunResult back.
# ----------------------------------------------------------------------

_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _worker_init(base_gpu, mdr_epoch: int, max_cycles: int) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(
        base_gpu=base_gpu, mdr_epoch=mdr_epoch, max_cycles=max_cycles,
    )


def _worker_run(key: RunKey) -> RunResult:
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    return _WORKER_RUNNER.run(key)


# ----------------------------------------------------------------------
# Protocol types.
# ----------------------------------------------------------------------


class BackendError(RuntimeError):
    """The backend's transport failed; the orchestrator should restart
    it (or degrade to inline) rather than charge the point an attempt.
    """


class Backpressure(RuntimeError):
    """The backend refused a submission (e.g. HTTP 429); the
    orchestrator pauses submissions for ``retry_after`` seconds without
    charging the point an attempt.
    """

    def __init__(self, message: str, retry_after: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.5, retry_after)


@dataclass
class Completion:
    """One finished submission, successful or not.

    ``lost=True`` means the execution substrate itself failed (worker
    process died, coordinator unreachable) -- the
    orchestrator re-queues everything in flight and restarts the
    backend, exactly the old BrokenProcessPool path.
    """

    handle: object
    key: RunKey
    result: Optional[RunResult] = None
    error: Optional[str] = None
    lost: bool = False


def shard_of(fingerprint: str, shards: int) -> int:
    """Deterministic shard index of a store fingerprint.

    Hashes the fingerprint *again* (sha256, not ``hash()``) so the
    partition is stable across hosts, Python versions and
    ``PYTHONHASHSEED``, and stays uniform even though fingerprints are
    themselves hex digests.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(fingerprint.encode()).hexdigest()
    return int(digest[:8], 16) % shards


class ExecutorBackend:
    """The submit/poll/abandon/restart/cancel protocol.

    Lifecycle, as driven by the orchestrator::

        backend.bind(orchestrator)      # once, before anything else
        backend.start()                 # may raise BackendError
        while work remains:
            handle = backend.submit(key, label)   # up to .capacity
            for completion in backend.poll(tick): ...
            backend.abandon(expired)    # timeout path; False = rebuild
            backend.restart()           # after a lost completion
        backend.cancel()                # cooperative stop tripped
        backend.close()                 # always, in a finally

    Implementations keep *no* retry bookkeeping -- attempts, budgets
    and re-queueing live in the orchestrator so semantics cannot drift
    between backends.
    """

    #: Mode string recorded in ``SweepReport.mode``.
    name = "backend"
    #: Max submissions the orchestrator keeps in flight.
    capacity = 1
    #: True = sleep with exponential backoff before re-running a
    #: retried point (the historical inline behaviour; pools and
    #: the remote coordinator reorder instead of sleeping).
    retry_backoff = False
    #: ``"i/N"`` when the backend partitions work, else None.
    shard_spec: Optional[str] = None

    def bind(self, orchestrator) -> None:
        """Attach the driving orchestrator (runner, task_fn, knobs)."""
        self.orchestrator = orchestrator

    def accepts(self, key: RunKey, fingerprint: str) -> bool:
        """Whether this backend claims the point (shard filtering)."""
        return True

    def start(self) -> None:
        """Bring the transport up; raise :class:`BackendError` if not."""

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        """Dispatch one point; returns an opaque in-flight handle."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[Completion]:
        """Completions since the last poll, waiting up to ``timeout``."""
        raise NotImplementedError

    def abandon(self, handles: Sequence[object]) -> bool:
        """Give up on timed-out handles. False = transport needs a
        restart to reclaim their slots (hung pool workers)."""
        return True

    def restart(self) -> bool:
        """Tear down and rebuild the transport; False = unrecoverable."""
        return False

    def cancel(self) -> None:
        """Hard-stop everything in flight (cooperative cancellation)."""

    def close(self) -> None:
        """Release resources; must be idempotent."""


# ----------------------------------------------------------------------
# Inline.
# ----------------------------------------------------------------------


class InlineExecutor(ExecutorBackend):
    """Serial execution in the calling process.

    ``submit`` runs the point synchronously and parks the outcome for
    the next ``poll``. Capacity 1 by construction, so the orchestrator
    degenerates to the classic run/record loop.
    """

    name = "inline"
    capacity = 1
    retry_backoff = True

    def __init__(self) -> None:
        self._done: List[Completion] = []

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        orchestrator = self.orchestrator
        try:
            if orchestrator.task_fn is not None:
                result = orchestrator.task_fn(key)
            else:
                result = orchestrator.runner.run(key)
        except Exception as exc:  # noqa: BLE001 -- recorded per point
            self._done.append(Completion(key, key, error=str(exc)))
        else:
            self._done.append(Completion(key, key, result=result))
        return key

    def poll(self, timeout: float) -> List[Completion]:
        done, self._done = self._done, []
        return done

    def restart(self) -> bool:
        return True


# ----------------------------------------------------------------------
# Local process pool.
# ----------------------------------------------------------------------


class LocalExecutor(ExecutorBackend):
    """The ProcessPoolExecutor path behind the backend protocol.

    Futures are the handles. A BrokenProcessPool surfaces as a ``lost``
    completion (the orchestrator re-queues all of in-flight and asks
    for a restart); hung workers cannot be cancelled, so ``abandon``
    answers False to force the same rebuild.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[object, RunKey] = {}

    def bind(self, orchestrator) -> None:
        super().bind(orchestrator)
        if self.workers is None:
            self.workers = orchestrator.workers
        self.capacity = max(1, self.workers)

    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        orchestrator = self.orchestrator
        try:
            if orchestrator.task_fn is not None:
                return ProcessPoolExecutor(max_workers=self.capacity)
            runner = orchestrator.runner
            return ProcessPoolExecutor(
                max_workers=self.capacity,
                initializer=_worker_init,
                initargs=(runner.base_gpu, runner.mdr_epoch,
                          runner.max_cycles),
            )
        except Exception:  # noqa: BLE001 -- e.g. sandboxed /dev/shm
            return None

    def start(self) -> None:
        self._pool = self._make_pool()
        if self._pool is None:
            raise BackendError("process pool unavailable")

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        orchestrator = self.orchestrator
        task = (orchestrator.task_fn if orchestrator.task_fn is not None
                else _worker_run)
        try:
            future = self._pool.submit(task, key)
        except Exception as exc:  # noqa: BLE001 -- pool already broken
            raise BackendError(str(exc)) from None
        self._futures[future] = key
        return future

    def poll(self, timeout: float) -> List[Completion]:
        if not self._futures:
            return []
        done, _ = wait(list(self._futures), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        completions: List[Completion] = []
        for future in done:
            key = self._futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                # Can't tell which worker died; the orchestrator will
                # re-queue everything in flight and restart us.
                completions.append(Completion(
                    future, key, error="worker process died", lost=True,
                ))
            except Exception as exc:  # noqa: BLE001 -- recorded
                completions.append(Completion(future, key,
                                              error=str(exc)))
            else:
                completions.append(Completion(future, key, result=result))
        return completions

    def abandon(self, handles: Sequence[object]) -> bool:
        for handle in handles:
            self._futures.pop(handle, None)
        # Hung workers can't be cancelled; their slots only come back
        # with a pool rebuild.
        return False

    def restart(self) -> bool:
        self._kill_pool()
        self._futures.clear()
        self._pool = self._make_pool()
        return self._pool is not None

    def cancel(self) -> None:
        # Kill the pool so a mid-simulation point dies with its worker.
        self._kill_pool()

    def close(self) -> None:
        self._kill_pool()

    def _kill_pool(self) -> None:
        # After shutdown() the executor sets _processes to None, so a
        # second kill (restart path, then the final cleanup) must not
        # trip over it.
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in (getattr(pool, "_processes", None) or {}).values():
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 -- already gone
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 -- pool already broken
            pass


# ----------------------------------------------------------------------
# Coordinator-free sharding.
# ----------------------------------------------------------------------


class ShardedExecutor(ExecutorBackend):
    """Claims shard ``index`` of ``count`` and delegates execution.

    There is no coordinator: every shard computes the identical
    fingerprint partition locally (:func:`shard_of`), so N hosts
    running ``repro sweep --shard i/N`` with the same sweep arguments
    cover the key space exactly once with zero communication. Each
    shard publishes into its (shared or later-rsynced) ResultStore;
    because saves are atomic and content-addressed, merging stores is
    plain file union, and a final *unsharded* run on any host resumes
    from cache and completes stragglers from dead shards -- that run's
    report is bit-identical to a single-host sweep.

    Fault isolation is inherent: a shard that dies loses only its own
    un-published points, never another shard's results.
    """

    def __init__(self, index: int, count: int,
                 inner: Optional[ExecutorBackend] = None) -> None:
        if count < 1 or not 0 <= index < count:
            raise ValueError(
                f"bad shard spec {index}/{count}: need 0 <= i < N"
            )
        self.index = index
        self.count = count
        self.inner = inner
        self.shard_spec = f"{index}/{count}"

    def bind(self, orchestrator) -> None:
        super().bind(orchestrator)
        if self.inner is None:
            self.inner = orchestrator._default_backend()
        self.inner.bind(orchestrator)
        self.name = self.inner.name

    # Everything but `accepts` delegates to the inner backend.

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def retry_backoff(self) -> bool:
        return self.inner.retry_backoff

    def accepts(self, key: RunKey, fingerprint: str) -> bool:
        return shard_of(fingerprint, self.count) == self.index

    def start(self) -> None:
        self.inner.start()

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        return self.inner.submit(key, label)

    def poll(self, timeout: float) -> List[Completion]:
        return self.inner.poll(timeout)

    def abandon(self, handles: Sequence[object]) -> bool:
        return self.inner.abandon(handles)

    def restart(self) -> bool:
        return self.inner.restart()

    def cancel(self) -> None:
        self.inner.cancel()

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# Remote coordinator.
# ----------------------------------------------------------------------

#: Coordinator job states that are still in flight.
_LIVE_STATES = ("queued", "running")


class RemoteExecutor(ExecutorBackend):
    """A thin client of one ``repro serve`` coordinator.

    Each uncached point becomes a one-point job. The coordinator's own
    threads and any ``repro worker --connect`` processes drain its
    queue; lease expiry there already balances load and requeues the
    points of a dead worker, so this client keeps no liveness state:

    * settings safety: refuses to start against a coordinator whose
      advertised runner settings (``GET /stats`` → ``settings``) differ
      from the local runner's -- mismatched settings would silently
      produce different fingerprints on either side;
    * in-flight window: ``capacity`` is the coordinator's advertised
      ``queue_limit``; beyond it, HTTP 429 surfaces as
      :class:`Backpressure` with the server's Retry-After;
    * a lost connection comes back as a ``lost`` completion, so the
      orchestrator's restart re-probes the coordinator and, after
      ``max_pool_restarts``, degrades to inline.

    One poll tick costs one ``GET /jobs`` plus one result fetch per
    finished point. Results come back through the wire codec and are
    published into the local runner's store, so a remote sweep is
    resumable and bit-identical to a local one (the store's save-time
    equality check enforces exactly that).
    """

    name = "remote"

    def __init__(self, url: str, poll_interval: float = 0.2) -> None:
        if not url:
            raise ValueError("RemoteExecutor needs a coordinator URL")
        self.url = url.rstrip("/")
        self.poll_interval = poll_interval
        self._client = None
        #: In-flight coordinator job id (the handle) -> its point.
        self._jobs: Dict[str, RunKey] = {}

    def start(self) -> None:
        # Lazy import: repro.service imports the orchestrator package,
        # so importing it at module scope would be circular.
        from repro.service.client import ServiceClient

        self._client = ServiceClient(self.url)
        try:
            stats = self._client.stats()
        except Exception as exc:  # noqa: BLE001 -- coordinator down
            raise BackendError(f"coordinator {self.url}: {exc}") from None
        local = self.orchestrator.runner.cache_settings()
        remote = stats.get("settings")
        if remote is not None and dict(remote) != dict(local):
            raise BackendError(
                f"coordinator {self.url} runs settings {remote}, local "
                f"runner has {local}; results would not be comparable"
            )
        self.capacity = max(1, int(stats.get("queue_limit") or 1))

    def restart(self) -> bool:
        self._jobs.clear()
        try:
            self.start()
        except BackendError:
            return False
        return True

    def submit(self, key: RunKey, label: Optional[str] = None) -> object:
        from http.client import HTTPException

        from repro.service.client import ServiceError

        label = label or key.describe()
        try:
            job = self._client.submit(points=[(label, key)],
                                      tenant="sweep", name=label)
        except ServiceError as exc:
            if exc.status == 429:
                raise Backpressure(str(exc), exc.retry_after or 5.0)
            raise BackendError(
                f"{self.url} rejected {label!r}: {exc}"
            ) from None
        except (OSError, HTTPException) as exc:
            raise BackendError(f"coordinator {self.url}: {exc}") from None
        self._jobs[job["id"]] = key
        return job["id"]

    def poll(self, timeout: float) -> List[Completion]:
        from http.client import HTTPException

        from repro.service.client import ServiceError

        deadline = time.monotonic() + timeout
        while self._jobs:
            completions: List[Completion] = []
            try:
                states = {job["id"]: job["state"]
                          for job in self._client.jobs()}
                for job_id in list(self._jobs):
                    state = states.get(job_id)
                    if state not in _LIVE_STATES:
                        completions.append(self._outcome(job_id, state))
                        del self._jobs[job_id]
            except (OSError, HTTPException, ServiceError) as exc:
                job_id, key = next(iter(self._jobs.items()))
                # The orchestrator requeues everything in flight.
                self._jobs.clear()
                completions.append(Completion(
                    job_id, key, error=f"coordinator {self.url}: {exc}",
                    lost=True,
                ))
            if completions:
                return completions
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(self.poll_interval, remaining))
        return []

    def _outcome(self, job_id: str, state: Optional[str]) -> Completion:
        """The completion of a job that left the coordinator's queue."""
        from repro.service.codec import result_from_dict

        key = self._jobs[job_id]
        if state is None:
            return Completion(job_id, key,
                              error=f"coordinator forgot job {job_id}")
        payload = self._client.result(job_id)
        if state == "done":
            for encoded in (payload.get("results") or {}).values():
                result = result_from_dict(encoded)
                if result is not None:
                    return Completion(job_id, key, result=result)
            return Completion(job_id, key, error="bad result payload")
        failures = payload.get("failures") or {}
        error = "; ".join(str(err) for err in failures.values())
        return Completion(job_id, key, error=error or f"remote job {state}")

    def abandon(self, handles: Sequence[object]) -> bool:
        self._cancel(handles)
        # Remote slots free immediately on cancel; no restart needed.
        return True

    def cancel(self) -> None:
        self._cancel(list(self._jobs))

    def close(self) -> None:
        self.cancel()

    def _cancel(self, job_ids: Sequence[object]) -> None:
        for job_id in job_ids:
            self._jobs.pop(job_id, None)
            try:
                self._client.cancel(job_id)
            except Exception:  # noqa: BLE001 -- best-effort cleanup
                pass
