"""Pre-forked analysis worker processes behind per-worker job queues.

The whole point of the daemon is amortization: a one-shot ``repro analyze``
pays spec loading + code-fragment compilation + base-program merging on
every invocation, while a :class:`ProcessWorkerPool` worker pays it **once
at startup** (emitting :class:`~repro.engine.events.SpecCompiled` so the
cost is observable) and then answers any number of requests against its
resident :class:`~repro.service.analyzer.ClientAnalyzer`.  Each worker is a
**process**, so analysis throughput scales with cores instead of capping at
one GIL: requests are dispatched over a per-worker job queue, and results
come back over a per-worker result pipe.

Design points worth knowing before reading the code:

* **Backpressure.**  ``queue_depth`` bounds the outstanding requests across
  the fleet; :meth:`ProcessWorkerPool.submit` raises :class:`PoolSaturated`
  instead of queueing unboundedly, which the front door translates to
  ``503`` + ``Retry-After``.
* **Hot reload.**  :meth:`ProcessWorkerPool.poll_once` re-reads the store's
  append-only index; when a newer latest spec appears, each job carries the
  new target and workers compile it lazily, while in-flight requests finish
  on the spec they were dispatched under.
* **Spec-id routing.**  Requests pinned to an explicit spec id are sharded
  onto a stable worker (hash of the id), so a pinned minority reuses one
  process's compiled-analyzer cache instead of forcing every process to
  compile every historical version.  Unpinned requests go to the worker with
  the fewest outstanding jobs.
* **Telemetry crosses the fork as data.**  Engine events (frozen picklable
  dataclasses, spans included) are forwarded from each worker over its
  result pipe and re-emitted into the pool's sink by that worker's reader
  thread -- one journal writer, one metrics registry, and the "compiled once
  per worker, never once per request" counters keep working.  The worker
  resets the fork-inherited ambient sinks first
  (:func:`repro.obs.trace.reset_ambient_sinks`), so nothing is delivered
  twice.
* **Supervision.**  The parent closes its copy of each result pipe's write
  end, so a worker's exit -- clean or SIGKILL -- is end-of-file on its
  reader with no per-request liveness check.  The reader then fails that
  worker's pending futures with :class:`WorkerLost` (retriable: the front
  door answers ``503`` + ``Retry-After``) and forks a replacement, which
  recompiles before it is routed to again; repeated startup failures back
  off like the store poller.
* **Shadow mirroring stays parent-sampled.**  The parent decides at dispatch
  whether a request is mirrored (the observer's ``sample()`` runs exactly
  once per request, in one process); the worker analyzes the mirror *after*
  shipping the served result, and the parent rehydrates both responses
  (:meth:`repro.service.api.AnalyzeResponse.from_dict`) to drive the
  observer's ``observe``/``observe_error`` -- so the canary's events and
  metrics are emitted in the parent.
* **Trace contexts are explicit.**  ``submit(request, context=...)`` ships a
  :class:`~repro.obs.trace.TraceContext` dict to the worker, which adopts it
  around the analysis, so worker-process spans join the HTTP request's
  trace.  The asyncio front door passes contexts explicitly (thread-local
  ambience is meaningless under task interleaving); threaded callers fall
  back to :func:`repro.obs.trace.current_context`.
* **Survived exceptions are counted.**  A bad worker message, a raising
  shadow observer and a raising shadow sampler never take serving down, and
  never vanish either: each emits an
  :class:`~repro.engine.events.InternalError` with its site.

Example::

    >>> pool = ProcessWorkerPool(store, processes=2, queue_depth=16)
    >>> pool.start()                      # 2 processes forked, 2 compilations
    >>> response = pool.submit(AnalyzeRequest(suite=SuiteSpec(count=5))).result()
    >>> pool.stop()
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.cache import program_fingerprint
from repro.engine.events import (
    EventSink,
    InternalError,
    NullSink,
    SpecCompiled,
    SpecReloaded,
)
from repro.library.registry import build_library_program, build_spec_interface
from repro.obs import trace as _trace
from repro.obs.trace import SpanFinished, TraceContext
from repro.service.analyzer import ClientAnalyzer
from repro.service.api import (
    AnalyzeRequest,
    AnalyzeResponse,
    UnknownAppsError,
    run_request,
)
from repro.service.store import SpecNotFoundError, SpecStore

DEFAULT_QUEUE_DEPTH = 16
DEFAULT_RETRY_AFTER_SECONDS = 1
#: per-worker compiled-analyzer cache bound (current spec + reload/pin history)
MAX_CACHED_ANALYZERS = 4
#: ceiling on the store-poll backoff when the store is unreadable
POLL_BACKOFF_CAP_SECONDS = 30.0
#: proportional jitter added to backed-off delays (desynchronizes daemons
#: sharing one store so they do not retry a broken filesystem in lockstep)
POLL_BACKOFF_JITTER = 0.25
#: how long stop() waits for a worker to exit cleanly before terminating it
STOP_GRACE_SECONDS = 30.0
#: how long start() waits for every worker to finish its startup compilation
STARTUP_TIMEOUT_SECONDS = 600.0
#: delay before forking a replacement for a dead worker; doubles (with the
#: poller's cap and jitter) while replacements keep dying before ready
RESPAWN_DELAY_SECONDS = 0.1


def poll_backoff_delay(interval_seconds: float, failures: int, rng: random.Random) -> float:
    """The delay before the next store poll after *failures* consecutive errors.

    A healthy store (``failures == 0``) polls at exactly *interval_seconds*
    -- hot-reload promptness is unchanged.  Each consecutive failure doubles
    the delay up to :data:`POLL_BACKOFF_CAP_SECONDS` and adds up to
    :data:`POLL_BACKOFF_JITTER` proportional jitter, so an unreadable store
    (unmounted NFS, wrecked permissions) is probed gently instead of
    hot-looped at the fixed interval.
    """
    if failures <= 0:
        return interval_seconds
    cap = max(interval_seconds, POLL_BACKOFF_CAP_SECONDS)
    delay = min(interval_seconds * (2.0 ** failures), cap)
    return delay * (1.0 + POLL_BACKOFF_JITTER * rng.random())


class PoolUnavailable(RuntimeError):
    """A retriable refusal: the request was not analyzed; retry it later.

    ``retry_after_seconds`` is a hint for the HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_seconds: int = DEFAULT_RETRY_AFTER_SECONDS):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class PoolSaturated(PoolUnavailable):
    """The bounded request queue is full; shed this request."""

    def __init__(self, depth: int, retry_after_seconds: int = DEFAULT_RETRY_AFTER_SECONDS):
        super().__init__(f"request queue full ({depth} requests pending)", retry_after_seconds)
        self.depth = depth


class WorkerLost(PoolUnavailable):
    """The worker process holding this request died; a replacement is forking."""


class _PipeSink(EventSink):
    """Worker-side ambient sink: every event becomes a message to the parent."""

    def __init__(self, send):
        self.send = send

    def emit(self, event) -> None:
        try:
            self.send(("event", event))
        except Exception:  # noqa: BLE001 - telemetry must never kill a worker
            pass


def _evict_stale(analyzers: Dict[str, ClientAnalyzer], protected: set) -> None:
    """Bound a worker's analyzer cache (hot reloads / pinned ids add up).

    Drops the oldest analyzers past :data:`MAX_CACHED_ANALYZERS` except the
    *protected* ones (the current target, the one in use, the shadow
    candidate) -- a long-lived daemon's memory must not grow with the number
    of deploys or with clients pinning historical spec ids.
    """
    while len(analyzers) > MAX_CACHED_ANALYZERS:
        for spec_id in analyzers:
            if spec_id not in protected:
                del analyzers[spec_id]
                break
        else:
            return


def _worker_main(
    name: str,
    store_root: str,
    jobs,
    results,
    initial_spec_id: str,
    solver: Optional[str] = None,
    analysis_cache_dir: Optional[str] = None,
) -> None:
    """One pre-forked worker: compile once, then serve jobs until the sentinel.

    Module-level (not a closure) so the pool works under the ``spawn`` start
    method too; everything it needs arrives as picklable arguments, and the
    library program/interface are rebuilt in-process (they are deterministic,
    so the fingerprint matches the parent's).  *results* is the write end of
    this worker's result pipe; every message goes through :func:`send`.
    """
    try:  # the parent owns shutdown; a Ctrl-C broadcast must not race it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:  # one framed message at a time, whatever thread emits
            results.send(message)

    _trace.reset_ambient_sinks()  # see module docstring: no double delivery
    sink = _PipeSink(send)
    _trace.add_ambient_sink(sink)
    try:
        store = SpecStore(store_root)
        library = build_library_program()
        interface = build_spec_interface(library)
    except BaseException as error:  # noqa: BLE001 - surfaced to start()
        send(("startup_error", f"{type(error).__name__}: {error}"))
        return

    analyzers: Dict[str, ClientAnalyzer] = {}

    def compile_spec(spec_id: str) -> ClientAnalyzer:
        started = time.perf_counter()
        analyzer = ClientAnalyzer.from_store(
            store,
            spec_id=spec_id,
            library_program=library,
            interface=interface,
            solver=solver,
            analysis_cache_dir=analysis_cache_dir,
            # per-process cache files in one shared directory: each worker
            # appends to its own, loads the union -- no write interleaving
            analysis_cache_worker=name,
        )
        sink.emit(
            SpecCompiled(
                worker=name,
                spec_id=analyzer.spec_id,
                elapsed_seconds=time.perf_counter() - started,
            )
        )
        return analyzer

    try:
        analyzers[initial_spec_id] = compile_spec(initial_spec_id)
    except BaseException as error:  # noqa: BLE001 - surfaced to start()
        send(("startup_error", f"{type(error).__name__}: {error}"))
        return
    send(("ready",))

    while True:
        message = jobs.get()
        if message is None:
            return
        job_id, request_doc, target_spec_id, context_doc, shadow_spec_id, enqueued_at = message
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's enqueue
        # stamp is comparable here; clamp anyway for exotic platforms
        queue_seconds = max(0.0, time.perf_counter() - enqueued_at)
        context = TraceContext.from_dict(context_doc) if context_doc else None
        if context is not None:
            # the dequeue is the only place queue wait is known, so the span
            # is synthesized here as a child of the request span
            sink.emit(
                SpanFinished(
                    name="server.queue_wait",
                    trace_id=context.trace_id,
                    span_id=_trace.new_id(),
                    parent_id=context.span_id,
                    started_at=time.time() - queue_seconds,
                    elapsed_seconds=queue_seconds,
                    attrs=(("worker", name),),
                )
            )
        try:
            request = AnalyzeRequest.from_dict(request_doc)
        except (ValueError, TypeError) as error:
            send(("result", job_id, "error", str(error), None))
            continue
        spec_id = request.spec_id if request.spec_id is not None else target_spec_id
        analysis_started = time.perf_counter()
        try:
            if spec_id not in analyzers:
                analyzers[spec_id] = compile_spec(spec_id)
            _evict_stale(
                analyzers, {target_spec_id, spec_id, shadow_spec_id} - {None}
            )
            with _trace.activate(context):
                response = run_request(request, analyzers[spec_id], events=sink)
        except SpecNotFoundError as error:
            send(("result", job_id, "spec_not_found", str(error), None))
            continue
        except UnknownAppsError as error:
            send(("result", job_id, "unknown_apps", str(error), None))
            continue
        except BaseException as error:  # noqa: BLE001 - the wire needs an answer
            send(("result", job_id, "error", f"{type(error).__name__}: {error}", None))
            continue
        reports = response.result.reports
        timing = {
            "queue_seconds": queue_seconds,
            "analysis_seconds": time.perf_counter() - analysis_started,
            "andersen_seconds": sum(r.timing.andersen_seconds for r in reports),
            "taint_seconds": sum(r.timing.taint_seconds for r in reports),
        }
        if any(r.timing.solve_outcome is not None for r in reports):
            timing["solve_seconds"] = sum(
                r.timing.solve_seconds or 0.0 for r in reports
            )
        send(("result", job_id, "ok", response.to_dict(), timing))
        if shadow_spec_id is not None and request.spec_id is None:
            # strictly after the served result shipped: nothing below can
            # affect what the client got
            try:
                if shadow_spec_id not in analyzers:
                    analyzers[shadow_spec_id] = compile_spec(shadow_spec_id)
                with _trace.activate(context):
                    shadowed = run_request(request, analyzers[shadow_spec_id], events=sink)
                send(("shadow", job_id, "ok", shadowed.to_dict()))
            except Exception as error:  # noqa: BLE001 - shadows are best-effort
                send(("shadow", job_id, "error", f"{type(error).__name__}: {error}"))


@dataclass
class _Worker:
    """Parent-side state of one worker slot; survives its process's respawns."""

    name: str
    process: Optional[multiprocessing.process.BaseProcess] = None
    jobs: Optional[object] = None  # multiprocessing.Queue: parent -> worker
    reader: Optional[threading.Thread] = None  # drains the worker -> parent pipe
    ready: threading.Event = field(default_factory=threading.Event)
    startup_error: Optional[str] = None
    live: bool = False  # compiled and routable (guarded by the pool lock)
    outstanding: int = 0  # dispatched, unresolved jobs (guarded by the pool lock)
    failures: int = 0  # consecutive deaths before ready (respawn backoff)


@dataclass
class _Pending:
    """Parent-side state of one dispatched job."""

    request: AnalyzeRequest
    future: Future
    worker: _Worker
    shadow_spec_id: Optional[str] = None
    served: Optional[AnalyzeResponse] = None  # kept only until the shadow lands


_ERROR_TYPES = {
    "spec_not_found": SpecNotFoundError,
    "unknown_apps": UnknownAppsError,
}


class ProcessWorkerPool:
    """A fixed fleet of pre-forked worker processes serving one spec store.

    ``queue_depth`` bounds the *total* outstanding requests across the fleet
    -- the admission contract a 503 + ``Retry-After`` is derived from.  The
    start method is ``fork`` where the platform has it, else its default.
    """

    def __init__(
        self,
        store: SpecStore,
        processes: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        events: Optional[EventSink] = None,
        library_program=None,
        solver: Optional[str] = None,
        analysis_cache_dir: Optional[str] = None,
    ):
        self.store = store
        self.processes = max(1, int(processes))
        self.queue_capacity = max(1, int(queue_depth))
        self.events = events if events is not None else NullSink()
        self.solver = solver
        self.analysis_cache_dir = analysis_cache_dir
        # parent-side library build is for the fingerprint only; each worker
        # rebuilds its own copy (deterministic, so fingerprints agree)
        self.library_program = (
            library_program if library_program is not None else build_library_program()
        )
        self._fingerprint = program_fingerprint(self.library_program)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        # serializes forks against each other and against stop(): a child
        # forked while another worker's pipe is half set up would inherit
        # that pipe's write end and mask the other worker's death
        self._lifecycle_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._stopped = threading.Event()
        self._rng = random.Random()
        self._job_counter = 0
        self._pending: Dict[int, _Pending] = {}
        self._target_spec_id: Optional[str] = None
        self._shadow = None
        self._poller: Optional[threading.Thread] = None
        self._stop_polling_event = threading.Event()
        self._poll_failures = 0

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Fork the fleet and block until every worker has compiled its spec.

        Raises :class:`~repro.service.store.SpecNotFoundError` when the store
        holds nothing for this library (checked before any fork), and
        ``RuntimeError`` when a worker fails its startup compilation.
        """
        if self._started or self._workers:
            raise RuntimeError("pool already started")
        record = self.store.latest(fingerprint=self._fingerprint)
        if record is None:
            raise SpecNotFoundError(
                f"no stored specification for this library in {self.store.root} "
                "(run `repro learn` before `repro serve`)"
            )
        self._target_spec_id = record.spec_id
        self._pending = {}
        self._stopping = False
        self._stopped.clear()
        self._workers = [_Worker(f"proc-{index}") for index in range(self.processes)]
        for worker in self._workers:
            with self._lifecycle_lock:
                self._spawn(worker)
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        for worker in self._workers:
            if not worker.ready.wait(max(0.0, deadline - time.monotonic())):
                worker.startup_error = "startup timed out"
        with self._lock:
            # checked under the lock the readers flip liveness under: a worker
            # dying from here on is respawned, one that died before is fatal
            errors = [
                f"{worker.name}: {worker.startup_error or 'exited during startup'}"
                for worker in self._workers
                if not worker.live
            ]
            self._started = not errors
        if errors:
            self.stop()
            raise RuntimeError(f"worker startup failed: {'; '.join(errors)}")

    def _spawn(self, worker: _Worker) -> None:
        """Fork *worker*'s process with a fresh job queue and result pipe.

        Fresh every time: a SIGKILLed worker can die holding its job queue's
        reader lock or mid-message on its pipe.  Callers hold the lifecycle
        lock.
        """
        results, writer = self._ctx.Pipe(duplex=False)
        worker.jobs = self._ctx.Queue()
        worker.ready.clear()
        worker.startup_error = None
        with self._lock:
            target = self._target_spec_id
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.name,
                str(self.store.root),
                worker.jobs,
                writer,
                target,
                self.solver,
                self.analysis_cache_dir,
            ),
            name=f"repro-serve-{worker.name}",
            daemon=True,
        )
        worker.process.start()
        writer.close()  # the child holds the only write end: its exit is our EOF
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker, results),
            name=f"repro-serve-reader-{worker.name}",
            daemon=True,
        )
        worker.reader.start()

    def stop(self) -> None:
        """Stop polling, retire every worker, fail any unresolved futures."""
        self.stop_polling()
        with self._lifecycle_lock, self._lock:
            self._started = False
            self._stopping = True
        self._stopped.set()  # wakes any reader waiting out a respawn delay
        for worker in self._workers:
            try:
                worker.jobs.put(None)
            except (ValueError, OSError):
                pass  # a dead worker's queue, already closed
        # each reader drains its pipe to EOF (late results still land), reaps
        # its process and fails whatever that worker left unanswered
        deadline = time.monotonic() + STOP_GRACE_SECONDS
        for worker in self._workers:
            worker.reader.join(max(0.1, deadline - time.monotonic()))
            if worker.reader.is_alive():
                worker.process.terminate()
                worker.reader.join()
        self._workers = []

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- requests
    def submit(
        self, request: AnalyzeRequest, context: Optional[TraceContext] = None
    ) -> "Future[AnalyzeResponse]":
        """Dispatch one request to a worker process; never blocks.

        Raises :class:`PoolSaturated` once ``queue_depth`` requests are
        outstanding across the fleet, and :class:`WorkerLost` while no
        worker is live (every one is being respawned).  *context* carries
        the caller's trace explicitly (required from asyncio, where
        thread-local ambience is meaningless); threaded callers may omit it
        and inherit :func:`repro.obs.trace.current_context`.
        """
        if context is None:
            context = _trace.current_context()
        shadow = self.shadow
        future: "Future[AnalyzeResponse]" = Future()
        sampler_error: Optional[Exception] = None
        with self._lock:
            if not self._started:
                raise RuntimeError("pool is not running (call start() first)")
            if len(self._pending) >= self.queue_capacity:
                raise PoolSaturated(self.queue_capacity)
            worker = self._route(request)
            if worker is None:
                raise WorkerLost("no live worker process (respawning)")
            shadow_spec_id = None
            if shadow is not None and request.spec_id is None:
                try:
                    if shadow.sample():
                        shadow_spec_id = shadow.spec_id
                except Exception as error:  # noqa: BLE001 - a broken sampler mirrors nothing
                    sampler_error = error
            self._job_counter += 1
            job_id = self._job_counter
            self._pending[job_id] = _Pending(
                request=request, future=future, worker=worker, shadow_spec_id=shadow_spec_id
            )
            worker.outstanding += 1
            target = self._target_spec_id
            jobs = worker.jobs
        if sampler_error is not None:
            self._internal_error("shadow_sampler", sampler_error)
        try:
            jobs.put(
                (
                    job_id,
                    request.to_dict(),
                    target,
                    context.to_dict() if context is not None else None,
                    shadow_spec_id,
                    time.perf_counter(),
                )
            )
        except (ValueError, OSError):
            # the worker died after routing and its queue is closed; its
            # reader already failed this future with WorkerLost
            pass
        return future

    def _route(self, request: AnalyzeRequest) -> Optional[_Worker]:
        """Pick a live worker: stable shard for pinned ids, least-loaded otherwise."""
        if request.spec_id is not None:
            digest = hashlib.sha256(request.spec_id.encode("utf-8")).hexdigest()
            shard = self._workers[int(digest, 16) % len(self._workers)]
            if shard.live:
                return shard
        live = [worker for worker in self._workers if worker.live]
        return min(live, key=lambda worker: worker.outstanding) if live else None

    # ------------------------------------------------------------------ readers
    def _read_loop(self, worker: _Worker, results) -> None:
        """Drain one worker's result pipe: events, results, shadows, lifecycle.

        The only place that worker's messages re-enter the parent; end of
        file means the process is gone, for whatever reason.
        """
        while True:
            try:
                message = results.recv()
            except (EOFError, OSError):
                break
            except Exception as error:  # noqa: BLE001 - an unreadable message
                self._internal_error("collector", error)
                continue
            try:
                self._dispatch_message(worker, message)
            except Exception as error:  # noqa: BLE001 - the reader outlives bad messages
                self._internal_error("collector", error)
        results.close()
        self._on_exit(worker)

    def _dispatch_message(self, worker: _Worker, message) -> None:
        kind = message[0]
        if kind == "event":
            self.events.emit(message[1])
        elif kind == "result":
            self._on_result(*message[1:])
        elif kind == "shadow":
            self._on_shadow(*message[1:])
        elif kind == "ready":
            with self._lock:
                worker.live = True
                worker.failures = 0
            worker.ready.set()
        elif kind == "startup_error":
            worker.startup_error = message[1]
            worker.ready.set()

    def _on_result(self, job_id: int, status: str, payload, timing) -> None:
        with self._lock:
            job = self._pending.get(job_id)
        if job is None:
            return
        if status == "ok":
            response = AnalyzeResponse.from_dict(payload)
            if timing:
                # timing attributes ride the future (no __slots__), so HTTP
                # layers render Server-Timing without changing the contract
                for key, value in timing.items():
                    setattr(job.future, key, value)
            with self._lock:
                if job.shadow_spec_id is not None:
                    job.served = response  # keep pending until the shadow lands
                else:
                    self._pending.pop(job_id, None)
                    job.worker.outstanding -= 1
            job.future.set_result(response)
        else:
            with self._lock:
                self._pending.pop(job_id, None)
                job.worker.outstanding -= 1
            error_type = _ERROR_TYPES.get(status, RuntimeError)
            job.future.set_exception(error_type(payload))

    def _on_shadow(self, job_id: int, status: str, payload) -> None:
        with self._lock:
            job = self._pending.pop(job_id, None)
            if job is not None:
                job.worker.outstanding -= 1
        shadow = self.shadow
        if job is None or shadow is None:
            return
        try:
            if status == "ok":
                shadow.observe(job.request, job.served, AnalyzeResponse.from_dict(payload))
            else:
                shadow.observe_error(job.request, RuntimeError(payload))
        except Exception as error:  # noqa: BLE001 - observer bugs stay out of serving
            self._internal_error("shadow_observer", error)

    def _on_exit(self, worker: _Worker) -> None:
        """*worker*'s process is gone: fail its jobs, then fork a replacement."""
        worker.process.join()  # its pipe closes only as it exits: reap it
        with self._lock:
            was_live = worker.live
            worker.live = False
            worker.outstanding = 0
            lost_ids = [job_id for job_id, job in self._pending.items() if job.worker is worker]
            lost = [self._pending.pop(job_id) for job_id in lost_ids]
            respawn = self._started and not self._stopping
        worker.failures = 0 if was_live else worker.failures + 1
        if not worker.ready.is_set():
            worker.startup_error = worker.startup_error or (
                f"exited with code {worker.process.exitcode} during startup"
            )
            worker.ready.set()
        for job in lost:
            if not job.future.done():
                job.future.set_exception(
                    WorkerLost(
                        f"worker {worker.name} exited with code "
                        f"{worker.process.exitcode}; retry"
                    )
                    if respawn
                    else RuntimeError("pool is shutting down")
                )
        worker.jobs.cancel_join_thread()  # undelivered jobs must not block exit
        worker.jobs.close()
        if not respawn or self._stopped.wait(
            poll_backoff_delay(RESPAWN_DELAY_SECONDS, worker.failures, self._rng)
        ):
            return
        with self._lifecycle_lock:
            if not self._stopping:
                self._spawn(worker)

    def _internal_error(self, site: str, error: BaseException) -> None:
        """Count one survived exception (``repro_internal_errors_total``)."""
        self.events.emit(InternalError(site=site, error=f"{type(error).__name__}: {error}"))

    # --------------------------------------------------------------- properties
    @property
    def running(self) -> bool:
        return self._started

    @property
    def queue_depth(self) -> int:
        """Outstanding requests across the fleet (dispatched, unresolved)."""
        with self._lock:
            return len(self._pending)

    @property
    def workers(self) -> int:
        """Worker count (the ``/healthz`` and ``/metrics`` vocabulary)."""
        return self.processes

    @property
    def live_workers(self) -> int:
        """Workers compiled and routable right now (< ``workers`` while respawning)."""
        with self._lock:
            return sum(1 for worker in self._workers if worker.live)

    @property
    def current_spec_id(self) -> Optional[str]:
        with self._lock:
            return self._target_spec_id

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    # ------------------------------------------------------------ shadow canary
    def set_shadow(self, shadow) -> None:
        """Install a shadow observer; only one runs at a time.

        The observer needs a ``spec_id`` attribute (the candidate to mirror
        through), ``sample() -> bool`` (per-request sampling decision), and
        ``observe(request, served, shadowed)`` /
        ``observe_error(request, error)`` callbacks (see
        :class:`repro.plane.canary.ShadowCanary`).  Requests pinned to an
        explicit spec id are never mirrored: they are not incumbent traffic.
        """
        with self._lock:
            self._shadow = shadow

    def clear_shadow(self) -> None:
        with self._lock:
            self._shadow = None

    @property
    def shadow(self):
        with self._lock:
            return self._shadow

    # --------------------------------------------------------------- hot reload
    def poll_once(self) -> bool:
        """Re-read the store index; retarget the fleet on a newer latest spec.

        Only the dispatch target moves: jobs already queued carry the spec id
        they were dispatched under, and each worker compiles the new spec
        lazily on its first post-swap job -- in-flight requests are never
        migrated.
        """
        record = self.store.latest(fingerprint=self._fingerprint)
        if record is None:
            return False
        with self._lock:
            if record.spec_id == self._target_spec_id:
                return False
            previous = self._target_spec_id
            self._target_spec_id = record.spec_id
        self.events.emit(SpecReloaded(previous_spec_id=previous or "", spec_id=record.spec_id))
        return True

    def start_polling(self, interval_seconds: float) -> None:
        """Poll the store for new specs every *interval_seconds* in a thread.

        A poll that raises (transient store read error) must not kill the
        poller -- and hot reload -- for good; instead consecutive failures
        back off exponentially with jitter (:func:`poll_backoff_delay`) and
        the first successful poll snaps back to the fixed interval.
        """
        if self._poller is not None or interval_seconds <= 0:
            return
        self._stop_polling_event.clear()
        rng = random.Random()

        def loop() -> None:
            while True:
                delay = poll_backoff_delay(interval_seconds, self._poll_failures, rng)
                if self._stop_polling_event.wait(delay):
                    return
                try:
                    self.poll_once()
                    self._poll_failures = 0
                except Exception:  # noqa: BLE001 - counted in poll_failures
                    self._poll_failures += 1

        self._poller = threading.Thread(target=loop, name="repro-serve-poller", daemon=True)
        self._poller.start()

    @property
    def poll_failures(self) -> int:
        """Consecutive failed store polls (0 while the store is healthy)."""
        return self._poll_failures

    def stop_polling(self) -> None:
        if self._poller is None:
            return
        self._stop_polling_event.set()
        self._poller.join()
        self._poller = None


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "MAX_CACHED_ANALYZERS",
    "POLL_BACKOFF_CAP_SECONDS",
    "POLL_BACKOFF_JITTER",
    "PoolSaturated",
    "PoolUnavailable",
    "ProcessWorkerPool",
    "RESPAWN_DELAY_SECONDS",
    "STARTUP_TIMEOUT_SECONDS",
    "STOP_GRACE_SECONDS",
    "WorkerLost",
    "poll_backoff_delay",
]
