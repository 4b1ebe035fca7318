"""The simulation daemon: asyncio socket server over queue + worker pool.

One long-lived process owns the worker pool; any number of clients
connect over a local socket and speak the line-delimited JSON protocol
(:mod:`repro.service.protocol`).  The daemon's event loop does three
things: answer socket requests, pump the queue onto idle workers, and
turn pool supervision events into streamed job events.  It never polls:
one pump step runs when a worker's pipe is readable, a job was admitted,
or a dispatched job's deadline or a retry fence expired.

Endpoints (``op`` field of each request):

``ping``
    Liveness probe; returns pid and uptime.
``submit``
    Admit one job spec.  Responds immediately with a ``queued`` event
    (or an explicit backpressure rejection); with ``"wait": true`` the
    connection then streams ``started`` / ``retrying`` / ``done`` /
    ``failed`` events until the job is terminal.  Duplicate submissions
    coalesce: if an identical spec (same content-hash key) is already
    queued or running, the new client attaches to the in-flight job and
    no second execution happens; if the persistent result cache already
    holds the key, the job completes instantly from the summary stored
    in front of the entry, without touching the queue or loading the
    cached ``RunResult``.
``status``
    Queue depth and snapshot, worker pids, counters.
``drain``
    Stop admitting new jobs, wait until queued+running work finishes,
    then reply — the clean way to quiesce before shutdown.
``shutdown``
    Stop the daemon (optionally draining first).  Workers are stopped,
    the socket file is removed.

Failure semantics: a worker *crash* or job *timeout* is retried with
exponential backoff up to ``max_retries`` before the job fails; a runner
*exception* (deterministic simulation error) fails immediately — it
would fail again.  A disconnected client only detaches its event stream;
the job keeps running and its result still lands in the persistent
cache.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import AdmissionError, ServiceProtocolError
from repro.service import protocol
from repro.service.queue import JobQueue, QueuedJob
from repro.service.specs import build_task, normalize_spec, task_signature
from repro.service.workers import PoolEvent, WorkerPool, run_cached_task

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = ("queued", "running", "done", "failed")
TERMINAL_STATES = frozenset({DONE, FAILED})

#: Spec signatures whose content-hash key is remembered; the oldest is
#: dropped first, and a dropped signature is simply hashed again.
KEY_MEMO_KEEP = 4096


@dataclass
class ServerOptions:
    """Everything tunable about one daemon instance."""

    address: Optional[str] = None
    workers: int = 2
    queue_depth: int = 64
    max_per_client: int = 16
    job_timeout: Optional[float] = 300.0
    max_retries: int = 2
    retry_backoff: float = 0.25
    recycle_after: Optional[int] = 64
    runner: object = run_cached_task


@dataclass
class ServiceJob:
    """Server-side state of one admitted job."""

    job_id: str
    key: str
    signature: str
    spec: Dict[str, object]
    client: str
    state: str = QUEUED
    attempts: int = 0
    coalesced: int = 0
    cached: bool = False
    error: Optional[str] = None
    summary: Optional[Dict[str, object]] = None
    watchers: List[asyncio.Queue] = field(default_factory=list)
    queued_entry: Optional[QueuedJob] = None


class SimulationServer:
    """The daemon.  ``SimulationServer(opts).run()`` serves until shutdown."""

    def __init__(self, options: ServerOptions) -> None:
        self.options = options
        self.address = options.address or protocol.default_address()
        self.queue = JobQueue(
            max_depth=options.queue_depth,
            max_per_client=options.max_per_client,
        )
        self.pool = WorkerPool(
            workers=options.workers,
            runner=options.runner,
            job_timeout=options.job_timeout,
            recycle_after=options.recycle_after,
            on_open=self._watch,
            on_close=self._unwatch,
        )
        # job_id -> job, from admission until its terminal event
        self._jobs: Dict[str, ServiceJob] = {}
        self._inflight: Dict[str, str] = {}  # key -> job_id (non-terminal)
        self._key_memo: Dict[str, str] = {}  # signature -> content-hash key
        self._deadlines: Dict[str, asyncio.TimerHandle] = {}  # job_id -> deadline timer
        self._next_id = 0
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None  # set: nothing queued or running
        self._started_at = time.monotonic()
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "executed": 0,
            "completed": 0,
            "failed": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "rejected": 0,
            "retries": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        """Blocking entry point used by ``repro serve``."""
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        """Start the workers (watching their pipes), bind the socket, serve
        until a stop is requested, then tear down."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._idle = asyncio.Event()
        self.pool.start()
        if protocol.is_tcp_address(self.address):
            host, port = protocol.split_tcp_address(self.address)
            server = await asyncio.start_server(
                self._handle_client, host, port, limit=protocol.MAX_LINE_BYTES
            )
        else:
            protocol.cleanup_socket(self.address)
            os.makedirs(os.path.dirname(self.address) or ".", exist_ok=True)
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.address, limit=protocol.MAX_LINE_BYTES
            )
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover
                pass
            self.pool.stop()
            protocol.cleanup_socket(self.address)
            # Let the handlers of clients that hung up finish closing (the
            # one that asked for the shutdown, say): asyncio.run cancels what
            # is left, and a cancelled handler is logged as an unhandled error.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=1.0)

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def stop_threadsafe(self) -> None:
        """Request a stop from outside the server's event loop (tests,
        signal handlers).  Safe to call repeatedly or before start."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.request_stop)

    # -- pump: queue -> workers, pool events -> job events ---------------------

    def _watch(self, conn) -> None:
        self._loop.add_reader(conn.fileno(), self._pump_once)

    def _unwatch(self, conn) -> None:
        self._loop.remove_reader(conn.fileno())

    def _pump_once(self) -> None:
        """The one pump step: called when a worker's pipe is readable, a
        job was admitted, or a deadline or retry fence expired."""
        for event in self.pool.poll():
            self._on_pool_event(event)
        now = time.monotonic()
        while self.pool.idle_count() > 0:
            queued = self.queue.pop_next(now)
            if queued is None:
                break
            self._start_job(queued)
        if len(self.queue) + self.pool.busy_count() == 0:
            self._idle.set()

    def _start_job(self, queued: QueuedJob) -> None:
        job = self._jobs[queued.job_id]
        job.state = RUNNING
        job.attempts += 1
        pid = self.pool.dispatch(job.job_id, queued.task)
        if self.options.job_timeout is not None:
            # The pool stamped the dispatch before this reads the clock, so
            # the timer cannot fire before the pool's deadline has passed.
            self._deadlines[job.job_id] = self._loop.call_later(
                self.options.job_timeout, self._pump_once
            )
        self.counters["executed"] += 1 if job.attempts == 1 else 0
        self._publish(
            job,
            {
                "event": "started",
                "job": job.job_id,
                "attempt": job.attempts,
                "worker": pid,
            },
        )

    def _on_pool_event(self, event: PoolEvent) -> None:
        deadline = self._deadlines.pop(event.job_id, None)
        if deadline is not None:
            deadline.cancel()
        job = self._jobs.get(event.job_id)
        if job is None or job.state in TERMINAL_STATES:  # pragma: no cover
            return
        if event.kind == "done":
            # The worker summarised (a run_tasks worker: its cache.put did);
            # nothing is unpickled or fingerprinted on this loop.
            summary = dict(event.result, key=job.key)
            self._finish(job, DONE, summary=summary)
        elif event.kind == "error":
            # Deterministic runner failure: retrying cannot help.
            self._finish(job, FAILED, error=event.error, reason="error")
        else:  # crashed / timeout — transient, retry with backoff
            if job.attempts <= self.options.max_retries:
                self.counters["retries"] += 1
                backoff = self.options.retry_backoff * (2 ** (job.attempts - 1))
                job.state = QUEUED
                self.queue.requeue(
                    job.queued_entry, not_before=time.monotonic() + backoff
                )
                self._loop.call_later(backoff, self._pump_once)
                self._publish(
                    job,
                    {
                        "event": "retrying",
                        "job": job.job_id,
                        "attempt": job.attempts,
                        "reason": event.kind,
                        "error": event.error,
                        "backoff_ms": int(backoff * 1000),
                    },
                )
            else:
                self._finish(
                    job,
                    FAILED,
                    error=f"{event.error} (after {job.attempts} attempts)",
                    reason=event.kind,
                )

    def _finish(
        self,
        job: ServiceJob,
        state: str,
        summary: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> None:
        job.state = state
        job.summary = summary
        job.error = error
        self._inflight.pop(job.key, None)
        self._jobs.pop(job.job_id, None)
        self.counters["completed" if state == DONE else "failed"] += 1
        self._publish(job, self._terminal_event(job, reason=reason))

    def _terminal_event(self, job: ServiceJob, reason: Optional[str] = None):
        if job.state == DONE:
            return {
                "event": "done",
                "job": job.job_id,
                "result": job.summary,
                "cached": job.cached,
                "attempts": job.attempts,
            }
        return {
            "event": "failed",
            "job": job.job_id,
            "error": job.error,
            "reason": reason,
            "attempts": job.attempts,
        }

    def _publish(self, job: ServiceJob, event: Dict[str, object]) -> None:
        for watcher in job.watchers:
            watcher.put_nowait(event)  # unbounded: never full

    # -- submission ------------------------------------------------------------

    def _new_job_id(self) -> str:
        self._next_id += 1
        return f"j{self._next_id:05d}"

    def _running_for_client(self, client: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state == RUNNING and job.client == client
        )

    def _admit(self, spec: Dict[str, object], client: str) -> ServiceJob:
        """Normalize, coalesce or admit one submission.

        Returns the (possibly pre-existing) job; raises
        :class:`AdmissionError` for backpressure and
        :class:`ServiceProtocolError` for malformed specs.
        """
        spec = normalize_spec(spec)
        self.counters["submitted"] += 1
        signature = task_signature(spec)
        # Built on first need: a coalesced or cached resubmission whose
        # key is remembered is answered without a SimTask.
        task = None
        key = self._key_memo.get(signature)
        if key is None:
            from repro.analysis.parallel import task_key

            task = build_task(spec)
            key = task_key(task)
            self._key_memo[signature] = key
            if len(self._key_memo) > KEY_MEMO_KEEP:  # dicts keep insertion order
                del self._key_memo[next(iter(self._key_memo))]

        # 1. coalesce onto an identical in-flight job
        existing_id = self._inflight.get(key)
        if existing_id is not None:
            existing = self._jobs[existing_id]
            existing.coalesced += 1
            self.counters["coalesced"] += 1
            return existing

        # 2. instant completion from the summary the persistent result
        #    cache stores in front of the entry; the RunResult stays on disk
        from repro.analysis import result_cache

        cache = result_cache.default_cache()
        if cache is not None:
            summary = cache.get_summary(key)
            if summary is not None:
                self.counters["cache_hits"] += 1
                job = ServiceJob(
                    job_id=self._new_job_id(),
                    key=key,
                    signature=signature,
                    spec=spec,
                    client=client,
                    cached=True,
                )
                self._finish(job, DONE, summary=summary)
                return job

        # 3. admission control + enqueue
        if self.draining:
            self.counters["rejected"] += 1
            raise AdmissionError("daemon is draining", reason="draining")
        job = ServiceJob(
            job_id=self._new_job_id(),
            key=key,
            signature=signature,
            spec=spec,
            client=client,
        )
        entry = QueuedJob(
            job_id=job.job_id,
            key=key,
            client=client,
            seq=self.queue.next_seq(),
            task=task or build_task(spec),
        )
        try:
            self.queue.submit(
                entry, running_for_client=self._running_for_client(client)
            )
        except AdmissionError:
            self.counters["rejected"] += 1
            raise
        job.queued_entry = entry
        self._jobs[job.job_id] = job
        self._inflight[key] = job.job_id
        if self._loop is not None:  # None: never started, so it only admits
            # Pump soon, not now: the submitter attaches its watcher first.
            self._loop.call_soon(self._pump_once)
        return job

    # -- connection handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:  # the frame is over the stream's limit
                    detail = f"oversized frame (> {protocol.MAX_LINE_BYTES} bytes)"
                    await self._send(
                        writer, {"ok": False, "error": "protocol", "detail": detail}
                    )
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                    await self._dispatch_op(message, writer)
                except ServiceProtocolError as exc:
                    if not await self._send(
                        writer, {"ok": False, "error": "protocol", "detail": str(exc)}
                    ):
                        break
                except ConnectionError:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover
                pass

    async def _send(self, writer: asyncio.StreamWriter, message) -> bool:
        """Write one frame; returns False when the client is gone."""
        try:
            writer.write(protocol.encode_message(message))
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            return False

    async def _dispatch_op(self, message, writer) -> None:
        op = message.get("op")
        if op == "ping":
            await self._send(
                writer,
                {
                    "ok": True,
                    "op": "ping",
                    "pid": os.getpid(),
                    "uptime_s": round(time.monotonic() - self._started_at, 3),
                },
            )
        elif op == "submit":
            await self._op_submit(message, writer)
        elif op == "status":
            await self._send(writer, self.status_payload())
        elif op == "drain":
            await self._op_drain(writer)
        elif op == "shutdown":
            if message.get("drain"):
                await self._drain_jobs()
            await self._send(writer, {"ok": True, "op": "shutdown"})
            self.request_stop()
        else:
            raise ServiceProtocolError(f"unknown op {op!r}")

    async def _op_submit(self, message, writer) -> None:
        spec = message.get("spec")
        client = str(message.get("client") or "anonymous")
        wait = bool(message.get("wait", True))
        try:
            job = self._admit(spec, client)
        except AdmissionError as exc:
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": exc.reason,
                    "detail": str(exc),
                    "queued": len(self.queue),
                    "retry_after_ms": 250,
                },
            )
            return
        watcher: Optional[asyncio.Queue] = None
        if wait and job.state not in TERMINAL_STATES:
            watcher = asyncio.Queue()
            job.watchers.append(watcher)
        ack = {
            "ok": True,
            "event": "queued",
            "job": job.job_id,
            "key": job.key,
            "state": job.state,
            "coalesced": job.coalesced > 0,
            "cached": job.cached,
        }
        if not await self._send(writer, ack):
            self._detach(job, watcher)
            return
        if not wait:
            return
        if job.state in TERMINAL_STATES:
            await self._send(writer, self._terminal_event(job))
            return
        await self._stream_events(job, watcher, writer)

    async def _stream_events(self, job: ServiceJob, watcher, writer) -> None:
        """Forward job events until terminal or the client disconnects.

        A disconnect only detaches this watcher — the job itself keeps
        running and its result still lands in the persistent cache.
        """
        try:
            while True:
                event = await watcher.get()
                if not await self._send(writer, event):
                    break
                if event.get("event") in ("done", "failed"):
                    break
        finally:
            self._detach(job, watcher)

    def _detach(self, job: ServiceJob, watcher) -> None:
        if watcher is not None and watcher in job.watchers:
            job.watchers.remove(watcher)

    async def _op_drain(self, writer) -> None:
        drained = await self._drain_jobs()
        await self._send(writer, {"ok": True, "op": "drain", "drained": drained})

    async def _drain_jobs(self) -> int:
        """Reject new work, then wait for queued+running jobs to finish."""
        self.draining = True
        drained = len(self.queue) + self.pool.busy_count()
        while len(self.queue) + self.pool.busy_count() > 0:
            # retry-fenced jobs sit in the queue, so they count as pending
            self._idle.clear()
            await self._idle.wait()
        return drained

    # -- status ----------------------------------------------------------------

    def status_payload(self) -> Dict[str, object]:
        return {
            "ok": True,
            "op": "status",
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "address": self.address,
            "draining": self.draining,
            "queue": {
                "depth": len(self.queue),
                "max_depth": self.queue.max_depth,
                "max_per_client": self.queue.max_per_client,
                "snapshot": self.queue.snapshot(),
            },
            "workers": {
                "size": self.pool.size,
                "busy": self.pool.busy_count(),
                "idle": self.pool.idle_count(),
                "pids": self.pool.worker_pids(),
                "recycled": self.pool.recycled,
                "job_timeout_s": self.options.job_timeout,
            },
            "counters": dict(self.counters),
        }
