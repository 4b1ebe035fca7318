"""Supervised worker-process pool for the simulation daemon.

Unlike the sweep engine's fire-and-forget ``ProcessPoolExecutor``, the
service needs to *supervise* its workers: bind each dispatched job to a
specific process so a hung job can be killed on timeout, detect crashed
workers and surface the loss as a retryable event, and recycle workers
after N jobs so slow leaks in long-lived processes cannot accumulate.

Design:

* each worker is one ``multiprocessing.Process`` talking over one
  **private** duplex pipe — killing a worker mid-send can only corrupt
  its own pipe, which is discarded on respawn, and a dead worker's pipe
  reads end-of-file;
* :meth:`WorkerPool.poll` never blocks: the asyncio server calls it when
  a worker's pipe is readable (``on_open`` / ``on_close`` tell it which
  pipes are live) or a deadline is due, and receives plain
  :class:`PoolEvent` records (``done`` / ``error`` / ``crashed`` /
  ``timeout``).  Retry policy lives in the server, which owns the queue;
* results are drained *before* liveness/timeout checks, so a job that
  finished in the same poll window as its deadline is reported as done,
  never spuriously killed;
* the default job runner is the sweep engine's own
  :func:`repro.analysis.parallel.run_tasks` — a worker that finishes a
  job has already landed the full ``RunResult`` in the persistent cache,
  so results survive client disconnects and daemon restarts, and what
  crosses back to the daemon is only the ~1.4 KB summary stored in front
  of it.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError

#: Default: recycle a worker after this many completed jobs.
DEFAULT_RECYCLE_AFTER = 64


def run_cached_task(task) -> Dict[str, object]:
    """Default worker runner: ``run_tasks`` on one task, for its summary.

    The same function a ``--jobs`` sweep calls, so daemon-served results
    are interchangeable with sweep results: same key, same payload, same
    cache directory.  A runner returns the run's
    :func:`~repro.validation.fingerprint.summarize_result` dict (its
    ``key`` may be ``None``: the daemon stamps the job's).
    """
    from repro.analysis.parallel import run_tasks

    (summary,) = run_tasks([task], jobs=1, summaries=True)
    return summary


def _worker_main(conn, runner, recycle_after) -> None:
    """Worker process loop: run jobs until recycled, told to stop or the
    daemon's end of the pipe is closed."""
    done = 0
    while True:
        try:
            item = conn.recv()
        except EOFError:
            break
        if item is None:
            break
        job_id, payload = item
        try:
            conn.send((job_id, "ok", runner(payload)))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            conn.send((job_id, "error", f"{type(exc).__name__}: {exc}"))
        done += 1
        if recycle_after is not None and done >= recycle_after:
            conn.send((None, "recycled", None))
            break


@dataclass
class PoolEvent:
    """One supervision event surfaced by :meth:`WorkerPool.poll`.

    ``kind`` is ``"done"`` (``result`` is the runner's summary dict),
    ``"error"`` (runner raised; deterministic, not retried), ``"crashed"``
    (worker died mid-job) or ``"timeout"`` (job exceeded its deadline and
    the worker was killed).
    """

    kind: str
    job_id: str
    worker_pid: Optional[int] = None
    result: object = None
    error: Optional[str] = None


class _Worker:
    """Supervisor-side handle for one worker process."""

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool
        self._spawn()

    def _spawn(self) -> None:
        pool = self._pool
        self.conn, child = pool._context.Pipe()
        self.proc = pool._context.Process(
            target=_worker_main,
            args=(child, pool.runner, pool.recycle_after),
            daemon=True,
        )
        self.proc.start()
        # Only the worker holds its end now: its death reads as EOF here,
        # and no later fork inherits that end.
        child.close()
        self.job_id: Optional[str] = None
        self.dispatched_at: Optional[float] = None
        if pool.on_open is not None:
            pool.on_open(self.conn)

    def respawn(self) -> None:
        """Discard the dead/killed process and its (possibly corrupt)
        pipe, and start a fresh worker."""
        self._discard()
        self._spawn()

    def _discard(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():  # pragma: no cover - last resort
                self.proc.kill()
                self.proc.join(timeout=5.0)
        if self._pool.on_close is not None:
            self._pool.on_close(self.conn)
        self.conn.close()

    def stop(self) -> None:
        """Graceful stop: sentinel, short join, then terminate."""
        if self.proc.is_alive():
            try:
                self.conn.send(None)
            except OSError:  # pragma: no cover - died meanwhile
                pass
            self.proc.join(timeout=1.0)
        self._discard()


class WorkerPool:
    """A fixed-size set of supervised worker processes.

    ``runner`` is the module-level callable a worker applies to each
    dispatched payload (default :func:`run_cached_task`); tests inject
    slow/crashing runners through it.  ``job_timeout`` is the per-job
    wall-clock deadline enforced by :meth:`poll`.  ``on_open`` and
    ``on_close`` are called with a worker's pipe once it is open and
    before it is closed, so an event loop can wait on exactly the live
    ones.
    """

    def __init__(
        self,
        workers: int = 2,
        runner: Callable = run_cached_task,
        job_timeout: Optional[float] = 300.0,
        recycle_after: Optional[int] = DEFAULT_RECYCLE_AFTER,
        mp_context: Optional[str] = None,
        on_open: Optional[Callable] = None,
        on_close: Optional[Callable] = None,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError(
                f"job_timeout must be positive or None, got {job_timeout}"
            )
        if recycle_after is not None and recycle_after <= 0:
            raise ConfigurationError(
                f"recycle_after must be positive or None, got {recycle_after}"
            )
        self.size = workers
        self.runner = runner
        self.job_timeout = job_timeout
        self.recycle_after = recycle_after
        self.on_open = on_open
        self.on_close = on_close
        if mp_context is None:
            # fork keeps runners injectable (tests) and inherits the
            # configured cache; fall back where fork is unavailable.
            mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._context = multiprocessing.get_context(mp_context)
        self._workers: List[_Worker] = []
        self.recycled = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._workers:
            return
        # Workers exist to simulate: load the engine once, here, so every
        # fork (and respawn) inherits it instead of importing it per worker.
        import repro.core.machine  # noqa: F401

        self._workers = [_Worker(self) for _ in range(self.size)]

    def stop(self) -> None:
        """Stop every worker (graceful sentinel, then terminate)."""
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def worker_pids(self) -> List[int]:
        return [w.proc.pid for w in self._workers if w.proc.pid is not None]

    # -- dispatch --------------------------------------------------------------

    def idle_count(self) -> int:
        return sum(1 for w in self._workers if w.job_id is None and w.proc.is_alive())

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.job_id is not None)

    def dispatch(self, job_id: str, payload) -> int:
        """Hand ``payload`` to an idle worker; returns the worker's pid.

        Callers must check :meth:`idle_count` first; dispatching with no
        idle worker raises ``RuntimeError`` (a server bug, not load).
        """
        for worker in self._workers:
            if worker.job_id is None and worker.proc.is_alive():
                worker.job_id = job_id
                worker.dispatched_at = time.monotonic()
                try:
                    worker.conn.send((job_id, payload))
                except OSError:
                    pass  # it just died: the next poll reports the job crashed
                return worker.proc.pid
        raise RuntimeError("dispatch with no idle worker")

    # -- supervision -----------------------------------------------------------

    def poll(self, now: Optional[float] = None) -> List[PoolEvent]:
        """Drain results and enforce liveness/timeouts; never blocks.

        Order matters: each worker's pipe is drained *before* its
        liveness and deadline checks, so a completed job is never
        misreported as crashed or timed out.
        """
        if now is None:
            now = time.monotonic()
        events: List[PoolEvent] = []
        for worker in self._workers:
            pid = worker.proc.pid
            retiring = dead = False
            # 1. drain finished work
            try:
                while worker.conn.poll():
                    job_id, tag, payload = worker.conn.recv()
                    if tag == "recycled":
                        self.recycled += 1
                        retiring = True
                        continue
                    if job_id == worker.job_id:
                        worker.job_id = None
                        worker.dispatched_at = None
                    if tag == "ok":
                        events.append(
                            PoolEvent("done", job_id, worker_pid=pid, result=payload)
                        )
                    else:
                        events.append(
                            PoolEvent("error", job_id, worker_pid=pid, error=payload)
                        )
            except (EOFError, OSError):  # end of file, perhaps mid-message
                dead = True
                worker.proc.join(timeout=1.0)  # reap it, for its exit code
            # 2. liveness: a dead worker holding a job crashed mid-job.  A
            #    retiring one has sent its last message but may not have
            #    exited yet: replace it now, or it would count as idle.
            if retiring or dead or not worker.proc.is_alive():
                if worker.job_id is not None:
                    events.append(
                        PoolEvent(
                            "crashed",
                            worker.job_id,
                            worker_pid=pid,
                            error=f"worker pid {pid} exited "
                            f"(code {worker.proc.exitcode}) mid-job",
                        )
                    )
                worker.respawn()
                continue
            # 3. deadline enforcement
            if (
                worker.job_id is not None
                and self.job_timeout is not None
                and worker.dispatched_at is not None
                and now - worker.dispatched_at > self.job_timeout
            ):
                job_id = worker.job_id
                events.append(
                    PoolEvent(
                        "timeout",
                        job_id,
                        worker_pid=pid,
                        error=f"job exceeded {self.job_timeout:.1f}s deadline; "
                        f"worker pid {pid} killed",
                    )
                )
                worker.respawn()
        return events
