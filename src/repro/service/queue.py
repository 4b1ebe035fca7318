"""Job queue: admission control in front of a FIFO with a retry fence.

Many clients compete for a bounded pool of workers.  The queue decides
two things and nothing else knows either:

*Who gets in* — admission control is strict and explicit:

* **bounded depth** — beyond ``max_depth`` queued jobs the submit is
  rejected with a ``queue-full`` :class:`AdmissionError` (the server turns
  this into a backpressure response; nothing buffers without bound);
* **per-client quota** — one client cannot occupy more than
  ``max_per_client`` queued+running slots (``client-quota`` rejection),
  so a chatty client cannot starve the rest.

*Which job runs next* — arrival order: :meth:`JobQueue.pop_next` returns
the lowest sequence number among the jobs whose ``not_before`` retry
fence has passed.  A retried job keeps its original sequence number, so
once its backoff expires it goes ahead of everything admitted after it.
Arrival order is the only ordering because no service workload in the
repository can tell another one apart (``docs/service.md``, "Scheduling").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import AdmissionError, ConfigurationError

#: Default bound on queued (not yet running) jobs.
DEFAULT_MAX_DEPTH = 64

#: Default bound on one client's queued+running jobs.
DEFAULT_MAX_PER_CLIENT = 16


@dataclass
class QueuedJob:
    """One admitted, not-yet-dispatched job."""

    job_id: str
    key: str
    client: str
    seq: int
    task: object = None
    #: Monotonic time before which ``pop_next`` must not pick this job
    #: (retry backoff fence; 0 = immediately eligible).
    not_before: float = 0.0


class JobQueue:
    """Bounded FIFO job queue with explicit backpressure.

    ``running_counts`` (per-client in-flight jobs) is supplied by the
    server on submit so the per-client quota covers queued *and* running
    work; the queue itself only tracks queued jobs.
    """

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_per_client: int = DEFAULT_MAX_PER_CLIENT,
    ) -> None:
        if max_depth <= 0:
            raise ConfigurationError(f"max_depth must be positive, got {max_depth}")
        if max_per_client <= 0:
            raise ConfigurationError(
                f"max_per_client must be positive, got {max_per_client}"
            )
        self.max_depth = max_depth
        self.max_per_client = max_per_client
        self._jobs: List[QueuedJob] = []
        self._seq = 0

    # -- admission -------------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def submit(
        self,
        job: QueuedJob,
        running_for_client: int = 0,
    ) -> None:
        """Admit ``job`` or raise :class:`AdmissionError` (backpressure).

        ``running_for_client`` is the submitting client's current
        in-flight (dispatched, unfinished) job count.
        """
        if len(self._jobs) >= self.max_depth:
            raise AdmissionError(
                f"queue full ({len(self._jobs)}/{self.max_depth} jobs queued); "
                f"retry after a job completes",
                reason="queue-full",
            )
        queued_for_client = sum(1 for j in self._jobs if j.client == job.client)
        if queued_for_client + running_for_client >= self.max_per_client:
            raise AdmissionError(
                f"client {job.client!r} at quota "
                f"({queued_for_client} queued + {running_for_client} running "
                f">= {self.max_per_client})",
                reason="client-quota",
            )
        self._jobs.append(job)

    def requeue(self, job: QueuedJob, not_before: float = 0.0) -> None:
        """Put a previously-popped job back (retry path).

        Bypasses admission control: the job was already admitted once and
        retries are bounded by the server's ``max_retries``, so requeueing
        can never grow the queue without bound.
        """
        job.not_before = not_before
        self._jobs.append(job)

    # -- scheduling ------------------------------------------------------------

    def pop_next(self, now: float) -> Optional[QueuedJob]:
        """Remove and return the next job to run, or ``None`` if none is
        eligible (empty queue or all jobs fenced behind retry backoff)."""
        eligible = [job for job in self._jobs if job.not_before <= now]
        if not eligible:
            return None
        job = min(eligible, key=lambda job: job.seq)
        self._jobs.remove(job)
        return job

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-safe view of the queued jobs in arrival order."""
        return [
            {
                "job": job.job_id,
                "client": job.client,
                "seq": job.seq,
                "not_before": job.not_before or None,
            }
            for job in sorted(self._jobs, key=lambda j: j.seq)
        ]
