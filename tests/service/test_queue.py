"""Admission control and the arrival-order queue behind it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import AdmissionError, ConfigurationError
from repro.service.queue import JobQueue, QueuedJob


def _job(queue, job_id, client="c"):
    return QueuedJob(
        job_id=job_id, key=f"key-{job_id}", client=client, seq=queue.next_seq()
    )


# --- admission ----------------------------------------------------------------


def test_bounded_depth_rejects_with_queue_full():
    queue = JobQueue(max_depth=2, max_per_client=10)
    queue.submit(_job(queue, "a"))
    queue.submit(_job(queue, "b"))
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_job(queue, "c"))
    assert excinfo.value.reason == "queue-full"
    assert len(queue) == 2


def test_per_client_quota_covers_running_jobs():
    queue = JobQueue(max_depth=10, max_per_client=2)
    queue.submit(_job(queue, "a", client="alice"))
    # alice: 1 queued + 1 running == quota -> rejected
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_job(queue, "b", client="alice"), running_for_client=1)
    assert excinfo.value.reason == "client-quota"
    # other clients are unaffected
    queue.submit(_job(queue, "c", client="bob"), running_for_client=1)


def test_requeue_bypasses_admission():
    queue = JobQueue(max_depth=1)
    job = _job(queue, "a")
    queue.submit(job)
    popped = queue.pop_next(0.0)
    queue.submit(_job(queue, "b"))  # queue full again
    queue.requeue(popped, not_before=0.0)  # retry path must not raise
    assert len(queue) == 2


def test_retry_fence_defers_eligibility():
    queue = JobQueue()
    job = _job(queue, "a")
    queue.submit(job)
    popped = queue.pop_next(0.0)
    queue.requeue(popped, not_before=100.0)
    assert queue.pop_next(99.0) is None
    assert queue.pop_next(100.0).job_id == "a"


def test_bad_configuration_rejected():
    with pytest.raises(ConfigurationError):
        JobQueue(max_depth=0)
    with pytest.raises(ConfigurationError):
        JobQueue(max_per_client=-1)


# --- arrival order ------------------------------------------------------------


def test_fifo_orders_by_arrival():
    queue = JobQueue()
    for name in ("a", "b", "c"):
        queue.submit(_job(queue, name))
    assert [queue.pop_next(0.0).job_id for _ in range(3)] == ["a", "b", "c"]


_OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("pop"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("requeue"), st.integers(0, 7), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    max_depth=st.integers(1, 6),
    max_per_client=st.integers(1, 4),
    ops=st.lists(_OPS, max_size=60),
)
def test_every_interleaving_keeps_the_queue_promises(max_depth, max_per_client, ops):
    """submit / requeue / pop_next in any order, 1-4 clients:
    bounded admission, lowest eligible seq first, nothing lost or doubled."""
    queue = JobQueue(max_depth=max_depth, max_per_client=max_per_client)
    queued = {}  # job_id -> job: what the queue must hold
    popped = []  # handed out and not put back
    entered, left = {}, {}  # job_id -> times put in / taken out
    now = 0

    def took_out(job):
        assert queued.pop(job.job_id) is job
        left[job.job_id] = left.get(job.job_id, 0) + 1

    for op, a, b in ops:
        if op == "submit":
            client, running = f"client{a}", b
            job = _job(queue, f"j{len(entered)}", client=client)
            mine = sum(1 for other in queued.values() if other.client == client)
            expected = (
                "queue-full" if len(queued) >= max_depth
                else "client-quota" if mine + running >= max_per_client
                else None
            )
            try:
                queue.submit(job, running_for_client=running)
            except AdmissionError as exc:
                assert exc.reason == expected
            else:
                assert expected is None
                queued[job.job_id] = job
                entered[job.job_id] = 1
                assert len(queue) <= max_depth
                assert mine + 1 + running <= max_per_client
        elif op == "pop":
            now += a
            eligible = [job for job in queued.values() if job.not_before <= now]
            job = queue.pop_next(now)
            if not eligible:
                assert job is None
            else:
                assert job is min(eligible, key=lambda other: other.seq)
                took_out(job)
                popped.append(job)
        elif op == "requeue" and popped:
            job = popped.pop(a % len(popped))
            queue.requeue(job, not_before=now + b)  # past depth and quota alike
            queued[job.job_id] = job
            entered[job.job_id] += 1
        assert len(queue) == len(queued)
        assert [row["job"] for row in queue.snapshot()] == [
            job.job_id for job in sorted(queued.values(), key=lambda other: other.seq)
        ]

    while queued:  # every fence passes eventually: the queue drains, in order
        job = queue.pop_next(float("inf"))
        assert job.seq == min(other.seq for other in queued.values())
        took_out(job)
    assert queue.pop_next(float("inf")) is None and len(queue) == 0
    assert left == entered
