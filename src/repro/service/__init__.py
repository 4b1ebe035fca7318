"""Simulation service: a long-lived daemon serving simulation traffic.

Everything before this package was a one-shot process: each ``repro``
invocation paid interpreter startup, workload synthesis and cold cache
probes, and two concurrent callers could silently run the same
simulation twice.  The service turns the toolkit into the first layer
whose job is *serving traffic*: a daemon owns a bounded worker pool and
feeds many queued simulation requests onto it in arrival order, behind
explicit admission control.

Modules
-------

:mod:`~repro.service.protocol`
    Line-delimited JSON framing plus the JSON-safe result summary
    (fingerprint digests) shared by server, client and tests.
:mod:`~repro.service.specs`
    The wire-level job description and its translation to a picklable
    :class:`~repro.analysis.parallel.SimTask`.
:mod:`~repro.service.queue`
    FIFO queue with a retry fence behind admission control (bounded
    depth, per-client quota, explicit backpressure).
:mod:`~repro.service.workers`
    Supervised worker-process pool: per-job timeouts, crash detection,
    worker recycling.
:mod:`~repro.service.server`
    The asyncio daemon: five socket ops (``ping``, ``submit``,
    ``status``, ``drain``, ``shutdown``), streaming job events, retry
    orchestration, and the one coalescing of duplicate submissions.
:mod:`~repro.service.client`
    Blocking stdlib-socket client used by the CLI and tests.
:mod:`~repro.service.fleet` / :mod:`~repro.service.gateway`
    One daemon subprocess behind an HTTP front door that adds HTTP and
    nothing else (``repro fleet``).
"""
