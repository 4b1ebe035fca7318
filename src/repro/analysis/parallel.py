"""The sweep engine: the one way to run a cached simulation.

Every evaluation driver is a bag of independent, deterministic
simulations — one per (policy × workload set) point.  This module turns
such a bag into picklable :class:`SimTask` specs, and :func:`run_tasks`
is the only place one becomes a content key, is looked up in the
persistent :mod:`~repro.analysis.result_cache`, run — in this process or
fanned out over a :class:`concurrent.futures.ProcessPoolExecutor` — and
stored.  Every driver (:mod:`repro.analysis.experiments`, and through it
the validation and sensitivity sweeps) and the daemon's worker call it, :func:`execute_task` is the engine's only
caller above ``core/``, and everything a run produced comes back through
it — the result, its summary, the engine's profile on both.

Determinism guarantees (asserted by ``tests/integration/test_determinism``):

* a worker runs exactly the same ``run_policy`` call the serial path
  would, so results are bit-identical regardless of worker count;
* task order is preserved — results come back positionally, so sweep
  output never depends on completion order.

Worker count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  The literal string
``"auto"`` means "all CPUs"; anything that is not ``auto`` or a positive
integer raises :class:`~repro.common.errors.ConfigurationError` — bad
values are rejected at the edge, never forwarded to
:class:`~concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError
from repro.compiler.ir import Kernel
from repro.core.policies import policy
from repro.core.result import Job, RunResult
from repro.validation.fingerprint import summarize_result
from repro.workloads.motivating import motivating_pair
from repro.workloads.pairs import CoRunPair, job_for, kernel_for

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Spelling for "one worker per CPU" (``--jobs auto`` / ``REPRO_JOBS=auto``).
JOBS_AUTO = "auto"

#: A worker count as every driver accepts it (see :func:`resolve_jobs`).
Jobs = Optional[Union[int, str]]


def _parse_jobs(value: Union[int, str], source: str) -> int:
    """Validate one worker-count value; raise :class:`ConfigurationError`.

    Accepts a positive integer or the string ``"auto"`` (all CPUs).
    Everything else — zero, negatives, floats, arbitrary strings — is a
    configuration mistake that used to slip through silently (or reach
    ``ProcessPoolExecutor`` as a bad ``max_workers``), so it is rejected
    here with a message naming the offending source.
    """
    if isinstance(value, str):
        text = value.strip()
        if text.lower() == JOBS_AUTO:
            return os.cpu_count() or 1
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(
                f"invalid worker count from {source}: {text!r} is neither a "
                f"positive integer nor {JOBS_AUTO!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"invalid worker count from {source}: expected a positive "
            f"integer or {JOBS_AUTO!r}, got {value!r}"
        )
    if value <= 0:
        raise ConfigurationError(
            f"invalid worker count from {source}: {value} is not positive "
            f"(use {JOBS_AUTO!r} for one worker per CPU)"
        )
    return value


def resolve_jobs(jobs: Jobs = None) -> int:
    """Effective worker count: argument, else ``$REPRO_JOBS``, else 1.

    ``jobs`` may be a positive integer or ``"auto"`` (all CPUs); any other
    value — including ``0`` and negatives — raises
    :class:`~repro.common.errors.ConfigurationError` naming whether the
    bad value came from the argument or the environment.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        return _parse_jobs(raw, source=f"{JOBS_ENV}={raw!r}")
    return _parse_jobs(jobs, source=f"--jobs {jobs!r}")


# --- task specs --------------------------------------------------------------


@dataclass(frozen=True)
class SimTask:
    """One simulation: a workload set under one policy.

    ``kind`` selects how the jobs are materialised (workloads compile
    deterministically in whichever process runs the task):

    * ``"pair"`` — the Table 3 co-run ``pair`` (Figs. 10/11/13/15);
    * ``"motivate"`` — the §2 motivating pair (Fig. 2);
    * ``"group"`` — SPEC workload ids in ``group``, one per core: a
      Fig. 16 group, an N-core blend, or a solo run (the ECM
      validation's ``(id, None, ...)``);
    * ``"kernels"`` — the IR ``kernels`` themselves, one per core
      (Fig. 14's co-run and its fixed-lane solo runs).

    A ``None`` member of ``group`` / ``kernels`` is an idle core.  Whatever
    the kind, the programs are compiled for ``config.memory``.  Hashable,
    so a task can key a memo; pass ``group`` as a tuple.
    """

    policy_key: str
    scale: float
    config: MachineConfig
    kind: str = "pair"
    pair: Optional[CoRunPair] = None
    group: Optional[Sequence[int]] = None
    max_cycles: int = 3_000_000
    # Compared but not hashed: ``Kernel.params`` is a dict.
    kernels: Optional[Tuple[Kernel, ...]] = field(default=None, hash=False)

    def workloads(self) -> list:
        """What runs on each core: a Table 3 ``(suite, id)``, a kernel, or
        ``None`` where the core idles."""
        if self.kind == "pair":
            suite = self.pair.suite
            return [(suite, self.pair.core0), (suite, self.pair.core1)]
        if self.kind == "group":
            return [None if w is None else ("spec", w) for w in self.group]
        if self.kind == "motivate":
            return list(motivating_pair(self.scale))
        if self.kind == "kernels":
            return list(self.kernels)
        raise ValueError(f"unknown task kind {self.kind!r}")

    def build_jobs(self) -> List[Optional[Job]]:
        """Compile the task's workloads, one per core, for the memory the
        task runs on (``None`` where the core idles)."""
        memory = self.config.memory
        return [
            job_for(workload, core, self.scale, memory)
            for core, workload in enumerate(self.workloads())
        ]

    def __str__(self) -> str:
        if self.kind == "pair":
            what = str(self.pair)
        elif self.kind == "group":
            what = f"group {tuple(self.group)}"
        elif self.kind == "kernels":
            what = "+".join("idle" if k is None else k.name for k in self.kernels)
        else:
            what = self.kind
        return f"{what} under {self.policy_key} at scale {self.scale}"


def execute_task(task: SimTask) -> RunResult:
    """Run one task to completion (the worker entry point): the one place
    above ``core/`` where the engine is entered.  Every run it returns has
    passed :func:`~repro.compiler.reference.check_answers` (§6.4)."""
    # The engine and the oracle load where a task runs.
    from repro.compiler.reference import check_answers
    from repro.core.machine import run_policy

    result = run_policy(
        task.config,
        policy(task.policy_key),
        task.build_jobs(),
        max_cycles=task.max_cycles,
    )
    kernels = [kernel_for(workload, task.scale) for workload in task.workloads()]
    check_answers(kernels, result.images, str(task))
    return result


def task_keys(tasks: Sequence[SimTask]) -> List[str]:
    """Persistent-cache keys for ``tasks`` (hash programs + images).

    Tasks that differ only in policy share one workload set: it is compiled
    once and hashed under each policy (hashing does not mutate the jobs).
    """
    from repro.analysis.result_cache import simulation_key

    built: Dict[object, List[Optional[Job]]] = {}
    keys = []
    for task in tasks:
        group = None if task.group is None else tuple(task.group)
        # Kernels are unhashable; the same objects are the same workload.
        kernels = None if task.kernels is None else tuple(map(id, task.kernels))
        workload = (
            task.kind, task.pair, group, kernels, task.scale, task.config.memory
        )
        if workload not in built:
            built[workload] = task.build_jobs()
        keys.append(
            simulation_key(
                task.config, task.policy_key, built[workload], task.max_cycles
            )
        )
    return keys


def task_key(task: SimTask) -> str:
    """Persistent-cache key for one task."""
    return task_keys([task])[0]


# --- the engine --------------------------------------------------------------


def run_tasks(
    tasks: Sequence[SimTask],
    jobs: Jobs = None,
    cache: object = "default",
    summaries: bool = False,
) -> list:
    """Run ``tasks``, returning results in task order.

    The one place a simulation becomes a key, is looked up, run and
    stored: each task is first resolved against the persistent cache (pass
    ``cache=None`` to bypass, or a :class:`ResultCache` to use a specific
    directory); misses run serially or on a process pool, then populate
    the cache for the next invocation.  Nothing is remembered between
    calls, so a long-lived caller holds no results it did not keep.

    With ``summaries`` each run comes back as its
    :func:`~repro.validation.fingerprint.summarize_result` dict instead of
    its :class:`RunResult`: the one the cache stores in front of the entry
    (a hit reads only that; a miss returns what ``put`` computed), made
    here — keyless when there is no cache — only if nothing was stored.
    """
    from repro.analysis import result_cache

    if cache == "default":
        cache = result_cache.default_cache()
    jobs = resolve_jobs(jobs)

    results: list = [None] * len(tasks)
    keys: list = [None] * len(tasks)
    if cache is not None:
        keys = task_keys(tasks)
        lookup = cache.get_summary if summaries else cache.get
        results = [lookup(key) for key in keys]
    pending = [index for index, result in enumerate(results) if result is None]

    if pending:
        # The engine and the answers check are imported here, before any
        # fork, so pool workers inherit them; a run that is all hits never
        # loads them.
        import repro.compiler.reference  # noqa: F401
        import repro.core.machine  # noqa: F401

        if jobs > 1 and len(pending) > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = list(
                    pool.map(execute_task, [tasks[i] for i in pending])
                )
        else:
            computed = [execute_task(tasks[i]) for i in pending]
        for index, result in zip(pending, computed):
            stored = cache.put(keys[index], result) if cache is not None else None
            if summaries:
                result = stored or summarize_result(result, keys[index])
            results[index] = result
    return results
