"""Parallel sweep engine: fan simulations across worker processes.

Every evaluation driver is a bag of independent, deterministic
simulations — one per (policy × workload set) point.  This module turns
such a bag into picklable :class:`SimTask` specs, resolves each against
the persistent :mod:`~repro.analysis.result_cache`, and fans the misses
out over a :class:`concurrent.futures.ProcessPoolExecutor`.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.common.config import MachineConfig, experiment_config
from repro.common.errors import ConfigurationError
from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
from repro.core.policies import ALL_POLICIES, POLICIES_BY_KEY
from repro.core.result import Job, RunResult
from repro.workloads.motivating import motivating_pair
from repro.workloads.pairs import (
    FOUR_CORE_GROUPS,
    CoRunPair,
    all_pairs,
    jobs_for_group,
    jobs_for_pair,
)

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Spelling for "one worker per CPU" (``--jobs auto`` / ``REPRO_JOBS=auto``).
JOBS_AUTO = "auto"


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


def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
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
    * ``"group"`` — a four-core Fig. 16 group, ids in ``group``.
    """

    policy_key: str
    scale: float
    config: MachineConfig
    kind: str = "pair"
    pair: Optional[CoRunPair] = None
    group: Optional[Sequence[int]] = None
    max_cycles: int = 3_000_000

    def build_jobs(self) -> List[Optional[Job]]:
        """Compile the task's workloads into per-core jobs."""
        if self.kind == "pair":
            return jobs_for_pair(self.pair, self.scale)
        if self.kind == "group":
            return jobs_for_group(self.group, scale=self.scale)
        if self.kind == "motivate":
            wl0, wl1 = motivating_pair(self.scale)
            options = CompileOptions(memory=self.config.memory)
            return [
                Job(compile_kernel(wl0, options), build_image(wl0, 0)),
                Job(compile_kernel(wl1, options), build_image(wl1, 1)),
            ]
        raise ValueError(f"unknown task kind {self.kind!r}")


def execute_task(task: SimTask) -> RunResult:
    """Run one task to completion (the worker entry point)."""
    from repro.core.machine import run_policy  # the engine loads where it runs

    policy = POLICIES_BY_KEY[task.policy_key]
    return run_policy(
        task.config, policy, task.build_jobs(), max_cycles=task.max_cycles
    )


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
        workload = (task.kind, task.pair, group, task.scale, task.config.memory)
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
    jobs: Optional[Union[int, str]] = None,
    cache: object = "default",
) -> List[RunResult]:
    """Run ``tasks``, returning results in task order.

    Each task is first resolved against the persistent cache (pass
    ``cache=None`` to bypass, or a :class:`ResultCache` to use a specific
    directory); misses run serially or on a process pool, then populate
    the cache for the next invocation.
    """
    from repro.analysis import result_cache

    if cache == "default":
        cache = result_cache.default_cache()
    jobs = resolve_jobs(jobs)

    results: List[Optional[RunResult]] = [None] * len(tasks)
    keys = task_keys(tasks) if cache is not None else []
    for index, key in enumerate(keys):
        results[index] = cache.get(key)
    pending = [index for index, result in enumerate(results) if result is None]

    if pending:
        # The engine is imported here, before any fork, so pool workers
        # inherit it; a run that is all hits never loads it.
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
            results[index] = result
            if cache is not None:
                cache.put(keys[index], result)
    return results  # type: ignore[return-value]


# --- figure-level drivers ----------------------------------------------------


def sweep_pairs_parallel(
    pairs: Optional[Sequence[CoRunPair]] = None,
    scale: float = 0.35,
    config: Optional[MachineConfig] = None,
    jobs: Optional[int] = None,
    cache: object = "default",
) -> List["PairOutcome"]:
    """The Fig. 10/11/13/15 sweep, fanned out over worker processes.

    Produces exactly the outcomes of
    :func:`repro.analysis.experiments.sweep_pairs` (the determinism suite
    asserts bit-equality) and seeds its in-memory memo so subsequent
    serial drivers reuse these results.
    """
    from repro.analysis import experiments

    config = config or experiment_config()
    pairs = list(pairs) if pairs is not None else all_pairs()
    points = [(pair, policy) for pair in pairs for policy in ALL_POLICIES]
    # Honour the in-process memo first so repeated sweeps return the same
    # objects the serial path would (pair_outcome's memoisation contract).
    memo_hits: Dict[int, RunResult] = {}
    tasks: List[SimTask] = []
    task_index: List[int] = []
    for index, (pair, policy) in enumerate(points):
        hit = experiments.lookup_sweep_memo(pair, policy.key, scale, config)
        if hit is not None:
            memo_hits[index] = hit
        else:
            tasks.append(
                SimTask(policy_key=policy.key, scale=scale, config=config, pair=pair)
            )
            task_index.append(index)
    computed = run_tasks(tasks, jobs=jobs, cache=cache)
    results: List[RunResult] = [None] * len(points)  # type: ignore[list-item]
    for index, hit in memo_hits.items():
        results[index] = hit
    for index, result in zip(task_index, computed):
        results[index] = result
    outcomes: List[experiments.PairOutcome] = []
    cursor = 0
    for pair in pairs:
        per_policy: Dict[str, RunResult] = {}
        for policy in ALL_POLICIES:
            result = results[cursor]
            per_policy[policy.key] = result
            experiments.seed_sweep_memo(pair, policy.key, scale, config, result)
            cursor += 1
        outcomes.append(experiments.PairOutcome(pair=pair, results=per_policy))
    return outcomes


def motivation_runs(
    scale: float = 0.5,
    config: Optional[MachineConfig] = None,
    jobs: Optional[int] = None,
    cache: object = "default",
) -> Dict[str, RunResult]:
    """The §2 motivating example under all four policies (Fig. 2)."""
    config = config or experiment_config()
    tasks = [
        SimTask(policy_key=policy.key, scale=scale, config=config, kind="motivate")
        for policy in ALL_POLICIES
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    return {policy.key: result for policy, result in zip(ALL_POLICIES, results)}


def four_core_runs(
    scale: float = 0.35,
    config: Optional[MachineConfig] = None,
    groups: Sequence[Sequence[int]] = FOUR_CORE_GROUPS,
    jobs: Optional[int] = None,
    cache: object = "default",
) -> List[Dict[str, RunResult]]:
    """The Fig. 16 four-core groups under every policy."""
    config = config or experiment_config(num_cores=4)
    tasks = [
        SimTask(
            policy_key=policy.key,
            scale=scale,
            config=config,
            kind="group",
            group=tuple(group),
        )
        for group in groups
        for policy in ALL_POLICIES
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    out: List[Dict[str, RunResult]] = []
    cursor = 0
    for _group in groups:
        per_policy: Dict[str, RunResult] = {}
        for policy in ALL_POLICIES:
            per_policy[policy.key] = results[cursor]
            cursor += 1
        out.append(per_policy)
    return out
