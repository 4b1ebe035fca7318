"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``motivate``
    Run the §2 motivating example on all four architectures.  With
    ``--cores N [N ...]`` it instead sweeps the N-core scaling matrix
    (§4.2.1 machines built by ``MachineConfig.scaled_to_cores``): the
    Fig. 16 workload blend tiled across 2/4/8/16/32 cores, each size
    co-run under private/occamy/fts/cts.
``pair SUITE MEM COMP``
    Co-run one Table 3 pair (e.g. ``pair spec 20 17``).
``roofline OI_ISSUE OI_MEM``
    Print the Eq. 4 ceilings and greedy partitions for an intensity.
``table5``
    Reproduce Table 5 exactly.
``area``
    Print the Fig. 12 area breakdown.
``trace SUITE MEM COMP OUT.json``
    Run a pair under Occamy and export a JSON trace + ASCII Gantt.
``figures OUTPUT_DIR``
    Render the motivating example's figures as SVG files.
``report OUT.md``
    Run a slice of the evaluation and write a Markdown report.
``perf-report``
    Generate the tracked performance report: folds the ``BENCH_*.json``
    perf-trajectory records the benchmark suite emits together with an
    ECM-vs-simulator cycle-prediction error table (see
    ``docs/perf-model.md``).  ``--bench-dir`` points at the artifact
    directory, ``--out`` writes the markdown, ``--skip-validation``
    omits the (simulation-running) ECM sweep.
``diff-fuzz``
    Cross-engine differential fuzzing: random co-run programs executed
    by the fast engine and by the reference engine (the seed interpreter,
    cycle by cycle) under every sharing mode, full run fingerprints
    diffed.  ``--cores N`` widens the generated co-runs to N-core
    machines.  Prints how much work each fast-engine mechanism did over
    the sweep and fails when one saw none.  Diverging cases are shrunk to
    minimal repros and emitted as regression tests.
``alloc-sweep``
    Sweep thread-to-core allocation (pairing) policies on large
    machines: the Fig. 16 blend tiled across ``--cores N`` machines,
    placed into two-core complexes by each ``--alloc`` policy (random /
    round-robin / oi-balance / oi-pack / symbiosis), every complex then
    co-run under the ``--policies`` sharing modes.  ``--calibrate``
    refines the symbiosis compatibility matrix with short cached micro
    co-runs; ``--report OUT.json`` emits per-pair cycles plus run-
    fingerprint digests (CI asserts the digests are placement-
    invariant).  See ``docs/allocation.md``.
``serve``
    Run the simulation daemon: a long-lived asyncio service owning a
    supervised worker pool, admitting jobs over a local socket with
    explicit backpressure and a pluggable scheduling policy
    (fifo / spjf / fair).  See ``docs/service.md``.
``submit KIND ...``
    Submit one job to a running daemon and stream its progress events;
    prints the served result summary (cycle counts + fingerprint
    digests).  Identical concurrent submissions coalesce server-side to
    a single execution.
``svc-status``
    Query a running daemon (queue depth, workers, counters); ``--drain``
    quiesces it, ``--shutdown`` stops it.
``cache``
    Inspect and bound the persistent result cache: ``stats``, ``prune``
    (``--max-bytes`` / ``--max-entries``, evicting oldest first) and
    ``clear``.

Simulation commands accept these runtime options:

``--jobs N``
    Fan simulations across ``N`` worker processes (``auto`` = all CPUs;
    default ``$REPRO_JOBS``, else serial).  Results are bit-identical to
    a serial run.  Zero, negative or non-integer values are rejected
    with a ``ConfigurationError``.
``--cache-dir DIR``
    Persistent result-cache location (default ``$REPRO_CACHE_DIR``, else
    ``~/.cache/repro``); warm re-runs of a figure skip simulation.
``--no-cache``
    Disable the persistent cache for this invocation.
``--profile``
    After the command, print how the simulated cycles were covered:
    interpreted cycle-by-cycle, skipped by the idle fast-forward, or
    replayed from steady-loop templates — plus per-component busy /
    idle-stepped / asleep cycle counts.  Only runs simulated in *this*
    process are counted — cached results and ``--jobs N`` worker
    processes contribute nothing, so use ``--jobs 1 --no-cache`` for a
    complete attribution.
``--audit``
    Enable runtime invariant auditing (sets ``REPRO_AUDIT`` so worker
    processes inherit it): every simulated cycle cross-checks lane
    conservation, ROB retire ordering, physical-register accounting and
    bandwidth-queue bookkeeping, raising
    :class:`~repro.common.errors.InvariantViolation` on the first
    inconsistency.  Audited runs are bit-identical, just slower.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.area import area_model
from repro.analysis.experiments import motivation_fig2, pair_outcome, table5_rows
from repro.analysis.reporting import format_table
from repro.analysis.trace import export_trace, phase_gantt
from repro.common.config import (
    experiment_config,
    table4_config,
    validate_core_count,
    validate_core_counts,
)
from repro.core.partition import greedy_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue
from repro.workloads.pairs import CoRunPair

POLICY_KEYS = ("private", "fts", "vls", "occamy")


def _cmd_motivate(args: argparse.Namespace) -> int:
    if args.cores:
        args.cores = validate_core_counts(args.cores)
        return _motivate_ncore(args)
    if args.alloc:
        from repro.common.errors import ConfigurationError

        raise ConfigurationError("--alloc requires --cores (an N-core sweep)")
    result = motivation_fig2(scale=args.scale, jobs=args.jobs)
    rows = []
    for key in POLICY_KEYS:
        run = result.results[key]
        rows.append(
            [
                key,
                run.core_time(0),
                run.core_time(1),
                f"{result.speedup(key, 0):.2f}x",
                f"{result.speedup(key, 1):.2f}x",
                f"{100 * result.utilization(key):.1f}%",
            ]
        )
    print(format_table(["arch", "WL#0", "WL#1", "sp0", "sp1", "util"], rows))
    print("\nOccamy lane plans:")
    for cycle, plan in result.results["occamy"].lane_manager.plan_history:
        print(f"  {cycle:>8}: {plan}")
    return 0


def _motivate_ncore(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import NCORE_POLICY_KEYS, ncore_outcome

    if args.alloc:
        from repro.analysis.experiments import alloc_outcome

        for num_cores in args.cores:
            outcome = alloc_outcome(
                num_cores, args.alloc, scale=args.scale, calibrate=args.calibrate
            )
            rows = [
                [outcome.pair_label(index), result.total_cycles]
                for index, result in enumerate(outcome.results)
            ]
            print(
                f"\n{num_cores} cores, alloc={args.alloc}, "
                f"sharing={outcome.sharing_key}:"
            )
            print(format_table(["pair", "cycles"], rows))
            print(f"per-thread geomean: {outcome.geomean_cycles():.1f}")
        return 0
    for num_cores in args.cores:
        outcome = ncore_outcome(num_cores, scale=args.scale)
        rows = []
        for key in NCORE_POLICY_KEYS:
            run = outcome.results[key]
            rows.append(
                [
                    key,
                    run.total_cycles,
                    f"{outcome.geomean_speedup(key):.2f}x",
                    f"{100 * outcome.utilization(key):.1f}%",
                ]
            )
        group = ",".join(str(workload) for workload in outcome.group)
        print(f"\n{num_cores} cores (workloads {group}):")
        print(format_table(["arch", "cycles", "geomean", "util"], rows))
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    pair = CoRunPair(args.suite, args.mem, args.comp)
    outcome = pair_outcome(pair, scale=args.scale, jobs=args.jobs)
    rows = []
    for key in POLICY_KEYS:
        rows.append(
            [
                key,
                f"{outcome.speedup(key, 0):.2f}x",
                f"{outcome.speedup(key, 1):.2f}x",
                f"{100 * outcome.utilization(key):.1f}%",
                f"{100 * outcome.rename_stall_fraction(key, 1):.0f}%",
            ]
        )
    print(f"pair {pair}:")
    print(format_table(["arch", "sp0", "sp1", "util", "rename(c1)"], rows))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    config = table4_config()
    roofline = RooflineModel.from_config(config)
    oi = OIValue(issue=args.oi_issue, mem=args.oi_mem, level=args.level)
    rows = [
        [
            lanes,
            f"{roofline.fp_peak(lanes) * 2:.1f}",
            f"{roofline.issue_bound(lanes, oi) * 2:.1f}",
            f"{roofline.mem_bound(oi) * 2:.1f}",
            f"{roofline.attainable_gflops(lanes, oi):.1f}",
        ]
        for lanes in (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)
    ]
    print(format_table(["lanes", "comp", "issue", "mem", "attainable"], rows))
    print(f"saturation: {roofline.saturation_lanes(oi)} lanes")
    other = OIValue(0.6, 1.0, level="vec_cache")
    plan = greedy_partition({0: oi, 1: other}, 32, roofline)
    print(f"vs a wsm5-style co-runner the greedy plan is {plan}")
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    rows = [
        [
            int(row["vl"]),
            f"{row['simd_issue_bound']:.1f}",
            f"{row['mem_bound']:.1f}",
            f"{row['comp_bound']:.1f}",
            f"{row['performance']:.1f}",
        ]
        for row in table5_rows(table4_config())
    ]
    print(format_table(["VL", "IssueBound", "MemBound", "CompBound", "Perf"], rows))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    config = table4_config(num_cores=args.cores)
    rows = []
    for key in POLICY_KEYS:
        breakdown = area_model(config, key)
        rows.append([key, f"{breakdown.total:.3f}"])
    print(format_table(["arch", f"area mm^2 ({args.cores}-core)"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    pair = CoRunPair(args.suite, args.mem, args.comp)
    outcome = pair_outcome(pair, scale=args.scale, jobs=args.jobs)
    result = outcome.results["occamy"]
    export_trace(result, args.output)
    print(phase_gantt(result))
    print(f"\ntrace written to {args.output}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.plots import lane_timeline_svg, series_svg, write_svg

    os.makedirs(args.output_dir, exist_ok=True)
    result = motivation_fig2(scale=args.scale, jobs=args.jobs)
    occamy = result.results["occamy"]
    write_svg(
        lane_timeline_svg(
            {
                "core0 (WL#0)": occamy.metrics.lane_timeline[0].points,
                "core1 (WL#1)": occamy.metrics.lane_timeline[1].points,
            },
            total_cycles=occamy.total_cycles,
            title="Occamy elastic lane schedule (Fig. 8)",
        ),
        os.path.join(args.output_dir, "fig8_lane_plan.svg"),
    )
    for key in ("private", "occamy"):
        write_svg(
            series_svg(
                {
                    "core0": result.lane_series(key, 0),
                    "core1": result.lane_series(key, 1),
                },
                title=f"Busy lanes — {key}",
            ),
            os.path.join(args.output_dir, f"fig2_busy_lanes_{key}.svg"),
        )
    print(f"figures written to {args.output_dir}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    write_report(args.output, scale=args.scale, pairs_limit=args.pairs, jobs=args.jobs)
    print(f"report written to {args.output}")
    return 0


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.perf_report import generate_perf_report
    from repro.analysis.validation import ECM_VALIDATION_POLICIES

    workload_ids = None
    if args.workloads:
        workload_ids = [int(token) for token in args.workloads.split(",")]
    policies = (
        tuple(args.policies.split(",")) if args.policies else ECM_VALIDATION_POLICIES
    )
    ncore_counts = validate_core_counts(args.cores) if args.cores else None
    alloc_counts = (
        validate_core_counts(args.alloc_cores, source="--alloc-cores")
        if args.alloc_cores
        else None
    )
    text = generate_perf_report(
        bench_dir=Path(args.bench_dir),
        out=Path(args.out) if args.out else None,
        scale=args.scale,
        workload_ids=workload_ids,
        policies=policies,
        validate=not args.skip_validation,
        ncore_counts=ncore_counts,
        alloc_counts=alloc_counts,
    )
    if args.out:
        print(f"perf report written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_alloc_sweep(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from repro.alloc import ALLOC_POLICY_KEYS
    from repro.analysis.experiments import alloc_sweep
    from repro.validation.fingerprint import run_fingerprint

    core_counts = validate_core_counts(args.cores)
    alloc_keys = tuple(args.alloc.split(",")) if args.alloc else ALLOC_POLICY_KEYS
    sharing_keys = tuple(args.policies.split(",")) if args.policies else ("occamy",)
    outcomes = alloc_sweep(
        core_counts,
        alloc_keys=alloc_keys,
        sharing_keys=sharing_keys,
        scale=args.scale,
        seed=args.seed,
        calibrate=args.calibrate,
    )
    report = []
    for outcome in outcomes:
        rows = []
        pairs = []
        for index, result in enumerate(outcome.results):
            digest = hashlib.sha256(
                repr(run_fingerprint(result)).encode("utf-8")
            ).hexdigest()
            rows.append([outcome.pair_label(index), result.total_cycles, digest[:16]])
            pairs.append(
                {
                    "label": outcome.pair_label(index),
                    "workloads": list(outcome.complex_workloads(index)),
                    "cycles": result.total_cycles,
                    "fingerprint": digest,
                }
            )
        print(
            f"\n{outcome.num_cores} cores, alloc={outcome.alloc_key}, "
            f"sharing={outcome.sharing_key}:"
        )
        print(format_table(["pair", "cycles", "fingerprint"], rows))
        print(f"per-thread geomean: {outcome.geomean_cycles():.1f}")
        report.append(
            {
                "num_cores": outcome.num_cores,
                "alloc": outcome.alloc_key,
                "sharing": outcome.sharing_key,
                "geomean_cycles": outcome.geomean_cycles(),
                "pairs": pairs,
            }
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"sweep": report}, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.report}")
    return 0


def _cmd_diff_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.core.policies import POLICIES_BY_KEY
    from repro.validation.difftest import DEFAULT_POLICIES, fuzz_seeds

    if args.policies:
        policies = tuple(args.policies.split(","))
        unknown = [key for key in policies if key not in POLICIES_BY_KEY]
        if unknown:
            print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        policies = DEFAULT_POLICIES
    cores = validate_core_count(args.cores)
    seeds = list(range(args.start, args.start + args.seeds))
    alloc_note = f", alloc={args.alloc}" if args.alloc else ""
    print(
        f"diff-fuzz: {len(seeds)} case(s), {cores} cores{alloc_note}, "
        f"policies {', '.join(policies)}, fast vs reference"
    )
    report = fuzz_seeds(
        seeds,
        policies=policies,
        audit=True if args.audit else None,
        progress=print,
        num_cores=cores,
        alloc=args.alloc,
    )
    if report.clean:
        print(f"OK: {report.runs} runs, fast engine bit-identical to reference")
    else:
        print(f"FAIL: {len(report.divergences)} divergence(s)")
        for divergence in report.divergences:
            print(f"  {divergence}")
            for line in divergence.detail:
                print(f"    {line}")
    print("fast-engine traffic over the sweep:")
    for name, count in report.traffic().items():
        print(f"  {name:<24}{count:>12}")
    starved = report.starved
    if starved:
        print(
            f"FAIL: no traffic for {', '.join(starved)} — this sweep says "
            "nothing about them (more seeds, or other policies)"
        )
    if not report.clean and not args.no_shrink:
        from repro.validation.shrink import shrink_case, write_regression_test

        emitted = set()
        for divergence in report.divergences[: args.shrink_limit]:
            if divergence.policy in emitted:
                continue
            emitted.add(divergence.policy)
            print(f"shrinking seed {divergence.seed} ({divergence.policy}) ...")
            minimal = shrink_case(divergence.spec, divergence.policy)
            path = write_regression_test(minimal, divergence.policy, args.emit_dir)
            print(f"  minimized repro written to {path}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"report written to {args.report}")
    return 0 if report.clean and not starved else 1


def _resolve_runner(dotted: str):
    """Import a ``package.module:callable`` job runner (serve --runner)."""
    import importlib

    from repro.common.errors import ConfigurationError

    module_name, sep, attr = dotted.partition(":")
    if not sep or not module_name or not attr:
        raise ConfigurationError(
            f"--runner must look like package.module:callable, got {dotted!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import runner module: {exc}") from None
    runner = getattr(module, attr, None)
    if not callable(runner):
        raise ConfigurationError(
            f"{dotted!r} does not name a callable in {module_name}"
        )
    return runner


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServerOptions, SimulationServer

    kwargs = {}
    if args.runner:
        kwargs["runner"] = _resolve_runner(args.runner)
    options = ServerOptions(
        address=args.socket,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_per_client=args.max_per_client,
        scheduler=args.sched,
        job_timeout=args.job_timeout if args.job_timeout > 0 else None,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        recycle_after=args.recycle_after if args.recycle_after > 0 else None,
        **kwargs,
    )
    server = SimulationServer(options)
    print(
        f"repro daemon: serving on {server.address} "
        f"({options.workers} worker(s), sched={options.scheduler}, "
        f"queue depth {options.queue_depth})",
        flush=True,
    )
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    print("repro daemon: stopped")
    return 0


def _print_submit_event(event: dict) -> None:
    kind = event.get("event")
    if kind == "queued":
        note = []
        if event.get("coalesced"):
            note.append("coalesced onto in-flight job")
        if event.get("cached"):
            note.append("served from result cache")
        suffix = f" ({', '.join(note)})" if note else ""
        print(f"[{event.get('job')}] queued{suffix}")
    elif kind == "started":
        print(
            f"[{event.get('job')}] started on worker {event.get('worker')} "
            f"(attempt {event.get('attempt')})"
        )
    elif kind == "retrying":
        print(
            f"[{event.get('job')}] retrying after {event.get('reason')}: "
            f"{event.get('error')}"
        )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.common.errors import ServiceError
    from repro.service.client import ServiceClient
    from repro.service.specs import spec_for_motivate, spec_for_pair

    if args.kind == "pair":
        spec = spec_for_pair(
            args.suite, args.mem, args.comp, policy=args.policy, scale=args.scale
        )
    else:
        spec = spec_for_motivate(policy=args.policy, scale=args.scale)
    on_event = None if args.json else _print_submit_event
    try:
        with ServiceClient(args.socket, timeout=args.timeout) as client:
            final = client.submit(
                spec,
                client=args.client,
                wait=not args.no_wait,
                on_event=on_event,
                timeout=args.timeout,
                raise_on_failure=False,
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(final, indent=2, sort_keys=True))
        return 0 if final.get("event") != "failed" else 1
    if final.get("event") == "failed":
        print(f"[{final.get('job')}] FAILED: {final.get('error')}", file=sys.stderr)
        return 1
    if args.no_wait:
        return 0
    result = final.get("result") or {}
    print(
        f"[{final.get('job')}] done: policy={result.get('policy')} "
        f"total_cycles={result.get('total_cycles')} "
        f"core_cycles={result.get('core_cycles')}"
        + (" [cached]" if final.get("cached") else "")
    )
    for section, digest in sorted((result.get("fingerprint") or {}).items()):
        print(f"  {section:<20} {digest[:16]}")
    return 0


def _print_daemon_status(status: dict) -> None:
    queue = status.get("queue", {})
    workers = status.get("workers", {})
    counters = status.get("counters", {})
    print(
        f"daemon pid {status.get('pid')} up {status.get('uptime_s')}s "
        f"at {status.get('address')} "
        f"(sched={status.get('scheduler')}, "
        f"draining={status.get('draining')})"
    )
    print(
        f"queue: {queue.get('depth')}/{queue.get('max_depth')} queued, "
        f"workers {workers.get('busy')}/{workers.get('size')} busy "
        f"(pids {workers.get('pids')}, {workers.get('recycled')} recycled)"
    )
    print(
        "counters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )


def _print_fleet_totals(totals: dict) -> None:
    counters = totals.get("counters", {})
    print(
        f"fleet: {totals.get('reachable')}/{totals.get('shards')} shards "
        f"reachable, {totals.get('queued')} queued, "
        f"{totals.get('busy_workers')}/{totals.get('workers')} workers busy, "
        f"cache hit rate {totals.get('cache_hit_rate')}"
    )
    print(
        "fleet counters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )


def _print_shard_line(label: str, status) -> None:
    if not status or not status.get("ok"):
        detail = (status or {}).get("error", "unreachable")
        print(f"  {label}: UNREACHABLE ({detail})")
        return
    queue = status.get("queue", {})
    workers = status.get("workers", {})
    counters = status.get("counters", {})
    submitted = counters.get("submitted", 0)
    print(
        f"  {label}: pid {status.get('pid')}, "
        f"queue {queue.get('depth')}/{queue.get('max_depth')}, "
        f"workers {workers.get('busy')}/{workers.get('size')} busy, "
        f"cache_hits {counters.get('cache_hits', 0)}/{submitted}, "
        f"retries {counters.get('retries', 0)}"
    )


def _cmd_svc_status(args: argparse.Namespace) -> int:
    import json

    from repro.common.errors import ServiceError
    from repro.service.client import ServiceClient

    sockets = args.socket or [None]
    if len(sockets) == 1:
        # Single daemon: the original detailed view (and the only mode
        # where --drain/--shutdown stop one specific daemon).
        try:
            with ServiceClient(sockets[0], timeout=args.timeout) as client:
                if args.drain:
                    reply = client.drain(timeout=args.timeout)
                    print(f"drained {reply.get('drained', 0)} pending job(s)")
                status = client.status()
                if args.shutdown:
                    client.shutdown()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            _print_daemon_status(status)
        if args.shutdown:
            print("shutdown requested")
        return 0

    # Fleet mode: query every shard, aggregate instead of erroring.
    from repro.service.fleet import aggregate_statuses

    statuses = []
    for address in sockets:
        try:
            with ServiceClient(address, timeout=args.timeout) as client:
                if args.drain:
                    client.drain(timeout=args.timeout)
                status = client.status()
                if args.shutdown:
                    client.shutdown()
            statuses.append(status)
        except ServiceError as exc:
            statuses.append({"ok": False, "error": str(exc)})
    totals = aggregate_statuses(statuses)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": totals.get("reachable", 0) > 0,
                    "totals": totals,
                    "shards": [
                        {"address": address, "status": status}
                        for address, status in zip(sockets, statuses)
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        _print_fleet_totals(totals)
        for address, status in zip(sockets, statuses):
            _print_shard_line(str(address), status)
    if args.shutdown:
        print("shutdown requested")
    return 0 if totals.get("reachable", 0) == len(sockets) else 1


# --- fleet: gateway + daemon supervision --------------------------------------

#: Default gateway URL for the fleet client commands.
FLEET_HTTP_ENV = "REPRO_FLEET_HTTP"
DEFAULT_FLEET_HTTP = "http://127.0.0.1:8765"


def _fleet_url(args: argparse.Namespace, path: str) -> str:
    base = args.http or os.environ.get(FLEET_HTTP_ENV) or DEFAULT_FLEET_HTTP
    if "://" not in base:
        base = "http://" + base
    return base.rstrip("/") + path


def _http_json(url: str, method: str = "GET", body=None, timeout: float = 600.0):
    """One JSON request against the gateway; returns (status, payload)."""
    import json
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"ok": False, "error": "http", "detail": raw[:200].decode("latin-1")}
        return exc.code, payload
    except (urllib.error.URLError, OSError) as exc:
        from repro.common.errors import ServiceUnavailableError

        raise ServiceUnavailableError(f"cannot reach gateway at {url}: {exc}") from None


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetManager
    from repro.service.gateway import Gateway, GatewayOptions

    host, _, port_text = args.http_bind.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        from repro.common.errors import ConfigurationError

        raise ConfigurationError(
            f"--http must look like HOST:PORT, got {args.http_bind!r}"
        ) from None
    if args.runner:
        _resolve_runner(args.runner)  # fail fast before spawning daemons
    manager = FleetManager(
        base_dir=args.base_dir,
        workers=args.workers,
        scheduler=args.sched,
        queue_depth=args.queue_depth,
        max_per_client=args.max_per_client,
        job_timeout=args.job_timeout,
        runner=args.runner,
    )
    print(
        f"repro fleet: starting {args.count} daemon(s) "
        f"({args.workers} worker(s) each, sched={args.sched}) ...",
        flush=True,
    )
    try:
        manager.start(args.count)
        for shard in manager.shards():
            print(f"  {shard.name}: pid {shard.pid} on {shard.address}", flush=True)
        gateway = Gateway(
            GatewayOptions(
                host=host or "127.0.0.1",
                port=port,
                routing=args.routing,
                steal_threshold=args.steal_threshold,
                fleet=manager,
            )
        )
        print(
            f"repro fleet: gateway on http://{host or '127.0.0.1'}:{port} "
            f"(routing={args.routing})",
            flush=True,
        )
        try:
            gateway.run()
        except KeyboardInterrupt:
            pass
    finally:
        manager.stop_all()
    print("repro fleet: stopped")
    return 0


def _fleet_request(args: argparse.Namespace, path: str, method="GET", body=None):
    """Gateway request with connection errors turned into exit code 2."""
    from repro.common.errors import ServiceError

    try:
        return _http_json(
            _fleet_url(args, path), method=method, body=body, timeout=args.timeout
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    code, payload = _fleet_request(args, "/status")
    if code is None:
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if code == 200 and payload.get("ok") else 1
    gateway = payload.get("gateway", {})
    print(
        f"gateway {gateway.get('http')} up {gateway.get('uptime_s')}s "
        f"(routing={gateway.get('routing')}, "
        f"{gateway.get('alive')} shard(s) alive)"
    )
    print(
        "gateway counters: "
        + ", ".join(
            f"{k}={v}" for k, v in sorted((gateway.get("counters") or {}).items())
        )
    )
    _print_fleet_totals(payload.get("totals", {}))
    for entry in payload.get("shards", []):
        label = f"{entry.get('shard')} {entry.get('address')}"
        _print_shard_line(label, entry.get("status"))
    return 0 if code == 200 and payload.get("ok") else 1


def _cmd_fleet_drain(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(args, "/drain", method="POST")
    if code is None:
        return 2
    if code == 200 and payload.get("ok"):
        print(f"drained {payload.get('drained', 0)} pending job(s) fleet-wide")
        return 0
    print(f"error: {payload.get('detail', payload)}", file=sys.stderr)
    return 2


def _cmd_fleet_scale(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(args, "/scale", method="POST", body={"n": args.n})
    if code is None:
        return 2
    if code == 200 and payload.get("ok"):
        shards = payload.get("shards", [])
        print(f"fleet scaled to {len(shards)} shard(s):")
        for entry in shards:
            print(f"  {entry.get('shard')}: {entry.get('address')}")
        return 0
    print(f"error: {payload.get('detail', payload)}", file=sys.stderr)
    return 2


def _cmd_fleet_stop(args: argparse.Namespace) -> int:
    code, payload = _fleet_request(
        args, "/shutdown", method="POST", body={"drain": bool(args.drain)}
    )
    if code is None:
        return 2
    if code == 200 and payload.get("ok"):
        print("fleet shutdown requested")
        return 0
    print(f"error: {payload.get('detail', payload)}", file=sys.stderr)
    return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.result_cache import ResultCache

    cache = ResultCache(args.inspect_cache_dir)
    if args.cache_op == "stats":
        stats = cache.stats()
        print(f"cache directory : {stats.directory}")
        print(f"entries         : {stats.entries}")
        print(f"total bytes     : {stats.total_bytes}")
        if args.verbose:
            for entry in cache.entries():
                print(f"  {entry.key[:16]}  {entry.size_bytes:>10}  {entry.mtime:.0f}")
    elif args.cache_op == "prune":
        if args.max_bytes is None and args.max_entries is None:
            print(
                "error: prune needs --max-bytes and/or --max-entries",
                file=sys.stderr,
            )
            return 2
        removed = cache.prune(max_bytes=args.max_bytes, max_entries=args.max_entries)
        stats = cache.stats()
        print(
            f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
            f"{stats.entries} left ({stats.total_bytes} bytes)"
        )
    elif args.cache_op == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Occamy (ASPLOS 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared runtime options for every command that runs simulations.
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument(
        "--jobs",
        type=str,
        default=None,
        metavar="N",
        help="worker processes ('auto' = all CPUs; default $REPRO_JOBS, "
        "else serial; non-positive values are rejected)",
    )
    runtime.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result-cache directory (default $REPRO_CACHE_DIR, "
        "else ~/.cache/repro)",
    )
    runtime.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    runtime.add_argument(
        "--profile",
        action="store_true",
        help="print simulated-cycle attribution (interpreted vs "
        "fast-forwarded vs loop-replayed, plus per-component busy/asleep "
        "counts) after the command; only runs "
        "simulated in this process are counted, so combine with --jobs 1 "
        "(and --no-cache) for a complete picture",
    )
    runtime.add_argument(
        "--audit",
        action="store_true",
        help="enable runtime invariant auditing (REPRO_AUDIT): every cycle "
        "cross-checks lane/ROB/renamer/bandwidth accounting and raises "
        "InvariantViolation on the first inconsistency",
    )

    motivate = sub.add_parser(
        "motivate", help="run the §2 motivating example", parents=[runtime]
    )
    motivate.add_argument("--scale", type=float, default=0.5)
    motivate.add_argument(
        "--cores", nargs="+", default=None, metavar="N",
        help="instead of the 2-core Fig. 2 pair, sweep the N-core scaling "
        "matrix (Fig. 16 blend tiled across each machine size, co-run "
        "under private/occamy/fts/cts); e.g. --cores 8 16 32",
    )
    motivate.add_argument(
        "--alloc", default=None, metavar="POLICY",
        help="with --cores: place the blend with this allocation policy "
        "(random / round-robin / oi-balance / oi-pack / symbiosis) and "
        "report per-pair cycles instead of the sharing-mode matrix",
    )
    motivate.add_argument(
        "--calibrate", action="store_true",
        help="with --alloc symbiosis: refine the ECM compatibility matrix "
        "with short micro co-runs (cached)",
    )
    motivate.set_defaults(func=_cmd_motivate)

    pair = sub.add_parser(
        "pair", help="co-run one Table 3 pair", parents=[runtime]
    )
    pair.add_argument("suite", choices=("spec", "opencv"))
    pair.add_argument("mem", type=int)
    pair.add_argument("comp", type=int)
    pair.add_argument("--scale", type=float, default=0.5)
    pair.set_defaults(func=_cmd_pair)

    roofline = sub.add_parser("roofline", help="explore the Eq. 4 roofline")
    roofline.add_argument("oi_issue", type=float)
    roofline.add_argument("oi_mem", type=float)
    roofline.add_argument(
        "--level", choices=("dram", "l2", "vec_cache"), default="dram"
    )
    roofline.set_defaults(func=_cmd_roofline)

    table5 = sub.add_parser("table5", help="reproduce Table 5")
    table5.set_defaults(func=_cmd_table5)

    area = sub.add_parser("area", help="Fig. 12 area model")
    area.add_argument("--cores", type=int, default=2)
    area.set_defaults(func=_cmd_area)

    trace = sub.add_parser(
        "trace", help="export a JSON trace of a pair run", parents=[runtime]
    )
    trace.add_argument("suite", choices=("spec", "opencv"))
    trace.add_argument("mem", type=int)
    trace.add_argument("comp", type=int)
    trace.add_argument("output")
    trace.add_argument("--scale", type=float, default=0.3)
    trace.set_defaults(func=_cmd_trace)

    figures = sub.add_parser(
        "figures", help="render SVG figures", parents=[runtime]
    )
    figures.add_argument("output_dir")
    figures.add_argument("--scale", type=float, default=0.4)
    figures.set_defaults(func=_cmd_figures)

    report = sub.add_parser(
        "report",
        help="write a Markdown reproduction report",
        parents=[runtime],
    )
    report.add_argument("output")
    report.add_argument("--scale", type=float, default=0.4)
    report.add_argument("--pairs", type=int, default=6)
    report.set_defaults(func=_cmd_report)

    perf_report = sub.add_parser(
        "perf-report",
        help="generate the tracked markdown perf report",
    )
    perf_report.add_argument(
        "--bench-dir", default=".",
        help="directory searched (recursively) for BENCH_*.json records",
    )
    perf_report.add_argument(
        "--out", default=None, metavar="OUT.md",
        help="write the report here (default: print to stdout)",
    )
    perf_report.add_argument(
        "--scale", type=float, default=0.05,
        help="workload scale for the ECM validation sweep (default 0.05)",
    )
    perf_report.add_argument(
        "--workloads", default=None, metavar="IDS",
        help="comma-separated Table 3 workload ids (default: all 22)",
    )
    perf_report.add_argument(
        "--policies", default=None, metavar="KEYS",
        help="comma-separated sharing policies (default occamy,fts,cts)",
    )
    perf_report.add_argument(
        "--skip-validation", action="store_true",
        help="skip the ECM-vs-simulator sweep (report benches only)",
    )
    perf_report.add_argument(
        "--cores", nargs="+", default=None, metavar="N",
        help="add the N-core scaling section: per-core-count geomean "
        "speedups of occamy/fts/cts over Private on the tiled Fig. 16 "
        "blend (e.g. --cores 8 16 32)",
    )
    perf_report.add_argument(
        "--alloc-cores", nargs="+", default=None, metavar="N",
        help="add the allocation section: every pairing policy swept at "
        "each size plus the per-pair sharing win/loss table under the "
        "symbiosis placement (e.g. --alloc-cores 16)",
    )
    perf_report.set_defaults(func=_cmd_perf_report)

    diff_fuzz = sub.add_parser(
        "diff-fuzz",
        help="cross-engine differential fuzzing",
        parents=[runtime],
    )
    diff_fuzz.add_argument(
        "--seeds", type=int, default=50, metavar="N",
        help="number of random cases (default 50)",
    )
    diff_fuzz.add_argument(
        "--start", type=int, default=0, metavar="SEED",
        help="first seed (cases use seeds START..START+N-1)",
    )
    diff_fuzz.add_argument(
        "--policies", default=None, metavar="KEYS",
        help="comma-separated policy keys (default occamy,fts,cts — one "
        "per sharing mode)",
    )
    diff_fuzz.add_argument(
        "--cores", default=2, metavar="N",
        help="generate N-core co-run cases on an N-core machine "
        "(default 2)",
    )
    diff_fuzz.add_argument(
        "--alloc", default=None, metavar="POLICY",
        help="split each generated N-core case into two-core complexes "
        "with this allocation policy and diff every complex "
        "independently — exercises the placement layer's simulation "
        "invariance",
    )
    diff_fuzz.add_argument(
        "--report", default=None, metavar="OUT.json",
        help="write a JSON divergence report",
    )
    diff_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking diverging cases",
    )
    diff_fuzz.add_argument(
        "--shrink-limit", type=int, default=3, metavar="N",
        help="shrink at most N divergences (default 3)",
    )
    diff_fuzz.add_argument(
        "--emit-dir", default="tests/regressions", metavar="DIR",
        help="directory for emitted regression tests "
        "(default tests/regressions)",
    )
    diff_fuzz.set_defaults(func=_cmd_diff_fuzz)

    alloc_sweep = sub.add_parser(
        "alloc-sweep",
        help="sweep thread-to-core allocation policies on large machines",
        parents=[runtime],
    )
    alloc_sweep.add_argument(
        "--cores", nargs="+", default=["16"], metavar="N",
        help="machine sizes to sweep (default 16); threads are the tiled "
        "Fig. 16 blend, placed into two-core complexes",
    )
    alloc_sweep.add_argument(
        "--alloc", default=None, metavar="KEYS",
        help="comma-separated allocation policies (default: all of "
        "random, round-robin, oi-balance, oi-pack, symbiosis)",
    )
    alloc_sweep.add_argument(
        "--policies", default=None, metavar="KEYS",
        help="comma-separated sharing policies run inside each complex "
        "(default occamy)",
    )
    alloc_sweep.add_argument("--scale", type=float, default=0.2)
    alloc_sweep.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed for the random placement baseline (default 0)",
    )
    alloc_sweep.add_argument(
        "--calibrate", action="store_true",
        help="refine the symbiosis matrix with short micro co-runs "
        "(cached; only affects the symbiosis policy)",
    )
    alloc_sweep.add_argument(
        "--report", default=None, metavar="OUT.json",
        help="write a JSON report with per-pair cycles and run-"
        "fingerprint digests (CI asserts digests are placement-"
        "invariant)",
    )
    alloc_sweep.set_defaults(func=_cmd_alloc_sweep)

    # --- simulation service ---------------------------------------------------

    svc_common = argparse.ArgumentParser(add_help=False)
    svc_common.add_argument(
        "--socket", default=None, metavar="ADDR",
        help="daemon address: a Unix socket path or tcp:HOST:PORT "
        "(default $REPRO_SERVICE_SOCKET, else <cache-dir>/service.sock)",
    )
    svc_common.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="client-side response timeout in seconds (default 600)",
    )

    serve = sub.add_parser(
        "serve", help="run the simulation daemon (async job service)"
    )
    serve.add_argument(
        "--socket", default=None, metavar="ADDR",
        help="listen address: Unix socket path or tcp:HOST:PORT",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes in the pool (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="max queued jobs before submissions are rejected (default 64)",
    )
    serve.add_argument(
        "--max-per-client", type=int, default=16, metavar="N",
        help="max queued+running jobs per client (default 16)",
    )
    serve.add_argument(
        "--sched", choices=("fifo", "spjf", "fair"), default="fifo",
        help="scheduling policy: arrival order, shortest-predicted-job-"
        "first (cached cycle counts), or per-client fair share",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock deadline in seconds; 0 disables "
        "(default 300)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries after a worker crash or timeout (default 2)",
    )
    serve.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="S",
        help="base retry backoff, doubled per attempt (default 0.25s)",
    )
    serve.add_argument(
        "--recycle-after", type=int, default=64, metavar="N",
        help="recycle a worker after N jobs; 0 disables (default 64)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result-cache directory for dedup/coalescing",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache (disables dedup)",
    )
    serve.add_argument(
        "--runner", default=None, metavar="MOD:FUNC",
        help="job runner as package.module:callable (default: the cached "
        "simulation runner; test/bench harnesses inject stubs here)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a job to a running daemon and stream its result",
    )
    submit_sub = submit.add_subparsers(dest="kind", required=True)
    submit_pair = submit_sub.add_parser(
        "pair", help="a Table 3 co-run pair", parents=[svc_common]
    )
    submit_pair.add_argument("suite", choices=("spec", "opencv"))
    submit_pair.add_argument("mem", type=int)
    submit_pair.add_argument("comp", type=int)
    submit_motivate = submit_sub.add_parser(
        "motivate", help="the §2 motivating pair", parents=[svc_common]
    )
    for sp, default_scale in ((submit_pair, 0.35), (submit_motivate, 0.5)):
        sp.add_argument(
            "--policy", choices=sorted(POLICY_KEYS + ("cts",)), default="occamy"
        )
        sp.add_argument("--scale", type=float, default=default_scale)
        sp.add_argument("--client", default="cli", help="client name for "
                        "fair-share scheduling and per-client quotas")
        sp.add_argument("--no-wait", action="store_true",
                        help="return after the queued acknowledgement")
        sp.add_argument("--json", action="store_true",
                        help="print the final event as JSON")
        sp.set_defaults(func=_cmd_submit)

    svc_status = sub.add_parser(
        "svc-status",
        help="query (and optionally drain/stop) one daemon, or aggregate "
        "a whole fleet with repeated --socket",
    )
    svc_status.add_argument(
        "--socket", action="append", default=None, metavar="ADDR",
        help="daemon address (Unix socket path or tcp:HOST:PORT); repeat "
        "for a fleet-wide aggregate view (default $REPRO_SERVICE_SOCKET, "
        "else <cache-dir>/service.sock)",
    )
    svc_status.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="client-side response timeout in seconds (default 600)",
    )
    svc_status.add_argument(
        "--drain", action="store_true",
        help="stop admitting work and wait for in-flight jobs to finish",
    )
    svc_status.add_argument(
        "--shutdown", action="store_true",
        help="stop the daemon(s) after reporting status",
    )
    svc_status.add_argument("--json", action="store_true")
    svc_status.set_defaults(func=_cmd_svc_status)

    # --- fleet: HTTP gateway + N daemons --------------------------------------

    fleet = sub.add_parser(
        "fleet",
        help="run or control an HTTP gateway fronting N simulation daemons",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_op", required=True)

    fleet_serve = fleet_sub.add_parser(
        "serve", help="spawn N daemons and serve the HTTP gateway (foreground)"
    )
    fleet_serve.add_argument(
        "-n", "--count", type=int, default=2, metavar="N",
        help="daemon shards to spawn (default 2)",
    )
    fleet_serve.add_argument(
        "--http", dest="http_bind", default="127.0.0.1:8765", metavar="HOST:PORT",
        help="gateway listen address (default 127.0.0.1:8765)",
    )
    fleet_serve.add_argument(
        "--routing", choices=("hash", "least-loaded", "steal"), default="hash",
        help="shard routing policy: consistent-hash (warm-shard affinity), "
        "least-loaded, or hash with work-stealing above --steal-threshold",
    )
    fleet_serve.add_argument(
        "--steal-threshold", type=int, default=4, metavar="N",
        help="queue-depth gap before 'steal' overrides the hash home "
        "(default 4)",
    )
    fleet_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes per daemon (default 2)",
    )
    fleet_serve.add_argument(
        "--sched", choices=("fifo", "spjf", "fair"), default="fifo",
        help="per-daemon scheduling policy (default fifo)",
    )
    fleet_serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="per-daemon queue depth (default 64)",
    )
    fleet_serve.add_argument(
        "--max-per-client", type=int, default=16, metavar="N",
        help="per-daemon per-client quota (default 16)",
    )
    fleet_serve.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock deadline in seconds (default 300)",
    )
    fleet_serve.add_argument(
        "--base-dir", default=None, metavar="DIR",
        help="directory for shard sockets and logs "
        "(default <cache-dir>/fleet)",
    )
    fleet_serve.add_argument(
        "--runner", default=None, metavar="MOD:FUNC",
        help="job runner forwarded to every daemon (see 'serve --runner')",
    )
    fleet_serve.set_defaults(func=_cmd_fleet_serve)

    fleet_client = argparse.ArgumentParser(add_help=False)
    fleet_client.add_argument(
        "--http", default=None, metavar="URL",
        help=f"gateway URL (default ${FLEET_HTTP_ENV}, "
        f"else {DEFAULT_FLEET_HTTP})",
    )
    fleet_client.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="HTTP response timeout in seconds (default 600)",
    )

    fleet_status = fleet_sub.add_parser(
        "status", help="aggregate fleet status via the gateway",
        parents=[fleet_client],
    )
    fleet_status.add_argument("--json", action="store_true")
    fleet_status.set_defaults(func=_cmd_fleet_status)

    fleet_drain = fleet_sub.add_parser(
        "drain", help="quiesce every shard (finish queued + running work)",
        parents=[fleet_client],
    )
    fleet_drain.set_defaults(func=_cmd_fleet_drain)

    fleet_scale = fleet_sub.add_parser(
        "scale", help="grow or shrink the fleet to N shards",
        parents=[fleet_client],
    )
    fleet_scale.add_argument("n", type=int, help="target shard count")
    fleet_scale.set_defaults(func=_cmd_fleet_scale)

    fleet_stop = fleet_sub.add_parser(
        "stop", help="shut down every shard and the gateway",
        parents=[fleet_client],
    )
    fleet_stop.add_argument(
        "--drain", action="store_true",
        help="finish in-flight work before stopping",
    )
    fleet_stop.set_defaults(func=_cmd_fleet_stop)

    cache = sub.add_parser(
        "cache", help="inspect / prune the persistent result cache"
    )
    # dest differs from the runtime --cache-dir so main() never pins the
    # process-wide default cache for a pure inspection command
    cache.add_argument(
        "--cache-dir", dest="inspect_cache_dir", default=None, metavar="DIR",
        help="cache directory (default $REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    cache_sub = cache.add_subparsers(dest="cache_op", required=True)
    cache_stats = cache_sub.add_parser("stats", help="entry count and bytes")
    cache_stats.add_argument("--verbose", action="store_true",
                             help="also list individual entries")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict oldest entries until within bounds"
    )
    cache_prune.add_argument("--max-bytes", type=int, default=None, metavar="N")
    cache_prune.add_argument("--max-entries", type=int, default=None, metavar="N")
    cache_sub.add_parser("clear", help="delete every cached entry")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "audit", False):
        # Set the env knob (not just Machine(audit=True)) so --jobs worker
        # processes and library code constructing Machines inherit it.
        os.environ["REPRO_AUDIT"] = "1"
    if getattr(args, "cache_dir", None) or getattr(args, "no_cache", False):
        from repro.analysis import result_cache

        result_cache.configure(
            cache_dir=getattr(args, "cache_dir", None),
            disabled=getattr(args, "no_cache", False),
        )
    from repro.common.errors import ConfigurationError

    try:
        code = args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "profile", False):
        from repro.core.replay import GLOBAL_PROFILE

        print()
        print(GLOBAL_PROFILE.report())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
