#!/usr/bin/env python3
"""The repo's benchmark: four named workloads, measured from outside.

Two ways in:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  Prints every metric by name
    with its unit, then a ``DETAIL`` line (everything, as JSON), and last
    the one-line result object the driver reads.  ``--trace 0`` gives the
    end-to-end metrics of an untraced run; ``--trace 1`` records a span
    around every call into a layer and gives the per-layer metrics.

``python3 bench/run.py --seed N [--runs 3] [--only NAME ...] [--smoke]``
    The ledger: every workload ``--runs`` times, each run a fresh
    subprocess of the form above (untraced, then traced; order alternated),
    folded into medians, quartiles and sample counts and written to
    ``bench/results/run-*.json`` for ``compare.py``.

Exit status is non-zero when any check failed.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import harness
import metrics as registry

#: Set-ups per run: this process's own plus fresh ``--setup-only`` helpers.
SETUPS = 3


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    smoke: bool
    trace: bool
    workdir: Path
    tracer: harness.Tracer
    rng: random.Random


class Checks:
    """Counts expectations; a failed one is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def workload_class(name: str):
    if name in registry.SIM:
        import wl_sim

        return {"pair2_cold": wl_sim.Pair2Cold, "ncore16_cold": wl_sim.NCore16Cold}[name]
    if name == "report_warm":
        import wl_report

        return wl_report.ReportWarm
    import wl_serve

    return wl_serve.ServeMixed


# --- one run of one workload -------------------------------------------------


def _self_command(args: argparse.Namespace, workload: str, *extra: str) -> List[str]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    return command + list(extra)


def _helper_setup_s(args: argparse.Namespace) -> float:
    done = subprocess.run(
        _self_command(args, args.workload, "--setup-only"),
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> int:
    harness.require_source_tree()
    workdir = harness.make_workdir(args.workload)
    try:
        harness.enter_hermetic_env(workdir)
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            smoke=args.smoke,
            trace=bool(args.trace),
            workdir=workdir,
            tracer=harness.Tracer(bool(args.trace)),
            rng=random.Random(args.seed),
        )
        workload = workload_class(args.workload)(ctx)
        checks = Checks()
        spawned: Dict[int, str] = {}
        try:
            workload.setup()
            setup_samples = [time.perf_counter() - _PROCESS_START]
            if args.setup_only:
                print(repr(setup_samples[0]))
                return 0
            workload.run()
            peak_rss = harness.peak_rss_mb()
            workload.check(checks)
            if ctx.trace:
                covered = sum(
                    s["end"] - s["start"] for s in harness.top_level(ctx.tracer.spans)
                )
                checks.expect(
                    abs(workload.region_wall_s - covered) <= 0.02 * workload.region_wall_s,
                    f"top-level spans cover {covered:.3f}s of the "
                    f"{workload.region_wall_s:.3f}s timed region",
                )
                workload.attribute()
            spawned = harness.descendants()
        finally:
            workload.teardown()
        leaked = harness.survivors(spawned)
        checks.expect(not leaked, f"child processes survive teardown: {leaked}")
        setups = 2 if ctx.smoke else SETUPS
        setup_samples += [_helper_setup_s(args) for _ in range(setups - 1)]
        return emit(ctx, workload, checks, setup_samples, peak_rss)
    finally:
        harness.remove_workdir(workdir)


def emit(ctx: Context, workload, checks: Checks, setup_samples, peak_rss: float) -> int:
    failed = len(checks.failures)
    end_to_end = workload.end_to_end()
    end_to_end["setup_s"] = harness.median(setup_samples)
    end_to_end["peak_rss_mb"] = peak_rss
    end_to_end["failed_frac"] = failed / checks.attempted
    units = {m.name: m.unit for m in registry.END_TO_END}
    layers: Dict[str, float] = {}
    if ctx.trace:
        layers = workload.layers()
        units.update({layer.name: layer.unit for layer in registry.PER_LAYER})
        reported = registry.fill_layers(layers)
        harness.write_json(
            harness.RESULTS_DIR / f"trace-{ctx.workload}.json",
            {"workload": ctx.workload, "seed": ctx.seed, "spans": ctx.tracer.spans},
        )
    else:
        reported = {m.name: end_to_end[m.name] for m in registry.contract_end_to_end()}

    exact = workload.exact()
    print(f"# {ctx.workload}  seed={ctx.seed}  seconds={ctx.seconds:g}  "
          f"trace={int(ctx.trace)}  smoke={int(ctx.smoke)}")
    for name, value in sorted({**end_to_end, **layers}.items()):
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"{'sim_digest':40s} {exact['sim_digest']}")
    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}")
    detail = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "smoke": ctx.smoke,
        "trace": ctx.trace,
        "host": harness.host_descriptor(),
        "sizes": workload.sizes(),
        "attempted": checks.attempted,
        "failed": failed,
        "failures": checks.failures,
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "exact": exact,
    }
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checks.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


# --- the ledger --------------------------------------------------------------


def _spawn_run(args: argparse.Namespace, name: str, trace: int) -> Optional[Dict[str, object]]:
    done = subprocess.run(
        _self_command(args, name, "--trace", str(trace)), capture_output=True, text=True
    )
    for line in done.stdout.splitlines():
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])
    sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
    return None


def fold(untraced: Sequence[Dict], traced: Sequence[Dict]) -> Dict[str, object]:
    """Medians, quartiles and n per metric; exact values with whether they
    repeated across every run of both kinds."""
    name = untraced[0]["workload"]
    both = [*untraced, *traced]
    end_to_end = {}
    for metric in registry.END_TO_END:
        if name not in metric.workloads:
            continue
        source = traced if metric.name == "fig2_sp1_err" else untraced
        values = [d["end_to_end"][metric.name] for d in source if metric.name in d["end_to_end"]]
        if values:
            end_to_end[metric.name] = harness.summarize(values)
    per_layer = {}
    for layer in sorted({key for d in traced for key in d["per_layer"]}):
        per_layer[layer] = harness.summarize(
            [d["per_layer"][layer] for d in traced if layer in d["per_layer"]]
        )
    exact = {}
    for key in sorted({key for d in both for key in d["exact"]}):
        seen = [d["exact"][key] for d in both if key in d["exact"]]
        exact[key] = {"value": seen[0], "repeats": all(v == seen[0] for v in seen)}
    out = {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "exact": exact,
        "sizes": untraced[0]["sizes"],
        "attempted": sum(d["attempted"] for d in both),
        "failed": sum(d["failed"] for d in both),
        "failures": [f for d in both for f in d["failures"]],
    }
    if traced:
        plain = end_to_end["wall_s"]["median"]
        with_spans = per_layer["bench.wall_s"]["median"]
        out["trace_overhead_frac"] = (with_spans - plain) / plain
    return out


def print_ledger(ledger: Dict[str, object]) -> None:
    units = {m.name: m.unit for m in registry.END_TO_END}
    units.update({layer.name: layer.unit for layer in registry.PER_LAYER})
    for name, summary in ledger["workloads"].items():
        print(f"\n## {name}   (failed {summary['failed']} of {summary['attempted']} checks)")
        for kind in ("end_to_end", "per_layer"):
            for metric, stats in summary[kind].items():
                print(
                    f"{metric:40s} {stats['median']:16.6f} {units[metric]:10s} "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}"
                )
        if "trace_overhead_frac" in summary:
            print(f"{'trace_overhead_frac':40s} {summary['trace_overhead_frac']:16.6f} ratio")
        for key, entry in summary["exact"].items():
            if isinstance(entry["value"], (str, int, float)):
                flag = "" if entry["repeats"] else "   DID NOT REPEAT"
                print(f"{key:40s} {entry['value']}{flag}")
        for failure in summary["failures"]:
            print(f"FAILED CHECK: {failure}")


def run_ledger(args: argparse.Namespace) -> int:
    harness.require_source_tree()
    names = args.only or list(registry.ALL)
    untraced: Dict[str, List[Dict]] = {name: [] for name in names}
    traced: Dict[str, List[Dict]] = {name: [] for name in names}
    crashed = 0
    for run in range(args.runs):
        for name in names if run % 2 == 0 else reversed(names):
            for trace, sink in ((0, untraced), (1, traced)):
                print(f"[run {run + 1}/{args.runs}] {name} trace={trace}", flush=True)
                detail = _spawn_run(args, name, trace)
                if detail is None:
                    crashed += 1
                else:
                    sink[name].append(detail)
    ledger = {
        "schema": "occamy-bench/1",
        "host": harness.host_descriptor(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "smoke": args.smoke,
        "workloads": {
            name: fold(untraced[name], traced[name]) for name in names if untraced[name]
        },
    }
    print_ledger(ledger)
    out = Path(args.out) if args.out else harness.RESULTS_DIR / (
        f"run-{time.strftime('%Y%m%dT%H%M%S')}-seed{args.seed}.json"
    )
    harness.write_json(out, ledger)
    print(f"\nledger written to {out}")
    failed = crashed + sum(s["failed"] for s in ledger["workloads"].values())
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=registry.ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest legal sizes; numbers are not for the record")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--runs", type=int, default=3, help="ledger: runs per workload")
    parser.add_argument("--only", nargs="+", choices=registry.ALL,
                        help="ledger: just these workloads")
    parser.add_argument("--out", help="ledger: output file")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
