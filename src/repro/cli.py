"""Command-line interface: ``python -m repro <command>``.

This module only parses.  Each sub-command's body lives in — and is
documented by — the module of its name under :mod:`repro.commands`
(``motivate``, ``pair``, ``roofline``, ``table5``, ``area``, ``trace``,
``report``, ``fidelity``, ``perf-report``, ``diff-fuzz``, ``serve``,
``submit``, ``svc-status``, ``cache``), and :func:`main`
imports only the one selected: ``repro cache stats`` loads no numpy, and
a warm ``repro report`` neither numpy nor the simulator (DESIGN.md,
"Import layering").

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
    After the command, print how the simulated cycles of the results it
    used were covered: interpreted cycle-by-cycle or skipped by the idle
    fast-forward — plus per-component busy / idle-stepped / asleep cycle
    counts.  The profile rides on each result, so the block is the same
    whether a run happened here, on a ``--jobs N`` worker or was read back
    from the cache; results that carry none are counted as such.
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
from importlib import import_module
from typing import List, Optional

POLICY_KEYS = ("private", "fts", "vls", "occamy")


def _float_where(text: str, accept, wanted: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")  # fails every bound below
    if not accept(value):
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
    return value


def scale_type(text: str) -> float:
    """A finite number above zero (``--scale``, the client ``--timeout``),
    else argparse exits 2."""
    return _float_where(
        text, lambda v: 0 < v < float("inf"), "a positive finite number"
    )


def intensity_type(text: str) -> float:
    """``roofline``'s intensities: a number >= 0, else argparse exits 2.
    ``inf`` is a phase that moves no bytes."""
    return _float_where(text, lambda v: v >= 0, "a number >= 0")


def _integer_at_least(text: str, least: int) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {least}, got {text!r}"
        )
    return value


def count_type(text: str) -> int:
    """A count of at least one (``report --pairs``, ``diff-fuzz --seeds``,
    ``area --cores``, the daemon's ``--workers`` / ``--queue-depth`` /
    ``--max-per-client``), else argparse exits 2."""
    return _integer_at_least(text, 1)


def nonnegative_type(text: str) -> int:
    """A count that may be zero (``diff-fuzz --shrink-limit``), else
    argparse exits 2."""
    return _integer_at_least(text, 0)


def timeout_type(text: str) -> float:
    """``--job-timeout``: a finite number of seconds >= 0 (0 disables),
    else argparse exits 2."""
    return _float_where(
        text, lambda v: 0 <= v < float("inf"), "a finite number >= 0"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Occamy (ASPLOS 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The persistent result cache, for every command that runs simulations
    # (the daemon included).
    cache_options = argparse.ArgumentParser(add_help=False)
    cache_options.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result-cache directory (default $REPRO_CACHE_DIR, "
        "else ~/.cache/repro)",
    )
    cache_options.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )

    # Shared runtime options for every command that runs simulations here.
    runtime = argparse.ArgumentParser(add_help=False, parents=[cache_options])
    runtime.add_argument(
        "--jobs",
        type=str,
        default=None,
        metavar="N",
        help="worker processes ('auto' = all CPUs; default $REPRO_JOBS, "
        "else serial; non-positive values are rejected)",
    )
    runtime.add_argument(
        "--profile",
        action="store_true",
        help="print simulated-cycle attribution (interpreted vs "
        "fast-forwarded, plus per-component busy/asleep counts) of the "
        "results the command used, after the command",
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
    motivate.add_argument("--scale", type=scale_type, default=0.5)
    motivate.add_argument(
        "--cores", nargs="+", default=None, metavar="N",
        help="instead of the 2-core Fig. 2 pair, sweep the N-core scaling "
        "matrix (Fig. 16 blend tiled across each machine size, co-run "
        "under private/occamy/fts/cts); e.g. --cores 8 16 32",
    )

    pair = sub.add_parser(
        "pair", help="co-run one Table 3 pair", parents=[runtime]
    )
    pair.add_argument("suite", choices=("spec", "opencv"))
    pair.add_argument("mem", type=int)
    pair.add_argument("comp", type=int)
    pair.add_argument("--scale", type=scale_type, default=0.5)

    roofline = sub.add_parser("roofline", help="explore the Eq. 4 roofline")
    roofline.add_argument("oi_issue", type=intensity_type)
    roofline.add_argument("oi_mem", type=intensity_type)
    roofline.add_argument(
        "--level", choices=("dram", "l2", "vec_cache"), default="dram"
    )

    table5 = sub.add_parser("table5", help="reproduce Table 5")

    area = sub.add_parser("area", help="Fig. 12 area model")
    area.add_argument("--cores", type=count_type, default=2)

    trace = sub.add_parser(
        "trace", help="export a JSON trace of a pair run", parents=[runtime]
    )
    trace.add_argument("suite", choices=("spec", "opencv"))
    trace.add_argument("mem", type=int)
    trace.add_argument("comp", type=int)
    trace.add_argument("output")
    trace.add_argument("--scale", type=scale_type, default=0.3)

    report = sub.add_parser(
        "report",
        help="write a Markdown reproduction report",
        parents=[runtime],
    )
    report.add_argument("output")
    report.add_argument("--scale", type=scale_type, default=0.4)
    report.add_argument("--pairs", type=count_type, default=6)

    fidelity = sub.add_parser(
        "fidelity",
        help="print the paper-vs-ours table, our claims beyond the paper last "
        "(exit 1 on a failing row; calibrated at 0.5)",
        parents=[runtime],
    )
    fidelity.add_argument("--scale", type=scale_type, default=0.5)

    perf_report = sub.add_parser(
        "perf-report",
        help="generate the tracked markdown perf report",
    )
    perf_report.add_argument(
        "--out", default=None, metavar="OUT.md",
        help="write the report here (default: print to stdout)",
    )
    perf_report.add_argument(
        "--scale", type=scale_type, default=0.05,
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

    diff_fuzz = sub.add_parser(
        "diff-fuzz",
        help="cross-engine differential fuzzing",
        parents=[runtime],
    )
    diff_fuzz.add_argument(
        "--seeds", type=count_type, default=50, metavar="N",
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
        "--report", default=None, metavar="OUT.json",
        help="write a JSON divergence report",
    )
    diff_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking diverging cases",
    )
    diff_fuzz.add_argument(
        "--shrink-limit", type=nonnegative_type, default=3, metavar="N",
        help="shrink at most N divergences (default 3)",
    )
    diff_fuzz.add_argument(
        "--emit-dir", default="tests/regressions", metavar="DIR",
        help="directory for emitted regression tests "
        "(default tests/regressions)",
    )

    # --- simulation service ---------------------------------------------------

    svc_common = argparse.ArgumentParser(add_help=False)
    svc_common.add_argument(
        "--socket", default=None, metavar="ADDR",
        help="daemon address: a Unix socket path or tcp:HOST:PORT "
        "(default $REPRO_SERVICE_SOCKET, else <cache-dir>/service.sock)",
    )
    svc_common.add_argument(
        "--timeout", type=scale_type, default=600.0, metavar="S",
        help="client-side response timeout in seconds (default 600)",
    )

    serve = sub.add_parser(
        "serve", help="run the simulation daemon (async job service)",
        parents=[cache_options],
    )
    serve.add_argument(
        "--socket", default=None, metavar="ADDR",
        help="listen address: Unix socket path or tcp:HOST:PORT",
    )
    serve.add_argument(
        "--workers", type=count_type, default=2, metavar="N",
        help="worker processes in the daemon's pool (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=count_type, default=64, metavar="N",
        help="max queued jobs before submissions are rejected (default 64)",
    )
    serve.add_argument(
        "--max-per-client", type=count_type, default=16, metavar="N",
        help="max queued+running jobs per client (default 16)",
    )
    serve.add_argument(
        "--job-timeout", type=timeout_type, default=300.0, metavar="S",
        help="per-job wall-clock deadline in seconds; 0 disables "
        "(default 300)",
    )
    serve.add_argument(
        "--runner", default=None, metavar="MOD:FUNC",
        help="job runner as package.module:callable (default: the cached "
        "simulation runner; test/bench harnesses inject stubs here)",
    )

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
        sp.add_argument("--scale", type=scale_type, default=default_scale)
        sp.add_argument("--client", default="cli",
                        help="client name for per-client quotas")
        sp.add_argument("--json", action="store_true",
                        help="print the final event as JSON")

    svc_status = sub.add_parser(
        "svc-status",
        help="query (and optionally drain/stop) one daemon",
        parents=[svc_common],
    )
    svc_status.add_argument(
        "--drain", action="store_true",
        help="stop admitting work and wait for in-flight jobs to finish",
    )
    svc_status.add_argument(
        "--shutdown", action="store_true",
        help="stop the daemon after reporting status",
    )
    svc_status.add_argument("--json", action="store_true")

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

    # The sub-command's name is its module's: only the one selected loads.
    command = import_module("repro.commands." + args.command.replace("-", "_"))
    try:
        code = command.run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "profile", False) and args.command != "diff-fuzz":
        # diff-fuzz runs its machines itself and prints the sum it keeps;
        # every other driver's results are the ones in the experiments memo.
        from repro.analysis.experiments import profile_report

        print()
        print(profile_report())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
