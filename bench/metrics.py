"""The ledger's vocabulary: workloads, end-to-end metrics, per-layer metrics.

One table each, read by ``run.py`` (what to emit), ``compare.py`` (bounds
and which metrics are exact) and the tests (``BENCHMARK.json`` must agree
with it).  Host time and simulated time are never mixed: every unit says
which it is — ``s``/``ms`` are host wall-clock, ``cycles`` are simulated,
``count`` is an exact event count taken from the program's own counters.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Seconds one run measures; the driver passes it back as ``--seconds``.
RUN_SECONDS = 20

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "pair2_cold",
        "2-core case-study pairs under all four policies into an empty cache: "
        "the engine does ~all the work, compile/fingerprint/cache-write are slivers.",
    ),
    Workload(
        "ncore16_cold",
        "One 16-core machine, cache off: most cores asleep on DRAM, so time goes "
        "to the wheel, lane bookkeeping and partitioning, not the scalar interpreter.",
    ),
    Workload(
        "report_warm",
        "The same report re-rendered from a warm cache, one fresh process each: "
        "bypasses the engine; time is import, compile, key hashing, cache read.",
    ),
    Workload(
        "serve_mixed",
        "Gateway + 1 shard + 1 worker, 2 closed-loop HTTP clients: cold misses, "
        "cached hits, simultaneous duplicates; the only place service code blocks a result.",
    ),
)

ALL = tuple(w.name for w in WORKLOADS)
SIM = ("pair2_cold", "ncore16_cold")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by (0 = exact).
    bound: float
    workloads: Tuple[str, ...]
    meaning: str
    #: True when the driver's contract carries it (defined on every
    #: workload, never 0); the rest appear only in the ledger.
    contract: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "host s before the timed region (imports, first compile, cache "
        "population, daemon/gateway spawn until ping answers); median of "
        "three fresh-process set-ups",
        contract=True,
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25, ALL,
        "host s for one pass over the workload's fixed work list, each "
        "operation's time taken as the median over its repeats",
        contract=True,
    ),
    EndToEnd(
        "sim_kcycles_per_s", "kcycles/s", "higher", 0.25, ALL,
        "simulated kcycles delivered per host s: inside Machine.run "
        "(pair2_cold, ncore16_cold), of the miss phase (serve_mixed), of "
        "the cached results re-rendered per invocation (report_warm)",
        contract=True,
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10, ALL,
        "largest resident set of the workload process or any descendant",
        contract=True,
    ),
    EndToEnd(
        "failed_frac", "ratio", "lower", 0.0, ALL,
        "failed checks / attempted; a refused or failed job counts as failed",
    ),
    EndToEnd(
        "fig2_sp1_err", "ratio", "lower", 0.0, ("pair2_cold",),
        "simulated: |Occamy compute-core speedup over Private on the Fig. 2 "
        "pair - 1.62| / 1.62; traced runs only",
    ),
    EndToEnd(
        "miss_jobs_per_s", "1/s", "higher", 0.25, ("serve_mixed",),
        "unique cold jobs / host s of the miss phase",
    ),
    EndToEnd(
        "hit_latency_p50_ms", "ms", "lower", 0.25, ("serve_mixed",),
        "median send-to-reply over the hit submissions",
    ),
    EndToEnd(
        "hit_latency_p90_ms", "ms", "lower", 0.25, ("serve_mixed",),
        "90th percentile of the same submissions",
    ),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric @ workload this one should move.
    moves: str
    #: Exact metrics (counts, simulated ratios) must repeat bit-for-bit.
    exact: bool = False


def _count(name: str, moves: str, better: str = "lower") -> Layer:
    return Layer(name, "count", better, moves, exact=True)


_ENGINE = "sim_kcycles_per_s, wall_s @ pair2_cold, ncore16_cold"
_FIXED = "none under a speed-only change"
_HIT = "hit_latency_p50_ms @ serve_mixed"

PER_LAYER: Tuple[Layer, ...] = (
    # workloads + compiler
    Layer("compiler.build_jobs_s", "s", "lower", "wall_s @ report_warm; setup_s elsewhere"),
    _count("compiler.program_instrs", _FIXED),
    Layer("workloads.rebuild_jobs_s", "s", "lower", "sliver of wall_s @ pair2_cold"),
    # core
    Layer("core.construct_s", "s", "lower", "sliver of wall_s @ pair2_cold"),
    Layer("core.run_s", "s", "lower", _ENGINE + "; miss_jobs_per_s @ serve_mixed"),
    Layer("core.run_s.private", "s", "lower", _ENGINE),
    Layer("core.run_s.fts", "s", "lower", _ENGINE),
    Layer("core.run_s.vls", "s", "lower", _ENGINE),
    Layer("core.run_s.occamy", "s", "lower", _ENGINE),
    Layer("core.run_s.cts", "s", "lower", "wall_s @ ncore16_cold"),
    _count("core.sim_cycles", _FIXED),
    _count("core.interpreted_cycles", _ENGINE),
    _count("core.replayed_cycles", _ENGINE, "higher"),
    _count("core.fastforward_cycles", _ENGINE, "higher"),
    _count("core.templates_built", _ENGINE),
    _count("core.replay_aborts", _ENGINE),
    _count("core.component_busy_steps", "wall_s @ ncore16_cold"),
    _count("core.component_asleep_cycles", "wall_s @ ncore16_cold", "higher"),
    Layer("core.us_per_interpreted_cycle", "us", "lower", _ENGINE),
    # coproc
    _count("coproc.batched_dispatch_calls", _FIXED, "higher"),
    _count("coproc.scalar_dispatch_calls", _FIXED),
    Layer("coproc.batch_ratio", "ratio", "higher", "core.run_s.fts vs .occamy @ pair2_cold", exact=True),
    _count("coproc.batched_uops", _FIXED, "higher"),
    _count("coproc.compute_uops", _FIXED),
    _count("coproc.ldst_uops", _FIXED),
    _count("coproc.rename_stall_cycles", "explains core.run_s.fts @ pair2_cold"),
    _count("coproc.reconfig_success", "explains core.run_s.occamy @ pair2_cold", "higher"),
    _count("coproc.reconfig_failed", "explains core.run_s.occamy @ pair2_cold"),
    Layer("coproc.simd_util_occamy", "ratio", "higher", _FIXED, exact=True),
    Layer("coproc.us_per_uop", "us", "lower", _ENGINE),
    # memory
    _count("memory.vec_cache_hits", _FIXED, "higher"),
    _count("memory.vec_cache_misses", _FIXED),
    _count("memory.l2_hits", _FIXED, "higher"),
    _count("memory.l2_misses", _FIXED),
    _count("memory.dram_accesses", "host time per event @ ncore16_cold"),
    _count("memory.bytes_moved", "host time per event @ ncore16_cold"),
    # validation
    Layer("validation.fingerprint_s", "s", "lower", _HIT + "; sliver of wall_s @ pair2_cold"),
    _count("validation.oracle_mismatches", "failed_frac everywhere"),
    Layer("validation.fig2_sp1_err", "ratio", "lower", "fig2_sp1_err @ pair2_cold", exact=True),
    # analysis.result_cache
    Layer("result_cache.key_s", "s", "lower", "wall_s @ report_warm; " + _HIT),
    Layer("result_cache.put_s", "s", "lower", "wall_s @ pair2_cold"),
    Layer("result_cache.get_s", "s", "lower", "wall_s @ report_warm; " + _HIT),
    Layer("result_cache.entry_bytes", "B", "lower", "wall_s @ report_warm; peak_rss_mb", exact=True),
    _count("result_cache.hits", _FIXED, "higher"),
    _count("result_cache.misses", _FIXED),
    # analysis.parallel
    Layer("parallel.run_tasks_s", "s", "lower", "setup_s @ report_warm"),
    Layer("parallel.pickle_s", "s", "lower", "miss_jobs_per_s @ serve_mixed"),
    Layer("parallel.result_bytes", "B", "lower", "miss_jobs_per_s @ serve_mixed", exact=True),
    # analysis.ecm, alloc
    Layer("ecm.predict_s", "s", "lower", "setup_s @ ncore16_cold"),
    Layer("alloc.place_s", "s", "lower", "setup_s @ ncore16_cold"),
    # service.specs / service.protocol
    Layer("service.specs.build_s", "s", "lower", _HIT),
    Layer("service.protocol.summarize_s", "s", "lower", _HIT),
    # service.server (daemon)
    Layer("service.daemon.hit_p50_ms", "ms", "lower", "hit_latency_* @ serve_mixed"),
    Layer("service.daemon.hit_overhead_ms", "ms", "lower", "hit_latency_* @ serve_mixed"),
    Layer("service.daemon.miss_overhead_s", "s", "lower", "miss_jobs_per_s @ serve_mixed"),
    _count("service.daemon.executed", _FIXED),
    _count("service.daemon.submitted", _FIXED),
    # Which side folds a simultaneous duplicate depends on arrival order;
    # only gateway + daemon coalesced together repeat exactly.
    Layer("service.daemon.coalesced", "count", "higher", _FIXED),
    _count("service.daemon.cache_hits", _FIXED, "higher"),
    _count("service.daemon.retries", "failed_frac @ serve_mixed"),
    _count("service.daemon.rejected", "failed_frac @ serve_mixed"),
    # service.gateway
    Layer("service.gateway.hit_p50_ms", "ms", "lower", _HIT),
    Layer("service.gateway.hit_p90_ms", "ms", "lower", "hit_latency_p90_ms @ serve_mixed"),
    Layer("service.gateway.hit_p98_ms", "ms", "lower", "hit_latency_p90_ms @ serve_mixed"),
    Layer("service.gateway.hit_overhead_ms", "ms", "lower", _HIT),
    Layer("service.gateway.miss_jobs_per_s", "1/s", "higher", "miss_jobs_per_s @ serve_mixed"),
    _count("service.gateway.requests", _FIXED),
    Layer("service.gateway.coalesced", "count", "higher", _FIXED),
    _count("service.gateway.failovers", "failed_frac @ serve_mixed"),
    _count("service.gateway.rejected", "failed_frac @ serve_mixed"),
    # cli
    Layer("cli.import_s", "s", "lower", "wall_s @ report_warm"),
    Layer("cli.invoke_p50_s", "s", "lower", "wall_s @ report_warm"),
    # the harness itself
    Layer("bench.wall_s", "s", "lower", "the traced run's wall_s; vs the untraced one = trace overhead"),
    Layer("bench.unattributed_s", "s", "lower", "timed-region time under no layer's span"),
)

# How the layers interact (the driver's schema has no field for this):
# - nothing else contends in pair2_cold / ncore16_cold, so a faster layer
#   saves at most its share of core.run_s;
# - in serve_mixed's miss phase the single worker is the shared resource:
#   miss_jobs_per_s ~ 1 / (core.run_s per job + service.daemon.miss_overhead_s);
# - in the hit phase the daemon's event loop and the bench process's GIL
#   (gateway thread + 2 client threads) are shared, so p90 rises before p50.


def contract_end_to_end() -> List[EndToEnd]:
    return [metric for metric in END_TO_END if metric.contract]


def end_to_end_by_name() -> Dict[str, EndToEnd]:
    return {metric.name: metric for metric in END_TO_END}


def layer_by_name() -> Dict[str, Layer]:
    return {layer.name: layer for layer in PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """``BENCHMARK.json`` exactly as the driver's contract wants it."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in contract_end_to_end()
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


def fill_layers(measured: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, reading 0 for a layer the workload did not
    run (the driver wants the full list on every workload; the ledger
    keeps only what was measured, because absent is not zero)."""
    unknown = sorted(set(measured) - set(layer_by_name()))
    if unknown:
        raise KeyError(f"unregistered per-layer metrics: {unknown}")
    return {layer.name: float(measured.get(layer.name, 0.0)) for layer in PER_LAYER}
