"""The two in-process simulation workloads: ``pair2_cold`` and
``ncore16_cold``.

Both drive the same journey a sweep driver drives — build jobs, hash the
inputs, construct the machine, run it, fingerprint the result, store it —
one call at a time, with a span around each call.  They differ in what the
engine spends its time on: two busy cores under four policies versus
sixteen cores mostly asleep on DRAM.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from harness import digest_of, median, self_times, timed

#: Host seconds one pass over each work list takes on the reference box;
#: ``--seconds`` divided by it gives the number of passes.  Recorded, not
#: derived from the machine, so two commits always run the same work.
PAIR2_PASS_S = 7.3
NCORE16_PASS_S = 25.0

PAPER_FIG2_SP1 = 1.62


class SimItem(NamedTuple):
    label: str
    task: object  # repro.analysis.parallel.SimTask
    kernels: Callable[[], Sequence[object]]


class Sample(NamedTuple):
    label: str
    rep: int
    policy: str
    wall_s: float
    run_s: float
    cycles: int
    digests: Dict[str, str]
    key: Optional[str]
    counts: Dict[str, float]
    simd_util: float


def _pair_kernels(suite: str, ids: Sequence[int], scale: float):
    from repro.workloads.opencv import opencv_workload
    from repro.workloads.spec import spec_workload

    make = spec_workload if suite == "spec" else opencv_workload
    return lambda: [make(workload, scale=scale) for workload in ids]


def pair_item(suite: str, mem: int, comp: int, policy: str, scale: float) -> SimItem:
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config
    from repro.workloads.pairs import CoRunPair

    pair = CoRunPair(suite, mem, comp)
    task = SimTask(policy_key=policy, scale=scale, config=experiment_config(), pair=pair)
    return SimItem(f"{pair}/{policy}@{scale}", task, _pair_kernels(suite, (mem, comp), scale))


def motivate_item(policy: str, scale: float) -> SimItem:
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config
    from repro.workloads.motivating import motivating_pair

    task = SimTask(
        policy_key=policy, scale=scale, config=experiment_config(), kind="motivate"
    )
    return SimItem(f"fig2/{policy}@{scale}", task, lambda: list(motivating_pair(scale)))


def group_item(cores: int, policy: str, scale: float) -> SimItem:
    from repro.analysis.experiments import ncore_group
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config

    group = ncore_group(cores)
    task = SimTask(
        policy_key=policy,
        scale=scale,
        config=experiment_config(num_cores=cores),
        kind="group",
        group=group,
    )
    return SimItem(f"ncore{cores}/{policy}@{scale}", task, _pair_kernels("spec", group, scale))


def oracle_mismatches(kernels: Sequence[object], result) -> int:
    """Arrays of ``result`` that differ from the numpy oracle run over the
    same initial image (tolerance as in the repo's own correctness tests)."""
    import numpy as np

    from repro.compiler.pipeline import build_image
    from repro.compiler.reference import reference_execute

    bad = 0
    for core, kernel in enumerate(kernels):
        expected = reference_execute(kernel, build_image(kernel, core_id=core))
        image = result.images[core]
        for name, array in expected:
            if not np.allclose(
                image.array(name), array, rtol=1e-3, atol=0.0, equal_nan=True
            ):
                bad += 1
    return bad


def pickle_round_trip(result) -> int:
    """What a worker -> daemon hand-off does to a result; returns its size."""
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    return len(blob)


def run_counts(machine, result) -> Dict[str, float]:
    """The counters the program already returns, under the ledger's names."""
    from repro.coproc.metrics import StallReason

    profile = machine.profile
    metrics = result.metrics
    vec, l2 = result.cache_stats["vec_cache"], result.cache_stats["l2"]
    return {
        "core.sim_cycles": result.total_cycles,
        "core.interpreted_cycles": profile.interpreted_cycles,
        "core.replayed_cycles": profile.replayed_cycles,
        "core.fastforward_cycles": profile.fastforward_cycles,
        "core.templates_built": profile.templates_built,
        "core.replay_aborts": profile.replay_aborts,
        "core.component_busy_steps": sum(profile.component_busy),
        "core.component_asleep_cycles": sum(profile.component_asleep),
        "coproc.batched_dispatch_calls": profile.batched_dispatch_calls,
        "coproc.scalar_dispatch_calls": profile.scalar_dispatch_calls,
        "coproc.batched_uops": profile.batched_uops,
        "coproc.compute_uops": sum(metrics.compute_uops),
        "coproc.ldst_uops": sum(metrics.ldst_uops),
        "coproc.rename_stall_cycles": sum(
            per_core.get(StallReason.RENAME, 0) for per_core in metrics.stalls
        ),
        "coproc.reconfig_success": sum(metrics.reconfig_success),
        "coproc.reconfig_failed": sum(metrics.reconfig_failed),
        "memory.vec_cache_hits": vec.hits,
        "memory.vec_cache_misses": vec.misses,
        "memory.l2_hits": l2.hits,
        "memory.l2_misses": l2.misses,
        "memory.dram_accesses": sum(s.dram_accesses for s in result.lsu_stats),
        "memory.bytes_moved": sum(
            s.bytes_loaded + s.bytes_stored for s in result.lsu_stats
        ),
    }


class SimWorkload:
    """Shared journey, aggregation and checks; subclasses name the items."""

    name = ""
    cached = False

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.items: List[SimItem] = []
        self.reps = 1
        self.samples: List[Sample] = []
        self.first_results: Dict[str, object] = {}
        self.failures: List[str] = []
        self.region_wall_s = 0.0
        self.setup_layers: Dict[str, float] = {}
        self.extra_layers: Dict[str, float] = {}
        self.extra_exact: Dict[str, object] = {}
        self._caches: Dict[int, object] = {}

    # -- set-up ---------------------------------------------------------------

    def build_items(self) -> List[SimItem]:
        raise NotImplementedError

    def setup(self) -> None:
        import repro.analysis.result_cache  # noqa: F401  (part of the import cost)
        import repro.service.protocol  # noqa: F401

        self.items = self.build_items()
        begin = time.perf_counter()
        instrs = 0
        for item in self.items:
            for job in item.task.build_jobs():
                instrs += len(job.program)
        self.setup_layers["compiler.build_jobs_s"] = time.perf_counter() - begin
        self.setup_layers["compiler.program_instrs"] = instrs

    def sizes(self) -> Dict[str, object]:
        return {
            "items": [item.label for item in self.items],
            "passes": self.reps,
            "cache": "persistent, empty per pass" if self.cached else "off",
        }

    # -- timed region ---------------------------------------------------------

    def _cache_for(self, rep: int):
        if not self.cached:
            return None
        if rep not in self._caches:
            from repro.analysis.result_cache import ResultCache

            self._caches[rep] = ResultCache(self.ctx.workdir / "cache" / f"pass{rep}")
        return self._caches[rep]

    def _journey(self, item: SimItem, rep: int) -> None:
        from repro.analysis.result_cache import simulation_key
        from repro.common.errors import SimulationError
        from repro.core.machine import Machine
        from repro.core.policies import POLICIES_BY_KEY
        from repro.service.protocol import fingerprint_digests

        tracer = self.ctx.tracer
        task = item.task
        cache = self._cache_for(rep)
        key = None
        with tracer.span("sim", job=f"{item.label}#{rep}"):
            begin = time.perf_counter()
            with tracer.span("workloads.rebuild_jobs"):
                jobs = task.build_jobs()
            if cache is not None:
                # Hashed before the run: the run overwrites the images.
                with tracer.span("result_cache.key"):
                    key = simulation_key(
                        task.config, task.policy_key, jobs, task.max_cycles
                    )
            with tracer.span("core.construct"):
                machine = Machine(task.config, POLICIES_BY_KEY[task.policy_key], jobs)
            run_begin = time.perf_counter()
            try:
                with tracer.span("core.run"):
                    result = machine.run(max_cycles=task.max_cycles)
            except SimulationError as exc:  # max_cycles hit, deadlock
                self.failures.append(f"{item.label}#{rep}: {exc}")
                return
            run_s = time.perf_counter() - run_begin
            with tracer.span("validation.fingerprint"):
                digests = fingerprint_digests(result)
            if cache is not None:
                with tracer.span("result_cache.put"):
                    if not cache.put(key, result):
                        self.failures.append(f"{item.label}#{rep}: cache.put failed")
            wall_s = time.perf_counter() - begin
        self.samples.append(
            Sample(
                label=item.label,
                rep=rep,
                policy=task.policy_key,
                wall_s=wall_s,
                run_s=run_s,
                cycles=result.total_cycles,
                digests=digests,
                key=key,
                counts=run_counts(machine, result),
                simd_util=result.metrics.simd_utilization(),
            )
        )
        self.first_results.setdefault(item.label, result)

    def run(self) -> None:
        begin = time.perf_counter()
        for rep in range(self.reps):
            order = list(self.items)
            self.ctx.rng.shuffle(order)
            for item in order:
                self._journey(item, rep)
        self.region_wall_s = time.perf_counter() - begin

    # -- aggregation ----------------------------------------------------------

    def _by_label(self) -> Dict[str, List[Sample]]:
        grouped: Dict[str, List[Sample]] = {}
        for sample in self.samples:
            grouped.setdefault(sample.label, []).append(sample)
        return grouped

    def _first(self) -> List[Sample]:
        return [samples[0] for _, samples in sorted(self._by_label().items())]

    def end_to_end(self) -> Dict[str, float]:
        grouped = self._by_label()
        wall = sum(median([s.wall_s for s in samples]) for samples in grouped.values())
        run = sum(median([s.run_s for s in samples]) for samples in grouped.values())
        cycles = sum(samples[0].cycles for samples in grouped.values())
        return {"wall_s": wall, "sim_kcycles_per_s": cycles / run / 1e3}

    def exact(self) -> Dict[str, object]:
        first = self._first()
        out: Dict[str, object] = {
            "sim_digest": digest_of(
                f"{s.label} {section} {value}"
                for s in first
                for section, value in sorted(s.digests.items())
            ),
            "item_digests": {
                s.label: digest_of(f"{k} {v}" for k, v in sorted(s.digests.items()))
                for s in first
            },
        }
        out.update(self.extra_exact)
        return out

    def layers(self) -> Dict[str, float]:
        """Per-layer numbers of a traced run: span self times (per item the
        median over passes, summed over items) and the program's counters."""
        spans = self.ctx.tracer.spans
        own = self_times(spans)
        per_job: Dict[str, Dict[str, float]] = {}
        for span in spans:
            slot = per_job.setdefault(span["job"], {})
            slot[span["name"]] = slot.get(span["name"], 0.0) + own[span["id"]]

        grouped = self._by_label()

        def layer_s(name: str, policy: Optional[str] = None) -> float:
            total = 0.0
            for samples in grouped.values():
                if policy is not None and samples[0].policy != policy:
                    continue
                total += median(
                    [per_job[f"{s.label}#{s.rep}"].get(name, 0.0) for s in samples]
                )
            return total

        first = self._first()
        out = dict(self.setup_layers)
        out.update(self.extra_layers)
        for name in first[0].counts:
            out[name] = sum(sample.counts[name] for sample in first)
        out["workloads.rebuild_jobs_s"] = layer_s("workloads.rebuild_jobs")
        out["core.construct_s"] = layer_s("core.construct")
        out["core.run_s"] = layer_s("core.run")
        for policy in sorted({s.policy for s in first}):
            out[f"core.run_s.{policy}"] = layer_s("core.run", policy)
        out["validation.fingerprint_s"] = layer_s("validation.fingerprint")
        if self.cached:
            out["result_cache.key_s"] = layer_s("result_cache.key")
            out["result_cache.put_s"] = layer_s("result_cache.put")
        out["core.us_per_interpreted_cycle"] = (
            1e6 * out["core.run_s"] / max(1, out["core.interpreted_cycles"])
        )
        uops = out["coproc.compute_uops"] + out["coproc.ldst_uops"]
        out["coproc.us_per_uop"] = 1e6 * out["core.run_s"] / max(1, uops)
        calls = out["coproc.batched_dispatch_calls"] + out["coproc.scalar_dispatch_calls"]
        out["coproc.batch_ratio"] = out["coproc.batched_dispatch_calls"] / max(1, calls)
        occamy = [s.simd_util for s in first if s.policy == "occamy"]
        if occamy:
            out["coproc.simd_util_occamy"] = sum(occamy) / len(occamy)
        out["bench.wall_s"] = self.end_to_end()["wall_s"]
        out["bench.unattributed_s"] = layer_s("sim")
        return out

    # -- checks ---------------------------------------------------------------

    def check(self, checks) -> None:
        from repro.service.protocol import fingerprint_digests

        checks.expect(
            len(self.samples) == len(self.items) * self.reps and not self.failures,
            f"every simulation finishes below max_cycles: {self.failures}",
        )
        mismatches = 0
        items = {item.label: item for item in self.items}
        for label, result in self.first_results.items():
            bad = oracle_mismatches(items[label].kernels(), result)
            mismatches += bad
            checks.expect(bad == 0, f"{label}: {bad} arrays differ from the numpy oracle")
        for label, samples in self._by_label().items():
            checks.expect(
                all(
                    s.digests == samples[0].digests and s.counts == samples[0].counts
                    for s in samples
                ),
                f"{label}: passes are not bit-identical",
            )
        get_s, sizes = 0.0, []
        for sample in self.samples:
            if sample.key is None:
                continue
            cache = self._cache_for(sample.rep)
            elapsed, loaded = timed(cache.get, sample.key)
            get_s += elapsed
            checks.expect(
                loaded is not None and fingerprint_digests(loaded) == sample.digests,
                f"{sample.label}#{sample.rep}: cache.get differs from what was put",
            )
            sizes.append(cache.path_for(sample.key).stat().st_size)
        self.extra_layers["validation.oracle_mismatches"] = mismatches
        if sizes:
            self.extra_layers["result_cache.get_s"] = get_s / self.reps
            self.extra_layers["result_cache.entry_bytes"] = sum(sizes) / len(sizes)
            stats = [cache.stats() for cache in self._caches.values()]
            self.extra_layers["result_cache.hits"] = sum(s.hits for s in stats)
            self.extra_layers["result_cache.misses"] = sum(s.misses for s in stats)

    # -- attribution-only legs (traced runs, after the timed region) ---------

    def attribute(self) -> None:
        from repro.service.protocol import summarize_result

        pickle_s = summarize_s = 0.0
        sizes = []
        for _, result in sorted(self.first_results.items()):
            elapsed, size = timed(pickle_round_trip, result)
            pickle_s += elapsed
            sizes.append(size)
            summarize_s += timed(summarize_result, result)[0]
        self.extra_layers["parallel.pickle_s"] = pickle_s
        self.extra_layers["parallel.result_bytes"] = sum(sizes) / len(sizes)
        self.extra_layers["service.protocol.summarize_s"] = summarize_s

    def teardown(self) -> None:
        pass


class Pair2Cold(SimWorkload):
    name = "pair2_cold"
    cached = True

    def build_items(self) -> List[SimItem]:
        ctx = self.ctx
        scale = 0.05
        if ctx.smoke:
            self.reps = 2
            return [
                pair_item("spec", 9, 13, "occamy", scale),
                pair_item("spec", 9, 13, "fts", scale),
            ]
        self.reps = max(1, round(ctx.seconds / PAIR2_PASS_S))
        return [
            pair_item("spec", 8, 17, "occamy", scale),  # Case 4 / Table 5
            pair_item("spec", 20, 17, "fts", scale),  # Fig. 14 pair
            pair_item("spec", 9, 13, "vls", scale),  # Case 2 <comp,comp>
            pair_item("spec", 12, 19, "private", scale),  # Case 3 <mem,mem>
            pair_item("opencv", 6, 1, "occamy", scale),
            motivate_item("occamy", scale),  # the Fig. 2 pair
        ]

    def sizes(self) -> Dict[str, object]:
        out = super().sizes()
        out["random_pair"] = f"generator.random_pair({self.ctx.seed}) occamy@0.05, untimed"
        out["fig2_scale"] = self._fig2_scale()
        return out

    def _fig2_scale(self) -> float:
        return 0.05 if self.ctx.smoke else 0.5

    def check(self, checks) -> None:
        """Adds a pair nobody hand-picked: ``random_pair(seed)`` under
        Occamy must match the oracle too.  It is not timed — its length
        varies 3x with the seed, which would drown the engine's own
        run-to-run differences in ``wall_s``."""
        super().check(checks)
        from repro.common.config import experiment_config
        from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
        from repro.core.machine import Job, run_policy
        from repro.core.policies import POLICIES_BY_KEY
        from repro.service.protocol import fingerprint_digests
        from repro.workloads.generator import random_pair

        config = experiment_config()
        kernels = random_pair(self.ctx.seed, scale=0.05)
        options = CompileOptions(memory=config.memory)
        jobs = [
            Job(compile_kernel(kernel, options), build_image(kernel, core_id=core))
            for core, kernel in enumerate(kernels)
        ]
        result = run_policy(config, POLICIES_BY_KEY["occamy"], jobs)
        bad = oracle_mismatches(kernels, result)
        checks.expect(bad == 0, f"random_pair({self.ctx.seed}): {bad} arrays differ")
        self.extra_layers["validation.oracle_mismatches"] += bad
        self.extra_exact["random_pair_digest"] = digest_of(
            f"{k} {v}" for k, v in sorted(fingerprint_digests(result).items())
        )

    def attribute(self) -> None:
        """Adds the one error-vs-paper figure the ledger states: Occamy's
        compute-core speedup over Private on the Fig. 2 pair."""
        super().attribute()
        from repro.analysis.parallel import execute_task

        scale = self._fig2_scale()
        private = execute_task(motivate_item("private", scale).task)
        occamy = execute_task(motivate_item("occamy", scale).task)
        sp1 = occamy.speedup_over(private, 1)
        self.extra_exact["fig2_sp1"] = sp1
        self.extra_layers["validation.fig2_sp1_err"] = (
            abs(sp1 - PAPER_FIG2_SP1) / PAPER_FIG2_SP1
        )

    def end_to_end(self) -> Dict[str, float]:
        out = super().end_to_end()
        if "validation.fig2_sp1_err" in self.extra_layers:
            out["fig2_sp1_err"] = self.extra_layers["validation.fig2_sp1_err"]
        return out


class NCore16Cold(SimWorkload):
    name = "ncore16_cold"
    cached = False

    def _cores(self) -> int:
        return 4 if self.ctx.smoke else 16

    def build_items(self) -> List[SimItem]:
        scale = 0.05
        self.reps = 1 if self.ctx.smoke else max(1, round(self.ctx.seconds / NCORE16_PASS_S))
        # occamy: asleep >> busy, the wheel/lane/partition regime.
        # cts: ~97 % fast-forwarded, the all-asleep clock-jump regime.
        return [group_item(self._cores(), policy, scale) for policy in ("occamy", "cts")]

    def setup(self) -> None:
        super().setup()
        from repro.alloc import ALLOC_POLICIES_BY_KEY, AllocContext
        from repro.analysis.ecm import predict_workload
        from repro.analysis.experiments import alloc_threads
        from repro.common.config import experiment_config

        threads = alloc_threads(self._cores(), scale=0.05)
        context = AllocContext(config=experiment_config(num_cores=2), sharing_key="occamy")
        self.setup_layers["alloc.place_s"], placement = timed(
            ALLOC_POLICIES_BY_KEY["symbiosis"], threads, context
        )
        self.setup_layers["ecm.predict_s"], predicted = timed(
            lambda: [predict_workload(t.kernel, "occamy").cycles for t in threads]
        )
        self.extra_exact["alloc_placement"] = repr(placement)
        self.extra_exact["ecm_cycles"] = repr(predicted)
