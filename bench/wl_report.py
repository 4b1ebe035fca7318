"""``report_warm``: the re-render journey users actually repeat.

Set-up populates an empty cache with one cold ``repro report``; the timed
region runs the same command again and again, each in a fresh process,
against the warm cache.  No simulation runs there, so an engine change
must not move this workload; import, compile, key hashing and cache reads
are all there is.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from harness import digest_of, median, timed

#: The smallest report the CLI renders (4 Fig. 2 runs + 1 pair x 4
#: policies = 8 cache entries); the cold run is paid three times per
#: benchmark run (``setup_s`` is a median of three set-ups).
SCALE = 0.05
PAIRS = 1
JOBS = 2


class ReportWarm:
    name = "report_warm"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.invocations = 2 if ctx.smoke else max(2, round(ctx.seconds))
        self.cache_dir = ctx.workdir / "cache"
        self.cold_path = ctx.workdir / "cold.md"
        self.times: List[float] = []
        self.failures: List[str] = []
        self.region_wall_s = 0.0
        self.entries_before = 0
        self.cycles_rendered = 0
        self.setup_layers: Dict[str, float] = {}
        self.extra_layers: Dict[str, float] = {}
        self._digest = ""

    def sizes(self) -> Dict[str, object]:
        return {
            "command": f"repro report --scale {SCALE} --pairs {PAIRS} --jobs {JOBS}",
            "warm_invocations": self.invocations,
            "cache_entries": self.entries_before,
        }

    def _invoke(self, out: Path) -> bool:
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "report", str(out),
                "--scale", str(SCALE), "--pairs", str(PAIRS), "--jobs", str(JOBS),
            ],
            stdout=subprocess.DEVNULL,
        )
        return done.returncode == 0

    def _entries(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

    def setup(self) -> None:
        self.setup_layers["parallel.run_tasks_s"], ok = timed(self._invoke, self.cold_path)
        if not ok:
            raise RuntimeError("cold `repro report` failed")
        self.entries_before = self._entries()

    def run(self) -> None:
        tracer = self.ctx.tracer
        region = time.perf_counter()
        for index in range(self.invocations):
            with tracer.span("cli.invoke", job=f"warm#{index}"):
                elapsed, ok = timed(self._invoke, self.ctx.workdir / f"warm{index}.md")
                self.times.append(elapsed)
                if not ok:
                    self.failures.append(f"warm invocation {index} exited non-zero")
        self.region_wall_s = time.perf_counter() - region

    def check(self, checks) -> None:
        from repro.analysis.result_cache import ResultCache
        from repro.service.protocol import fingerprint_digests

        checks.expect(not self.failures, f"every invocation exits 0: {self.failures}")
        checks.expect(
            self._entries() == self.entries_before,
            f"no simulation ran warm: {self.entries_before} entries before, "
            f"{self._entries()} after",
        )
        cold = self.cold_path.read_bytes()
        for index in range(self.invocations):
            path = self.ctx.workdir / f"warm{index}.md"
            checks.expect(
                path.is_file() and path.read_bytes() == cold,
                f"warm report {index} differs from the simulated one",
            )
        cache = ResultCache(self.cache_dir)
        parts = []
        for entry in sorted(cache.entries(), key=lambda e: e.key):
            result = cache.get(entry.key)
            checks.expect(result is not None, f"cache entry {entry.key[:12]} unreadable")
            if result is None:
                continue
            self.cycles_rendered += result.total_cycles
            parts.extend(
                f"{entry.key} {section} {value}"
                for section, value in sorted(fingerprint_digests(result).items())
            )
        self._digest = digest_of(parts)

    def end_to_end(self) -> Dict[str, float]:
        p50 = median(self.times)
        return {
            "wall_s": p50 * self.invocations,
            "sim_kcycles_per_s": self.cycles_rendered / p50 / 1e3,
        }

    def exact(self) -> Dict[str, object]:
        return {"sim_digest": self._digest, "cache_entries": self.entries_before}

    def attribute(self) -> None:
        """What one warm invocation is made of, replayed in this process:
        the import, the compiles, the key hashing and the cache reads of
        the same eight simulations the report folds."""
        from repro.analysis.parallel import SimTask
        from repro.analysis.result_cache import ResultCache, simulation_key
        from repro.common.config import experiment_config
        from repro.core.policies import ALL_POLICIES
        from repro.workloads.pairs import all_pairs

        imports = []
        for _ in range(3):
            imports.append(
                timed(subprocess.run, [sys.executable, "-c", "import repro.cli"], check=True)[0]
            )
        self.extra_layers["cli.import_s"] = median(imports)

        config = experiment_config()
        tasks = [
            SimTask(policy_key=p.key, scale=SCALE, config=config, kind="motivate")
            for p in ALL_POLICIES
        ] + [
            SimTask(policy_key=p.key, scale=SCALE, config=config, pair=pair)
            for pair in all_pairs()[:PAIRS]
            for p in ALL_POLICIES
        ]
        cache = ResultCache(self.cache_dir)
        build_s = key_s = get_s = 0.0
        instrs, sizes = 0, []
        for task in tasks:
            elapsed, jobs = timed(task.build_jobs)
            build_s += elapsed
            instrs += sum(len(job.program) for job in jobs)
            elapsed, key = timed(
                simulation_key, task.config, task.policy_key, jobs, task.max_cycles
            )
            key_s += elapsed
            elapsed, hit = timed(cache.get, key)
            get_s += elapsed
            if hit is not None:
                sizes.append(cache.path_for(key).stat().st_size)
        self.extra_layers.update(
            {
                "compiler.build_jobs_s": build_s,
                "compiler.program_instrs": instrs,
                "result_cache.key_s": key_s,
                "result_cache.get_s": get_s,
                "result_cache.hits": cache.hits,
                "result_cache.misses": cache.misses,
            }
        )
        if sizes:
            self.extra_layers["result_cache.entry_bytes"] = sum(sizes) / len(sizes)

    def layers(self) -> Dict[str, float]:
        out = dict(self.setup_layers)
        out.update(self.extra_layers)
        out["cli.invoke_p50_s"] = median(self.times)
        out["bench.wall_s"] = self.end_to_end()["wall_s"]
        out["bench.unattributed_s"] = self.region_wall_s - sum(self.times)
        return out

    def teardown(self) -> None:
        pass
