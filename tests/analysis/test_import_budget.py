"""What a command may import — asserted on module *names*, never on times.

The import graph follows the data flow ``leaf types -> compile path ->
engine -> analysis -> cli/service`` (DESIGN.md, "Import layering"): a
process loads the engine only when it is about to simulate.  Every check
runs in a fresh interpreter, because this process has long since imported
everything.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import repro
from tests.conftest import run_fresh_python

#: What a process that simulates nothing has no use for.
ENGINE = (
    "repro.core.machine",
    "repro.core.scalar_core",
    "repro.coproc.coprocessor",
    "repro.coproc.dynamic",
    "repro.coproc.batch_exec",
)
#: The differential oracle: only ``diff-fuzz`` (and tests) have a use for it.
ORACLE = "repro.validation.reference_engine"
UNUSED_BY_A_HIT = ENGINE + (
    "numpy",
    "repro.analysis.ecm",
    "repro.analysis.validation",
    "repro.analysis.sensitivity",
    "repro.service",
    "multiprocessing",
    ORACLE,
)

#: Everything of ours a warm ``repro report`` loads: what it reads results
#: with, the compile path that hashes the keys, and the tables it prints.
#: Not the LSU or the memory hierarchy: a result's counters are leaf types.
WARM_REPORT_MODULES = """
repro repro.cli repro.commands repro.commands.report
repro.analysis repro.analysis.area
repro.analysis.experiments repro.analysis.fidelity repro.analysis.parallel
repro.analysis.report repro.analysis.reporting repro.analysis.result_cache
repro.common repro.common.config repro.common.errors repro.common.timeline
repro.compiler repro.compiler.dag repro.compiler.emsimd repro.compiler.ir
repro.compiler.phase_analysis repro.compiler.pipeline repro.compiler.vectorizer
repro.coproc repro.coproc.metrics repro.coproc.resource_table repro.coproc.sharing
repro.core repro.core.lane_manager repro.core.partition repro.core.policies
repro.core.result repro.core.roofline
repro.isa repro.isa.instructions repro.isa.operands repro.isa.program
repro.isa.registers
repro.memory repro.memory.image
repro.validation repro.validation.fingerprint
repro.workloads repro.workloads.motivating repro.workloads.opencv
repro.workloads.pairs repro.workloads.spec repro.workloads.synth
""".split()

#: ``argv[1]`` is a JSON spec: run ``main(command)`` if there is one (after
#: ``import repro.cli`` either way), then check ``sys.modules`` — a name
#: stands for the module and everything below it — how often workloads
#: were compiled when the spec counts ``builds``, what was printed (kept in
#: the file ``output`` names, if any) and, when the spec lists them
#: ``exactly``, that the ``repro`` modules loaded are those and no other.
CHILD = """
import contextlib, io, json, re, sys
spec = json.loads(sys.argv[1])
import repro.cli
builds = []
if "builds" in spec:
    from repro.analysis.parallel import SimTask
    build_jobs = SimTask.build_jobs
    SimTask.build_jobs = lambda task: builds.append(task) or build_jobs(task)
printed = io.StringIO()
if "command" in spec:
    with contextlib.redirect_stdout(printed):
        assert repro.cli.main(spec["command"]) == 0
for pattern in spec.get("prints", ()):
    assert re.search(pattern, printed.getvalue()), printed.getvalue()
if "output" in spec:
    open(spec["output"], "w").write(printed.getvalue())

def loaded(name):
    return [m for m in sys.modules if m == name or m.startswith(name + ".")]

extra = sorted(m for name in spec.get("forbidden", ()) for m in loaded(name))
assert not extra, f"{spec.get('command', 'import repro.cli')} imported {extra}"
missing = [name for name in spec.get("required", ()) if not loaded(name)]
assert not missing, f"{spec['command']} never imported {missing}"
assert len(builds) == spec.get("builds", 0), f"{len(builds)} build_jobs() calls"
if "exactly" in spec:
    ours = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
    assert ours == sorted(spec["exactly"]), set(ours) ^ set(spec["exactly"])
"""


def _child(**spec) -> None:
    run_fresh_python(CHILD, json.dumps(spec))


def test_importing_the_cli_loads_no_numpy_and_no_simulator():
    _child(
        forbidden=[
            "numpy",
            "multiprocessing",
            "repro.core",
            "repro.coproc",
            "repro.compiler",
            "repro.service",
        ]
    )


def test_warm_report_imports_what_it_reads(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold, warm = tmp_path / "cold.md", tmp_path / "warm.md"
    options = ["--scale", "0.05", "--pairs", "1", "--jobs", "2"]

    # Cold: eight misses on a pool.  The parent loaded the engine before it
    # forked (the workers inherit it) and compiled only the two workload
    # sets the keys are hashed from; each miss compiles afresh in its worker.
    _child(command=["report", str(cold), *options], required=ENGINE[:1], builds=2)
    entries = sorted(path.name for path in (tmp_path / "cache").glob("*.pkl"))
    assert len(entries) == 8

    # Warm: eight hits.  One compile per workload set (the motivating pair
    # and the Table 3 pair, four policies each), no engine, no extras, no
    # pool — and the report the simulations gave.  Its paper columns come
    # from ``analysis.fidelity``: the one module the table costs a hit.
    _child(
        command=["report", str(warm), *options],
        forbidden=UNUSED_BY_A_HIT,
        builds=2,
        exactly=WARM_REPORT_MODULES,
    )
    assert warm.read_bytes() == cold.read_bytes()

    # --jobs 1 is the same task list through the same run_tasks: the same
    # two compiles (not one per policy), the same imports, the same bytes.
    serial = tmp_path / "serial.md"
    _child(
        command=["report", str(serial), *options[:-1], "1"],
        forbidden=UNUSED_BY_A_HIT,
        builds=2,
    )
    assert serial.read_bytes() == cold.read_bytes()

    # --profile on an all-hit run still loads no engine, and says what the
    # engine said when the runs were made: the attribution stored with each
    # entry, the same block a cold, serial, uncached run prints.
    cold_out, warm_out = tmp_path / "cold.txt", tmp_path / "warm.txt"
    _child(
        command=["report", str(serial), *options[:-1], "1", "--no-cache", "--profile"],
        required=ENGINE[:1],
        prints=[r"total cycles +[1-9]\d*\n", r"results used +8\n"],
        output=str(cold_out),
    )
    _child(
        command=["report", str(warm), *options, "--profile"],
        forbidden=ENGINE[:2],
        output=str(warm_out),
    )
    marker = "simulated-cycle attribution:"
    assert marker in cold_out.read_text()
    assert (
        warm_out.read_text().partition(marker)[2]
        == cold_out.read_text().partition(marker)[2]
    )
    assert warm.read_bytes() == cold.read_bytes()
    assert sorted(path.name for path in (tmp_path / "cache").glob("*.pkl")) == entries


def test_warm_perf_report_loads_no_engine(tmp_path, monkeypatch):
    """The ECM validation sweep is a task list like any other: the second
    ``perf-report`` reads its measurements back and simulates nothing."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    command = [
        "perf-report", "--scale", "0.05", "--workloads", "17,20",
    ]
    cold_out, warm_out = tmp_path / "cold.md", tmp_path / "warm.md"
    _child(command=command, required=ENGINE[:1], output=str(cold_out))
    entries = sorted(path.name for path in (tmp_path / "cache").glob("*.pkl"))
    assert len(entries) == 6  # two workloads under occamy / fts / cts
    _child(command=command, forbidden=["numpy", *ENGINE], output=str(warm_out))
    assert warm_out.read_bytes() == cold_out.read_bytes()
    assert sorted(path.name for path in (tmp_path / "cache").glob("*.pkl")) == entries


def test_only_the_sweep_engine_imports_the_simulator():
    """Above ``core/`` the engine is entered from ``analysis/parallel.py``
    and nowhere else (DESIGN.md, "Import layering") — checked on the
    source, so a function-level import counts too.  Two other files name
    the module without calling into it: ``service/workers.py`` preloads it
    ahead of the daemon's forks (as ``run_tasks`` does ahead of its pool's),
    and ``service/protocol.py`` holds the one line owed to the frozen bench
    (ROADMAP item 1(e))."""
    preloads_only = {"service/workers.py", "service/protocol.py"}
    root = Path(repro.__file__).resolve().parent
    offenders = []
    for package in ("analysis", "alloc", "commands", "service"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                engine = [
                    name for name in names
                    if name.startswith("repro.core.machine")
                    or name in ("repro.Machine", "repro.run_policy")
                ]
                where = str(path.relative_to(root))
                preload = isinstance(node, ast.Import) and where in preloads_only
                if engine and not preload and where != "analysis/parallel.py":
                    offenders.append((where, node.lineno, engine))
    assert not offenders, offenders


def test_non_simulating_commands_stay_light(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for command in (["cache", "stats"], ["area"]):
        _child(command=command, forbidden=UNUSED_BY_A_HIT)


def test_worker_pool_loads_the_engine_before_it_forks():
    """Daemon workers inherit the engine; none imports it for itself."""
    run_fresh_python(
        """
import sys
from repro.service.workers import WorkerPool
assert "repro.core.machine" not in sys.modules
pool = WorkerPool(workers=1)
pool.start()
try:
    assert "repro.core.machine" in sys.modules
finally:
    pool.stop()
"""
    )


def test_only_diff_fuzz_loads_the_oracle():
    """The dependency points one way, ``validation -> engine``: importing
    the engine does not pull the oracle in, a simulation runs without it,
    and the command that diffs the two engines is the one that loads it."""
    run_fresh_python(
        f"""
import sys
import repro.core.machine
assert {ORACLE!r} not in sys.modules
"""
    )
    _child(
        command=["motivate", "--scale", "0.05", "--jobs", "1", "--no-cache"],
        required=ENGINE,
        forbidden=[ORACLE],
    )
    _child(command=["diff-fuzz", "--start", "2", "--seeds", "1"], required=[ORACLE])


def test_daemon_admits_a_miss_and_a_hit_without_the_analysis_stack(tmp_path, monkeypatch):
    """Admission, the queue and the hit path need no cycle model: a daemon
    that ran a never-seen spec, served it again from the cache and shut
    down has not loaded ECM and has left cache entries, nothing else."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    tests_root = str(Path(__file__).resolve().parents[2])
    run_fresh_python(
        """
import pickle, sys, threading
sys.path.insert(0, sys.argv[1])
from repro.analysis import result_cache
from repro.service.client import ServiceClient, wait_for_server
from repro.service.server import ServerOptions, SimulationServer
from repro.service.specs import spec_for_pair
from tests.service import runners

server = SimulationServer(ServerOptions(
    address=sys.argv[2], workers=1, runner=runners.fast_runner))
thread = threading.Thread(target=server.run, daemon=True)
thread.start()
wait_for_server(server.address, deadline_s=15.0)
try:
    spec = spec_for_pair("spec", 20, 17, policy="occamy", scale=0.05)
    with ServiceClient(server.address, timeout=60.0) as client:
        miss = client.submit(spec, timeout=60)
        # fast_runner caches nothing; leave what a real worker's put leaves
        # (get_summary reads the header and no further).
        cache = result_cache.default_cache()
        cache.directory.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(miss["result"]) + pickle.dumps(None)
        prefix = result_cache._PREFIX
        cache.path_for(miss["result"]["key"]).write_bytes(
            prefix.pack(result_cache.CACHE_VERSION, prefix.size + len(body)) + body)
        hit = client.submit(spec, timeout=60)
    assert not miss["cached"] and hit["cached"], (miss, hit)
    counters = server.counters
    assert (counters["executed"], counters["cache_hits"]) == (1, 1), counters
finally:
    server.stop_threadsafe()
    thread.join(timeout=15.0)
    server.pool.stop()
assert "repro.analysis.ecm" not in sys.modules
left = sorted(path.name for path in cache.directory.iterdir())
assert left == [miss["result"]["key"] + ".pkl"], left  # the one format it writes
""",
        tests_root,
        str(tmp_path / "svc.sock"),
    )


def test_the_cycle_model_loads_nothing_of_the_service():
    """``analysis`` sits below ``service`` (DESIGN.md, "Import layering")."""
    run_fresh_python(
        """
import sys
from repro.analysis.ecm import EcmModel
from repro.workloads.spec import spec_workload
assert EcmModel().predict_kernel(spec_workload(17, scale=0.05), "occamy").cycles > 0
loaded = sorted(name for name in sys.modules if name.startswith("repro.service"))
assert not loaded, f"repro.analysis.ecm imported {loaded}"
"""
    )
