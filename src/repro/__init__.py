"""repro — a full Python reproduction of *Occamy: Elastically Sharing a
SIMD Co-processor across Multiple CPU Cores* (ASPLOS 2023).

Quickstart::

    from repro import (
        Kernel, Loop, Assign, BinOp, Load, Param, compile_kernel,
        build_image, Job, run_policy, OCCAMY, table4_config,
    )

    kernel = Kernel(
        name="axpy",
        array_length=4096,
        loops=(
            Loop(
                "axpy",
                trip_count=4096,
                body=(
                    Assign(
                        "y",
                        BinOp("add", BinOp("mul", Param("a"), Load("x")), Load("y")),
                    ),
                ),
            ),
        ),
        params={"a": 2.0},
    )
    program = compile_kernel(kernel)
    result = run_policy(
        table4_config(), OCCAMY,
        [Job(program, build_image(kernel, core_id=0)), None],
    )
    print(result.total_cycles, result.metrics.simd_utilization())
"""

from importlib import import_module
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.common.config import (
        CacheConfig,
        CoreConfig,
        MachineConfig,
        MemoryConfig,
        VectorConfig,
        experiment_config,
        table4_config,
    )
    from repro.common.errors import (
        AssemblyError,
        CompilationError,
        ConfigurationError,
        ReproError,
        SimulationError,
        VectorizationError,
    )
    from repro.compiler.ir import (
        Assign,
        BinOp,
        Call,
        Const,
        Kernel,
        Load,
        Loop,
        Param,
        Reduce,
    )
    from repro.compiler.phase_analysis import PhaseInfo, analyze_kernel, analyze_loop
    from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
    from repro.compiler.reference import reference_execute
    from repro.coproc.metrics import Metrics, StallReason
    from repro.core.machine import Machine, run_policy
    from repro.core.partition import greedy_partition, static_partition
    from repro.core.policies import (
        ALL_POLICIES,
        FTS,
        OCCAMY,
        PRIVATE,
        VLS,
        Policy,
        policy,
    )
    from repro.core.result import Job, RunResult
    from repro.core.roofline import RooflineModel
    from repro.isa.program import Program
    from repro.isa.registers import OIValue
    from repro.memory.image import MemoryImage

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Exports load on use
#: (PEP 562): ``from repro import X`` imports the module defining ``X`` the
#: first time it is asked for and nothing else, so importing ``repro``
#: (which importing any submodule does) loads none of the engine.  The
#: ``TYPE_CHECKING`` imports above show tools the same names.
_HOME = {
    name: module
    for module, names in {
        "repro.common.config": (
            "CacheConfig", "CoreConfig", "MachineConfig", "MemoryConfig",
            "VectorConfig", "experiment_config", "table4_config"
        ),
        "repro.common.errors": (
            "AssemblyError", "CompilationError", "ConfigurationError", "ReproError",
            "SimulationError", "VectorizationError"
        ),
        "repro.compiler.ir": (
            "Assign", "BinOp", "Call", "Const", "Kernel", "Load", "Loop", "Param",
            "Reduce"
        ),
        "repro.compiler.phase_analysis": (
            "PhaseInfo", "analyze_kernel", "analyze_loop"
        ),
        "repro.compiler.pipeline": ("CompileOptions", "build_image", "compile_kernel"),
        "repro.compiler.reference": ("reference_execute",),
        "repro.coproc.metrics": ("Metrics", "StallReason"),
        "repro.core.machine": ("Machine", "run_policy"),
        "repro.core.partition": ("greedy_partition", "static_partition"),
        "repro.core.policies": (
            "ALL_POLICIES", "FTS", "OCCAMY", "PRIVATE", "Policy", "VLS", "policy"
        ),
        "repro.core.result": ("Job", "RunResult"),
        "repro.core.roofline": ("RooflineModel",),
        "repro.isa.program": ("Program",),
        "repro.isa.registers": ("OIValue",),
        "repro.memory.image": ("MemoryImage",),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_HOME[name]), name)
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_HOME))
