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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

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
    from repro.compiler import (
        Assign,
        BinOp,
        Call,
        CompileOptions,
        Const,
        Kernel,
        Load,
        Loop,
        Param,
        PhaseInfo,
        Reduce,
        analyze_kernel,
        analyze_loop,
        build_image,
        compile_kernel,
        reference_execute,
    )
    from repro.core import (
        ALL_POLICIES,
        FTS,
        OCCAMY,
        PRIVATE,
        VLS,
        Job,
        Machine,
        Metrics,
        Policy,
        RooflineModel,
        RunResult,
        StallReason,
        greedy_partition,
        policy,
        run_policy,
        static_partition,
    )
    from repro.isa import OIValue, Program
    from repro.memory import MemoryImage

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
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
    },
)
