"""Shared infrastructure: errors, machine configuration, timelines.

Everything in this package is policy-free plumbing used by the ISA,
memory, co-processor and compiler layers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.common.config import (
        CacheConfig,
        experiment_config,
        table4_config,
        CoreConfig,
        MachineConfig,
        MemoryConfig,
        VectorConfig,
    )
    from repro.common.errors import (
        AssemblyError,
        CompilationError,
        ConfigurationError,
        ReproError,
        SimulationError,
        VectorizationError,
    )
    from repro.common.timeline import BucketSeries, Timeline

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
        "repro.common.timeline": ("BucketSeries", "Timeline"),
    },
)
