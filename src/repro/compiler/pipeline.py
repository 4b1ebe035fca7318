"""The compiler driver: kernel -> vectorized, instrumented Program.

``compile_kernel`` runs phase analysis, vectorization and EM-SIMD code
generation for every loop, producing a program whose ``meta`` carries the
per-phase OIs (for the VLS static plan) and the instrumentation index sets
(for overhead accounting).  ``build_image`` constructs the matching
functional memory.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.common.config import MemoryConfig
from repro.common.errors import ConfigurationError
from repro.compiler.emsimd import EmSimdCodegen
from repro.compiler.ir import Kernel
from repro.compiler.phase_analysis import PhaseInfo, analyze_kernel
from repro.compiler.vectorizer import vectorize_loop
from repro.isa.instructions import Halt
from repro.isa.program import Program, ProgramBuilder
from repro.memory.image import MemoryImage


@dataclass(frozen=True)
class CompileOptions:
    """Compilation knobs.

    ``elastic`` emits Fig. 9's lazy partition monitor and vector-length
    reconfiguration; without it a phase keeps its prologue vector length
    until its epilogue.  ``unroll`` is Fig. 9's strip length ``s``: body
    copies per monitored iteration, each governed by its own ``whilelt``
    so partial tails need no remainder loop.

    ``memory`` enables the hierarchical-roofline residency hint: when the
    target memory configuration is known at compile time, each phase's
    ``<OI>`` carries the level its working set fits in, and the lane
    manager bounds it by that level's bandwidth instead of DRAM's.
    """

    elastic: bool = True
    memory: Optional[MemoryConfig] = None
    unroll: int = 1

    def __post_init__(self) -> None:
        if self.unroll < 1:
            raise ConfigurationError(
                f"unroll must be at least 1 (got {self.unroll})"
            )


def compile_kernel(kernel: Kernel, options: CompileOptions = CompileOptions()) -> Program:
    """Compile ``kernel`` into an EM-SIMD-instrumented program."""
    builder = ProgramBuilder(name=kernel.name)
    codegen = EmSimdCodegen(builder, elastic=options.elastic, unroll=options.unroll)
    codegen.emit_params(kernel.params)
    infos: List[PhaseInfo] = []
    phase_ois = []
    for loop in kernel.loops:
        vloop = vectorize_loop(loop)
        infos.append(vloop.info)
        if options.memory is not None:
            level = vloop.info.residency_level(options.memory)
            oi = vloop.info.oi_for_level(level)
        else:
            oi = vloop.info.oi
        phase_ois.append(oi)
        codegen.emit_phase(vloop, oi)
    builder.emit(Halt())
    builder.meta["phase_ois"] = phase_ois
    builder.meta["phase_infos"] = infos
    builder.meta["monitor"] = frozenset(codegen.monitor_idx)
    builder.meta["reconfig"] = frozenset(codegen.reconfig_idx)
    return builder.build()


def build_image(
    kernel: Kernel,
    core_id: int = 0,
    seed: Optional[int] = None,
) -> MemoryImage:
    """Functional memory for ``kernel`` in core ``core_id``'s address range.

    Arrays are filled with deterministic pseudo-random values in
    ``[0.5, 1.5)`` (strictly positive so ``div``/``sqrt`` stay benign);
    reduction outputs become zeroed one-element arrays.  The default seed
    is a *stable* hash of the kernel name — ``hash()`` is randomised per
    process, which would give every invocation different image bytes and
    defeat the persistent result cache's content keys.
    """
    if seed is None:
        seed = zlib.crc32(kernel.name.encode("utf-8"))
    rng = np.random.default_rng(seed)
    image = MemoryImage.for_core(core_id)
    for name in sorted(kernel.arrays()):
        data = rng.random(kernel.array_length, dtype=np.float32) + np.float32(0.5)
        image.add_array(name, data)
    for name in sorted(kernel.reduction_outputs()):
        image.zeros(name, 1)
    return image
