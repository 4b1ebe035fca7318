"""The Occamy compiler (paper §6).

Takes loop-nest kernels expressed in a small IR, analyses their phase
behaviour (operational intensity, Eq. 5), vectorizes each loop with CSE and
SVE-style tail predication, and instruments the code with the eager-lazy
lane-partitioning pattern of Fig. 9 (phase prologue/epilogue, partition
monitor, vector-length reconfiguration with reduction splicing).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
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
        Store,
    )
    from repro.compiler.phase_analysis import PhaseInfo, analyze_loop, analyze_kernel
    from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
    from repro.compiler.reference import reference_execute
    from repro.compiler.vectorizer import VectorizedLoop, vectorize_loop

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.compiler.ir": (
            "Assign", "BinOp", "Call", "Const", "Kernel", "Load", "Loop", "Param",
            "Reduce", "Store"
        ),
        "repro.compiler.phase_analysis": (
            "PhaseInfo", "analyze_kernel", "analyze_loop"
        ),
        "repro.compiler.pipeline": ("CompileOptions", "build_image", "compile_kernel"),
        "repro.compiler.reference": ("reference_execute",),
        "repro.compiler.vectorizer": ("VectorizedLoop", "vectorize_loop"),
    },
)
