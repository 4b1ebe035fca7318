"""Vector-length-agnostic vectorization (paper §6.4).

The vectorizer turns one loop into a strip-mined, tail-predicated vector
body over the post-CSE DAG, assigning one architectural vector register to
every DAG value.  Any existing vectorization algorithm could be plugged in
(the paper leverages LLVM); ours is a straightforward single-assignment
allocator with hash-consing CSE, which is sufficient for loop-nest kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import VectorizationError
from repro.compiler.dag import LoopDag, build_dag
from repro.compiler.ir import Loop
from repro.compiler.phase_analysis import PhaseInfo, analyze_loop
from repro.isa.operands import VReg

#: Architectural vector registers available (ARM SVE: z0..z31).
NUM_VREGS = 32

#: Reduction identities by operation.
REDUCTION_IDENTITY = {"add": 0.0, "min": 3.4e38, "max": -3.4e38}


@dataclass
class VectorizedLoop:
    """A loop ready for EM-SIMD code generation."""

    loop: Loop
    dag: LoopDag
    info: PhaseInfo
    #: DAG node id -> assigned vector register (loads, computes, params).
    reg_of: Dict[int, VReg] = field(default_factory=dict)
    #: reduction name -> (op, accumulator register).
    acc_regs: Dict[str, Tuple[str, VReg]] = field(default_factory=dict)
    #: scratch register for materialising reduction results (if needed).
    scratch: Optional[VReg] = None
    #: distinct non-trivial (shift, stride, offset) keys needing an index
    #: temporary (the trivial key (0, 1, 0) indexes with Xi directly).
    index_temps: Tuple[Tuple[int, int, int], ...] = ()

    @property
    def shifts(self) -> Tuple[int, ...]:
        """Distinct nonzero unit-stride stencil shifts (compatibility)."""
        return tuple(
            sorted({sh for sh, st, off in self.index_temps if st == 1 and off == 0})
        )


def vectorize_loop(loop: Loop) -> VectorizedLoop:
    """Vectorize ``loop`` over its post-CSE DAG; raises
    :class:`VectorizationError` on register overflow."""
    dag = build_dag(loop)
    info = analyze_loop(loop, dag)
    vloop = VectorizedLoop(loop=loop, dag=dag, info=info)

    next_reg = 0

    def allocate() -> VReg:
        nonlocal next_reg
        if next_reg >= NUM_VREGS:
            raise VectorizationError(
                f"loop {loop.name!r} needs more than {NUM_VREGS} vector "
                "registers; split the loop body"
            )
        reg = VReg(f"z{next_reg}")
        next_reg += 1
        return reg

    # Reduction accumulators live across the whole loop.
    for op, name, _node in dag.reductions:
        if name in vloop.acc_regs:
            raise VectorizationError(
                f"loop {loop.name!r}: duplicate reduction target {name!r}"
            )
        vloop.acc_regs[name] = (op, allocate())
    if dag.reductions:
        vloop.scratch = allocate()

    # Loop-invariant parameters are splatted once per (re)configuration.
    for node in dag.nodes:
        if node.kind == "param":
            vloop.reg_of[node.node_id] = allocate()

    # Loads and computes in topological (construction) order.
    for node in dag.nodes:
        if node.kind in ("load", "compute"):
            vloop.reg_of[node.node_id] = allocate()

    keys = {
        (node.shift, node.stride, node.offset)
        for node in dag.loads()
        if (node.shift, node.stride, node.offset) != (0, 1, 0)
    }
    vloop.index_temps = tuple(sorted(keys))
    return vloop
