"""The Occamy SIMD co-processor micro-architecture (paper §4).

The co-processor is shared by all scalar cores.  Its lanes are homogeneous
(§4.2.1), so which lanes a core owns never enters timing: ``ResourceTbl``'s
``<VL>`` and ``<AL>`` registers hold how many each core has and how many are
free.  Instructions flow per core through an in-order instruction pool with
a renamer freelist, per-core LSU and the shared vector memory system.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.coproc.coprocessor import CoProcessor
    from repro.coproc.dynamic import DynamicInstruction, InstructionPool
    from repro.coproc.lsu import LoadStoreUnit
    from repro.coproc.renamer import Renamer
    from repro.coproc.resource_table import ResourceTable
    from repro.coproc.sharing import SharingMode

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.coproc.coprocessor": ("CoProcessor",),
        "repro.coproc.dynamic": ("DynamicInstruction", "InstructionPool"),
        "repro.coproc.lsu": ("LoadStoreUnit",),
        "repro.coproc.renamer": ("Renamer",),
        "repro.coproc.resource_table": ("ResourceTable",),
        "repro.coproc.sharing": ("SharingMode",),
    },
)
