"""The Occamy SIMD co-processor micro-architecture (paper §4).

The co-processor is shared by all scalar cores.  Its lanes (``ExeBU``s) and
register blocks (``RegBlk``s) are (re)assigned to cores through the three
tables of §4.2.1 — ``ResourceTbl``, ``Dispatch.Cfg`` and ``RegFile.Cfg`` —
and instructions flow per core through an in-order instruction pool with a
renamer freelist, per-core LSU and the shared vector memory system.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.coproc.coprocessor import CoProcessor
    from repro.coproc.dynamic import DynamicInstruction, InstructionPool
    from repro.coproc.lanes import ExeBU, LaneTable
    from repro.coproc.lsu import LoadStoreUnit
    from repro.coproc.renamer import Renamer
    from repro.coproc.resource_table import ResourceTable
    from repro.coproc.sharing import SharingMode

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.coproc.coprocessor": ("CoProcessor",),
        "repro.coproc.dynamic": ("DynamicInstruction", "InstructionPool"),
        "repro.coproc.lanes": ("ExeBU", "LaneTable"),
        "repro.coproc.lsu": ("LoadStoreUnit",),
        "repro.coproc.renamer": ("Renamer",),
        "repro.coproc.resource_table": ("ResourceTable",),
        "repro.coproc.sharing": ("SharingMode",),
    },
)
