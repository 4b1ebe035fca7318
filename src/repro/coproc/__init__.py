"""The Occamy SIMD co-processor micro-architecture (paper §4).

The co-processor is shared by all scalar cores.  Its lanes are homogeneous
(§4.2.1), so which lanes a core owns never enters timing: ``ResourceTbl``'s
``<VL>`` and ``<AL>`` registers hold how many each core has and how many are
free.  Instructions flow per core through an in-order instruction pool with
a renamer freelist, per-core LSU and the shared vector memory system.
"""
