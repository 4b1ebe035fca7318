"""The EM-SIMD instruction set (paper §3.2) plus the mini host ISA.

Three instruction families exist, mirroring Table 2 of the paper:

* **Scalar** — a small ARM-flavoured register machine (``ScalarOp``,
  ``Branch``, ``AddVL``...) interpreted by the scalar cores;
* **SVE** — vector-length-agnostic vector compute and load/store
  instructions (``VOp``, ``VLoad``, ``VStore``, ``WhileLT``...) executed by
  the shared co-processor;
* **EM-SIMD** — ``MSR``/``MRS`` accesses to the five dedicated registers of
  Table 1 (``<OI>``, ``<decision>``, ``<VL>``, ``<status>``, ``<AL>``).
"""
