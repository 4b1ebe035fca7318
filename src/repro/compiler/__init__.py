"""The Occamy compiler (paper §6).

Takes loop-nest kernels expressed in a small IR, analyses their phase
behaviour (operational intensity, Eq. 5), vectorizes each loop with CSE and
SVE-style tail predication, and instruments the code with the eager-lazy
lane-partitioning pattern of Fig. 9 (phase prologue/epilogue, partition
monitor, vector-length reconfiguration with reduction splicing).
"""
