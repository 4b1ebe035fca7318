"""The evaluated workloads (paper §7.1, Table 3).

The paper extracts 22 SPEC CPU2017 workloads (from 28 hot vectorized
loops) and 12 OpenCV workloads (from 14 kernels), pairs them into 25
two-core co-runs plus four four-core groups.  We rebuild each *phase* so
that our Eq. 5 analysis reproduces the operational intensity the paper's
Table 3 reports — with literal expression bodies where the paper prints
the source (wsm5-style stencils, OpenCV colour/arithmetic kernels) and
synthesized loop bodies elsewhere (SPEC sources are not reproducible from
the paper).  Memory-intensive phases stream DRAM-resident arrays;
compute-intensive phases iterate over Vec-Cache-resident arrays.
"""
