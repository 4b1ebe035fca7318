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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.motivating import motivating_pair
    from repro.workloads.opencv import OPENCV_WORKLOADS, opencv_workload
    from repro.workloads.pairs import (
        FOUR_CORE_GROUPS,
        OPENCV_PAIRS,
        SPEC_PAIRS,
        CoRunPair,
        all_pairs,
        jobs_for_group,
        jobs_for_pair,
    )
    from repro.workloads.spec import SPEC_PHASES, SPEC_WORKLOADS, spec_workload
    from repro.workloads.synth import Counts, solve_counts, synth_loop, synth_phase

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.motivating": ("motivating_pair",),
        "repro.workloads.opencv": ("OPENCV_WORKLOADS", "opencv_workload"),
        "repro.workloads.pairs": (
            "CoRunPair", "FOUR_CORE_GROUPS", "OPENCV_PAIRS", "SPEC_PAIRS", "all_pairs",
            "jobs_for_group", "jobs_for_pair"
        ),
        "repro.workloads.spec": ("SPEC_PHASES", "SPEC_WORKLOADS", "spec_workload"),
        "repro.workloads.synth": (
            "Counts", "solve_counts", "synth_loop", "synth_phase"
        ),
    },
)
