"""The greedy lane-partition algorithm (paper §5.2).

Given the operational intensities of the currently running phases, the
algorithm:

1. gives one lane to every workload currently executing a phase
   (``<OI> != 0``) so nobody starves;
2. iteratively sorts the workloads by the *net performance gain* (Eq. 3) of
   one extra lane and gives one lane to each workload with a positive
   gain, in that order, while lanes remain;
3. stops when all lanes are allocated or no workload would gain.

Fairness properties proved by the paper and asserted by our property tests:
co-running compute-intensive workloads split the lanes equally, and every
running workload receives at least one lane.

What the loop computes is a max-min fair share capped at each phase's
roofline knee (its ``saturation_lanes``): a water-fill to the highest level
``L`` at which every phase can hold ``min(knee, L)`` lanes, the lanes left
over going one each to the phases above ``L`` by gain at ``L``, then core
id.  It does not maximise the sum of attainable performance: a phase that
gains more per lane does not take lanes from one that gains less
(``tests/core/test_partition.py`` states both facts).

:func:`greedy_partition` is that loop as written, one lane per grant,
recomputing each gain from the roofline; the elastic lane manager, the VLS
split (:func:`static_partition`) and ``repro roofline`` all call it.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.common.errors import ConfigurationError
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue

#: Gains below this threshold count as "no further performance gain".
GAIN_EPSILON = 1e-9


def greedy_partition(
    demands: Mapping[int, OIValue],
    total_lanes: int,
    roofline: RooflineModel,
) -> Dict[int, int]:
    """Partition ``total_lanes`` lanes across the running phases.

    ``demands`` maps core id -> the OI of the phase it is executing; cores
    without a running phase must not appear.  Returns core id -> lane count.
    """
    # Step 1: one lane per running workload; more running phases than
    # lanes cannot satisfy Eq. 1's one-lane minimum.
    active = {core: oi for core, oi in demands.items() if not oi.is_phase_end}
    if len(active) > total_lanes:
        raise ConfigurationError(
            f"{len(active)} running phases exceed {total_lanes} lanes"
        )
    plan = {core: 1 for core in active}
    remaining = total_lanes - len(active)
    # Step 2: rounds of marginal-gain allocation.
    while remaining > 0:
        gains = [
            (roofline.net_gain(plan[core], active[core]), core)
            for core in active
            if plan[core] < roofline.max_lanes
        ]
        positive = sorted(
            ((gain, core) for gain, core in gains if gain > GAIN_EPSILON),
            key=lambda pair: (-pair[0], pair[1]),
        )
        if not positive:
            break  # Step 3: nobody benefits from more lanes.
        progressed = False
        for _gain, core in positive:
            if remaining <= 0:
                break
            # Recheck at grant time: the sorted gains were computed before
            # the round started, and a grant earlier in the round may have
            # moved this core past its saturation point (its marginal gain
            # dropping below GAIN_EPSILON, e.g. at the memory ceiling).
            # Granting on the stale gain would park a lane where it earns
            # nothing while a later round could still hand it to a core
            # with real headroom.
            if roofline.net_gain(plan[core], active[core]) <= GAIN_EPSILON:
                continue
            plan[core] += 1
            remaining -= 1
            progressed = True
        if not progressed:  # pragma: no cover - defensive
            break
    return plan


def static_partition(
    phase_ois: Mapping[int, "list[OIValue]"],
    total_lanes: int,
    roofline: RooflineModel,
) -> Dict[int, int]:
    """The VLS (static spatial sharing) partition.

    Each workload's demand is its *most demanding* phase (largest saturation
    lane count); the greedy algorithm then splits the lanes once, and the
    result never changes at runtime (Fig. 1(c)).
    """
    peak_demand: Dict[int, OIValue] = {}
    for core, ois in phase_ois.items():
        running = [oi for oi in ois if not oi.is_phase_end]
        if not running:
            continue
        peak_demand[core] = max(
            running, key=lambda oi: roofline.saturation_lanes(oi)
        )
    return greedy_partition(peak_demand, total_lanes, roofline)
