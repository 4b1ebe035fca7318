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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Tuple

from repro.common.errors import ConfigurationError
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue

#: Gains below this threshold count as "no further performance gain".
GAIN_EPSILON = 1e-9


@lru_cache(maxsize=4096)
def _gain_profile(
    roofline: RooflineModel, oi: OIValue
) -> Tuple[Tuple[float, ...], int]:
    """Marginal-gain profile of one phase: ``(gains, cap)``.

    ``gains[l]`` is Eq. 3's net gain of growing from ``l`` to ``l+1`` lanes
    — the exact floats :func:`greedy_partition_rounds` recomputes each round.
    ``attainable`` is the minimum of two linear-through-origin ceilings and
    a constant, hence concave in the lane count, so the gains are
    non-increasing and the profitable lane counts form a prefix: ``cap`` is
    the smallest count at which another lane stops paying (bounded by
    ``max_lanes``), and a core is grant-eligible iff ``plan < cap``.
    Both key types are frozen dataclasses, so profiles memoise across every
    repartition of a run *and* across co-runs sharing a roofline.
    """
    gains = tuple(
        roofline.net_gain(lanes, oi) for lanes in range(roofline.max_lanes)
    )
    cap = roofline.max_lanes
    for lanes in range(1, roofline.max_lanes):
        if gains[lanes] <= GAIN_EPSILON:
            cap = lanes
            break
    return gains, cap


def _one_lane_each(
    demands: Mapping[int, OIValue], total_lanes: int
) -> Tuple[Dict[int, OIValue], Dict[int, int], int]:
    """Step 1: one lane per running workload.

    Returns ``(active, plan, remaining)``.  Raises when more phases run
    than lanes exist (cannot satisfy the one-lane-minimum constraint of
    Eq. 1).
    """
    active = {core: oi for core, oi in demands.items() if not oi.is_phase_end}
    if len(active) > total_lanes:
        raise ConfigurationError(
            f"{len(active)} running phases exceed {total_lanes} lanes"
        )
    return active, {core: 1 for core in active}, total_lanes - len(active)


def greedy_partition(
    demands: Mapping[int, OIValue],
    total_lanes: int,
    roofline: RooflineModel,
) -> Dict[int, int]:
    """Partition ``total_lanes`` lanes across the running phases.

    ``demands`` maps core id -> the OI of the phase it is executing; cores
    without a running phase must not appear.  Returns core id -> lane count.

    Steps 2-3 run as *bulk rounds*.  :func:`greedy_partition_rounds` grants
    one lane per round to every positive-gain core in ``(-gain, core)``
    order.  Because each core's gains are non-increasing (see
    :func:`_gain_profile`) the eligible set only shrinks, so ``r``
    consecutive full rounds — while every eligible core keeps headroom and
    lanes remain for everyone — hand exactly ``r`` lanes to each eligible
    core regardless of order, collapsible into one bulk grant.  Only the
    final partial round (fewer lanes left than eligible cores) depends on
    the sort order, and it is replayed literally with the memoised gains.
    """
    active, plan, remaining = _one_lane_each(demands, total_lanes)
    profiles = {core: _gain_profile(roofline, active[core]) for core in active}
    while remaining > 0:
        eligible = [core for core in active if plan[core] < profiles[core][1]]
        if not eligible:
            break
        count = len(eligible)
        if remaining < count:
            order = sorted(
                (-profiles[core][0][plan[core]], core) for core in eligible
            )
            for _key, core in order[:remaining]:
                plan[core] += 1
            break
        step = remaining // count
        for core in eligible:
            headroom = profiles[core][1] - plan[core]
            if headroom < step:
                step = headroom
        for core in eligible:
            plan[core] += step
        remaining -= step * count
    return plan


def greedy_partition_rounds(
    demands: Mapping[int, OIValue],
    total_lanes: int,
    roofline: RooflineModel,
) -> Dict[int, int]:
    """The literal lane-by-lane round loop of §5.2.

    The reference :func:`greedy_partition` is property-tested against; no
    engine calls it.
    """
    active, plan, remaining = _one_lane_each(demands, total_lanes)
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
