"""Co-running workload pairs and four-core groups (paper §7.1/§7.6).

The 25 two-core pairs come from Fig. 10's x-axis: 16 SPEC pairs and 9
OpenCV pairs, written ``<mem>+<comp>`` with the memory-intensive workload
on Core0 and the compute-intensive one on Core1.  The four four-core
groups come from Fig. 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.config import MemoryConfig, experiment_config
from repro.compiler.ir import Kernel
from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
from repro.core.result import Job
from repro.isa.program import Program
from repro.workloads.opencv import opencv_workload
from repro.workloads.spec import spec_workload


@dataclass(frozen=True)
class CoRunPair:
    """One two-core co-run: workload ids within a suite."""

    suite: str  # "spec" | "opencv"
    core0: int  # memory-intensive side
    core1: int  # compute-intensive side

    @property
    def label(self) -> str:
        return f"{self.core0}+{self.core1}"

    def __str__(self) -> str:
        return f"{self.suite}:{self.label}"


#: Fig. 10 x-axis, SPEC section (memory on Core0, compute on Core1).
SPEC_PAIRS: Tuple[CoRunPair, ...] = tuple(
    CoRunPair("spec", a, b)
    for a, b in (
        (1, 13), (2, 14), (3, 4), (5, 15), (6, 16), (8, 17), (7, 18),
        (20, 9), (21, 17), (20, 17), (10, 16), (11, 14), (22, 15),
        (4, 14), (9, 13), (12, 19),
    )
)

#: Fig. 10 x-axis, OpenCV section.
OPENCV_PAIRS: Tuple[CoRunPair, ...] = tuple(
    CoRunPair("opencv", a, b)
    for a, b in (
        (6, 1), (2, 1), (7, 3), (8, 3), (9, 4), (10, 4), (11, 5),
        (12, 5), (11, 1),
    )
)

#: Fig. 16's four-core groups (SPEC workload ids for Core0..Core3).
FOUR_CORE_GROUPS: Tuple[Tuple[int, int, int, int], ...] = (
    (15, 6, 15, 16),
    (21, 20, 17, 17),
    (10, 22, 16, 15),
    (7, 19, 20, 14),
)


def all_pairs() -> List[CoRunPair]:
    """All 25 evaluated pairs, in the paper's plotting order."""
    return list(SPEC_PAIRS) + list(OPENCV_PAIRS)


def dedup_unordered(keys: Sequence) -> List[Tuple]:
    """Distinct *unordered* co-run pairs formable from a key multiset.

    Placement makes pair order irrelevant, so (A,B) and (B,A) collapse to
    one sorted entry; a self-pair (A,A) appears only when the multiset
    actually holds two A's.  Keys may be workload ids or thread keys —
    anything sortable.  Output is sorted and duplicate-free.
    """
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    distinct = sorted(counts)
    pairs: List[Tuple] = []
    for i, a in enumerate(distinct):
        if counts[a] >= 2:
            pairs.append((a, a))
        for b in distinct[i + 1 :]:
            pairs.append((a, b))
    return pairs


@lru_cache(maxsize=None)
def _compiled(
    suite: str, workload_id: int, scale: float, memory: MemoryConfig
) -> Tuple[Kernel, Program]:
    if suite == "spec":
        kernel = spec_workload(workload_id, scale=scale)
    elif suite == "opencv":
        kernel = opencv_workload(workload_id, scale=scale)
    else:
        raise KeyError(f"unknown suite {suite!r}")
    return kernel, compile_kernel(kernel, CompileOptions(memory=memory))


def job_for(
    workload: Union[Tuple[str, int], Kernel, None],
    core_id: int,
    scale: float = 1.0,
    memory: Optional[MemoryConfig] = None,
) -> Optional[Job]:
    """The one place a workload becomes a :class:`Job` for ``core_id``.

    ``workload`` is a Table 3 ``(suite, id)`` name, a ready-made kernel
    (its scale baked in) or ``None``, an idle core.  A phase's ``<OI>`` is
    taken at the level of ``memory`` its working set fits, so a program
    belongs to the memory it was compiled for — the experiment
    configuration's by default — and a named workload is compiled once
    per process, scale *and* memory.
    """
    if workload is None:
        return None
    memory = memory or experiment_config().memory
    if isinstance(workload, Kernel):
        kernel = workload
        program = compile_kernel(kernel, CompileOptions(memory=memory))
    else:
        kernel, program = _compiled(*workload, scale, memory)
    return Job(program=program, image=build_image(kernel, core_id=core_id))


def jobs_for_pair(pair: CoRunPair, scale: float = 1.0) -> List[Optional[Job]]:
    """Jobs for the two cores of ``pair`` (fresh images each call)."""
    return jobs_for_group((pair.core0, pair.core1), scale, pair.suite)


def jobs_for_group(
    group: Sequence[int], scale: float = 1.0, suite: str = "spec"
) -> List[Optional[Job]]:
    """Jobs for a four-core group (Fig. 16)."""
    return [
        job_for((suite, workload_id), core, scale)
        for core, workload_id in enumerate(group)
    ]
