"""Reference (oracle) execution of kernels in pure numpy, and the check
that holds every simulation to it.

``reference_execute`` applies each loop's semantics slice-wise over the
functional memory, mirroring the vectorizer's evaluation order (all reads
snapshot pre-iteration state; writes apply in statement order).  The
paper's correctness guarantee (§6.4) says a program's answers must not
depend on the re-partitioning schedule, so :func:`check_answers` compares
what a run left in memory with the oracle after *every* executed
simulation: element-wise arrays bit for bit, an ``add`` reduction within
:func:`reduction_bound` (the only freedom a schedule has is the order in
which the float32 partial sums are folded).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.errors import SimulationError
from repro.compiler.ir import Assign, BinOp, Call, Const, Expr, Kernel, Load, Param, Reduce
from repro.compiler.pipeline import build_image
from repro.memory.image import MemoryImage

#: The float32 unit roundoff.
UNIT_ROUNDOFF = 2.0**-24


def _eval(expr: Expr, arrays: Dict[str, np.ndarray], params: Dict[str, float],
          start: int, stop: int) -> np.ndarray:
    if isinstance(expr, Load):
        if expr.stride == 1 and expr.offset == 0:
            return arrays[expr.array][start + expr.shift : stop + expr.shift]
        first = (start + expr.shift) * expr.stride + expr.offset
        last = first + (stop - start - 1) * expr.stride + 1
        return arrays[expr.array][first:last:expr.stride]
    if isinstance(expr, Param):
        return np.float32(params[expr.name])
    if isinstance(expr, Const):
        return np.float32(expr.value)
    if isinstance(expr, BinOp):
        lhs = _eval(expr.lhs, arrays, params, start, stop)
        rhs = _eval(expr.rhs, arrays, params, start, stop)
        if expr.op == "add":
            return lhs + rhs
        if expr.op == "sub":
            return lhs - rhs
        if expr.op == "mul":
            return lhs * rhs
        if expr.op == "div":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.divide(lhs, rhs)
            return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)
        if expr.op == "min":
            return np.minimum(lhs, rhs)
        if expr.op == "max":
            return np.maximum(lhs, rhs)
        raise SimulationError(f"unknown binop {expr.op}")  # pragma: no cover
    if isinstance(expr, Call):
        arg = _eval(expr.arg, arrays, params, start, stop)
        if expr.op == "sqrt":
            return np.sqrt(np.abs(arg))
        if expr.op == "abs":
            return np.abs(arg)
        if expr.op == "neg":
            return -arg
        raise SimulationError(f"unknown call {expr.op}")  # pragma: no cover
    raise SimulationError(f"bad expression {expr!r}")  # pragma: no cover


def reduction_bound(terms: int, magnitude: float) -> float:
    """How far a float32 ``add`` reduction of ``terms`` values whose
    absolute values sum to ``magnitude`` may lie from the oracle's answer.

    Whatever the lanes, splices and scalar folds did, a term passes
    through at most ``n - 1`` additions and the final store, each rounding
    to float32 or finer, so the run is within ``γ(n)·Σ|x|`` of the exact
    sum, ``γ(k) = k·u / (1 - k·u)``, ``u = 2**-24``.  Two more
    ``u·Σ|x|`` cover the oracle: its float64 sum (``n·2**-53 ≤ u`` for
    ``n < 2**29``) and its rounding to the float32 it stores.
    """
    k = terms * UNIT_ROUNDOFF
    return (k / (1.0 - k) + 2 * UNIT_ROUNDOFF) * magnitude


def _execute(kernel: Kernel, image: MemoryImage) -> Dict[str, float]:
    """Run ``kernel`` over ``image`` in place; returns each ``add``
    reduction output's :func:`reduction_bound` (the last loop writing it)."""
    arrays = {name: array for name, array in image}
    identities = {"add": 0.0, "min": np.float32(3.4e38), "max": np.float32(-3.4e38)}
    bounds: Dict[str, float] = {}
    for loop in kernel.loops:
        start = loop.max_negative_shift()
        stop = start + loop.trip_count
        # Reduction carries restart at every phase prologue (Fig. 9).
        carries: Dict[str, float] = {
            r.name: identities[r.op] for r in loop.reductions()
        }
        magnitudes = dict.fromkeys(carries, 0.0)
        for _repeat in range(loop.repeats):
            snapshot = {
                name: arrays[name].copy() for name in loop.arrays_read()
            }
            values = []
            for statement in loop.body:
                values.append(
                    _eval(statement.expr, snapshot, kernel.params, start, stop)
                )
            for statement, value in zip(loop.body, values):
                if isinstance(statement, Assign):
                    arrays[statement.array][start:stop] = value.astype(np.float32)
                elif isinstance(statement, Reduce):
                    folded = np.broadcast_to(value, (loop.trip_count,))
                    if statement.op == "add":
                        carries[statement.name] += float(
                            np.add.reduce(folded, dtype=np.float64)
                        )
                        magnitudes[statement.name] += float(
                            np.add.reduce(np.abs(folded), dtype=np.float64)
                        )
                    elif statement.op == "min":
                        carries[statement.name] = min(
                            carries[statement.name], float(np.min(folded))
                        )
                    else:
                        carries[statement.name] = max(
                            carries[statement.name], float(np.max(folded))
                        )
        for name, carry in carries.items():
            arrays[name][0] = np.float32(carry)
        for reduce in loop.reductions():
            if reduce.op == "add":
                terms = loop.trip_count * loop.repeats
                bounds[reduce.name] = reduction_bound(terms, magnitudes[reduce.name])
            else:  # min / max pick one of the values: exact in any order
                bounds.pop(reduce.name, None)
    return bounds


def reference_execute(kernel: Kernel, image: MemoryImage) -> MemoryImage:
    """Run ``kernel`` functionally over a *copy* of ``image``."""
    result = image.copy()
    _execute(kernel, result)
    return result


def check_answers(
    kernels: Sequence[Optional[Kernel]],
    images: Sequence[Optional[MemoryImage]],
    task: str,
) -> None:
    """Hold one finished run to the oracle (§6.4); raise on a wrong answer.

    ``kernels[core]`` ran on ``core`` (``None``: the core idled) and left
    ``images[core]``.  Each kernel's initial image is rebuilt from its
    recipe (:func:`~repro.compiler.pipeline.build_image`) and run through
    the oracle.  Every element-wise array must be bit-equal to the
    oracle's, every ``add`` reduction output within
    :func:`reduction_bound`; otherwise :class:`SimulationError` names
    ``task``, the core, the array and its first bad index.
    """
    for core, kernel in enumerate(kernels):
        if kernel is None:
            continue
        expected = build_image(kernel, core_id=core)
        bounds = _execute(kernel, expected)
        image = images[core]
        for name, want in expected:
            got = image.array(name)
            bound = bounds.get(name)
            if bound is None:
                bad = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
                allowed = "bit-equal"
            else:
                error = np.abs(got.astype(np.float64) - want.astype(np.float64))
                bad = np.flatnonzero(~(error <= bound))
                allowed = f"within {bound:.3g}"
            if bad.size:
                index = int(bad[0])
                raise SimulationError(
                    f"{task}: core {core} array {name!r} index {index} holds "
                    f"{got[index]!r}, the oracle {want[index]!r} (must be "
                    f"{allowed}, §6.4)"
                )
