"""Job specs: the wire-level description of one simulation request.

Clients describe work as small JSON objects (a *spec*), not pickled
Python — the daemon materialises each spec into the same picklable
:class:`~repro.analysis.parallel.SimTask` the parallel sweep engine
already executes, so a daemon-served run is *by construction* the same
computation a direct in-process run would perform.

A spec looks like::

    {"kind": "pair",     "suite": "spec", "mem": 20, "comp": 17,
     "policy": "occamy", "scale": 0.3}
    {"kind": "motivate", "policy": "fts", "scale": 0.5}
    {"kind": "group",    "group": [0, 1, 2, 3], "policy": "cts",
     "scale": 0.35, "cores": 4}

:func:`normalize_spec` validates and fills defaults (rejecting unknown
fields so typos fail loudly); :func:`task_signature` produces the stable
string the daemon indexes its key memo by.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.common.errors import ServiceProtocolError

#: Wire-accepted task kinds (mirrors :class:`SimTask.kind`).
TASK_KINDS = ("pair", "motivate", "group")

#: Workload suites accepted for ``pair`` specs.
SUITES = ("spec", "opencv")

_COMMON_FIELDS = {"kind", "policy", "scale", "max_cycles", "cores"}
_FIELDS_BY_KIND = {
    "pair": _COMMON_FIELDS | {"suite", "mem", "comp"},
    "motivate": _COMMON_FIELDS,
    "group": _COMMON_FIELDS | {"group"},
}

_DEFAULT_SCALE = {"pair": 0.35, "motivate": 0.5, "group": 0.35}
_DEFAULT_MAX_CYCLES = 3_000_000


def _reject(message: str) -> None:
    raise ServiceProtocolError(f"bad job spec: {message}")


def normalize_spec(spec: Dict[str, object]) -> Dict[str, object]:
    """Validate ``spec`` and return a canonical copy with defaults filled.

    Raises :class:`~repro.common.errors.ServiceProtocolError` on any
    malformed field — admission control rejects bad requests at the
    socket, long before a worker process sees them.
    """
    from repro.core.policies import POLICIES_BY_KEY

    if not isinstance(spec, dict):
        _reject(f"expected an object, got {type(spec).__name__}")
    kind = spec.get("kind", "pair")
    if kind not in TASK_KINDS:
        _reject(f"unknown kind {kind!r}; choose from {TASK_KINDS}")
    allowed = _FIELDS_BY_KIND[kind]
    unknown = sorted(set(spec) - allowed)
    if unknown:
        _reject(f"unknown field(s) {unknown} for kind {kind!r}")

    policy = spec.get("policy", "occamy")
    if policy not in POLICIES_BY_KEY:
        _reject(f"unknown policy {policy!r}; choose from {sorted(POLICIES_BY_KEY)}")

    scale = spec.get("scale", _DEFAULT_SCALE[kind])
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or not (
        0.0 < float(scale) <= 1.0
    ):
        _reject(f"scale must be in (0, 1], got {scale!r}")

    max_cycles = spec.get("max_cycles", _DEFAULT_MAX_CYCLES)
    if not isinstance(max_cycles, int) or isinstance(max_cycles, bool) or max_cycles <= 0:
        _reject(f"max_cycles must be a positive integer, got {max_cycles!r}")

    cores = spec.get("cores", 4 if kind == "group" else 2)
    if not isinstance(cores, int) or isinstance(cores, bool) or cores <= 0:
        _reject(f"cores must be a positive integer, got {cores!r}")

    normalized: Dict[str, object] = {
        "kind": kind,
        "policy": policy,
        "scale": float(scale),
        "max_cycles": max_cycles,
        "cores": cores,
    }
    if kind == "pair":
        suite = spec.get("suite")
        if suite not in SUITES:
            _reject(f"suite must be one of {SUITES}, got {suite!r}")
        for field in ("mem", "comp"):
            value = spec.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                _reject(f"{field} must be a workload id (int), got {value!r}")
        normalized.update(suite=suite, mem=spec["mem"], comp=spec["comp"])
    elif kind == "group":
        group = spec.get("group")
        if (
            not isinstance(group, (list, tuple))
            or not group
            or not all(isinstance(i, int) and not isinstance(i, bool) for i in group)
        ):
            _reject(f"group must be a non-empty list of workload ids, got {group!r}")
        normalized["group"] = [int(i) for i in group]
    return normalized


def build_task(spec: Dict[str, object]):
    """Materialise a (normalized) spec into a :class:`SimTask`."""
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config
    from repro.workloads.pairs import CoRunPair

    spec = normalize_spec(spec)
    config = experiment_config(num_cores=spec["cores"])
    common = dict(
        policy_key=spec["policy"],
        scale=spec["scale"],
        config=config,
        max_cycles=spec["max_cycles"],
    )
    if spec["kind"] == "pair":
        return SimTask(
            kind="pair",
            pair=CoRunPair(spec["suite"], spec["mem"], spec["comp"]),
            **common,
        )
    if spec["kind"] == "group":
        return SimTask(kind="group", group=tuple(spec["group"]), **common)
    return SimTask(kind="motivate", **common)


def task_signature(spec: Dict[str, object]) -> str:
    """Stable identity of a spec: the daemon's key-memo index.

    Unlike the result-cache key this does **not** hash compiled programs
    (no compilation needed), so a resubmission is recognised before the
    daemon ever materialises it.
    """
    return json.dumps(normalize_spec(spec), sort_keys=True, separators=(",", ":"))


def spec_for_pair(
    suite: str,
    mem: int,
    comp: int,
    policy: str = "occamy",
    scale: float = 0.35,
    max_cycles: Optional[int] = None,
) -> Dict[str, object]:
    """Convenience builder used by the CLI and tests."""
    spec: Dict[str, object] = {
        "kind": "pair",
        "suite": suite,
        "mem": mem,
        "comp": comp,
        "policy": policy,
        "scale": scale,
    }
    if max_cycles is not None:
        spec["max_cycles"] = max_cycles
    return normalize_spec(spec)


def spec_for_motivate(
    policy: str = "occamy", scale: float = 0.5, max_cycles: Optional[int] = None
) -> Dict[str, object]:
    spec: Dict[str, object] = {"kind": "motivate", "policy": policy, "scale": scale}
    if max_cycles is not None:
        spec["max_cycles"] = max_cycles
    return normalize_spec(spec)
