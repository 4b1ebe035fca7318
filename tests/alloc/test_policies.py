"""The policy registry, and the placement the frozen ledger reads from it."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.alloc import ALLOC_POLICIES_BY_KEY, AllocContext
from repro.alloc.placement import ThreadSpec
from repro.analysis.ecm import predict_workload
from repro.analysis.experiments import alloc_threads
from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError

from tests.conftest import make_axpy

BASELINE = Path(__file__).resolve().parents[2] / "bench" / "results" / "baseline.json"


def _threads(count=4, kernel=None):
    kernel = kernel or make_axpy(length=64)
    return [ThreadSpec(key=f"t:{i:02d}", kernel=kernel) for i in range(count)]


def _ledger_placement(num_cores):
    """What ``bench/wl_sim.py``'s ``ncore16_cold`` set-up times and records."""
    threads = alloc_threads(num_cores, scale=0.05)
    context = AllocContext(config=experiment_config(num_cores=2), sharing_key="occamy")
    return threads, ALLOC_POLICIES_BY_KEY["symbiosis"](threads, context)


def test_registry_is_complete_and_consistent():
    assert tuple(ALLOC_POLICIES_BY_KEY) == ("symbiosis",)
    for key, policy in ALLOC_POLICIES_BY_KEY.items():
        assert policy.key == key


def test_policies_reject_uneven_thread_counts():
    context = AllocContext(config=experiment_config(num_cores=2))
    with pytest.raises(ConfigurationError, match="evenly"):
        ALLOC_POLICIES_BY_KEY["symbiosis"](_threads(5), context)


def test_ledger_placement_and_ecm_cycles_match_the_baseline():
    """``ncore16_cold``'s exact extras, as the committed baseline holds them."""
    exact = json.loads(BASELINE.read_text(encoding="utf-8"))["workloads"]["ncore16_cold"]["exact"]
    threads, placement = _ledger_placement(16)
    assert repr(placement) == exact["alloc_placement"]["value"]
    assert repr(placement) == (
        "((1, 10), (12, 15), (8, 3), (0, 5), (2, 11), (6, 14), (7, 4), (13, 9))"
    )
    cycles = [predict_workload(thread.kernel, "occamy").cycles for thread in threads]
    assert repr(cycles) == exact["ecm_cycles"]["value"]


def test_ledger_smoke_placement_is_pinned():
    """The 4-core blend the bench's ``--smoke`` run places."""
    _, placement = _ledger_placement(4)
    assert placement == ((1, 3), (0, 2))
