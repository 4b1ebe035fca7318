"""Every workload at its smallest legal size (``--smoke``): it completes,
passes its own checks, emits every registered metric, keeps the span tree
well-formed, and repeats its counts and digests run to run.

Slow by unit-test standards (~80 s: real simulations, a real daemon);
deliberately not part of the tier-1 suite.
"""

import json
import re
import subprocess
import sys

import pytest

import harness
import metrics as registry

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(workload, seed=0, trace=1):
    done = subprocess.run(
        [
            sys.executable, str(harness.BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "20",
            "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("DETAIL "))
    spans = []
    if trace:
        with open(harness.RESULTS_DIR / f"trace-{workload}.json", encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
    return {"detail": detail, "line": json.loads(lines[-1]), "spans": spans}


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name) for name in registry.ALL}


def _exact_layers(detail):
    exact = {layer.name for layer in registry.PER_LAYER if layer.exact}
    return {k: v for k, v in detail["per_layer"].items() if k in exact}


def test_result_line_keeps_the_contract(traced):
    every_layer = [layer.name for layer in registry.PER_LAYER]
    for name, run in traced.items():
        line = run["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, name
        assert line["correct"] is True and line["failed"] == 0, run["detail"]["failures"]
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert list(line["metrics"]) == every_layer, name
        units = {layer.name: layer.unit for layer in registry.PER_LAYER}
        for metric, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"} and entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))


def test_untraced_run_gives_exactly_the_contract_end_to_end_metrics():
    run = _run("pair2_cold", trace=0)
    contract = [m.name for m in registry.contract_end_to_end()]
    assert list(run["line"]["metrics"]) == contract
    assert all(run["line"]["metrics"][name]["value"] > 0 for name in contract)
    assert run["detail"]["per_layer"] == {} and run["spans"] == []


def test_every_registered_metric_is_measured_by_some_workload(traced):
    layers = set().union(*(run["detail"]["per_layer"] for run in traced.values()))
    # The smoke pair runs under two of the four policies only.
    layers |= {"core.run_s.private", "core.run_s.vls"}
    assert layers == {layer.name for layer in registry.PER_LAYER}
    end_to_end = set().union(*(run["detail"]["end_to_end"] for run in traced.values()))
    assert end_to_end == {metric.name for metric in registry.END_TO_END}
    assert all(NAME.match(name) for name in layers | end_to_end)
    for name, run in traced.items():
        for metric in registry.END_TO_END:
            assert (metric.name in run["detail"]["end_to_end"]) == (name in metric.workloads)


def test_engine_layers_read_nothing_where_the_engine_is_bypassed(traced):
    assert "core.run_s" not in traced["report_warm"]["detail"]["per_layer"]
    assert "core.run_s" not in traced["serve_mixed"]["detail"]["per_layer"]
    for name in registry.SIM:
        layers = traced[name]["detail"]["per_layer"]
        assert layers["core.run_s"] >= 0.9 * layers["bench.wall_s"]
        assert layers["validation.oracle_mismatches"] == 0


def test_span_tree_invariants(traced):
    for name, run in traced.items():
        spans = run["spans"]
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            assert span["end"] >= span["start"] and span["job"], (name, span)
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        own = harness.self_times(spans)
        assert all(value >= -1e-9 for value in own.values())
        # Parts against the whole: what the top-level spans cover is the
        # traced run's timed region to within 2 % (the harness checks the
        # same and counts a miss as a failed operation).
        assert run["detail"]["failed"] == 0


@pytest.mark.parametrize("workload", ["pair2_cold", "serve_mixed"])
def test_one_seed_twice_repeats_counts_and_digests(traced, workload):
    first = traced[workload]["detail"]
    again = _run(workload)["detail"]
    assert _exact_layers(again) == _exact_layers(first)
    assert again["exact"] == first["exact"]


def test_another_seed_reorders_the_work_but_not_the_fixed_digests(traced):
    first = traced["pair2_cold"]
    other = _run("pair2_cold", seed=3)

    def order(run):
        return [span["job"] for span in run["spans"] if span["parent"] is None]

    assert sorted(order(other)) == sorted(order(first))
    assert order(other) != order(first)
    assert other["detail"]["exact"]["item_digests"] == first["detail"]["exact"]["item_digests"]
    assert other["detail"]["exact"]["sim_digest"] == first["detail"]["exact"]["sim_digest"]
    assert (
        other["detail"]["exact"]["random_pair_digest"]
        != first["detail"]["exact"]["random_pair_digest"]
    )
