"""``BENCHMARK.json`` is the registry, rendered; both obey the contract's limits."""

import json
import re

import metrics as registry
from harness import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_registry_rendered():
    assert _contract() == registry.benchmark_json()


def test_contract_shape_and_limits():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_metrics_are_defined_on_every_workload():
    for metric in registry.contract_end_to_end():
        assert metric.workloads == registry.ALL


def test_fill_layers_rejects_unregistered_names_and_zero_fills():
    filled = registry.fill_layers({"core.run_s": 1.5})
    assert filled["core.run_s"] == 1.5 and filled["cli.import_s"] == 0.0
    assert list(filled) == [layer.name for layer in registry.PER_LAYER]
    try:
        registry.fill_layers({"core.made_up_s": 1.0})
    except KeyError as exc:
        assert "core.made_up_s" in str(exc)
    else:
        raise AssertionError("an unregistered metric name must be refused")
