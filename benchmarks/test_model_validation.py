"""Model fidelity: the analytical models vs the cycle-approximate machine.

Not a paper figure — a validation study for DESIGN.md.  Two gates:

* the Eq. 4 roofline the lane manager plans with: its *ordering* (more
  attainable performance -> more achieved throughput) and saturation
  knees must track the simulator for the plans to make sense;
* the ECM cycle predictor (``repro.analysis.ecm``): its *absolute*
  predictions feed the symbiosis allocation policy and the
  ``repro perf-report`` error tables, so its geomean relative cycle
  error across the Table 3 workloads under occamy/fts/cts is CI-gated
  at ``ECM_ERROR_GATE``.
"""

from benchmarks.conftest import banner, run_once
from repro.analysis.perf_report import ECM_ERROR_GATE
from repro.analysis.reporting import format_table
from repro.analysis.validation import validate_ecm, validate_phase
from repro.workloads.spec import spec_workload


def test_roofline_tracks_machine(benchmark, bench_scale):
    scale = min(bench_scale, 0.2)

    def run_all():
        return {
            # wsm52: compute-intensive, Vec-Cache resident -> scales to 32.
            "wsm52 (compute)": validate_phase(spec_workload(17, scale=scale)),
            # sff2: streaming, low intensity -> saturates early.
            "sff2 (memory)": validate_phase(spec_workload(20, scale=scale)),
            # rho_eos2: the Case 4 phase with data reuse.
            "rho_eos2 (reuse)": validate_phase(spec_workload(19, scale=scale)),
        }

    results = run_once(benchmark, run_all)

    for label, validation in results.items():
        rows = [
            [p.lanes, f"{p.predicted:.2f}", f"{p.achieved:.2f}", p.phase_cycles]
            for p in validation.points
        ]
        banner(
            f"Model vs machine — {label}  (oi={validation.oi_issue:.2f}/"
            f"{validation.oi_mem:.2f} [{validation.level}])"
        )
        print(format_table(["lanes", "predicted AP", "achieved", "cycles"], rows))
        print(
            f"knees: predicted={validation.predicted_knee} "
            f"measured={validation.measured_knee}; "
            f"ordering agreement={100 * validation.ordering_agreement:.0f}%"
        )

    compute = results["wsm52 (compute)"]
    memory = results["sff2 (memory)"]
    # The compute phase keeps gaining to the last lane in both worlds.
    assert compute.predicted_knee == 32
    assert compute.measured_knee >= 24
    # The memory phase saturates early in both worlds (8 lanes reaches
    # ~87% of peak in the machine; the 90%-threshold knee lands by 16).
    assert memory.predicted_knee <= 8
    assert memory.measured_knee <= 16
    # And the model orders lane choices like the machine does.
    for validation in results.values():
        assert validation.ordering_agreement >= 0.7

    benchmark.extra_info["agreement"] = {
        label: validation.ordering_agreement
        for label, validation in results.items()
    }


def test_ecm_tracks_machine(benchmark, bench_scale):
    """ECM absolute cycle predictions vs full policy runs (CI gate).

    Sweeps every Table 3 workload solo under occamy/fts/cts and requires
    the geomean relative cycle error to stay under the gate the perf
    report publishes (``ECM_ERROR_GATE``).
    """
    scale = min(bench_scale, 0.1)

    validation = run_once(benchmark, lambda: validate_ecm(scale=scale))

    banner(f"ECM vs machine — {len(validation.points)} points @ scale {scale}")
    print(
        format_table(
            [
                "workload",
                "policy",
                "predicted",
                "non-overlap",
                "measured",
                "error",
                "pred IPC",
                "meas IPC",
            ],
            validation.table_rows(),
        )
    )
    by_policy = validation.errors_by_policy()
    print(
        "geomean error: "
        + " ".join(f"{key}={100 * err:.1f}%" for key, err in by_policy.items())
        + f"  overall={100 * validation.geomean_error:.1f}% "
        f"(max {100 * validation.max_error:.1f}%, gate {100 * ECM_ERROR_GATE:.0f}%)"
    )

    assert validation.points, "validation sweep produced no points"
    assert validation.geomean_error <= ECM_ERROR_GATE
    # No single workload/policy should be wildly off even when the
    # geomean looks healthy.
    assert validation.max_error <= 2 * ECM_ERROR_GATE

    benchmark.extra_info["ecm_geomean_error"] = validation.geomean_error
    benchmark.extra_info["ecm_errors_by_policy"] = by_policy
