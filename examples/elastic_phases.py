#!/usr/bin/env python
"""Watch elastic lane re-partitioning across phase changes, live.

Builds a custom two-phase workload (a DRAM-streaming phase followed by a
cache-resident compute phase) and co-runs it against a long compute
kernel, stepping the machine manually and printing every lane-plan change
the LaneMgr makes — the paper's Fig. 8 "eager-lazy" dance.

Run:  python examples/elastic_phases.py
"""

from repro import (
    Assign,
    BinOp,
    Const,
    Job,
    Kernel,
    Load,
    Loop,
    Machine,
    OCCAMY,
    build_image,
    compile_kernel,
    experiment_config,
)
from repro.compiler.pipeline import CompileOptions


def streaming_then_compute() -> Kernel:
    streaming = Loop(
        "stream",
        trip_count=16384,
        body=(
            Assign("s_out", BinOp("add", Load("s_a"), Load("s_b"))),
            Assign("s_out2", BinOp("max", Load("s_c"), Load("s_a"))),
        ),
    )
    expr = BinOp("mul", Load("c_x"), Load("c_y"))
    for index in range(10):
        expr = BinOp("add", BinOp("mul", expr, Const(1.0 + 0.001 * index)), Load("c_x"))
    compute = Loop("crunch", trip_count=1024, repeats=60, body=(Assign("c_z", expr),))
    return Kernel("two_phase", array_length=16386, loops=(streaming, compute))


def long_compute() -> Kernel:
    expr = BinOp("mul", Load("w_a"), Load("w_b"))
    for index in range(9):
        expr = BinOp("add", BinOp("mul", expr, Const(1.0 + 0.002 * index)), Load("w_b"))
    loop = Loop("worker", trip_count=1024, repeats=300, body=(Assign("w_o", expr),))
    return Kernel("worker", array_length=1026, loops=(loop,))


def main() -> None:
    config = experiment_config()
    options = CompileOptions(memory=config.memory)
    wl0, wl1 = streaming_then_compute(), long_compute()
    machine = Machine(
        config,
        OCCAMY,
        [
            Job(compile_kernel(wl0, options), build_image(wl0, 0)),
            Job(compile_kernel(wl1, options), build_image(wl1, 1)),
        ],
    )

    print("cycle     core0 lanes   core1 lanes   free   event")
    table = machine.coproc.resource_table
    seen = (None, None)
    cycle = 0
    while not machine.finished and cycle < 500_000:
        machine.step(cycle)
        state = (table.vl(0), table.vl(1))
        if state != seen:
            oi0, oi1 = table.oi(0), table.oi(1)
            event = []
            if not oi0.is_phase_end:
                event.append(f"c0 in phase oi={oi0}")
            if not oi1.is_phase_end:
                event.append(f"c1 in phase oi={oi1}")
            print(
                f"{cycle:>8}   {state[0]:>6}        {state[1]:>6}      "
                f"{table.free_lanes:>4}   {'; '.join(event) or 'idle'}"
            )
            seen = state
        cycle += 1
    machine.metrics.close(cycle)
    print(f"\nDone in {cycle} cycles; "
          f"SIMD utilisation {100 * machine.metrics.simd_utilization():.1f}%; "
          f"{sum(machine.metrics.reconfig_success)} successful "
          f"<VL> reconfigurations.")


if __name__ == "__main__":
    main()
