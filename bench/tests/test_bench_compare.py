"""``compare.py`` verdicts on hand-made ledgers."""

import compare
import harness
import metrics as registry

BOUND = registry.end_to_end_by_name()["wall_s"].bound
BASE = [10.0, 10.1, 10.2]


def _scaled(factor):
    return [value * factor for value in BASE]



def _ledger(wall, digest="d0", executed=(3.0, 3.0, 3.0), err=(0.1, 0.1, 0.1)):
    return {
        "seed": 0, "seconds": 20, "runs": 3, "smoke": False,
        "workloads": {
            "pair2_cold": {
                "end_to_end": {
                    "wall_s": harness.summarize(wall),
                    "fig2_sp1_err": harness.summarize(err),
                },
                "per_layer": {
                    "core.run_s": harness.summarize([w * 0.99 for w in wall]),
                    "core.sim_cycles": harness.summarize(executed),
                },
                "exact": {"sim_digest": {"value": digest, "repeats": True}},
            }
        },
    }


def _verdicts(a, b):
    lines, bad = compare.compare(a, b)
    return "\n".join(lines), bad


def test_same_ledger_is_clean():
    text, bad = _verdicts(_ledger(BASE), _ledger(BASE))
    assert bad == 0 and "REGRESSION" not in text and "exact counts and digests: same" in text


def test_worse_by_more_than_the_bound_is_a_regression():
    text, bad = _verdicts(_ledger(BASE), _ledger(_scaled(1 + BOUND + 0.05)))
    assert bad == 1 and "REGRESSION" in text


def test_within_the_bound_is_ok_even_when_slower():
    text, bad = _verdicts(_ledger(BASE), _ledger(_scaled(1 + BOUND / 2)))
    assert bad == 0 and "  ok" in text


def test_wide_spread_is_unresolved_unless_one_side_wins_every_run():
    noisy = _ledger([10.0 * (1 - BOUND), 10.5, 10.0 * (1 + 2 * BOUND)])
    text, bad = _verdicts(_ledger(BASE), noisy)
    assert bad == 0 and "unresolved" in text
    text, bad = _verdicts(noisy, _ledger(_scaled(0.5)))
    assert bad == 0 and "every run better" in text
    text, bad = _verdicts(_ledger(_scaled(0.5)), noisy)
    assert bad == 1 and "REGRESSION" in text


def test_higher_is_better_metrics_flip_direction():
    a = {"median": 100.0, "q1": 99.0, "q3": 101.0, "values": [99.0, 100.0, 101.0]}
    b = {"median": 80.0, "q1": 79.0, "q3": 81.0, "values": [79.0, 80.0, 81.0]}
    assert compare.timed_verdict(a, b, "higher", 0.10)[0] == "REGRESSION"
    assert compare.timed_verdict(b, a, "higher", 0.10)[0] == "ok"


def test_exact_values_must_be_equal():
    base = _ledger(BASE)
    text, bad = _verdicts(base, _ledger(BASE, digest="d1"))
    assert bad == 1 and "DIFFERS: sim_digest" in text
    text, bad = _verdicts(base, _ledger(BASE, executed=(4.0, 4.0, 4.0)))
    assert bad == 1 and "core.sim_cycles" in text
    text, bad = _verdicts(base, _ledger(BASE, executed=(3.0, 4.0, 3.0)))
    assert bad == 1 and "did not repeat" in text
    text, bad = _verdicts(base, _ledger(BASE, err=(0.2, 0.2, 0.2)))
    assert bad == 1 and "fig2_sp1_err" in text and "DIFFERS" in text
