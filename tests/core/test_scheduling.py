"""Scheduling wakes on the machine's event wheel.

:class:`repro.core.machine.EventWheel` against a brute-force ``min``
oracle, and the wheel-driven fast engine against the wheel-less
reference.
"""

from tests.conftest import make_axpy, make_reduction


class TestHierarchicalWheel:
    """The lazy-heap wake index against a brute-force ``min`` oracle (the
    class keeps the name of the two-level wheel it was written for)."""

    def test_matches_flat_wheel_on_randomized_schedules(self):
        import random

        from repro.core.machine import EventWheel

        class FlatWheel:
            """The wake-index contract spelled out over one dict."""

            def __init__(self):
                self.wake = {}

            def next_wake(self):
                return min(self.wake.values()) if self.wake else None

            def due(self, cycle):
                out = sorted(c for c, w in self.wake.items() if w <= cycle)
                for component in out:
                    del self.wake[component]
                return out

        for seed in range(20):
            rng = random.Random(seed)
            flat = FlatWheel()
            hier = EventWheel()
            clock = 0
            for _ in range(300):
                action = rng.random()
                component = rng.randrange(64)
                if action < 0.55:
                    cycle = clock + rng.randrange(1, 400)
                    flat.wake[component] = cycle
                    hier.schedule(component, cycle)
                elif action < 0.75:
                    flat.wake.pop(component, None)
                    hier.cancel(component)
                else:
                    # Advance to (or past) the next wake and pop, the way
                    # the tickless run loop drives the wheel.
                    target = flat.next_wake()
                    assert hier.next_wake() == target
                    if target is None:
                        continue
                    clock = target + rng.choice((0, 0, 0, 3, 17))
                    assert hier.due(clock) == flat.due(clock)
                assert len(hier) == len(flat.wake)
                assert hier.wake_of(component) == flat.wake.get(component)
                assert hier.next_wake() == flat.next_wake()
            # Drain both: the full remaining wake sequence must agree.
            while flat.next_wake() is not None:
                target = flat.next_wake()
                assert hier.next_wake() == target
                assert hier.due(target) == flat.due(target)
            assert hier.next_wake() is None
            assert len(hier) == 0

    def test_reschedule_overrides_stale_heap_entries(self):
        from repro.core.machine import EventWheel

        wheel = EventWheel()
        wheel.schedule(5, 100)
        wheel.schedule(5, 40)  # moves earlier: old entry is stale
        assert wheel.next_wake() == 40
        assert wheel.due(40) == [5]
        wheel.schedule(6, 10)
        wheel.schedule(6, 500)  # moves later: earlier entry is stale
        assert wheel.next_wake() == 500
        assert wheel.due(10) == []
        assert wheel.due(500) == [6]

    def test_machine_fingerprint_identical_with_and_without(self, config):
        """The wheel-driven fast engine against the wheel-less reference."""
        from repro.core.policies import policy
        from tests.conftest import compiled_job, engines_agree

        engines_agree(
            config,
            policy("occamy"),
            lambda: [
                compiled_job(make_axpy(2048), 0),
                compiled_job(make_reduction(256, 8), 1),
            ],
        )
