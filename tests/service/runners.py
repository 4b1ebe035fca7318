"""Injectable worker runners for service failure-path tests.

These run inside forked worker processes, so they must be module-level
(importable) and configured through the environment / filesystem rather
than closures.  A runner hands back what the daemon serves — the run's
:func:`repro.service.protocol.summarize_result` dict, ``key`` left for the
daemon to stamp — so ``make_fake_result`` builds one of those and pure
scheduling tests never pay for a real simulation.
"""

from __future__ import annotations

import os
import time

#: Sleep duration (seconds) used by :func:`sleep_runner`.
SLEEP_ENV = "REPRO_TEST_SLEEP_S"

#: Sentinel file used by :func:`crash_once_runner`.
SENTINEL_ENV = "REPRO_TEST_SENTINEL"


def make_fake_result(policy_key: str = "occamy", total_cycles: int = 1000):
    """A summary that no simulation produced, the same on every call."""
    return {
        "policy": policy_key,
        "total_cycles": total_cycles,
        "core_cycles": [total_cycles, total_cycles],
        "key": None,
        "fingerprint": {"fake": f"{policy_key}:{total_cycles}"},
    }


def fast_runner(task):
    """Complete instantly with a fake result."""
    return make_fake_result(policy_key=getattr(task, "policy_key", "occamy"))


def sleep_runner(task):
    """Hold the worker busy for ``$REPRO_TEST_SLEEP_S`` seconds."""
    time.sleep(float(os.environ.get(SLEEP_ENV, "0.5")))
    return make_fake_result(policy_key=getattr(task, "policy_key", "occamy"))


def hang_runner(task):
    """Never finish within any sane test deadline (timeout-path tests)."""
    time.sleep(3600.0)
    return make_fake_result()


def fail_runner(task):
    """Deterministic in-worker failure: must not be retried."""
    raise RuntimeError("synthetic deterministic failure")


def crash_runner(task):
    """Die abruptly (no exception, no result) — simulates a killed worker."""
    os._exit(42)


def crash_once_runner(task):
    """Crash on the first attempt, succeed on the retry.

    The first call creates the sentinel file named by
    ``$REPRO_TEST_SENTINEL`` and kills the worker; subsequent attempts
    (fresh worker, sentinel present) succeed with a fake result.
    """
    sentinel = os.environ[SENTINEL_ENV]
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(42)
    return make_fake_result()
