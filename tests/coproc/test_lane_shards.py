"""Incremental lane bookkeeping must equal its from-scratch counterpart.

The fast engine's bulk-round greedy partition has a scanning counterpart
these tests diff against: the literal round loop kept in ``partition.py``.
"""

import random

import pytest

from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError
from repro.core.partition import greedy_partition, greedy_partition_rounds
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue
from tests.conftest import compiled_job, engines_agree, make_axpy, make_reduction


class TestBulkGreedyPartition:
    def _roofline(self):
        return RooflineModel.from_config(experiment_config())

    def _random_demands(self, rng, num_cores):
        demands = {}
        for core in range(num_cores):
            if rng.random() < 0.25:
                continue  # no running phase on this core
            demands[core] = OIValue(
                issue=rng.uniform(0.05, 8.0),
                mem=rng.uniform(0.05, 8.0),
                level=rng.choice(("dram", "l2", "vec_cache")),
            )
        return demands

    def test_bulk_rounds_match_reference_rounds(self):
        roofline = self._roofline()
        for seed in range(60):
            rng = random.Random(seed)
            demands = self._random_demands(rng, rng.choice((2, 4, 8, 16)))
            if not demands:
                continue
            bulk = greedy_partition(demands, 32, roofline)
            reference = greedy_partition_rounds(demands, 32, roofline)
            assert bulk == reference, f"seed {seed}: {demands}"

    def test_oversubscribed_still_rejected(self):
        roofline = self._roofline()
        demands = {
            core: OIValue(issue=1.0, mem=1.0, level="dram") for core in range(3)
        }
        for partition in (greedy_partition, greedy_partition_rounds):
            with pytest.raises(ConfigurationError):
                partition(demands, 2, roofline)


class TestKillSwitch:
    def test_fingerprints_identical_with_and_without(self):
        """Bulk partitioning and CTS arbitration on the fast engine against
        the reference engine, where each decides most."""
        from repro.core.policies import policy

        def jobs():
            return [
                compiled_job(make_axpy(1536), 0),
                compiled_job(make_reduction(256, 6), 1),
            ]

        for policy_key in ("occamy", "cts"):
            engines_agree(experiment_config(), policy(policy_key), jobs)
