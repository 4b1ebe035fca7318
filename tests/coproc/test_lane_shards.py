"""The lane partition and CTS arbitration, on their own and across engines.

There is one greedy partition, the literal round loop of §5.2 in
``core/partition.py``; both engines call it.
"""

import pytest

from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError
from repro.core.partition import greedy_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue
from tests.conftest import compiled_job, engines_agree, make_axpy, make_reduction


class TestBulkGreedyPartition:
    def _roofline(self):
        return RooflineModel.from_config(experiment_config())

    def test_oversubscribed_still_rejected(self):
        roofline = self._roofline()
        demands = {
            core: OIValue(issue=1.0, mem=1.0, level="dram") for core in range(3)
        }
        with pytest.raises(ConfigurationError):
            greedy_partition(demands, 2, roofline)


class TestKillSwitch:
    def test_fingerprints_identical_with_and_without(self):
        """Partitioning and CTS arbitration on the fast engine against the
        reference engine, where each decides most."""
        from repro.core.policies import policy

        def jobs():
            return [
                compiled_job(make_axpy(1536), 0),
                compiled_job(make_reduction(256, 6), 1),
            ]

        for policy_key in ("occamy", "cts"):
            engines_agree(experiment_config(), policy(policy_key), jobs)
