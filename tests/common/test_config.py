"""Configuration (Table 4) validation and scaling."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.common import config as config_module
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    VectorConfig,
    describe,
    experiment_config,
    table4_config,
)
from repro.common.errors import ConfigurationError


class TestTable4Defaults:
    def test_two_cores_32_lanes(self):
        config = table4_config()
        assert config.num_cores == 2
        assert config.vector.total_lanes == 32
        assert config.lanes_per_core_private == 16

    def test_vector_issue_width_is_four(self):
        config = table4_config()
        assert config.vector.issue_width == 4
        assert config.vector.compute_issue_width == 2
        assert config.vector.ldst_issue_width == 2

    def test_memory_hierarchy_latencies(self):
        memory = table4_config().memory
        assert memory.vec_cache.latency == 5
        assert memory.l2.latency == 18
        assert memory.vec_cache.size_bytes == 128 * 1024
        assert memory.l2.size_bytes == 8 * 1024 * 1024

    def test_dram_is_32_bytes_per_cycle(self):
        # 64 GB/s at 2 GHz.
        assert table4_config().memory.dram_bytes_per_cycle == 32

    def test_line_size_uniform(self):
        assert table4_config().memory.line_bytes == 64

    def test_describe_rows(self):
        rows = describe(table4_config())
        assert rows["lanes"][0] == 32
        assert rows["cores"][0] == 2


class TestScaling:
    def test_scale_to_four_cores_keeps_lanes_per_core(self):
        config = table4_config(num_cores=4)
        assert config.num_cores == 4
        assert config.vector.total_lanes == 64
        assert config.lanes_per_core_private == 16

    def test_experiment_config_smaller_caches_same_timing(self):
        config = experiment_config()
        table4 = table4_config()
        assert config.memory.vec_cache.size_bytes < table4.memory.vec_cache.size_bytes
        assert config.memory.l2.size_bytes < table4.memory.l2.size_bytes
        assert config.memory.vec_cache.latency == table4.memory.vec_cache.latency
        assert config.memory.l2.latency == table4.memory.l2.latency
        assert config.memory.dram_bytes_per_cycle == table4.memory.dram_bytes_per_cycle

    def test_replace(self):
        config = table4_config().replace(frequency_ghz=3.0)
        assert config.frequency_ghz == 3.0
        assert config.num_cores == 2

    def test_scale_to_larger_sweep_sizes(self):
        for num_cores in (8, 16, 32):
            config = table4_config().scaled_to_cores(num_cores)
            assert config.num_cores == num_cores
            assert config.lanes_per_core_private == 16

    def test_indivisible_lane_pool_rejected_with_both_values(self):
        # __post_init__ already rejects indivisible configs, so forge one
        # (as a corrupted/monkeypatched config would) to prove the scaling
        # path refuses to truncate rather than silently shrinking the
        # per-core lane budget.
        config = table4_config()
        object.__setattr__(config, "num_cores", 3)
        with pytest.raises(ConfigurationError) as excinfo:
            config.scaled_to_cores(8)
        assert "32" in str(excinfo.value)
        assert "3" in str(excinfo.value)


class TestValidation:
    def test_cache_size_must_divide(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, ways=8, line_bytes=64)

    def test_cache_positive_dimensions(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0, ways=8)

    def test_num_sets(self):
        cache = CacheConfig(size_bytes=8192, ways=8, line_bytes=64)
        assert cache.num_sets == 16

    def test_lanes_must_divide_cores(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=3, vector=VectorConfig(total_lanes=32))

    def test_vregs_must_exceed_arch(self):
        with pytest.raises(ConfigurationError):
            VectorConfig(vregs_per_block=16, arch_vregs=32)

    def test_compute_latency_at_least_one_cycle(self):
        # A compute completing in its own dispatch cycle would wake a
        # dependant mid-scan, which batched dispatch planning rules out.
        with pytest.raises(ConfigurationError):
            VectorConfig(compute_latency=0)

    def test_core_parameters_positive(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(scalar_ipc=0)

    def test_dram_latency_positive(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(dram_latency=0)

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(
                vec_cache=CacheConfig(size_bytes=8192, ways=8, line_bytes=32),
                l2=CacheConfig(size_bytes=65536, ways=16, line_bytes=64),
            )


class TestValidateCoreCounts:
    """Satellite: --cores values are validated everywhere they appear."""

    def test_accepts_ints_and_numeric_strings(self):
        from repro.common.config import validate_core_count, validate_core_counts

        assert validate_core_count(4) == 4
        assert validate_core_count("16") == 16
        assert validate_core_counts(["2", 4, "8"]) == (2, 4, 8)

    def test_rejects_non_integers_naming_the_value(self):
        from repro.common.config import validate_core_count

        with pytest.raises(ConfigurationError, match="'4x'"):
            validate_core_count("4x")
        with pytest.raises(ConfigurationError, match="2.5"):
            validate_core_count(2.5)
        with pytest.raises(ConfigurationError, match="True"):
            validate_core_count(True)

    def test_rejects_non_positive(self):
        from repro.common.config import validate_core_count

        with pytest.raises(ConfigurationError, match="got 0"):
            validate_core_count(0)
        with pytest.raises(ConfigurationError, match="got -2"):
            validate_core_count(-2)

    def test_rejects_duplicates_and_empty(self):
        from repro.common.config import validate_core_counts

        with pytest.raises(ConfigurationError, match="duplicate core count 8"):
            validate_core_counts([4, 8, "8"])
        with pytest.raises(ConfigurationError, match="at least one"):
            validate_core_counts([])

    def test_names_the_source_flag(self):
        from repro.common.config import validate_core_counts

        with pytest.raises(ConfigurationError, match="motivate --cores"):
            validate_core_counts(["x"], source="motivate --cores")


def _attributes_read(root, skip):
    """Every ``.<name>`` that a module under ``root`` other than ``skip`` loads."""
    names = set()
    for path in root.rglob("*.py"):
        if path == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_outside_its_definition():
    """A field that nothing reads still splits every cache key and every
    sweep over it; a field read only by ``common/config.py`` itself (its
    validation, its scaling) configures nothing."""
    root = Path(config_module.__file__).resolve().parents[1]
    read = _attributes_read(root, Path(config_module.__file__).resolve())
    unread = sorted(
        f"{cls.__name__}.{field.name}"
        for cls in (MachineConfig, VectorConfig, CoreConfig, MemoryConfig, CacheConfig)
        for field in dataclasses.fields(cls)
        if field.name not in read
    )
    assert unread == []
