"""Symmetric pair deduplication and the co-run candidate sets."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ncore_group
from repro.workloads.pairs import dedup_unordered


def test_symmetric_pairs_collapse():
    """(A,B) and (B,A) are the same complex; only the sorted form survives."""
    pairs = dedup_unordered([16, 15])
    assert pairs == [(15, 16)]
    assert dedup_unordered([15, 16]) == dedup_unordered([16, 15])


def test_self_pair_needs_two_copies():
    assert (15, 15) in dedup_unordered([15, 15, 16])
    assert (15, 15) not in dedup_unordered([15, 16])


def test_output_is_sorted_and_duplicate_free():
    keys = [20, 17, 17, 21]
    pairs = dedup_unordered(keys)
    assert pairs == sorted(pairs)
    assert len(pairs) == len(set(pairs))
    for a, b in pairs:
        assert a <= b


def test_distinct_keys_give_n_choose_2():
    pairs = dedup_unordered(["a", "b", "c", "d"])
    assert len(pairs) == 6  # C(4,2), no self-pairs


@pytest.mark.parametrize(
    "num_cores,expected",
    [
        # Cardinality regression: C(distinct, 2) + duplicated-key self-pairs
        # for the tiled Fig. 16 blend at each machine size.
        (4, 4),  # {6,15,16}: 3 cross + (15,15)
        (8, 17),  # {6,15,16,17,20,21}: 15 cross + (15,15),(17,17)
        (16, 59),  # 11 distinct: 55 cross + self 15,16,17,20
        (32, 66),  # 11 distinct: 55 cross + all 11 self-pairs
    ],
)
def test_blend_pair_set_cardinality(num_cores, expected):
    group = ncore_group(num_cores)
    pair_set = dedup_unordered(group)
    assert len(pair_set) == expected
    assert pair_set == sorted(set(pair_set))


def test_pair_set_is_placement_superset():
    """Every complex any placement could form is in the candidate set."""
    group = ncore_group(8)
    pair_set = set(dedup_unordered(group))
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            pair = tuple(sorted((group[i], group[j])))
            assert pair in pair_set
