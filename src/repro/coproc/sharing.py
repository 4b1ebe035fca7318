"""How cores share the lane pool: :class:`SharingMode`.

Its own module so that naming a policy (:mod:`repro.core.policies`) does
not import the co-processor engine, which re-exports it under its old path.
"""

from __future__ import annotations

import enum


class SharingMode(enum.Enum):
    """How cores share the lane pool."""

    SPATIAL = "spatial"  # Private / VLS / Occamy: partitioned ownership
    TEMPORAL = "temporal"  # FTS: fine-grained full-width time multiplexing
    #: CTS (Beldianu & Ziavras's coarse-grained alternative): one core owns
    #: the whole co-processor per quantum; switching pays a drain/restore
    #: penalty but there is no shared-VRF renaming pressure.
    COARSE_TEMPORAL = "coarse-temporal"
