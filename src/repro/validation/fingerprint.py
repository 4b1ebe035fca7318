"""Run fingerprints: everything observable about a :class:`RunResult`.

The differential layers (the determinism suite, the cross-engine fuzzer)
compare complete runs across execution strategies, so the fingerprint must
cover every value a figure or table could read: cycle counts, uop/stall/
overhead counters, phase records, lane timelines, LSU/cache statistics and
the final memory image bytes.  ``fingerprint_sections`` keeps the values
grouped under stable names so a mismatch can be reported as *which* piece
of state diverged rather than as two giant unequal tuples.

``fingerprint_digests`` reduces each section to one SHA-256 and
``summarize_result`` wraps the digest map into the JSON-safe summary the
service ships and the result cache stores in front of every entry.  They
live here, not in :mod:`repro.service.protocol` (which re-exports them),
so the cache can summarise a result without importing the service package.
"""

from __future__ import annotations

import codecs
import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional, Sequence

#: Bytes values are escaped into the hash this many bytes at a time.
_BYTES_CHUNK = 1 << 16


def fingerprint_sections(result) -> Dict[str, object]:
    """Named, hashable sections of everything observable about a run.

    Accepts any object shaped like :class:`~repro.core.machine.RunResult`.
    Section values are plain hashable tuples, so two runs can be compared
    section-by-section and the diverging sections named.
    """
    sections = _counter_sections(result)
    sections["memory_images"] = tuple(
        None
        if image is None
        else tuple((name, values.tobytes()) for name, values in image.buffers())
        for image in result.images
    )
    return sections


def _counter_sections(result) -> Dict[str, object]:
    """Every section but the last, ``memory_images``."""
    m = result.metrics
    return {
        "policy": result.policy_key,
        "total_cycles": result.total_cycles,
        "core_cycles": tuple(result.core_cycles),
        "compute_uops": tuple(m.compute_uops),
        "ldst_uops": tuple(m.ldst_uops),
        "flops": tuple(m.flops),
        "busy_pipe_slots": m.busy_pipe_slots,
        "stalls": tuple(
            tuple(sorted((reason.name, count) for reason, count in per_core.items()))
            for per_core in m.stalls
        ),
        "overhead": (tuple(m.monitor_cycles), tuple(m.reconfig_cycles)),
        "reconfigurations": (tuple(m.reconfig_success), tuple(m.reconfig_failed)),
        "phases": tuple(
            (p.core, repr(p.oi), p.start_cycle, p.end_cycle, p.compute_uops, p.ldst_uops)
            for p in m.phases
        ),
        "lane_timelines": tuple(tuple(t.points) for t in m.lane_timeline),
        "busy_lanes_series": tuple(
            tuple(series.totals()) for series in m.busy_lanes_series
        ),
        "lsu_stats": tuple(repr(stats) for stats in result.lsu_stats),
        "cache_stats": tuple(
            sorted((name, repr(stats)) for name, stats in result.cache_stats.items())
        ),
    }


def feed_repr(update: Callable[[bytes], object], value: object) -> None:
    """Pass ``repr(value).encode("utf-8")`` to ``update``, piece by piece.

    Plain tuples are walked and ``bytes`` leaves are escaped one chunk at a
    time, so hashing a section never materialises the ``repr`` of a whole
    memory image (4 characters per byte, then the same again encoded).
    Everything else — including tuple subclasses, whose ``repr`` differs —
    goes through ``repr`` itself, so the bytes fed are exactly those of
    ``repr(value).encode("utf-8")``.
    """
    kind = type(value)
    if kind is tuple and value:
        update(b"(")
        feed_repr(update, value[0])
        for item in value[1:]:
            update(b", ")
            feed_repr(update, item)
        update(b",)" if len(value) == 1 else b")")
    elif kind is bytes:
        # bytes.__repr__ picks its quote from the whole value and escapes
        # each byte on its own, as ``codecs.escape_encode`` does — except
        # that the latter always escapes ``'``, which a double-quoted repr
        # leaves bare.  That function is undocumented CPython API;
        # ``test_escaped_bytes_digest_as_their_repr`` pins it to ``repr``.
        single = b'"' in value or b"'" not in value
        quote = b"'" if single else b'"'
        update(b"b" + quote)
        for start in range(0, len(value), _BYTES_CHUNK):
            escaped = codecs.escape_encode(value[start : start + _BYTES_CHUNK])[0]
            update(escaped if single else escaped.replace(b"\\'", b"'"))
        update(quote)
    else:
        update(repr(value).encode("utf-8"))


def _feed_tuple(update: Callable[[bytes], object], items: Sequence, feed_item) -> None:
    """:func:`feed_repr` of ``tuple(items)``, each item fed by ``feed_item``."""
    update(b"(")
    for index, item in enumerate(items):
        if index:
            update(b", ")
        feed_item(item)
    update(b",)" if len(items) == 1 else b")")


def _feed_images(update: Callable[[bytes], object], images: Sequence) -> None:
    """:func:`feed_repr` of the ``memory_images`` section, one array's
    bytes alive at a time (the section itself holds every image's bytes)."""

    def feed_image(image) -> None:
        if image is None:
            update(b"None")
        else:
            _feed_tuple(
                update,
                list(image.buffers()),
                lambda pair: feed_repr(update, (pair[0], pair[1].tobytes())),
            )

    _feed_tuple(update, images, feed_image)


def fingerprint_digests(result) -> Dict[str, str]:
    """SHA-256 per named fingerprint section of ``result``.

    Section values are the hashable tuples produced by
    :func:`fingerprint_sections`; their ``repr`` is deterministic across
    processes, so equal digests mean bit-identical observable state.  Each
    digest equals ``sha256(repr(value).encode("utf-8"))``, streamed
    through :func:`feed_repr` — the memory images array by array, without
    building their section.
    """
    digests = {}
    for section, value in _counter_sections(result).items():
        digest = hashlib.sha256()
        feed_repr(digest.update, value)
        digests[section] = digest.hexdigest()
    digest = hashlib.sha256()
    _feed_images(digest.update, result.images)
    digests["memory_images"] = digest.hexdigest()
    return digests


def summarize_result(result, key: Optional[str] = None) -> Dict[str, object]:
    """The JSON-safe summary of one run: what the service ships over the
    socket and what the result cache stores in front of the full result.
    ``profile`` (the :class:`~repro.core.result.RunProfile` as a dict, or
    ``None``) is not a fingerprint section: it says how the engine got there.
    """
    profile = result.profile
    return {
        "policy": result.policy_key,
        "total_cycles": result.total_cycles,
        "core_cycles": list(result.core_cycles),
        "key": key,
        "fingerprint": fingerprint_digests(result),
        "profile": None if profile is None else dataclasses.asdict(profile),
    }


def run_fingerprint(result) -> tuple:
    """The full fingerprint as one hashable tuple (section order is fixed)."""
    return tuple(fingerprint_sections(result).items())


def diff_fingerprints(baseline: Dict[str, object], other: Dict[str, object]) -> List[str]:
    """Names of the sections in which ``other`` differs from ``baseline``.

    Both arguments come from :func:`fingerprint_sections`.  Returns an
    empty list when the runs are bit-identical.
    """
    diverged = []
    for section, expected in baseline.items():
        if other.get(section) != expected:
            diverged.append(section)
    for section in other:
        if section not in baseline:  # pragma: no cover - defensive
            diverged.append(section)
    return diverged


def describe_divergence(
    baseline: Dict[str, object], other: Dict[str, object], sections: List[str]
) -> List[str]:
    """Short human-readable lines describing each diverging section."""
    lines = []
    for section in sections:
        expected = repr(baseline.get(section))
        got = repr(other.get(section))
        if len(expected) > 120:
            expected = expected[:117] + "..."
        if len(got) > 120:
            got = got[:117] + "..."
        lines.append(f"{section}: baseline={expected} got={got}")
    return lines
