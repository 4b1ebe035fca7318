"""Persistent on-disk cache of simulation results.

Every paper figure boils down to a set of ``(MachineConfig, policy,
program, memory image)`` simulations.  Those are deterministic, so their
:class:`~repro.core.result.RunResult` can be reused across *processes* —
a warm re-run of a figure costs only compilation plus deserialisation.

Keys are content hashes: the full configuration fingerprint, the policy
key, each core's program text (including instrumentation metadata) and
each memory image's recipe, or its bytes once filled.  Changing any input
— a cache size, a compiler optimisation, a workload scale — changes the
key, so stale entries are never returned; bump :data:`CACHE_VERSION` when
the *simulator's timing semantics* change instead.

Entry layout (``<key>.pkl``, one layout, written by :meth:`ResultCache.put`
only)::

    prefix   12 bytes  big-endian (CACHE_VERSION: u32, file length: u64)
    summary  pickle    summarize_result(result, key) - a ~1.7 KB dict
    result   pickle    the full RunResult            - hundreds of KB

The summary (policy, cycle counts, per-section fingerprint digests, the
run's profile) is computed once, where the result is produced, so that the
daemon can serve a cached resubmission from it.  Each reader touches only
what it returns:
:meth:`ResultCache.get_summary` reads the prefix and the summary frame —
one buffered read of the file's first block, never the result —
and :meth:`ResultCache.get` unpickles the summary only to step over it.
The length in the prefix is written last, over a zeroed placeholder, and
both readers check it against ``fstat``: that is how ``get_summary`` knows
the result frame it did not read is all there.

Loads are corruption-tolerant: a missing, truncated, unreadable or
version-mismatched file is treated as a miss (the caller re-simulates and
its ``put`` heals the entry), never an error.  That includes entries in
the earlier single-frame ``(CACHE_VERSION, RunResult)`` layout: their
first bytes do not parse as this version and this length, so they are
misses until overwritten, and there is no reader for them.  The layout
change therefore needs no :data:`CACHE_VERSION` bump — the version is
hashed into every key, and keys name simulations, not file formats.
Writes are atomic (temp file + rename) so a crashed or parallel writer
cannot leave a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import MachineConfig, config_fingerprint
from repro.common.errors import ConfigurationError
from repro.core.result import Job, RunResult
from repro.memory.image import RANDOM_FILL
from repro.validation.fingerprint import summarize_result

#: Bump when simulation *semantics* change so old entries stop matching.
#: v2: tickless event-wheel engine added; engine kill switches join the key.
#: v3: batch-execute dispatch backend added; its kill switch joins the key.
#: v4: hierarchical wake index + sharded lane bookkeeping added; both kill
#:     switches join the key.
#: v5: allocation subsystem added; the ``alloc`` ingredient (placement/
#:     calibration namespace) joins the key.
#: v6: engine kill switches deleted; the key no longer carries an engine
#:     tuple (nothing keyed here can select the reference engine).
#: v7: an unfilled memory image is hashed as its recipe (seed, length,
#:     names, generator), not as its bytes, so a hit needs no numpy.
#: v8: three unread ``VectorConfig`` fields deleted (every config
#:     fingerprint moves) and the empty ``alloc`` ingredient dropped.
CACHE_VERSION = 8

#: Fixed-width entry prefix: (CACHE_VERSION, total file length in bytes).
_PREFIX = struct.Struct(">IQ")

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set (to any non-empty value) to disable the persistent layer entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


# --- content hashing ---------------------------------------------------------


def _hash_meta_value(value: object) -> str:
    """Canonical text for one program-metadata value.

    Sets (the ``monitor``/``reconfig`` instruction-index sets) are sorted
    so the hash does not depend on iteration order.
    """
    if isinstance(value, (set, frozenset)):
        return repr(sorted(value))
    if isinstance(value, (list, tuple)):
        return repr([repr(item) for item in value])
    return repr(value)


def _feed_job(digest: "hashlib._Hash", job: Optional[Job]) -> None:
    if job is None:
        digest.update(b"\x00<idle core>\x00")
        return
    program = job.program
    digest.update(program.name.encode("utf-8"))
    digest.update(program.disassemble().encode("utf-8"))
    for key in sorted(program.meta):
        digest.update(key.encode("utf-8"))
        digest.update(_hash_meta_value(program.meta[key]).encode("utf-8"))
    image = job.image
    digest.update(str(image.base_address).encode("utf-8"))
    recipe = image.recipe
    if recipe is not None:
        # Unfilled: the recipe names its bytes exactly (layout included).
        digest.update(f"recipe:{RANDOM_FILL}:{recipe!r}".encode("utf-8"))
        return
    for name, values in image.buffers():
        digest.update(name.encode("utf-8"))
        digest.update(str((len(values),)).encode("utf-8"))
        digest.update(values.tobytes())


def simulation_key(
    config: MachineConfig,
    policy_key: str,
    jobs: Sequence[Optional[Job]],
    max_cycles: int = 3_000_000,
) -> str:
    """Content hash identifying one simulation's full input."""
    digest = hashlib.sha256()
    digest.update(f"v{CACHE_VERSION}".encode("utf-8"))
    digest.update(config_fingerprint(config).encode("utf-8"))
    digest.update(policy_key.encode("utf-8"))
    digest.update(str(max_cycles).encode("utf-8"))
    for job in jobs:
        _feed_job(digest, job)
    return digest.hexdigest()


# --- the cache itself --------------------------------------------------------


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file, as seen by ``entries``/``prune``."""

    key: str
    path: Path
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class CacheStats:
    """Aggregate cache shape for ``repro cache stats``."""

    directory: Path
    entries: int
    total_bytes: int
    hits: int
    misses: int


class ResultCache:
    """A directory of pickled :class:`RunResult` objects keyed by hash,
    each behind its own summary (see the module docstring for the layout)."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _read(self, key: str, with_result: bool):
        """The result in ``key``'s entry if ``with_result``, else only the
        summary in front of it (the result frame is then not read).

        Anything but a file of this :data:`CACHE_VERSION` that is exactly
        as long as its writer left it and holds what :meth:`put` wrote is
        a counted miss (``None``), never an exception.
        """
        summary = result = None
        try:
            with open(self.path_for(key), "rb") as handle:
                version, length = _PREFIX.unpack(handle.read(_PREFIX.size))
                if (
                    version == CACHE_VERSION
                    and length == os.fstat(handle.fileno()).st_size
                ):
                    summary = pickle.load(handle)
                    if with_result:
                        result = pickle.load(handle)
        except Exception:
            pass
        if not isinstance(summary, dict) or (
            with_result and not isinstance(result, RunResult)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return result if with_result else summary

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None``.

        Any failure to read or deserialise — missing file, truncation,
        pickle corruption, a payload written by a different
        :data:`CACHE_VERSION` or in another layout — is a miss, never an
        exception.
        """
        return self._read(key, with_result=True)

    def get_summary(self, key: str) -> Optional[Dict[str, object]]:
        """``summarize_result(self.get(key), key)`` without the ``get``.

        Reads only the summary :meth:`put` stored in front of the result.
        A miss exactly when :meth:`get` is one, but for damage inside the
        result frame that leaves the file's length intact.  An entry
        written before runs carried a profile serves ``"profile": None``,
        as ``summarize_result`` of its result would.
        """
        summary = self._read(key, with_result=False)
        if summary is not None:
            summary.setdefault("profile", None)
        return summary

    def put(self, key: str, result: RunResult) -> Optional[Dict[str, object]]:
        """Store ``result`` and its summary under ``key`` atomically;
        best-effort.

        Returns the summary it stored, or ``None`` (without raising) when
        the cache directory is not writable — persistence is an
        optimisation, never a requirement.
        """
        import tempfile  # only a process that simulated writes

        summary = summarize_result(result, key)
        tmp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".write-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(_PREFIX.pack(0, 0))
                pickle.dump(summary, handle, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                length = handle.tell()
                handle.seek(0)
                handle.write(_PREFIX.pack(CACHE_VERSION, length))
            os.replace(tmp_name, self.path_for(key))
            return summary
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return None

    def entries(self) -> List["CacheEntry"]:
        """Every cached entry (key, size, mtime), oldest first.

        Unreadable entries (racing deletes, permission holes) are skipped;
        like :meth:`get`, inspection never raises.
        """
        found: List[CacheEntry] = []
        try:
            paths: Iterable[Path] = self.directory.glob("*.pkl")
        except OSError:
            return found
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(
                CacheEntry(
                    key=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        found.sort(key=lambda entry: (entry.mtime, entry.key))
        return found

    def stats(self) -> "CacheStats":
        """Aggregate entry count / byte total for ``repro cache stats``."""
        entries = self.entries()
        return CacheStats(
            directory=self.directory,
            entries=len(entries),
            total_bytes=sum(entry.size_bytes for entry in entries),
            hits=self.hits,
            misses=self.misses,
        )

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> int:
        """Evict oldest entries until both bounds hold; returns count removed.

        Eviction is strictly oldest-first (by mtime), so the newest
        results — the ones the service's dedup layer is most likely to
        coalesce against — always survive.  With no bounds given this is
        a no-op; a negative bound raises :class:`ConfigurationError`
        rather than emptying the cache.
        """
        for flag, bound in (("max_bytes", max_bytes), ("max_entries", max_entries)):
            if bound is not None and bound < 0:
                raise ConfigurationError(f"{flag} must be >= 0, got {bound}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        count = len(entries)
        removed = 0
        for entry in entries:  # oldest first
            over_bytes = max_bytes is not None and total > max_bytes
            over_count = max_entries is not None and count > max_entries
            if not over_bytes and not over_count:
                break
            try:
                entry.path.unlink()
            except OSError:
                continue
            total -= entry.size_bytes
            count -= 1
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        try:
            entries: Iterable[Path] = self.directory.glob("*.pkl")
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.pkl"))
        except OSError:
            return 0


# --- process-wide default cache ---------------------------------------------

_default_cache: Optional[ResultCache] = None
_disabled = False
_pinned = False


def configure(
    cache_dir: Optional[os.PathLike] = None, disabled: bool = False
) -> None:
    """Set the process-wide default cache (CLI ``--cache-dir``/``--no-cache``)."""
    global _default_cache, _disabled, _pinned
    _disabled = disabled
    _pinned = cache_dir is not None and not disabled
    _default_cache = None if disabled else ResultCache(cache_dir)


def default_cache() -> Optional[ResultCache]:
    """The process-wide cache, or ``None`` when disabled.

    Disabled by :func:`configure` (``--no-cache``) or the ``REPRO_NO_CACHE``
    environment variable.  Unless :func:`configure` pinned a directory, the
    environment is re-read on every call so test fixtures can redirect the
    cache mid-process.
    """
    global _default_cache
    if _disabled or os.environ.get(NO_CACHE_ENV):
        return None
    if _default_cache is None or (
        not _pinned and _default_cache.directory != default_cache_dir()
    ):
        _default_cache = ResultCache()
    return _default_cache
