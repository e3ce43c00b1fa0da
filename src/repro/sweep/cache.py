"""Content-addressed on-disk cache for completed sweep cells.

Every completed cell of an experiment sweep is memoized under a key
that is a SHA-256 over *everything that determines the simulation's
output*:

- the workload name, version, thread count and workload parameters;
- the full machine configuration (topology, clocks, bandwidths, NUMA
  and SMT factors, placement);
- every cost-model constant;
- the execution context's seed, thread cap and event budget;
- whether the run was traced (traced and untraced entries differ in
  payload, so they address different entries);
- the fault-injection plan and recovery policy, when the sweep injects
  faults (fault-free cells hash exactly as before);
- the fidelity tier, when it is the tier-0 estimate (tier-2 cells hash
  exactly as before tiers existed; tier-0 estimates address their own
  entries);
- the code-relevant package version and the cache format version.

Because the simulator is deterministic, two runs with equal keys are
bit-identical — so replaying an entry is indistinguishable from
re-simulating it, and any change to any input (a cost constant, a
machine parameter, a package upgrade) silently invalidates exactly the
affected cells and nothing else.

Layout: entries are **sharded** by key prefix — entry ``<key>`` lives
at ``root/<key[:2]>/<key>.json`` — so a store holding millions of
cells (the sweep service's regime, :mod:`repro.serve`) never puts more
than ~1/256th of them in one directory, keeping every directory scan
and entry create O(small).  Stores written before sharding existed
kept every entry flat at ``root/<key>.json``; those entries stay fully
readable and are *adopted* (renamed into their shard) the first time
they are read, so a flat store migrates transparently under read
traffic without a migration step.  The directory scan is the only
record of what the store holds: a leftover ``root/index.ndjson``
journal from an older store is ignored (never read, written or
removed).

Eviction is **true LRU**: :meth:`ResultCache.get` refreshes an entry's
mtime on every hit (best-effort ``os.utime``), so "least recently
modified" genuinely means "least recently used" and a hot entry
survives any number of prunes.  An optional ``ttl_seconds`` expires
entries that have not been used within the window regardless of the
entry bound.

Concurrency: entries are written atomically (write to a unique
temporary file in the entry's shard directory, then ``os.replace``),
so any number of executors — threads or processes — may share one
cache directory; readers only ever observe absent or complete entries,
and concurrent writers of the same key converge on identical content.
Unreadable or truncated entries are treated as misses and overwritten.
A *crashed* writer can leave its ``.<key>.*.tmp`` staging file behind;
:meth:`prune` and :meth:`clear` garbage-collect staging files older
than ``tmp_grace_seconds`` (young ones may belong to a live in-flight
writer and are left alone).

Host telemetry: when a :mod:`repro.perf` recording is active, every
probe and store reports its latency (``cache.probe_seconds`` /
``cache.store_seconds`` observations) and outcome (``cache.hit`` /
``cache.miss`` / ``cache.store`` / ``cache.evict`` / ``cache.adopt`` /
``cache.tmp_gc`` counters); with no recorder active the
instrumentation is a single predicate per call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import asdict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.perf.spans import current as _perf_current
from repro.runtime.base import ExecContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.cells import SweepCell

__all__ = [
    "DEFAULT_CACHE_DIR",
    "KEY_FORMAT",
    "ResultCache",
    "SHARD_WIDTH",
    "TMP_GRACE_SECONDS",
    "cache_key",
]

#: Where `repro sweep` and the benchmark harness keep their entries.
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "out" / "cache"

#: Bump to invalidate every existing entry (cache payload layout change).
KEY_FORMAT = 1

#: Hex chars of the key that name an entry's shard directory.
SHARD_WIDTH = 2

#: Staging files older than this are presumed orphaned by a crashed
#: writer and are garbage-collected by prune()/clear().
TMP_GRACE_SECONDS = 3600.0

_tmp_counter = itertools.count()


def _key_document(cell: "SweepCell", ctx: ExecContext, trace: bool) -> dict[str, Any]:
    """The canonical key inputs, as a JSON-able document."""
    from repro import __version__

    doc: dict[str, Any] = {
        "format": KEY_FORMAT,
        "package": __version__,
        "workload": cell.workload,
        "version": cell.version,
        "nthreads": int(cell.nthreads),
        "params": {str(k): cell.params[k] for k in sorted(cell.params)},
        "machine": asdict(ctx.machine),
        "costs": asdict(ctx.costs),
        "seed": ctx.seed,
        "max_events": ctx.max_events,
        "thread_cap": ctx.thread_cap,
        "trace": bool(trace),
    }
    # fault plan / recovery policy change the simulation output, so they
    # are key inputs — but only when present, so every pre-existing
    # fault-free entry keeps its address (no KEY_FORMAT bump needed).
    if getattr(cell, "faults", None):
        doc["faults"] = cell.faults
    if getattr(cell, "policy", None):
        doc["policy"] = cell.policy
    # the fidelity tier addresses separate entries (a tier-0 estimate
    # must never be served for a tier-2 request), but tier 2 is omitted
    # so every pre-tiers entry keeps its address.
    fidelity = getattr(cell, "fidelity", 2)
    if fidelity != 2:
        doc["fidelity"] = int(fidelity)
    return doc


def cache_key(cell: "SweepCell", ctx: ExecContext, *, trace: bool = False) -> str:
    """Stable content address of one sweep cell under one context.

    The key is a SHA-256 hex digest of the canonical (sorted-keys,
    no-whitespace) JSON encoding of :func:`_key_document`, so it is
    independent of dict insertion order, of ``PYTHONHASHSEED``, and of
    the process that computes it.
    """
    blob = json.dumps(
        _key_document(cell, ctx, trace), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_shard_name(name: str) -> bool:
    if len(name) != SHARD_WIDTH:
        return False
    try:
        int(name, 16)
    except ValueError:
        return False
    return True


class ResultCache:
    """A sharded directory of content-addressed cell payloads.

    ``max_entries`` bounds the cache size; :meth:`prune` (called by the
    executor after every sweep when a bound is set, and by the sweep
    server periodically) evicts the least-recently-*used* entries
    beyond the bound — :meth:`get` refreshes an entry's mtime on every
    hit, so recency of use, not of insertion, decides survival.
    ``ttl_seconds`` additionally expires entries unused for longer than
    the window.  ``tmp_grace_seconds`` controls when an orphaned
    staging file from a crashed writer becomes garbage.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike] = DEFAULT_CACHE_DIR,
        max_entries: Optional[int] = None,
        *,
        ttl_seconds: Optional[float] = None,
        tmp_grace_seconds: float = TMP_GRACE_SECONDS,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.tmp_grace_seconds = float(tmp_grace_seconds)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        """Canonical (sharded) location of ``key``'s entry file."""
        return self.root / key[:SHARD_WIDTH] / f"{key}.json"

    def flat_path_for(self, key: str) -> pathlib.Path:
        """Pre-sharding location — readable, adopted into shards on use."""
        return self.root / f"{key}.json"

    def _locate(self, key: str) -> pathlib.Path:
        """The file a probe for ``key`` should read (sharded wins)."""
        sharded = self.path_for(key)
        if sharded.exists():
            return sharded
        flat = self.flat_path_for(key)
        if flat.exists():
            return flat
        return sharded

    # ------------------------------------------------------------------
    # entry IO
    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: pathlib.Path) -> Optional[dict[str, Any]]:
        """Decode one entry file; missing/truncated/corrupt → ``None``."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _adopt(self, key: str, flat: pathlib.Path) -> pathlib.Path:
        """Move a pre-sharding flat entry into its shard (best-effort).

        ``os.replace`` keeps the move atomic; losing the race to a
        concurrent adopter (or a read-only store) simply leaves the
        flat file for the next reader.
        """
        sharded = self.path_for(key)
        try:
            sharded.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat, sharded)
        except OSError:
            return flat
        rec = _perf_current()
        if rec is not None:
            rec.count("cache.adopt")
        return sharded

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """Return the payload stored under ``key``, or ``None``.

        Missing, truncated, or otherwise unreadable entries are all
        misses: a crashed writer can at worst leave a stale ``*.tmp``
        file behind, never a half-visible entry.  A hit refreshes the
        entry's mtime (best-effort ``os.utime``), which is what makes
        :meth:`prune`'s least-recently-modified ordering true LRU
        rather than insertion-order FIFO; a flat pre-sharding entry is
        adopted into its shard on the way.
        """
        rec = _perf_current()
        t0 = perf_counter() if rec is not None else 0.0
        path = self.path_for(key)
        payload = self._read(path)
        if payload is None:
            flat = self.flat_path_for(key)
            payload = self._read(flat)
            if payload is not None:
                path = self._adopt(key, flat)
        if payload is not None:
            try:
                os.utime(path)  # touch-on-hit: LRU recency, not FIFO age
            except OSError:
                pass
        if rec is not None:
            rec.observe("cache.probe_seconds", perf_counter() - t0)
            rec.count("cache.hit" if payload is not None else "cache.miss")
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> pathlib.Path:
        """Atomically store ``payload`` under ``key`` (write-then-rename).

        The temporary name is unique per (process, thread, call), so
        concurrent writers never collide on the staging file, and
        ``os.replace`` makes publication atomic on POSIX and Windows
        (same-directory rename: the staging file lives in the entry's
        shard).
        """
        rec = _perf_current()
        t0 = perf_counter() if rec is not None else 0.0
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(
            f".{key}.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
            os.replace(tmp, final)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        if rec is not None:
            rec.observe("cache.store_seconds", perf_counter() - t0)
            rec.count("cache.store")
        return final

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _entry_paths(self) -> Iterator[tuple[str, pathlib.Path]]:
        """Yield ``(key, path)`` for every entry, sharded and flat.

        A key present in both layouts (a racing adopter) yields its
        sharded path only.
        """
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        seen: set[str] = set()
        for child in children:
            if child.name.startswith("."):
                continue
            if child.is_dir() and _is_shard_name(child.name):
                try:
                    grand = list(child.iterdir())
                except OSError:
                    continue
                for p in grand:
                    if p.suffix == ".json" and not p.name.startswith("."):
                        seen.add(p.stem)
                        yield p.stem, p
        for child in children:
            if (
                child.suffix == ".json"
                and not child.name.startswith(".")
                and not child.is_dir()
                and child.stem not in seen
            ):
                yield child.stem, child

    def keys(self) -> list[str]:
        """Keys of all complete entries currently on disk."""
        return sorted(key for key, _path in self._entry_paths())

    def __contains__(self, key: str) -> bool:
        """True iff ``key``'s entry exists *and* decodes.

        Aligned with :meth:`get`'s miss semantics: a truncated or
        corrupt entry that ``get`` would treat as a miss also reports
        absent here, so ``key in cache`` never promises a payload that
        ``get`` then refuses to return.  Unlike ``get``, a containment
        probe records no telemetry and does not refresh recency — it is
        a question, not a use.
        """
        return self._read(self._locate(key)) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def _tmp_paths(self) -> Iterator[pathlib.Path]:
        """Every staging file in the store (root and shard directories)."""
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for child in children:
            if child.name.startswith(".") and child.name.endswith(".tmp"):
                yield child
            elif child.is_dir() and _is_shard_name(child.name):
                try:
                    grand = list(child.iterdir())
                except OSError:
                    continue
                for p in grand:
                    if p.name.startswith(".") and p.name.endswith(".tmp"):
                        yield p

    def gc_stale_tmp(self, grace_seconds: Optional[float] = None) -> int:
        """Unlink staging files older than the grace age; returns count.

        A crashed writer's ``.<key>.*.tmp`` never becomes an entry and
        — being dot-prefixed — is invisible to :meth:`keys`, so without
        this pass it would leak forever.  Files younger than the grace
        age are left alone: they may belong to a writer that is still
        alive between ``write_text`` and ``os.replace``.
        """
        grace = self.tmp_grace_seconds if grace_seconds is None else grace_seconds
        cutoff = time.time() - grace
        removed = 0
        for path in self._tmp_paths():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        if removed:
            rec = _perf_current()
            if rec is not None:
                rec.count("cache.tmp_gc", removed)
        return removed

    def prune(
        self,
        max_entries: Optional[int] = None,
        *,
        ttl_seconds: Optional[float] = None,
    ) -> int:
        """Evict least-recently-used entries beyond the bound or TTL.

        Returns the number of *entries* removed (0 when unbounded, no
        TTL, or already within bounds); stale staging files are
        garbage-collected on every call but not counted.  Because
        :meth:`get` touches entries on hit, mtime ordering here is true
        LRU: the entries evicted first are the ones nothing has asked
        for longest, across all shards.  Entries that vanish mid-prune
        (another executor pruning the same directory) are counted by
        whoever actually unlinked them.
        """
        self.gc_stale_tmp()
        bound = max_entries if max_entries is not None else self.max_entries
        ttl = ttl_seconds if ttl_seconds is not None else self.ttl_seconds
        if bound is None and ttl is None:
            return 0
        entries = []
        for _key, path in self._entry_paths():
            try:
                entries.append((path.stat().st_mtime_ns, str(path)))
            except OSError:
                continue
        entries.sort(reverse=True)  # most recently used first
        victims: list[tuple[int, str]] = []
        if ttl is not None:
            cutoff_ns = int((time.time() - ttl) * 1e9)
            keep = [e for e in entries if e[0] > cutoff_ns]
            victims.extend(e for e in entries if e[0] <= cutoff_ns)
            entries = keep
        if bound is not None:
            victims.extend(entries[bound:])
        evicted = 0
        for _mtime, path in victims:
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
        if evicted:
            rec = _perf_current()
            if rec is not None:
                rec.count("cache.evict", evicted)
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were removed.

        Stale staging files are garbage-collected too (in-flight ones
        within the grace age are spared — their writer is about to
        publish into the now-empty store).
        """
        removed = 0
        for _key, path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        self.gc_stale_tmp()
        return removed
