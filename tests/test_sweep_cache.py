"""Property tests for the content-addressed sweep cache key and store.

The cache key must be a pure function of the simulation's inputs:
stable across process restarts and hash seeds, independent of dict
insertion order, sensitive to every input that changes the output, and
collision-free across the whole workload registry (checked with a
seeded hypothesis-style randomized sweep).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.core.registry import WORKLOADS
from repro.runtime.base import ExecContext
from repro.sim.machine import Machine
from repro.sweep import ResultCache, SweepCell, cache_key

BASE_CELL = SweepCell("axpy", "omp_for", 4, {"n": 120_000})

_KEY_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from repro.runtime.base import ExecContext
from repro.sweep import SweepCell, cache_key
cell = SweepCell("axpy", "omp_for", 4, {{"n": 120_000}})
print(cache_key(cell, ExecContext()))
"""


class TestKeyStability:
    def test_deterministic_in_process(self):
        ctx = ExecContext()
        assert cache_key(BASE_CELL, ctx) == cache_key(BASE_CELL, ctx)

    def test_stable_across_process_restarts(self):
        """Fresh interpreters with different hash seeds agree with us."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        snippet = _KEY_SNIPPET.format(src=os.path.abspath(src))
        keys = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True,
            )
            keys.append(out.stdout.strip())
        assert keys[0] == keys[1] == cache_key(BASE_CELL, ExecContext())

    def test_independent_of_param_order(self):
        ctx = ExecContext()
        a = SweepCell("lud", "omp_for", 8, {"n": 128, "block": 32})
        b = SweepCell("lud", "omp_for", 8, {"block": 32, "n": 128})
        assert cache_key(a, ctx) == cache_key(b, ctx)

    def test_key_is_hex_sha256(self):
        key = cache_key(BASE_CELL, ExecContext())
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestKeySensitivity:
    """Changing any simulation-relevant input must change the key."""

    def _base(self):
        return cache_key(BASE_CELL, ExecContext())

    def test_workload_params(self):
        cell = SweepCell("axpy", "omp_for", 4, {"n": 120_001})
        assert cache_key(cell, ExecContext()) != self._base()

    def test_version(self):
        cell = SweepCell("axpy", "omp_task", 4, {"n": 120_000})
        assert cache_key(cell, ExecContext()) != self._base()

    def test_threads(self):
        cell = SweepCell("axpy", "omp_for", 8, {"n": 120_000})
        assert cache_key(cell, ExecContext()) != self._base()

    def test_machine(self):
        ctx = ExecContext(machine=Machine(ghz=2.4))
        assert cache_key(BASE_CELL, ctx) != self._base()

    def test_cost_model(self):
        ctx = ExecContext().with_costs(cilk_spawn=21e-9)
        assert cache_key(BASE_CELL, ctx) != self._base()

    def test_seed(self):
        ctx = ExecContext(seed=0xBEEF)
        assert cache_key(BASE_CELL, ctx) != self._base()

    def test_thread_cap(self):
        ctx = ExecContext(thread_cap=1024)
        assert cache_key(BASE_CELL, ctx) != self._base()

    def test_trace_flag(self):
        ctx = ExecContext()
        assert cache_key(BASE_CELL, ctx, trace=True) != cache_key(BASE_CELL, ctx)


class TestNoCollisions:
    def test_full_registry_unique(self):
        """Every (workload, version, threads, trace) cell in the
        registry addresses a distinct entry."""
        ctx = ExecContext()
        keys = set()
        count = 0
        for name, spec in WORKLOADS.items():
            params = dict(spec.validation_params or spec.default_params)
            for version in spec.versions:
                for p in (1, 2, 4):
                    for trace in (False, True):
                        keys.add(
                            cache_key(SweepCell(name, version, p, params), ctx, trace=trace)
                        )
                        count += 1
        assert len(keys) == count

    def test_seeded_random_sweep_unique_and_stable(self):
        """Hypothesis-style seeded sweep: random cells never collide,
        and recomputing any cell's key reproduces it exactly."""
        rng = random.Random(0xC0FFEE)
        ctx = ExecContext()
        names = sorted(WORKLOADS)
        seen: dict[str, tuple] = {}
        for _ in range(300):
            name = rng.choice(names)
            spec = WORKLOADS[name]
            version = rng.choice(spec.versions)
            p = rng.randint(1, 72)
            params = {
                k: (v + rng.randint(0, 3) if isinstance(v, int) else v)
                for k, v in dict(spec.validation_params or spec.default_params).items()
            }
            cell = SweepCell(name, version, p, params)
            key = cache_key(cell, ctx)
            ident = (name, version, p, tuple(sorted(params.items())))
            if key in seen:
                # same key must mean same cell (rng may repeat cells)
                assert seen[key] == ident
            seen[key] = ident
            assert cache_key(SweepCell(name, version, p, dict(params)), ctx) == key


class TestResultCacheStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"format": 1, "result": {"time": 0.25}}
        key = "ab" * 32
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert key in cache
        assert cache.keys() == [key]

    def test_missing_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"format": 1})
        cache.path_for(key).write_text('{"truncated": ')
        assert cache.get(key) is None

    def test_stale_tmp_files_invisible(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ".deadbeef.123.456.0.tmp").write_text("garbage")
        assert cache.keys() == []
        assert len(cache) == 0

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("12" * 32, {"format": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_prune_evicts_oldest_beyond_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for i in range(5):
            key = f"{i:02d}" * 32
            cache.put(key, {"format": 1, "i": i})
            os.utime(cache.path_for(key), ns=(i * 10**9, i * 10**9))
        evicted = cache.prune()
        assert evicted == 3
        assert len(cache) == 2
        # the newest two survive
        assert cache.get("04" * 32) is not None
        assert cache.get("03" * 32) is not None

    def test_prune_unbounded_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("77" * 32, {"format": 1})
        assert cache.prune() == 0
        assert len(cache) == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, {"format": 1})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_rejects_bad_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)

    def test_key_document_is_canonical_json(self):
        """The hashed document itself must be JSON-canonicalizable
        (sorted keys, scalar leaves) — the stability guarantee's root."""
        from repro.sweep.cache import _key_document

        doc = _key_document(BASE_CELL, ExecContext(), trace=False)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert json.loads(blob) == doc


class TestShardedLayout:
    """Entries live at ``root/<key[:2]>/<key>.json``; flat pre-sharding
    stores stay readable and migrate shard-ward under read traffic."""

    def test_put_writes_into_shard(self, tmp_path):
        from repro.sweep.cache import SHARD_WIDTH

        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"format": 1})
        assert cache.path_for(key) == tmp_path / key[:SHARD_WIDTH] / f"{key}.json"
        assert cache.path_for(key).exists()
        assert not cache.flat_path_for(key).exists()

    def test_flat_entry_is_read_and_adopted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        payload = {"format": 1, "legacy": True}
        cache.flat_path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) == payload
        # the read migrated the entry into its shard
        assert cache.path_for(key).exists()
        assert not cache.flat_path_for(key).exists()
        assert cache.get(key) == payload

    def test_contains_sees_flat_without_migrating(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.flat_path_for(key).write_text(json.dumps({"format": 1}))
        assert key in cache
        # a containment probe is a question, not a use: no adoption
        assert cache.flat_path_for(key).exists()
        assert not cache.path_for(key).exists()

    def test_keys_merge_both_layouts_sharded_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("11" * 32, {"format": 1})
        cache.flat_path_for("22" * 32).write_text(json.dumps({"format": 1}))
        # same key in both layouts (a racing adopter): counted once
        cache.put("33" * 32, {"format": 1, "which": "sharded"})
        cache.flat_path_for("33" * 32).write_text(
            json.dumps({"format": 1, "which": "flat"})
        )
        assert cache.keys() == sorted(["11" * 32, "22" * 32, "33" * 32])
        assert len(cache) == 3
        assert cache.get("33" * 32)["which"] == "sharded"

    def test_prune_spans_both_layouts(self, tmp_path):
        """The LRU bound is store-wide: flat and sharded entries compete
        in one recency order, not per-directory."""
        cache = ResultCache(tmp_path)
        old, new = "44" * 32, "55" * 32
        cache.flat_path_for(old).write_text(json.dumps({"format": 1}))
        os.utime(cache.flat_path_for(old), ns=(10**9, 10**9))
        cache.put(new, {"format": 1})
        assert cache.prune(max_entries=1) == 1
        assert old not in cache
        assert new in cache


class TestTrueLRU:
    """Eviction order must follow *use*, not insertion: ``get()``
    refreshes the entry's mtime, so a hot entry outlives cold ones."""

    def _plant(self, cache, n):
        """n entries with ancient, strictly increasing mtimes."""
        keys = [f"{i:02d}" * 32 for i in range(n)]
        for i, key in enumerate(keys):
            cache.put(key, {"format": 1, "i": i})
            os.utime(cache.path_for(key), ns=((i + 1) * 10**9, (i + 1) * 10**9))
        return keys

    def test_get_refreshes_recency_so_hot_entry_survives_prune(self, tmp_path):
        """Regression: before touch-on-hit, prune's least-recently-
        *modified* order was really insertion-order FIFO, so the store's
        most popular entry was evicted first once it was the oldest
        write.  Reading an entry must move it to the fresh end."""
        cache = ResultCache(tmp_path, max_entries=2)
        oldest, middle, newest = self._plant(cache, 3)
        assert cache.get(oldest) is not None  # use the coldest-by-mtime entry
        assert cache.prune() == 1
        # the *untouched* oldest entry is the victim, not the used one
        assert oldest in cache
        assert middle not in cache
        assert newest in cache

    def test_contains_does_not_refresh_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        oldest, middle, newest = self._plant(cache, 3)
        assert oldest in cache  # a question, not a use
        assert cache.prune() == 1
        assert oldest not in cache
        assert middle in cache and newest in cache

    def test_ttl_expires_only_unused_entries(self, tmp_path):
        cache = ResultCache(tmp_path, ttl_seconds=3600)
        stale, fresh = self._plant(cache, 2)
        assert cache.get(fresh) is not None  # touch: now inside the window
        assert cache.prune() == 1
        assert stale not in cache
        assert fresh in cache

    def test_ttl_and_bound_compose(self, tmp_path):
        """TTL expiry happens first; the bound then applies to the
        survivors."""
        cache = ResultCache(tmp_path)
        keys = self._plant(cache, 4)
        for key in keys[2:]:
            assert cache.get(key) is not None  # two fresh, two expired
        assert cache.prune(max_entries=1, ttl_seconds=3600) == 3
        assert len(cache) == 1
        assert keys[3] in cache

    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ResultCache(tmp_path, ttl_seconds=0)


class TestStaleTmpGc:
    """Crashed writers leak ``.<key>.*.tmp`` staging files; prune() and
    clear() collect the stale ones and spare in-flight ones."""

    def _plant_tmp(self, cache, name, age_seconds):
        import time as _time

        path = cache.root / name
        path.write_text("half-written garbage")
        stamp = _time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    def test_prune_collects_stale_spares_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"format": 1})
        stale = self._plant_tmp(cache, ".deadbeef.1.2.0.tmp", age_seconds=7200)
        fresh = self._plant_tmp(cache, ".cafef00d.3.4.0.tmp", age_seconds=1)
        assert cache.prune() == 0  # tmp GC is not entry eviction
        assert not stale.exists()
        assert fresh.exists()
        assert cache.get("ab" * 32) is not None

    def test_gc_reaches_shard_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"format": 1})
        shard_tmp = cache.path_for("ab" * 32).parent / ".abcd.5.6.0.tmp"
        shard_tmp.write_text("garbage")
        os.utime(shard_tmp, (1, 1))
        assert cache.gc_stale_tmp() == 1
        assert not shard_tmp.exists()

    def test_clear_collects_stale_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"format": 1})
        stale = self._plant_tmp(cache, ".feedface.7.8.0.tmp", age_seconds=7200)
        assert cache.clear() == 1
        assert not stale.exists()
        assert len(cache) == 0

    def test_grace_is_configurable(self, tmp_path):
        cache = ResultCache(tmp_path, tmp_grace_seconds=5.0)
        doomed = self._plant_tmp(cache, ".0ff1ce.9.1.0.tmp", age_seconds=60)
        assert cache.gc_stale_tmp() == 1
        assert not doomed.exists()


class TestContainsAlignment:
    """``key in cache`` must agree with ``get(key) is not None`` — a
    corrupt entry that get() treats as a miss may not report present."""

    def test_truncated_entry_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"format": 1})
        cache.path_for(key).write_text('{"truncated": ')
        assert cache.get(key) is None
        assert key not in cache

    def test_non_object_entry_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"format": 1})
        cache.path_for(key).write_text("[1, 2, 3]")
        assert cache.get(key) is None
        assert key not in cache

    def test_overwrite_repairs_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"format": 1})
        cache.path_for(key).write_text("not json")
        assert key not in cache
        cache.put(key, {"format": 1, "repaired": True})
        assert key in cache
        assert cache.get(key)["repaired"] is True


class TestIndexJournal:
    """Stores written by older versions carry an ``index.ndjson``
    journal; it is never read, written or removed."""

    def test_journal_never_blocks_entry_io(self, tmp_path):
        journal = tmp_path / "index.ndjson"
        journal.write_text('{"op":"put","key":"' + "cd" * 32 + '"}\nnot json\n')
        before = journal.read_bytes()
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"format": 1})
        assert cache.get("ab" * 32) is not None
        assert cache.keys() == ["ab" * 32]
        assert cache.prune(max_entries=1) == 0
        assert cache.clear() == 1
        assert journal.read_bytes() == before


class TestConcurrentPutPrune:
    """Writers and pruners racing on one sharded store: entries may
    vanish mid-prune, the bound holds across shards, and nobody
    crashes or double-counts."""

    def test_prune_tolerates_entries_vanishing_midway(self, tmp_path):
        """A racing pruner (or clear()) can unlink an entry between our
        directory scan and our unlink; the survivor counts only what it
        actually removed."""
        import threading

        cache = ResultCache(tmp_path, max_entries=1)
        keys = [f"{i:02x}" * 32 for i in range(24)]
        for i, key in enumerate(keys):
            cache.put(key, {"format": 1, "i": i})
            os.utime(cache.path_for(key), ns=(i * 10**9, i * 10**9))
        counts, errors = [], []
        barrier = threading.Barrier(4)

        def racer():
            try:
                barrier.wait()
                counts.append(ResultCache(tmp_path, max_entries=1).prune())
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # every eviction was counted by exactly one pruner
        assert sum(counts) == len(keys) - 1
        assert len(cache) == 1
        assert keys[-1] in cache

    def test_concurrent_puts_and_prunes_leave_consistent_store(self, tmp_path):
        """Interleaved writers and pruners: every surviving entry is
        complete and decodable, no staging files leak, and the bound is
        enforced store-wide (across shard directories) by the final
        prune."""
        import threading

        bound = 8
        keys = [f"{i:02x}" * 32 for i in range(64)]  # 64 distinct shards
        errors = []

        def writer(chunk):
            try:
                cache = ResultCache(tmp_path, max_entries=bound)
                for i, key in enumerate(chunk):
                    cache.put(key, {"format": 1, "key": key})
                    if i % 4 == 3:
                        cache.prune()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(keys[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cache = ResultCache(tmp_path, max_entries=bound)
        cache.prune()
        survivors = cache.keys()
        assert 0 < len(survivors) <= bound
        for key in survivors:
            payload = cache.get(key)
            assert payload is not None and payload["key"] == key
        assert list(cache._tmp_paths()) == []


class TestFidelityAddressing:
    """Fidelity tiers must never share cache entries: a tier-0 estimate
    served for a tier-2 request would replace a simulation with a model
    of it, silently."""

    def test_each_tier_addresses_a_distinct_entry(self):
        ctx = ExecContext()
        keys = {
            cache_key(
                SweepCell("axpy", "omp_for", 4, {"n": 120_000}, fidelity=f), ctx
            )
            for f in (0, 2)
        }
        assert len(keys) == 2

    def test_tier2_key_is_the_legacy_key(self):
        """A default (tier-2) cell must hash exactly as cells did before
        fidelity existed — pre-tiers cache entries keep their address."""
        from repro.sweep.cache import _key_document

        class LegacyCell:
            workload = "axpy"
            version = "omp_for"
            nthreads = 4
            params = {"n": 120_000}
            # no faults / policy / fidelity attributes at all

        ctx = ExecContext()
        modern = SweepCell("axpy", "omp_for", 4, {"n": 120_000})
        assert modern.fidelity == 2
        assert cache_key(modern, ctx) == cache_key(LegacyCell(), ctx)
        assert "fidelity" not in _key_document(modern, ctx, trace=False)

    def test_near_miss_tier0_warmed_cache_misses_for_tier2(self, tmp_path):
        """Warm the cache with tier-0 estimates, then request the same
        cells at tier 2: every cell must miss and re-simulate."""
        from repro.sweep import run_sweep

        cache = ResultCache(tmp_path)
        warm = run_sweep(
            "axpy", versions=["omp_for"], threads=(1, 4), params={"n": 120_000},
            cache=cache, fidelity=0,
        )
        assert warm.counter("estimates") == 2
        assert len(cache) == 2
        ref = run_sweep(
            "axpy", versions=["omp_for"], threads=(1, 4), params={"n": 120_000},
            cache=cache, fidelity=2,
        )
        assert ref.counter("cache_hits") == 0
        assert ref.counter("simulations") == 2
        # and the tier-0 entries are still there for tier-0 requests
        replay = run_sweep(
            "axpy", versions=["omp_for"], threads=(1, 4), params={"n": 120_000},
            cache=cache, fidelity=0,
        )
        assert replay.counter("cache_hits") == 2
        assert replay.counter("estimates") == 0

    def test_decode_guard_rejects_mismatched_tier_payload(self, tmp_path):
        """Even a payload stored under the wrong key (copied cache dirs,
        hand-edited files) is rejected when its fidelity stamp does not
        match the request."""
        from repro.sweep import run_sweep
        from repro.sweep.executor import _decode_entry

        cache = ResultCache(tmp_path)
        run_sweep(
            "axpy", versions=["omp_for"], threads=(1,), params={"n": 120_000},
            cache=cache, fidelity=0,
        )
        [key] = cache.keys()
        payload = cache.get(key)
        assert payload["fidelity"] == 0
        assert _decode_entry(payload, 0) is not None
        assert _decode_entry(payload, 2) is None
        # graft the tier-0 payload under the tier-2 address: the guard
        # still refuses to serve it
        cell = SweepCell("axpy", "omp_for", 1, {"n": 120_000})
        cache.put(cache_key(cell, ExecContext()), payload)
        ref = run_sweep(
            "axpy", versions=["omp_for"], threads=(1,), params={"n": 120_000},
            cache=cache, fidelity=2,
        )
        assert ref.counter("cache_hits") == 0
        assert ref.counter("simulations") == 1

    @pytest.mark.parametrize("boundary", ["run_sweep", "MatrixQuery", "met_sweep", "cli"])
    def test_retired_tier1_is_rejected(self, boundary, capsys):
        """Tier 1 was folded into tier 2: a request for it fails at every
        boundary, and the error names the tiers that exist."""
        from repro.cli import main
        from repro.serve.protocol import MatrixQuery, ProtocolError
        from repro.sweep import run_sweep
        from repro.workloads.taskgraph import met_sweep

        calls = {
            "run_sweep": (ValueError, lambda: run_sweep(
                "axpy", versions=["omp_for"], threads=(1,), fidelity=1)),
            "MatrixQuery": (ProtocolError, lambda: MatrixQuery("axpy", fidelity=1)),
            "met_sweep": (ValueError, lambda: met_sweep(("omp_task",), (1e-5,), fidelity=1)),
            "cli": (SystemExit, lambda: main(
                ["sweep", "axpy", "--no-cache", "--fidelity", "1"])),
        }
        exc_type, call = calls[boundary]
        with pytest.raises(exc_type) as info:
            call()
        message = capsys.readouterr().err if boundary == "cli" else str(info.value)
        assert "1" in message and "2" in message

    def test_tier0_round_trip_preserves_error_bound(self, tmp_path):
        from repro.sim.tiers import Tier0Result
        from repro.sweep import run_sweep

        cache = ResultCache(tmp_path)
        kwargs = dict(
            versions=["omp_task"], threads=(4,), params={"n": 120_000},
            cache=cache, fidelity=0,
        )
        first = run_sweep("axpy", **kwargs)
        replay = run_sweep("axpy", **kwargs)
        assert replay.counter("cache_hits") == 1
        a = first.results[("omp_task", 4)]
        b = replay.results[("omp_task", 4)]
        assert isinstance(a, Tier0Result) and isinstance(b, Tier0Result)
        assert a.error_bound > 0.0
        assert b.error_bound == a.error_bound
        assert b.time == a.time
