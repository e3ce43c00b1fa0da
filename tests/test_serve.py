"""Tests of the sweep service: protocol, single-flight dedupe, client.

The service's contract is that going remote changes *where* cells
resolve, never *what* resolves: a served sweep is byte-identical to a
local one (same cache-entry payloads, same series/metrics assembly),
a warm server answers without simulating, and two identical in-flight
queries cost one set of simulations (single-flight dedupe, observable
as ``serve.dedup_hit``).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro.runtime.base import ExecContext
from repro.serve import (
    MatrixQuery,
    ProtocolError,
    ServerError,
    SweepClient,
    SweepServer,
)
from repro.serve import protocol
from repro.sweep import ResultCache, run_sweep
from repro.sweep import executor as executor_mod
from tests.test_sweep_executor import sweep_fingerprint

KWARGS = dict(
    versions=["omp_for", "cxx_thread"], threads=(1, 4), params={"n": 120_000},
    fidelity=2,
)
NCELLS = 4  # 2 versions x 2 thread counts


@contextlib.contextmanager
def running_server(cache, **kwargs):
    """A SweepServer on its own event-loop thread, closed on exit."""
    loop = asyncio.new_event_loop()
    srv = SweepServer(cache, **kwargs)
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_query_round_trips(self):
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                            params={"n": 10}, fidelity=2, trace=True,
                            refresh=True)
        assert MatrixQuery.from_dict(query.to_dict()) == query

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown query fields"):
            MatrixQuery.from_dict({"workload": "axpy", "jobs": 4})

    def test_missing_workload_rejected(self):
        with pytest.raises(ProtocolError, match="workload"):
            MatrixQuery.from_dict({"threads": [1]})

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ProtocolError, match="fidelity"):
            MatrixQuery("axpy", fidelity=3)

    def test_decode_event_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_event(b"not json\n")
        with pytest.raises(ProtocolError, match="without a type"):
            protocol.decode_event(b'{"no": "type"}\n')

    def test_context_digest_sensitive_to_simulation_inputs(self):
        base = protocol.context_digest(ExecContext())
        assert protocol.context_digest(ExecContext()) == base
        assert protocol.context_digest(ExecContext(seed=7)) != base

    def test_expand_query_matches_run_sweep_validation(self):
        with pytest.raises(ValueError, match="no version"):
            protocol.expand_query(MatrixQuery("axpy", versions=("bogus",)))


# ---------------------------------------------------------------------------
# end-to-end: serve == local
# ---------------------------------------------------------------------------
class TestServeEndToEnd:
    def test_health_and_stats(self, tmp_path):
        with running_server(tmp_path) as srv:
            client = SweepClient(srv.url)
            assert client.health()
            stats = client.stats()
            assert stats["store"]["root"] == str(tmp_path)
            assert stats["inflight"] == 0

    def test_dead_server_is_unhealthy(self):
        assert not SweepClient("http://127.0.0.1:9").health()

    def test_cold_then_warm_query(self, tmp_path):
        with running_server(tmp_path, jobs=2) as srv:
            cold = run_sweep("axpy", server=srv.url, **KWARGS)
            assert cold.counter("simulations") == NCELLS
            assert cold.counter("cache_hits") == 0
            warm = run_sweep("axpy", server=srv.url, **KWARGS)
            assert warm.counter("simulations") == 0
            assert warm.counter("cache_hits") == NCELLS
            assert sweep_fingerprint(warm) == sweep_fingerprint(cold)
            assert srv.perf.counters["serve.request"] == 2
            assert srv.perf.counters["serve.cache_hit"] == NCELLS

    def test_served_sweep_is_byte_identical_to_local(self, tmp_path):
        served_store = tmp_path / "served"
        local_store = tmp_path / "local"
        with running_server(served_store, jobs=2) as srv:
            served = run_sweep("axpy", server=srv.url, **KWARGS)
        local = run_sweep("axpy", cache=local_store, **KWARGS)
        assert sweep_fingerprint(served) == sweep_fingerprint(local)
        # the stores themselves agree file-for-file: same keys, same bytes
        a, b = ResultCache(served_store), ResultCache(local_store)
        assert a.keys() == b.keys() != []
        for key in a.keys():
            assert a.path_for(key).read_bytes() == b.path_for(key).read_bytes()

    def test_server_store_serves_local_sweeps_too(self, tmp_path):
        """One store, reached both ways: entries written by the server
        are hits for a direct local sweep."""
        with running_server(tmp_path, jobs=2) as srv:
            run_sweep("axpy", server=srv.url, **KWARGS)
        local = run_sweep("axpy", cache=tmp_path, **KWARGS)
        assert local.counter("simulations") == 0
        assert local.counter("cache_hits") == NCELLS

    def test_refresh_forces_resimulation(self, tmp_path):
        with running_server(tmp_path, jobs=2) as srv:
            first = run_sweep("axpy", server=srv.url, **KWARGS)
            again = run_sweep("axpy", server=srv.url, refresh=True, **KWARGS)
            assert again.counter("simulations") == NCELLS
            assert again.counter("cache_hits") == 0
            assert sweep_fingerprint(again) == sweep_fingerprint(first)

    def test_env_var_routes_run_sweep(self, tmp_path, monkeypatch):
        with running_server(tmp_path, jobs=2) as srv:
            monkeypatch.setenv("REPRO_SWEEP_SERVER", srv.url)
            sweep = run_sweep("axpy", **KWARGS)
            assert srv.perf.counters["serve.request"] == 1
            assert sweep.counter("simulations") == NCELLS

    def test_tier0_estimates_served_in_thread(self, tmp_path):
        with running_server(tmp_path) as srv:
            sweep = run_sweep("axpy", server=srv.url,
                              versions=["omp_for"], threads=(1, 4),
                              params={"n": 120_000}, fidelity=0)
            assert sweep.counter("estimates") == 2
            assert srv.perf.counters["serve.estimates"] == 2
            assert srv._pool is None  # no process pool spun up

    def test_bounded_store_pruned_after_request(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        with running_server(cache, jobs=2) as srv:
            run_sweep("axpy", server=srv.url, **KWARGS)
            # the prune runs after the response is complete; give the
            # loop a moment to finish the handler
            deadline = time.monotonic() + 10
            while len(cache) > 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        assert len(cache) == 2
        assert srv.perf.counters["serve.evictions"] == NCELLS - 2


# ---------------------------------------------------------------------------
# single-flight dedupe
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_queries_simulate_once(self, tmp_path, monkeypatch):
        """Two identical queries in flight at once: every unique cell is
        simulated exactly once (the second request *joins* the first's
        futures — ``serve.dedup_hit``), and both clients get the full,
        identical result set."""
        real = executor_mod._estimate_cell_local

        def slow_estimate(cell, ctx):
            time.sleep(0.3)  # hold cells open so the queries overlap
            return real(cell, ctx)

        monkeypatch.setattr(executor_mod, "_estimate_cell_local", slow_estimate)
        kwargs = dict(versions=["omp_for", "cxx_thread"], threads=(1, 4),
                      params={"n": 120_000}, fidelity=0)
        with running_server(tmp_path) as srv:
            sweeps, errors = [None, None], []

            def work(slot):
                try:
                    sweeps[slot] = run_sweep("axpy", server=srv.url, **kwargs)
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            counters = srv.perf.counters
            # exactly one set of simulations for two requests
            assert counters["serve.estimates"] == NCELLS
            assert counters["serve.dedup_hit"] == NCELLS
            assert counters["serve.store"] == NCELLS
        assert sweep_fingerprint(sweeps[0]) == sweep_fingerprint(sweeps[1])
        # the joiner's client counts its joined cells as dedup hits
        total_joins = sum(s.counter("dedup_hits") for s in sweeps)
        assert total_joins == NCELLS
        # and nobody double-stored: the store holds one entry per cell
        assert len(ResultCache(tmp_path)) == NCELLS


# ---------------------------------------------------------------------------
# refusal and failure paths
# ---------------------------------------------------------------------------
class TestServeRefusals:
    def test_custom_context_refused_client_side(self, tmp_path):
        with running_server(tmp_path) as srv:
            with pytest.raises(ValueError, match="custom machine"):
                run_sweep("axpy", ctx=ExecContext(seed=7), server=srv.url,
                          **KWARGS)

    def test_validation_refused_in_server_mode(self, tmp_path):
        with running_server(tmp_path) as srv:
            with pytest.raises(ValueError, match="server mode"):
                run_sweep("axpy", server=srv.url, validate=True, **KWARGS)

    def test_context_digest_mismatch_detected(self, tmp_path):
        """A server simulating a different machine than the client
        expects answers with a hard error, not different numbers."""
        with running_server(tmp_path, ctx=ExecContext(seed=123)) as srv:
            with pytest.raises(ServerError, match="different execution context"):
                run_sweep("axpy", server=srv.url, **KWARGS)

    def test_unknown_workload_is_a_400(self, tmp_path):
        with running_server(tmp_path) as srv:
            client = SweepClient(srv.url)
            with pytest.raises(ServerError, match="400"):
                list(client.query(MatrixQuery("no_such_workload")))
            assert srv.perf.counters["serve.bad_request"] == 1

    def test_unknown_route_is_a_404(self, tmp_path):
        with running_server(tmp_path) as srv:
            client = SweepClient(srv.url)
            with pytest.raises(ServerError, match="404"):
                client._get_json("/nope")

    def test_worker_crash_streams_fatal(self, tmp_path, monkeypatch):
        def boom(cell, ctx):
            raise RuntimeError("injected estimator crash")

        monkeypatch.setattr(executor_mod, "_estimate_cell_local", boom)
        with running_server(tmp_path) as srv:
            with pytest.raises(ServerError, match="server aborted"):
                run_sweep("axpy", server=srv.url, versions=["omp_for"],
                          threads=(1,), params={"n": 120_000}, fidelity=0)
            assert srv.perf.counters["serve.failed_request"] == 1

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError, match="http"):
            SweepClient("ftp://example.com/")
