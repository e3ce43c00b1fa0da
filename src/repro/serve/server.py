"""Sweep-as-a-service: the asyncio front end over the sharded store.

:class:`SweepServer` turns :func:`repro.sweep.run_sweep` + the
content-addressed :class:`~repro.sweep.cache.ResultCache` into a
long-running query service.  A what-if matrix arrives as one ``POST
/sweep`` (:class:`~repro.serve.protocol.MatrixQuery`), is expanded to
:class:`~repro.sweep.cells.SweepCell`\\ s, and every cell is resolved
through exactly one of:

- **store hit** — the cell's content address resolves in the shared
  :class:`ResultCache` (true-LRU, sharded — the PR's corrected store);
- **single-flight join** — an *identical cell of another in-flight
  request* is already being resolved; this request awaits the same
  future instead of re-simulating (``serve.dedup_hit``).  The future
  map is keyed by ``cache_key``, so "identical" means identical in
  every output-determining input, not merely same-named;
- **fresh simulation** — the miss is dispatched to the server's shared
  fork-based process pool (tier-0 estimates run in a thread: an
  estimate costs microseconds, a process hop costs more), written
  through to the store, and the future resolved for every waiter.

Results stream back as NDJSON *as cells land*, so a client sees its
first cells while later ones still simulate — hundreds-of-cells METG
matrices (Task Bench) render incrementally instead of at the end.

Single-flight correctness leans on asyncio's run-to-completion: the
in-flight map is checked and updated with no ``await`` in between, so
two racing requests can never both register the same key.  Eviction
policy lives in the store (``max_entries`` / ``ttl_seconds``); the
server prunes after each request batch that stored new entries.

Telemetry: every request, dedup join, hit, simulation and store error
lands in one lifetime :class:`~repro.perf.spans.PerfRecorder`
(``serve.request``, ``serve.dedup_hit``, ``serve.cache_hit``,
``serve.simulations``, ...) exposed live at ``GET /stats`` and
appended to the :mod:`repro.perf` run ledger on shutdown.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import sys
from time import perf_counter, process_time
from typing import Any, Optional, Union

from repro.perf.spans import PerfRecorder
from repro.runtime.base import ExecContext
from repro.serve import protocol
from repro.serve.protocol import MatrixQuery, ProtocolError
from repro.sweep import executor as _executor
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.sweep.cells import SweepCell

__all__ = ["SweepServer", "main"]

#: Cap on request body size (a matrix query is tiny; anything bigger
#: is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

_CRLF = b"\r\n"


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepServer:
    """Async sweep service over one shared :class:`ResultCache`.

    Parameters
    ----------
    cache:
        The store to serve from — a :class:`ResultCache`, a directory
        path, or ``None`` for :data:`DEFAULT_CACHE_DIR`.  Its
        ``max_entries`` / ``ttl_seconds`` policy governs eviction.
    jobs:
        Worker processes for cache-miss simulation (tier-0 estimates
        run in-thread).  On platforms without ``fork`` misses run in a
        thread pool instead — slower, identical results.
    ctx:
        The execution context every query is keyed and simulated under
        (defaults to :class:`ExecContext`'s paper machine).  Protocol
        v1 serves one context per server, exactly like one cache
        directory serves one context's entries.
    """

    def __init__(
        self,
        cache: Union[None, str, ResultCache] = None,
        *,
        jobs: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ctx: Optional[ExecContext] = None,
    ) -> None:
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache if cache is not None else DEFAULT_CACHE_DIR)
        self.jobs = max(1, int(jobs))
        self.host = host
        self.port = int(port)
        self.ctx = ctx or ExecContext()
        self.perf = PerfRecorder("serve")
        self._inflight: dict[str, asyncio.Future] = {}
        self._conns: set[asyncio.Task] = set()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._t0 = 0.0
        self._c0 = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "SweepServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = perf_counter()
        self._c0 = process_time()
        return self

    async def close(self) -> None:
        """Stop accepting, stop the pool, stamp the lifetime telemetry."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conns:
            # 3.11's Server.wait_closed does not wait for handlers;
            # drain them so no request is abandoned mid-stream
            await asyncio.wait(set(self._conns), timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.perf.wall = perf_counter() - self._t0
        self.perf.cpu = process_time() - self._c0

    def write_ledger_record(self) -> Optional[dict[str, Any]]:
        """Append the server's lifetime record to the run ledger."""
        from repro.perf import Ledger, make_record

        try:
            ledger = Ledger()
            return ledger.append(
                make_record(
                    "serve",
                    "serve",
                    self.perf,
                    extra={
                        "cache": str(self.cache.root),
                        "jobs": self.jobs,
                        "entries": len(self.cache),
                    },
                )
            )
        except OSError:  # pragma: no cover - host FS dependent
            return None

    def stats(self) -> dict[str, Any]:
        """Live telemetry snapshot (the ``GET /stats`` document)."""
        snap = self.perf.snapshot()
        snap["wall_seconds"] = perf_counter() - self._t0 if self._t0 else 0.0
        snap["inflight"] = len(self._inflight)
        snap["store"] = {
            "root": str(self.cache.root),
            "entries": len(self.cache),
            "max_entries": self.cache.max_entries,
            "ttl_seconds": self.cache.ttl_seconds,
        }
        return snap

    # ------------------------------------------------------------------
    # cell resolution (single-flight + pool fan-out + write-through)
    # ------------------------------------------------------------------
    def _get_pool(self) -> Optional[concurrent.futures.Executor]:
        if self._pool is None:
            pool_ctx = _executor._pool_context()
            if pool_ctx is None:  # pragma: no cover - platform dependent
                return None
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=pool_ctx
            )
        return self._pool

    async def _simulate(self, cell: SweepCell, ctx: ExecContext, trace: bool
                        ) -> dict[str, Any]:
        """Run one miss and return its cache-entry document."""
        loop = asyncio.get_running_loop()
        if cell.fidelity == 0:
            res, err = await loop.run_in_executor(
                None, _executor._estimate_cell_local, cell, ctx
            )
            self.perf.count("serve.estimates")
        else:
            payload = _executor._cell_payload(cell, ctx, trace, validate=False)
            pool = self._get_pool()
            # _exec_cell resolved through the executor module namespace,
            # like the serial path resolves run_program — the test seam.
            if pool is not None:
                out = await loop.run_in_executor(pool, _executor._exec_cell, payload)
            else:  # pragma: no cover - platform dependent
                out = await loop.run_in_executor(None, _executor._exec_cell, payload)
            if "crash" in out:
                raise RuntimeError(
                    f"cell {cell.describe()} failed in worker: "
                    f"{out['crash']}\n{out.get('traceback', '')}"
                )
            err = out.get("error")
            res = (
                _executor.codec.result_from_dict(out["result"])
                if "result" in out
                else None
            )
            self.perf.count("serve.simulations")
        return _executor._encode_entry(cell, res, err, trace)

    async def _resolve_cell(
        self, key: str, cell: SweepCell, ctx: ExecContext, trace: bool, refresh: bool
    ) -> tuple[dict[str, Any], str]:
        """Resolve one cell to ``(entry document, status)``.

        The single-flight discipline: between probing ``_inflight`` and
        registering our future there is no ``await``, so exactly one
        request owns each key's resolution; everyone else joins it.
        """
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.perf.count("serve.dedup_hit")
            doc = await asyncio.shield(inflight)
            return doc, "join"
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._inflight[key] = fut
        try:
            doc: Optional[dict[str, Any]] = None
            status = "run"
            if not refresh:
                payload = await loop.run_in_executor(None, self.cache.get, key)
                if payload is not None and _executor._decode_entry(
                    payload, cell.fidelity
                ) is not None:
                    self.perf.count("serve.cache_hit")
                    doc, status = payload, "hit"
            if doc is None:
                doc = await self._simulate(cell, ctx, trace)
                await loop.run_in_executor(None, self.cache.put, key, doc)
                self.perf.count("serve.store")
            fut.set_result(doc)
            return doc, status
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                # a joiner may or may not exist; don't let an unobserved
                # future exception warn at GC time
                fut.exception()
            raise
        finally:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": str(exc)}
                )
                return
            if method == "GET" and path in ("/healthz", "/health"):
                await self._respond_json(writer, 200, {"ok": True})
            elif method == "GET" and path == "/stats":
                await self._respond_json(writer, 200, self.stats())
            elif method == "POST" and path == "/sweep":
                await self._handle_sweep(writer, body)
            else:
                await self._respond_json(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            if task is not None:
                self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (_CRLF, b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target.split("?", 1)[0], body

    @staticmethod
    async def _write_head(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        *,
        content_length: Optional[int] = None,
        chunked: bool = False,
    ) -> None:
        """Emit the status line and headers.

        Responses are explicitly framed (``Content-Length`` or chunked
        transfer-encoding) rather than close-delimited: pool workers
        forked mid-stream inherit the connection fd, so a client
        waiting for EOF could wait for the *worker's* lifetime, not the
        response's.
        """
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 500: "Internal Server Error"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
        )
        if chunked:
            head += "Transfer-Encoding: chunked\r\n"
        elif content_length is not None:
            head += f"Content-Length: {content_length}\r\n"
        writer.write((head + "\r\n").encode("latin-1"))
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        """One HTTP/1.1 chunk; empty ``data`` writes the terminator."""
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + _CRLF)
        await writer.drain()

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, doc: dict[str, Any]
    ) -> None:
        body = json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"
        await self._write_head(
            writer, status, "application/json", content_length=len(body)
        )
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # the sweep route
    # ------------------------------------------------------------------
    async def _handle_sweep(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        self.perf.count("serve.request")
        t0 = perf_counter()
        try:
            query = MatrixQuery.from_dict(json.loads(body.decode("utf-8")))
            _spec, config, cells = protocol.expand_query(query)
        except (KeyError, ValueError, ProtocolError) as exc:
            # KeyError: get_workload's unknown-workload complaint
            self.perf.count("serve.bad_request")
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        keys = [cache_key(c, self.ctx, trace=query.trace) for c in cells]
        self.perf.count("serve.cells", len(cells))

        await self._write_head(writer, 200, "application/x-ndjson", chunked=True)
        await self._write_chunk(writer, protocol.encode_event(protocol.start_event(
            len(cells), query.workload, protocol.context_digest(self.ctx)
        )))

        async def settle(i: int) -> tuple[int, dict[str, Any], str]:
            doc, status = await self._resolve_cell(
                keys[i], cells[i], self.ctx, query.trace, query.refresh
            )
            return i, doc, status

        counters = {"cells": len(cells), "hits": 0, "runs": 0, "errors": 0,
                    "dedup_joins": 0}
        tasks = [asyncio.ensure_future(settle(i)) for i in range(len(cells))]
        stored = False
        try:
            for settled in asyncio.as_completed(tasks):
                try:
                    i, doc, status = await settled
                except Exception as exc:
                    # a crashed cell aborts the request, not the server
                    for t in tasks:
                        t.cancel()
                    self.perf.count("serve.failed_request")
                    await self._write_chunk(
                        writer,
                        protocol.encode_event(protocol.fatal_event(str(exc))),
                    )
                    await self._write_chunk(writer, b"")
                    return
                joined = status == "join"
                if joined:
                    # another request's single flight did the work; this
                    # request performed no simulation of its own
                    counters["dedup_joins"] += 1
                    status = "run"
                if status == "hit":
                    counters["hits"] += 1
                else:
                    counters["runs"] += 1
                    stored = stored or not joined
                if "error" in doc:
                    # orthogonal to how the cell was resolved: a cached
                    # or fresh cell error is still a hit/run above
                    status = "error"
                    counters["errors"] += 1
                await self._write_chunk(writer, protocol.encode_event(
                    protocol.cell_event(
                        cells[i].version, cells[i].nthreads, keys[i], status, doc
                    )
                ))
            await self._write_chunk(
                writer, protocol.encode_event(protocol.end_event(counters))
            )
            await self._write_chunk(writer, b"")
        finally:
            self.perf.observe("serve.request_seconds", perf_counter() - t0)
            if stored and (
                self.cache.max_entries is not None or self.cache.ttl_seconds is not None
            ):
                evicted = await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.prune
                )
                if evicted:
                    self.perf.count("serve.evictions", evicted)


# ---------------------------------------------------------------------------
# CLI entry point (``repro serve``)
# ---------------------------------------------------------------------------
async def _serve_until_stopped(server: SweepServer, quiet: bool) -> None:
    await server.start()
    if not quiet:
        print(
            f"repro serve: listening on {server.url} "
            f"(store {server.cache.root}, jobs={server.jobs})",
            file=sys.stderr,
            flush=True,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    import signal

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        await server.close()
        record = server.write_ledger_record()
        if not quiet:
            counters = server.perf.counters
            print(
                "repro serve: stopped "
                f"(requests={counters.get('serve.request', 0)}, "
                f"dedup_hits={counters.get('serve.dedup_hit', 0)}, "
                f"cache_hits={counters.get('serve.cache_hit', 0)}, "
                f"simulations={counters.get('serve.simulations', 0)}, "
                f"estimates={counters.get('serve.estimates', 0)})"
                + ("" if record is None else " — ledger record appended"),
                file=sys.stderr,
                flush=True,
            )


def main(
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: Union[None, str] = None,
    jobs: int = 2,
    max_entries: Optional[int] = None,
    ttl_seconds: Optional[float] = None,
    quiet: bool = False,
) -> int:
    """Blocking server entry point behind ``repro serve``."""
    cache = ResultCache(
        cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR,
        max_entries=max_entries,
        ttl_seconds=ttl_seconds,
    )
    server = SweepServer(cache, jobs=jobs, host=host, port=port)
    try:
        asyncio.run(_serve_until_stopped(server, quiet))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    return 0
