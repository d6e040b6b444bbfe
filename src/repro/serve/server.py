"""The asyncio HTTP/JSON sweep server (stdlib-only).

One :class:`SweepServer` owns a shared
:class:`~repro.lab.store.ArtifactStore`, a :class:`JobRegistry`
(dedup + bounded admission + tenant budgets) and a
:class:`JobWorkerPool` (per-job worker processes).  The HTTP surface::

    POST /v1/jobs                  submit {"grid": {...}, "kind": "sweep",
                                   "tenant": "alice"} -> 202 job snapshot
                                   (200 + "cached": true on a frame-cache
                                   hit; 429 when the queue is full;
                                   400 on a malformed grid)
    GET  /v1/jobs                  all job snapshots
    GET  /v1/jobs/<id>             one job snapshot (404 unknown)
    GET  /v1/jobs/<id>/result      the ResultFrame as JSON (409 while
                                   pending, 410 if evicted, 500 failed)
    GET  /v1/jobs/<id>/events      ndjson progress stream until the job
                                   reaches a terminal state
    GET  /v1/status                queue/worker/tenant/counter overview
    POST /v1/shutdown              acknowledge, then stop cleanly

Responses are ``Connection: close`` (one request per connection — the
service optimises for correctness and testability, not keep-alive
throughput; a fronting proxy owns connection pooling at real scale).

Run it via ``python -m repro serve`` or embed it::

    config = ServeConfig(store_root=".repro-store", port=0)
    server = SweepServer(config)
    with server.running() as port:
        ...

Every admission decision increments a ``serve.*`` counter in
:mod:`repro.obs.metrics` (submitted / deduped / cache.hits / rejected /
completed / failed / simulations / tenant.evictions), so the service
shows up in telemetry frames and ``GET /v1/status`` alike; with
``telemetry=True`` each job also lands as a ``serve.job`` span (worker
spans merged onto the server tracer's timeline).
"""

import asyncio
import contextlib
import json
import threading
import time

from repro.lab.jobqueue import QueueFull
from repro.lab.scenario import ScenarioError, ScenarioGrid
from repro.lab.store import ArtifactStore
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.jobs import JOB_KINDS, JobRegistry
from repro.serve.pool import JobWorkerPool, job_payload

__all__ = ["ServeConfig", "SweepServer"]

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Submission bodies past this size are rejected (413) before parsing.
MAX_BODY_BYTES = 4 << 20


class _HttpError(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


class ServeConfig:
    """Server configuration (one object, CLI-mappable).

    Parameters
    ----------
    store_root:
        Directory of the shared artifact store (created on demand) —
        required: the store *is* the service's cache and dedup fabric.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`SweepServer.port` after start).
    workers:
        Concurrent job worker processes.
    sweep_jobs:
        Shard workers *inside* each job's sweep (``Session(jobs=...)``).
    queue_limit:
        Active-job bound; submissions past it get HTTP 429.
    tenant_budget_bytes:
        Per-tenant cached-frame budget (LRU-evicted after each job).
    store_budget_bytes:
        Whole-store size budget, LRU-``gc``-ed after every completed
        job (``None`` disables).
    engine:
        Evaluation engine for job sessions (``vector`` / ``lockstep``).
    telemetry:
        Trace server + worker spans onto one timeline.
    """

    def __init__(self, store_root, host="127.0.0.1", port=8787,
                 workers=2, sweep_jobs=1, queue_limit=16,
                 tenant_budget_bytes=None, store_budget_bytes=None,
                 engine="vector", telemetry=False):
        self.store_root = store_root
        self.host = host
        self.port = int(port)
        self.workers = max(1, int(workers))
        self.sweep_jobs = max(1, int(sweep_jobs))
        self.queue_limit = int(queue_limit)
        self.tenant_budget_bytes = tenant_budget_bytes
        self.store_budget_bytes = store_budget_bytes
        self.engine = engine
        self.telemetry = telemetry


class SweepServer:
    """The multi-tenant sweep service over one shared artifact store."""

    def __init__(self, config):
        self.config = config
        self.store = ArtifactStore(config.store_root)
        self.registry = JobRegistry(
            self.store,
            queue_limit=config.queue_limit,
            tenant_budget_bytes=config.tenant_budget_bytes,
            on_change=self._job_changed,
        )
        self.pool = JobWorkerPool(config.workers, self._pool_event)
        self.tracer = (
            obs_trace.Tracer(label="serve") if config.telemetry else None
        )
        self.port = None
        self.started = time.time()
        self._server = None
        self._loop = None
        self._stopping = None
        self._waiters = {}                  # job id -> set of asyncio.Event
        self._job_starts = {}               # job id -> perf start (spans)

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind and start serving; resolves the actual port."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        if self.tracer is not None:
            obs_trace.set_tracer(self.tracer)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # the forkserver imports the job stack while the server serves;
        # launching it is one fork + exec
        self.pool.start()
        return self

    async def serve_until_stopped(self):
        """Serve until :meth:`stop` (or ``POST /v1/shutdown``)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stopping.wait()
        self.pool.shutdown()

    async def stop(self):
        """Initiate a clean shutdown."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
        # wake every event stream so handlers finish promptly
        for events in list(self._waiters.values()):
            for event in list(events):
                event.set()

    def run(self):
        """Blocking entry point (the ``repro serve`` command body)."""
        async def main():
            import signal

            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.stop()),
                    )
            print(f"repro.serve listening on "
                  f"http://{self.config.host}:{self.port} "
                  f"(store={self.store.root}, "
                  f"workers={self.config.workers}, "
                  f"queue={self.config.queue_limit})", flush=True)
            await self.serve_until_stopped()

        asyncio.run(main())
        return 0

    @contextlib.contextmanager
    def running(self):
        """Run the server on a background thread (tests, embedding);
        yields the bound port and shuts down cleanly on exit."""
        ready = threading.Event()

        async def main():
            await self.start()
            ready.set()
            await self.serve_until_stopped()

        thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="serve-loop", daemon=True,
        )
        thread.start()
        if not ready.wait(timeout=10):
            raise RuntimeError("server failed to start")
        try:
            yield self.port
        finally:
            loop = self._loop
            if loop is not None and not loop.is_closed():
                asyncio.run_coroutine_threadsafe(self.stop(), loop)
            thread.join(timeout=10)

    # -- job plumbing --------------------------------------------------------

    def _dispatch(self):
        """Hand every claimable job to the worker pool."""
        while True:
            job = self.registry.claim()
            if job is None:
                return
            if self.tracer is not None:
                self._job_starts[job.id] = time.perf_counter()
            self.pool.submit(job, job_payload(job, self.config))

    def _pool_event(self, job, message):
        """Pipe/exit events from a watcher thread."""
        kind = message[0]
        if kind == "progress":
            self.registry.progress(job, message[1], message[2])
        elif kind == "window":
            self.registry.window_event(job, message[1])
        elif kind == "done":
            self._job_done(job, frame_dict=message[1], meta=message[2])
        elif kind == "error":
            self.registry.fail(job, message[1])
        elif kind == "exit":
            if not job.terminal:
                self.registry.fail(
                    job, f"worker process died (exit code {message[1]})"
                )
            self._record_job_span(job)

    def _job_done(self, job, frame_dict, meta):
        from repro.api.frame import ResultFrame

        frame = ResultFrame.from_dict(frame_dict)
        cached = bool(meta.get("cached"))
        if not cached:
            self.store.save_frame(job.result_name, frame)
        frame_bytes = 0
        try:
            frame_bytes = (
                self.store.frame_path(job.result_name).stat().st_size
            )
        except OSError:
            pass
        obs_metrics.merge(meta.get("counters"))
        obs_trace.merge_worker_spans(meta.get("spans"))
        self.registry.complete(
            job,
            simulations=meta.get("simulations", 0),
            frame_bytes=frame_bytes,
            cached=cached,
        )
        if self.config.store_budget_bytes is not None:
            self.store.gc(max_bytes=self.config.store_budget_bytes)

    def _record_job_span(self, job):
        """Synthesize one ``serve.job`` span covering the job's run."""
        start = self._job_starts.pop(job.id, None)
        if self.tracer is None or start is None:
            return
        duration_us = (time.perf_counter() - start) * 1e6
        obs_trace.merge_worker_spans([{
            "span": "serve.job",
            "category": "serve",
            "worker": self.tracer.label,
            "pid": self.tracer.pid,
            "depth": 0,
            "start_us": (
                self.tracer._epoch_unix_us
                + (start - self.tracer._epoch_perf) * 1e6
            ),
            "duration_us": duration_us,
            "cpu_us": 0.0,
            "attrs": {"job": job.id, "kind": job.kind,
                      "state": job.state, "grid": job.grid_name},
        }])

    def _job_changed(self, job):
        """Register/pool callback (any thread): wake event streams."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._wake_waiters, job.id)

    def _wake_waiters(self, job_id):
        for event in self._waiters.get(job_id, ()):
            event.set()

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.LimitOverrunError):
                return
            except _HttpError as error:
                await self._respond_json(
                    writer, error.status, {"error": error.message}
                )
                return
            try:
                await self._route(method, path, body, writer)
            except _HttpError as error:
                await self._respond_json(
                    writer, error.status, {"error": error.message}
                )
            except ConnectionError:
                pass
            except Exception as error:   # noqa: BLE001 — keep serving
                with contextlib.suppress(ConnectionError):
                    await self._respond_json(
                        writer, 500,
                        {"error": f"{type(error).__name__}: {error}"},
                    )
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader):
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    async def _route(self, method, path, body, writer):
        segments = [s for s in path.split("/") if s]
        if segments[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path}")
        tail = segments[1:]
        if tail == ["jobs"]:
            if method == "POST":
                return await self._post_job(body, writer)
            if method == "GET":
                return await self._respond_json(writer, 200, {
                    "jobs": [job.as_dict()
                             for job in self.registry.jobs()],
                })
            raise _HttpError(405, f"{method} not allowed")
        if len(tail) >= 2 and tail[0] == "jobs":
            job = self.registry.get(tail[1])
            if job is None:
                raise _HttpError(404, f"unknown job {tail[1]!r}")
            if len(tail) == 2 and method == "GET":
                return await self._respond_json(writer, 200, job.as_dict())
            if tail[2:] == ["result"] and method == "GET":
                return await self._get_result(job, writer)
            if tail[2:] == ["events"] and method == "GET":
                return await self._stream_events(job, writer)
            raise _HttpError(404, f"unknown path {path}")
        if tail == ["status"] and method == "GET":
            return await self._respond_json(writer, 200, self._status())
        if tail == ["shutdown"] and method == "POST":
            await self._respond_json(writer, 200, {"stopping": True})
            asyncio.ensure_future(self.stop())
            return
        raise _HttpError(404, f"unknown path {path}")

    async def _post_job(self, body, writer):
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            raise _HttpError(400, "body is not valid JSON") from None
        if not isinstance(payload, dict) or "grid" not in payload:
            raise _HttpError(400, 'body must be {"grid": {...}, ...}')
        kind = payload.get("kind", "sweep")
        if kind not in JOB_KINDS:
            raise _HttpError(
                400, f"unknown kind {kind!r}; choose from {JOB_KINDS}"
            )
        tenant = str(payload.get("tenant") or "anonymous")
        try:
            grid = ScenarioGrid.from_dict(payload["grid"])
        except ScenarioError as error:
            raise _HttpError(400, f"invalid grid: {error}") from None
        options = None
        if kind == "stream":
            from repro.stream import stream_fingerprint, validate_stream_options

            try:
                options = validate_stream_options(
                    payload.get("stream"), require_finite=True
                )
            except ValueError as error:
                raise _HttpError(
                    400, f"invalid stream options: {error}"
                ) from None
            fingerprint = stream_fingerprint(grid, options)
        else:
            fingerprint = grid.fingerprint()
        try:
            job, deduped, cached = await asyncio.to_thread(
                self.registry.submit, kind, fingerprint, grid.to_dict(),
                tenant, options,
            )
        except QueueFull as error:
            raise _HttpError(429, str(error)) from None
        self._dispatch()
        snapshot = job.as_dict()
        snapshot["deduped"] = deduped
        status = 200 if job.terminal else 202
        await self._respond_json(writer, status, snapshot)

    async def _get_result(self, job, writer):
        if job.state == "failed":
            raise _HttpError(500, f"job failed: {job.error}")
        if not job.terminal:
            raise _HttpError(
                409, f"job {job.id} is {job.state}; poll /events or retry"
            )
        frame = await asyncio.to_thread(
            self.store.load_frame, job.result_name
        )
        if frame is None:
            raise _HttpError(
                410, f"result of {job.id} was evicted from the cache; "
                     f"resubmit the grid to recompute"
            )
        await self._respond(
            writer, 200, frame.to_json().encode(),
            content_type="application/json",
        )

    async def _stream_events(self, job, writer):
        """ndjson event stream: replay recorded events, then follow
        live updates until the job is terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        event = asyncio.Event()
        self._waiters.setdefault(job.id, set()).add(event)
        cursor = 0
        try:
            while True:
                # cleared before the read, so a change after it wakes us
                event.clear()
                # events and terminal flag from one snapshot: a job that
                # ends after the read is seen on the next pass, with its
                # terminal event
                events, terminal = self.registry.events_since(job, cursor)
                for record in events:
                    writer.write(
                        (json.dumps(record, sort_keys=True) + "\n")
                        .encode()
                    )
                cursor += len(events)
                await writer.drain()
                if terminal or self._stopping.is_set():
                    return
                await event.wait()
        finally:
            waiters = self._waiters.get(job.id)
            if waiters is not None:
                waiters.discard(event)
                if not waiters:
                    self._waiters.pop(job.id, None)

    def _status(self):
        counters = {
            name: value
            for name, value in sorted(obs_metrics.gather().items())
            if name.startswith(("serve.", "store."))
        }
        return {
            "uptime_seconds": time.time() - self.started,
            "store": str(self.store.root),
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
            "queued": self.registry.queue.queued,
            "active": len(self.registry.queue),
            "jobs": self.registry.counts(),
            "tenants": self.registry.tenant_usage(),
            "counters": counters,
        }

    async def _respond_json(self, writer, status, payload):
        body = json.dumps(payload, sort_keys=True).encode()
        await self._respond(writer, status, body,
                            content_type="application/json")

    async def _respond(self, writer, status, body, content_type):
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
