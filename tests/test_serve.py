"""The multi-tenant sweep service: dedup, caching, backpressure,
tenant budgets.

Unit layers (no HTTP, no simulation): :class:`BoundedJobQueue`
admission discipline, :class:`JobRegistry` dedup/cache precedence and
the event stream's terminal event.  Integration layer: a real
:class:`SweepServer` on a loopback port with real worker processes —
the dedup proof is the unified ``serve.simulations`` counter (pipeline
simulations actually run), and the cache proof is byte-identical
result bodies with a zero simulation delta.  The worker pool layer
checks the forkserver the workers are forked from: its preload, crash
isolation, shutdown and telemetry.
"""

import asyncio
import json
import multiprocessing
import os
import pathlib
import threading
import time

import pytest

from repro.lab.jobqueue import BoundedJobQueue, QueueFull
from repro.lab.store import ArtifactStore
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import pool as pool_module
from repro.serve import (
    JobRegistry,
    ServeClient,
    ServeConfig,
    SweepServer,
    frame_cache_name,
)
from repro.serve.client import ServeError

#: One-unit grid: a single (policy, margin, voltage, workload) cell, so
#: integration jobs finish in well under a second per design point.
GRID = {
    "name": "serve-mini",
    "policies": ["instruction"],
    "margins": [0.0],
    "voltages": [0.7],
    "workloads": ["fib"],
    "check_safety": True,
}

OTHER_GRID = {**GRID, "name": "serve-other", "workloads": ["crc16"]}


def serve_counters(baseline):
    return {
        name: value
        for name, value in obs_metrics.delta_since(baseline).items()
        if name.startswith("serve.")
    }


class TestBoundedJobQueue:
    def test_fifo_claim_order(self):
        queue = BoundedJobQueue(4)
        for key in ("a", "b", "c"):
            queue.submit(key, lambda key=key: f"entry-{key}")
        assert queue.claim() == "entry-a"
        assert queue.claim() == "entry-b"
        assert queue.claim() == "entry-c"
        assert queue.claim() is None

    def test_dedup_returns_existing_entry(self):
        queue = BoundedJobQueue(4)
        first, deduped = queue.submit("k", lambda: object())
        assert not deduped
        again, deduped = queue.submit("k", lambda: object())
        assert deduped
        assert again is first
        assert len(queue) == 1                # no capacity consumed

    def test_claimed_entry_still_dedups_until_finish(self):
        queue = BoundedJobQueue(4)
        entry, _ = queue.submit("k", lambda: "running")
        assert queue.claim() is entry
        again, deduped = queue.submit("k", lambda: "fresh")
        assert deduped and again is entry
        queue.finish("k")
        fresh, deduped = queue.submit("k", lambda: "fresh")
        assert not deduped and fresh == "fresh"

    def test_queue_full_past_bound(self):
        queue = BoundedJobQueue(2)
        queue.submit("a", lambda: 1)
        queue.submit("b", lambda: 2)
        with pytest.raises(QueueFull):
            queue.submit("c", lambda: 3)
        # dedup of an active key never hits the bound
        _, deduped = queue.submit("a", lambda: 1)
        assert deduped
        queue.finish("a")
        queue.submit("c", lambda: 3)          # capacity freed

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedJobQueue(0)


class TestJobRegistry:
    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def test_active_job_dedups_across_tenants(self, store):
        registry = JobRegistry(store)
        job, deduped, cached = registry.submit("sweep", "fp1", GRID,
                                               "alice")
        assert (deduped, cached) == (False, False)
        again, deduped, cached = registry.submit("sweep", "fp1", GRID,
                                                 "bob")
        assert (deduped, cached) == (True, False)
        assert again is job
        assert job.submissions == 2
        assert job.tenants == ["alice", "bob"]

    def test_distinct_fingerprints_distinct_jobs(self, store):
        registry = JobRegistry(store)
        a, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        b, _, _ = registry.submit("sweep", "fp2", OTHER_GRID, "alice")
        c, _, _ = registry.submit("train", "fp1", GRID, "alice")
        assert len({a.id, b.id, c.id}) == 3   # kind is part of identity

    def test_cache_hit_answers_without_queueing(self, store):
        from repro.api.frame import EVALUATION_SCHEMA, ResultFrame

        store.save_frame(
            frame_cache_name("sweep", "fp1"),
            ResultFrame.from_rows([], EVALUATION_SCHEMA),
        )
        registry = JobRegistry(store)
        job, deduped, cached = registry.submit("sweep", "fp1", GRID,
                                               "alice")
        assert cached and not deduped
        assert job.state == "done" and job.cached
        assert registry.claim() is None       # nothing to execute
        assert len(registry.queue) == 0

    def test_queue_full_raises_and_counts(self, store):
        baseline = obs_metrics.gather()
        registry = JobRegistry(store, queue_limit=1)
        registry.submit("sweep", "fp1", GRID, "alice")
        with pytest.raises(QueueFull):
            registry.submit("sweep", "fp2", OTHER_GRID, "bob")
        assert serve_counters(baseline).get("serve.rejected") == 1

    def test_complete_retires_dedup_window(self, store):
        registry = JobRegistry(store)
        job, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        assert registry.claim() is job
        registry.complete(job, simulations=3, frame_bytes=128)
        assert job.state == "done"
        assert job.simulations == 3
        fresh, deduped, cached = registry.submit("sweep", "fp1", GRID,
                                                 "bob")
        # no cached frame on disk → a fresh job, not a dedup
        assert fresh is not job and not deduped and not cached

    def test_fail_records_error(self, store):
        registry = JobRegistry(store)
        job, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        registry.claim()
        registry.fail(job, "worker exploded")
        assert job.state == "failed"
        assert job.error == "worker exploded"
        assert job.events[-1]["event"] == "failed"

    def test_tenant_budget_evicts_lru_frames(self, store):
        from repro.api.frame import EVALUATION_SCHEMA, ResultFrame

        frame = ResultFrame.from_rows([], EVALUATION_SCHEMA)
        baseline = obs_metrics.gather()
        registry = JobRegistry(store, tenant_budget_bytes=1)
        job, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        registry.claim()
        store.save_frame(job.result_name, frame)
        size = store.frame_path(job.result_name).stat().st_size
        registry.complete(job, simulations=1, frame_bytes=size)
        # a 1-byte budget cannot hold the frame: evicted immediately
        assert not store.frame_path(job.result_name).exists()
        assert serve_counters(baseline)["serve.tenant.evictions"] == 1
        assert registry.tenant_usage() == {"alice": 0}

    def test_tenant_budget_scoped_to_one_tenant(self, store):
        from repro.api.frame import EVALUATION_SCHEMA, ResultFrame

        frame = ResultFrame.from_rows([], EVALUATION_SCHEMA)
        registry = JobRegistry(store, tenant_budget_bytes=1)
        bob_job, _, _ = registry.submit("sweep", "fpB", OTHER_GRID, "bob")
        registry.claim()
        store.save_frame(bob_job.result_name, frame)
        registry.complete(bob_job, frame_bytes=1)   # stays under budget?
        # bob's frame is over his budget too, but completing *alice's*
        # job must only ever evict alice's frames
        store.save_frame(bob_job.result_name, frame)
        alice_job, _, _ = registry.submit("sweep", "fpA", GRID, "alice")
        registry.claim()
        store.save_frame(alice_job.result_name, frame)
        registry.complete(alice_job, frame_bytes=1)
        assert not store.frame_path(alice_job.result_name).exists()
        assert store.frame_path(bob_job.result_name).exists()


class TestEventStream:
    def test_job_ending_mid_drain_still_streams_terminal_event(
            self, tmp_path):
        """The job completes while the stream sits between reading the
        events and draining them; the stream must still end with the
        terminal event, written once."""
        server = SweepServer(ServeConfig(store_root=tmp_path / "store",
                                         port=0))
        registry = server.registry
        job, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        registry.claim()
        registry.progress(job, 0, 1)

        class Writer:
            def __init__(self):
                self.data = b""
                self.drains = 0

            def write(self, data):
                self.data += data

            async def drain(self):
                self.drains += 1
                if self.drains == 1:
                    registry.complete(job, simulations=1)

        writer = Writer()

        async def stream():
            server._loop = asyncio.get_running_loop()
            server._stopping = asyncio.Event()
            await asyncio.wait_for(server._stream_events(job, writer), 10)

        asyncio.run(stream())
        body = writer.data.split(b"\r\n\r\n", 1)[1]
        events = [json.loads(line) for line in body.splitlines()]
        assert events == [
            {"event": "progress", "done": 0, "total": 1},
            {"event": "done", "cached": False},
        ]

    def test_events_since_reads_events_with_terminal_flag(self, tmp_path):
        registry = JobRegistry(ArtifactStore(tmp_path / "store"))
        job, _, _ = registry.submit("sweep", "fp1", GRID, "alice")
        registry.claim()
        registry.progress(job, 1, 2)
        assert registry.events_since(job, 0) == (
            [{"event": "progress", "done": 1, "total": 2}], False
        )
        registry.fail(job, "boom")
        events, terminal = registry.events_since(job, 1)
        assert terminal and events == [{"event": "failed",
                                         "error": "boom"}]


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(store_root=tmp_path / "store", port=0,
                         workers=2)
    server = SweepServer(config)
    with server.running() as port:
        yield server, ServeClient(f"http://127.0.0.1:{port}",
                                  timeout=120.0)


class TestServeIntegration:
    def test_dedup_then_cache_hit(self, server):
        """The acceptance path: two concurrent clients submitting the
        same grid run exactly one sweep; a repeat submission after
        completion is served from the frame cache with zero
        re-simulation and a byte-identical body."""
        _, client = server
        baseline = obs_metrics.gather()
        snapshots = [None, None]

        def submit(slot, tenant):
            snapshots[slot] = client.submit(GRID, tenant=tenant)

        threads = [
            threading.Thread(target=submit, args=(0, "alice")),
            threading.Thread(target=submit, args=(1, "bob")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        a, b = snapshots
        assert a["id"] == b["id"]             # one job for both tenants
        assert {a["deduped"], b["deduped"]} == {False, True}

        done = client.wait(a["id"], timeout=120)
        assert done["state"] == "done"
        assert done["submissions"] == 2
        assert sorted(done["tenants"]) == ["alice", "bob"]
        counters = serve_counters(baseline)
        assert counters["serve.submitted"] == 1
        assert counters["serve.deduped"] == 1
        simulations = counters["serve.simulations"]
        assert simulations >= 1               # exactly one sweep ran
        assert done["simulations"] == simulations
        body = client.result_bytes(a["id"])
        frame = client.result(a["id"])
        assert len(frame) == 1                # one grid unit

        # repeat submission: frame-cache hit, zero re-simulation
        repeat = client.submit(GRID, tenant="carol")
        assert repeat["cached"] and repeat["state"] == "done"
        assert repeat["id"] != a["id"]
        assert client.result_bytes(repeat["id"]) == body
        after = serve_counters(baseline)
        assert after["serve.simulations"] == simulations   # unchanged
        assert after["serve.cache.hits"] == 1

    def test_progress_events_stream_to_terminal(self, server):
        _, client = server
        job = client.submit(OTHER_GRID, tenant="alice")
        events = list(client.events(job["id"]))
        assert events[-1] == {"event": "done", "cached": False}
        progress = [e for e in events if e["event"] == "progress"]
        assert progress and progress[-1]["done"] == progress[-1]["total"]

    def test_stream_job_windows_and_identity(self, server):
        """A ``stream`` job emits per-window events on ``/events`` and
        its cached frame is byte-identical to the offline evaluation of
        the same grid."""
        from repro.api import Session
        from repro.lab.scenario import ScenarioGrid

        _, client = server
        job = client.submit(GRID, kind="stream", tenant="alice",
                            stream={"window_cycles": 64})
        events = list(client.events(job["id"]))
        windows = [e for e in events if e["event"] == "window"]
        assert windows, "stream job emitted no window events"
        assert events[-1]["event"] == "done"
        first = windows[0]
        assert first["program"] == "fib"
        assert first["cycles"] == 64
        assert first["rows"][0]["config"] == "instruction/ideal"
        grid = ScenarioGrid.from_dict(GRID)
        point = grid.design_points()[0]
        session = Session(variant=point.variant, voltage=point.voltage)
        offline = session.evaluate(
            list(grid.workload_specs()), configs=grid.config_specs()
        )
        assert client.result_bytes(job["id"]).decode() \
            == offline.to_json()
        # options are part of the identity: same grid, other window
        other = client.submit(GRID, kind="stream", tenant="alice",
                              stream={"window_cycles": 32})
        assert other["id"] != job["id"] and not other["cached"]

    def test_stream_job_rejects_bad_options(self, server):
        _, client = server
        with pytest.raises(ServeError) as excinfo:
            client.submit(GRID, kind="stream", stream={"bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit(GRID, kind="stream",
                          stream={"source": "randomgen"})
        assert excinfo.value.status == 400   # unbounded source

    def test_backpressure_429(self, server):
        """With the queue pinned full, fresh grids bounce with 429 while
        dedup submissions of the active grid still land."""
        srv, client = server
        srv.registry.queue.limit = 1
        srv.pool.submit = lambda job, payload: None   # jobs never finish
        first = client.submit(GRID, tenant="alice")
        assert first["state"] in ("queued", "running")
        with pytest.raises(ServeError) as excinfo:
            client.submit(OTHER_GRID, tenant="bob")
        assert excinfo.value.status == 429
        deduped = client.submit(GRID, tenant="carol")
        assert deduped["deduped"] and deduped["id"] == first["id"]

    def test_bad_requests(self, server):
        _, client = server
        with pytest.raises(ServeError) as excinfo:
            client.submit({"name": "broken", "policies": []},
                          tenant="alice")
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.status("job-999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.submit(GRID, kind="bogus")
        assert excinfo.value.status == 400

    def test_result_conflict_while_pending(self, server):
        srv, client = server
        srv.pool.submit = lambda job, payload: None   # never completes
        job = client.submit(GRID, tenant="alice")
        with pytest.raises(ServeError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409

    def test_status_endpoint(self, server):
        _, client = server
        status = client.server_status()
        assert status["queue_limit"] == 16
        assert status["workers"] == 2
        assert set(status["jobs"]) == {"queued", "running", "done",
                                       "failed"}


class TestTenantBudgetIntegration:
    def test_over_budget_frame_evicted_and_result_gone(self, tmp_path):
        config = ServeConfig(store_root=tmp_path / "store", port=0,
                             workers=1, tenant_budget_bytes=1)
        server = SweepServer(config)
        baseline = obs_metrics.gather()
        with server.running() as port:
            client = ServeClient(f"http://127.0.0.1:{port}",
                                 timeout=120.0)
            job = client.submit(GRID, tenant="alice")
            done = client.wait(job["id"], timeout=120)
            assert done["state"] == "done"
            assert done["frame_bytes"] > 1    # it was over budget ...
            with pytest.raises(ServeError) as excinfo:
                client.result(job["id"])      # ... so it is gone now
            assert excinfo.value.status == 410
            assert client.server_status()["tenants"] == {"alice": 0}
        assert serve_counters(baseline)["serve.tenant.evictions"] >= 1


class TestServeKinds:
    def test_evaluate_and_train_kinds(self, server):
        _, client = server
        evaluated = client.wait(
            client.submit(GRID, kind="evaluate", tenant="alice")["id"],
            timeout=120,
        )
        assert evaluated["state"] == "done"
        eval_frame = client.result(evaluated["id"])
        assert len(eval_frame) == 1
        assert eval_frame.row(0)["program"] == "fib"

        trained = client.wait(
            client.submit(GRID, kind="train", tenant="alice")["id"],
            timeout=120,
        )
        assert trained["state"] == "done"
        train_frame = client.result(trained["id"])
        assert "safe" in train_frame.column_names
        # sweep/evaluate/train of one grid are three distinct jobs
        assert evaluated["fingerprint"] == trained["fingerprint"]
        assert evaluated["id"] != trained["id"]


class TestServeJsonContract:
    def test_job_snapshot_is_json_round_trippable(self, server):
        _, client = server
        job = client.submit(GRID, tenant="alice")
        snapshot = client.status(job["id"])
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["grid"] == "serve-mini"


def live_descendants(pid):
    """Pids of the processes below ``pid`` that have not exited (read
    from ``/proc``; an exited, unreaped process counts as gone)."""
    parents = {}
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue                          # exited while we looked
        if fields[0] not in ("Z", "X"):
            parents[int(stat.parent.name)] = int(fields[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {child for child, parent in parents.items()
                    if parent in frontier} - found
        found |= frontier
    return found


def still_alive(pids):
    alive = set()
    for pid in pids:
        try:
            state = pathlib.Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if state.rsplit(")", 1)[1].split()[0] not in ("Z", "X"):
            alive.add(pid)
    return alive


def capture_done_meta(server):
    """Record the ``meta`` of every job's ``done`` message."""
    metas = []
    relay = server.pool.on_event

    def spy(job, message):
        if message[0] == "done":
            metas.append(message[2])
        relay(job, message)

    server.pool.on_event = spy
    return metas


class _ExitOnFirstProgress:
    """Pipe end that kills its worker right after the job's first
    progress event reaches the server."""

    def __init__(self, conn):
        self.conn = conn

    def send(self, message):
        self.conn.send(message)
        if message[0] == "progress":
            os._exit(3)

    def close(self):
        self.conn.close()


def _exit_mid_job(conn, payload):
    """Worker entry point: the real job, dying in the middle of it."""
    from repro.serve.pool import _job_main

    _job_main(_ExitOnFirstProgress(conn), payload)


class TestWorkerPool:
    def test_sweep_worker_imports_nothing_beyond_the_preload(self, server):
        """A cold sweep job in a forked worker imports no ``repro``
        module: the forkserver preloaded all of them."""
        srv, client = server
        metas = capture_done_meta(srv)
        job = client.submit(GRID, tenant="alice")
        assert client.wait(job["id"], timeout=120)["state"] == "done"
        assert len(metas) == 1
        imported = [name for name in metas[0]["imported"]
                    if name.split(".")[0] == "repro"]
        assert imported == []

    def test_worker_crash_fails_only_its_job(self, server, monkeypatch):
        srv, client = server
        monkeypatch.setattr(pool_module, "_job_main", _exit_mid_job)
        crashed = client.wait(
            client.submit(GRID, tenant="alice")["id"], timeout=120
        )
        assert crashed["state"] == "failed"
        assert crashed["error"] == "worker process died (exit code 3)"
        assert crashed["progress"]["done"] == 0   # it died mid-job
        monkeypatch.undo()
        done = client.wait(
            client.submit(OTHER_GRID, tenant="alice")["id"], timeout=120
        )
        assert done["state"] == "done"
        assert len(client.result(done["id"])) == 1

    def test_worker_start_failure_fails_the_job(self, server, monkeypatch):
        _, client = server

        def no_worker(*args, **kwargs):
            raise EOFError("forkserver gone")

        monkeypatch.setattr(pool_module._MP, "Process", no_worker)
        failed = client.wait(client.submit(GRID)["id"], timeout=120)
        assert failed["state"] == "failed"
        assert failed["error"] == (
            "worker failed to start: EOFError('forkserver gone')"
        )

    def test_shutdown_reaps_workers_and_forkserver(self, tmp_path):
        """Shutting down with a job in flight leaves no child process
        and reaps the forkserver."""
        server = SweepServer(ServeConfig(store_root=tmp_path / "store",
                                         port=0, workers=1))
        with server.running() as port:
            forkserver_pid = pool_module.forkserver_pid()
            os.kill(forkserver_pid, 0)            # running
            client = ServeClient(f"http://127.0.0.1:{port}",
                                 timeout=120.0)
            done = client.wait(client.submit(GRID)["id"], timeout=120)
            assert done["state"] == "done"
            client.submit(OTHER_GRID)             # still running at exit
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):
            os.kill(forkserver_pid, 0)
        assert pool_module.forkserver_pid() is None

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_shutdown_ends_the_shard_pool_a_job_started(self, tmp_path):
        """Shutting down mid-sweep also ends the shard pool the job's
        worker started: nothing forked for the job outlives the
        server."""
        wide = {**GRID, "name": "serve-wide", "voltages": [0.7, 0.8],
                "workloads": []}              # 2 x 18 units: shard pool
        server = SweepServer(ServeConfig(store_root=tmp_path / "store",
                                         port=0, workers=1,
                                         sweep_jobs=2))
        with server.running() as port:
            client = ServeClient(f"http://127.0.0.1:{port}",
                                 timeout=120.0)
            job = client.submit(wide)
            forkserver_pid = pool_module.forkserver_pid()
            deadline = time.monotonic() + 60
            # the worker, the forkserver it starts, its shard workers
            while len(live_descendants(forkserver_pid)) < 3:
                assert time.monotonic() < deadline, "no shard pool ran"
                assert client.status(job["id"])["state"] == "running"
                time.sleep(0.05)
            started = live_descendants(forkserver_pid)
        deadline = time.monotonic() + 10
        while still_alive(started) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not still_alive(started)

    def test_worker_spans_come_from_the_worker(self, tmp_path):
        """Worker spans carry the worker's own pid in their
        ``serve-worker-<pid>`` label, never the forkserver's, and none
        predates the job."""
        server = SweepServer(ServeConfig(store_root=tmp_path / "store",
                                         port=0, workers=1,
                                         telemetry=True))
        previous = obs_trace.get_tracer()
        try:
            with server.running() as port:
                client = ServeClient(f"http://127.0.0.1:{port}",
                                     timeout=120.0)
                forkserver_pid = pool_module.forkserver_pid()
                submitted_us = time.time() * 1e6
                job = client.submit(GRID, tenant="alice")
                assert client.wait(job["id"], timeout=120)["state"] \
                    == "done"
            spans = server.tracer.snapshot()
        finally:
            obs_trace.set_tracer(previous)
        workers = [span for span in spans
                   if span["worker"].startswith("serve-worker-")]
        assert workers, "no worker spans reached the server"
        for span in workers:
            assert span["worker"] == f"serve-worker-{span['pid']}"
            assert span["pid"] not in (forkserver_pid, os.getpid())
            assert span["start_us"] >= submitted_us
        assert all(span["pid"] != forkserver_pid for span in spans)
