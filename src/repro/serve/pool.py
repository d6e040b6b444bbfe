"""Per-job worker processes for the sweep service.

Each admitted job runs in its own *process*, forked from a
``multiprocessing`` forkserver, streaming typed events back to the
server over a ``multiprocessing.Pipe``::

    ("progress", done, total)
    ("done", frame_dict, meta)        # meta: simulations, spans, ...
    ("error", "ValueError: ...")

The forkserver is a fresh interpreter the server launches (fork + exec)
when it starts.  It imports :data:`PRELOAD` once — everything a sweep or
evaluate job imports, numpy included — and then forks one worker per
job, so a worker starts with the stack already loaded instead of paying
the import each time.  Forking from it is safe although the server is
threaded: the forkserver itself is single-threaded, so a worker never
inherits a lock some other thread held.  Every job still gets its own
fresh process, so a crash or leak stays with one job.

Inside the worker the job is exactly one :class:`repro.api.Session`
call — ``serve`` really is a thin layer over the Session facade:

- ``sweep``    → :meth:`Session.sweep_frame` (orchestrated runner, the
  store frame cache double-checked worker-side so two *servers* on one
  store root dedup too);
- ``evaluate`` → :meth:`Session.evaluate` per design point;
- ``train``    → :meth:`Session.training_table`;
- ``stream``   → :meth:`repro.stream.StreamingSession.evaluate` per
  design point, relaying per-window ``("window", info)`` events so the
  server can stream rolling results over ``/events``.

Every worker attaches the one shared :class:`ArtifactStore`, so
compiled traces and LUTs are computed at most once across the whole
fleet — the concurrency-hardened store (atomic writes, gc that skips
in-flight temp files and tolerates vanishing entries) is what makes
this safe.

The pool itself (:class:`JobWorkerPool`) bounds concurrent worker
processes with a semaphore; one daemon watcher thread per job relays
pipe events to the server via its callback.  Its :meth:`shutdown`
stops the forkserver and reaps it, so no process outlives the server
and the workers (the forkserver's children) stay in the server's
process tree for resource accounting.
"""

import multiprocessing
import os
import signal
import sys
import threading
from multiprocessing import forkserver

from repro.workloads.kernels import KERNEL_MODULES

__all__ = [
    "PRELOAD",
    "JobWorkerPool",
    "execute_job",
    "forkserver_pid",
    "job_payload",
    "start_forkserver",
    "stop_forkserver",
]

#: Workers are forked from a preloaded, single-threaded forkserver —
#: never from the threaded server process itself (fork + threads risks
#: inheriting held locks).
_MP = multiprocessing.get_context("forkserver")

#: Modules the forkserver imports before it forks any worker: the
#: ``sys.modules`` difference a job of any kind makes, on a cold store
#: too (``tests/test_serve.py`` guards it for a sweep).  ``repro.cli``
#: and ``__main__`` stay out: a job needs neither.
PRELOAD = (
    "repro.serve.pool",
    "repro.core",
    "repro.sim.lockstep",
    "repro.sim.vector",
    "repro.stream",
    *KERNEL_MODULES,
    "numpy.ma",
    "numpy.random",
)


def start_forkserver():
    """Launch the preloaded forkserver (a no-op while one runs).

    Returns at once: the forkserver imports :data:`PRELOAD` while the
    caller carries on, and the first worker start waits for it.  The
    forkserver finds ``repro`` on the path the environment gives it
    (``PYTHONPATH`` or an installed package); a module it cannot import
    is skipped and imported by each worker instead.
    """
    _MP.set_forkserver_preload(list(PRELOAD))
    forkserver.ensure_running()


def forkserver_pid():
    """Pid of this process's forkserver (``None`` when not running)."""
    # the stdlib keeps the pid (and the stop below) private
    return forkserver._forkserver._forkserver_pid


def stop_forkserver():
    """Stop the forkserver and reap it (``waitpid``).

    It exits once every process forked from it has exited, so stop the
    workers first.
    """
    forkserver._forkserver._stop()


def job_payload(job, config):
    """The picklable work order shipped to a worker process."""
    return {
        "kind": job.kind,
        "grid": job.grid,
        "result_name": job.result_name,
        "store_root": str(config.store_root),
        "jobs": config.sweep_jobs,
        "engine": config.engine,
        "telemetry": bool(config.telemetry),
        "options": job.options,
    }


def execute_job(payload, on_progress, on_window=None):
    """Run one job (inside the worker process).

    Returns ``(frame, meta)`` where ``meta`` carries the dedup proof
    (``simulations``), whether the worker itself hit the frame cache,
    and — when the server traces — the worker's spans and counter
    deltas for the parent timeline.
    """
    from repro.api import Session
    from repro.dta.compiled import simulation_count
    from repro.lab.scenario import ScenarioGrid
    from repro.obs import metrics as obs_metrics

    grid = ScenarioGrid.from_dict(payload["grid"])
    session = Session(
        store=payload["store_root"], jobs=payload["jobs"],
        engine=payload["engine"],
    )
    kind = payload["kind"]
    baseline = simulation_count()
    obs_baseline = obs_metrics.gather()
    cached = False
    if kind == "sweep":
        frame, cached = session.sweep_frame(
            grid, cache_name=payload["result_name"], on_unit=on_progress,
        )
    elif kind == "train":
        frame = session.training_table(grid, on_unit=on_progress)
    elif kind == "evaluate":
        frame = _evaluate_grid(grid, payload, on_progress)
    elif kind == "stream":
        frame = _stream_grid(grid, payload, on_progress, on_window)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    meta = {
        "simulations": simulation_count() - baseline,
        "cached": cached,
        "counters": obs_metrics.delta_since(obs_baseline),
    }
    return frame, meta


def _evaluate_grid(grid, payload, on_progress):
    """``evaluate`` kind: the in-process evaluation path, one Session
    per design point, concatenated into one EVALUATION frame."""
    from repro.api import Session
    from repro.api.frame import EVALUATION_SCHEMA, ResultFrame

    points = grid.design_points()
    specs = grid.config_specs()
    rows = []
    on_progress(0, len(points))
    for index, point in enumerate(points):
        session = Session(
            variant=point.variant, voltage=point.voltage,
            store=payload["store_root"], jobs=payload["jobs"],
            engine=payload["engine"], max_cycles=grid.max_cycles,
        )
        frame = session.evaluate(
            list(grid.workload_specs()), configs=specs,
        )
        rows.extend(frame.to_rows())
        on_progress(index + 1, len(points))
    return ResultFrame.from_rows(rows, EVALUATION_SCHEMA)


def _window_event(update, point):
    """Compact JSON-ready summary of one rolling window (full rows stay
    in the final cached frame; events must stay small)."""
    return {
        "design_point": point.label,
        "program": update.program,
        "window": update.index,
        "global_window": update.global_index,
        "start_cycle": update.start_cycle,
        "cycles": update.num_cycles,
        "stream_cycles": update.stream_cycles,
        "rows": [
            {
                "config": row["config"],
                "effective_frequency_mhz": row["effective_frequency_mhz"],
                "num_violations": row["num_violations"],
            }
            for row in update.frame.to_rows()
        ],
    }


def _stream_grid(grid, payload, on_progress, on_window):
    """``stream`` kind: windowed streaming evaluation per design point,
    relaying each rolling window to the server as it lands."""
    from repro.api import Session
    from repro.api.frame import EVALUATION_SCHEMA, ResultFrame
    from repro.stream import (
        StreamingSession,
        stream_source_for,
        validate_stream_options,
    )

    options = validate_stream_options(payload.get("options"))
    points = grid.design_points()
    specs = grid.config_specs()
    rows = []
    on_progress(0, len(points))
    for index, point in enumerate(points):
        session = Session(
            variant=point.variant, voltage=point.voltage,
            store=payload["store_root"], jobs=payload["jobs"],
            engine=payload["engine"], max_cycles=grid.max_cycles,
        )
        streaming = StreamingSession(
            session, window_cycles=options["window_cycles"],
            max_windows=options["max_windows"],
        )
        emit = None
        if on_window is not None:
            emit = (lambda update, _point=point:
                    on_window(_window_event(update, _point)))
        frame = streaming.evaluate(
            stream_source_for(grid, options), configs=specs,
            on_window=emit,
        )
        rows.extend(frame.to_rows())
        on_progress(index + 1, len(points))
    return ResultFrame.from_rows(rows, EVALUATION_SCHEMA)


def _job_main(conn, payload):
    """Worker-process entry point: execute, stream events, never leak
    an exception past the pipe."""
    from repro.obs import trace as obs_trace

    # lead a process group of its own, so shutdown also ends what the
    # job starts (a sweep's shard pool)
    os.setpgid(0, 0)
    preloaded = set(sys.modules)
    # a fresh tracer (or none), so no span recorded before the fork
    # can reach the server's timeline
    obs_trace.set_tracer(
        obs_trace.Tracer(label=f"serve-worker-{os.getpid()}")
        if payload.get("telemetry") else None
    )
    try:
        frame, meta = execute_job(
            payload,
            on_progress=lambda done, total: conn.send(
                ("progress", done, total)
            ),
            on_window=lambda info: conn.send(("window", info)),
        )
        # modules the job imported that the forkserver had not
        meta["imported"] = sorted(set(sys.modules) - preloaded)
        tracer = obs_trace.get_tracer()
        if tracer is not None:
            meta["spans"] = tracer.drain()
        conn.send(("done", frame.to_dict(), meta))
    except BaseException as error:  # noqa: BLE001 — ships to the server
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
    finally:
        conn.close()


class JobWorkerPool:
    """Run jobs in bounded worker processes, relaying their events.

    Parameters
    ----------
    workers:
        Maximum concurrently running job processes; further jobs wait
        on the semaphore in submission order.
    on_event:
        ``on_event(job, message)`` called from the job's watcher thread
        for every pipe message, then once with ``("exit", exitcode)``
        after the process ends.
    """

    def __init__(self, workers, on_event):
        self.workers = max(1, int(workers))
        self.on_event = on_event
        self._slots = threading.Semaphore(self.workers)
        self._lock = threading.Lock()
        self._running = {}                    # job id -> Process
        self._closed = False

    def start(self):
        """Launch the preloaded forkserver; returns at once."""
        start_forkserver()

    def submit(self, job, payload):
        """Queue ``job`` for execution; returns immediately.  Events
        arrive on the ``on_event`` callback from a watcher thread."""
        thread = threading.Thread(
            target=self._drive, args=(job, payload),
            name=f"serve-{job.id}", daemon=True,
        )
        thread.start()

    def _drive(self, job, payload):
        with self._slots:
            try:
                process, parent_conn = self._start(job, payload)
                reason = "server shutting down"
            except Exception as error:   # noqa: BLE001 — fail the job
                # e.g. a forkserver that died while importing PRELOAD
                process, reason = None, f"worker failed to start: {error!r}"
            if process is None:
                self.on_event(job, ("error", reason))
                self.on_event(job, ("exit", -1))
                return
            try:
                while True:
                    try:
                        message = parent_conn.recv()
                    except EOFError:
                        break
                    self.on_event(job, message)
            finally:
                parent_conn.close()
                process.join()
                with self._lock:
                    self._running.pop(job.id, None)
                self.on_event(job, ("exit", process.exitcode))

    def _start(self, job, payload):
        """Fork the job's worker and register it, or ``(None, None)``
        once shut down — atomically, so :meth:`shutdown` sees every
        worker that starts."""
        with self._lock:
            if self._closed:
                return None, None
            parent_conn, child_conn = _MP.Pipe(duplex=False)
            try:
                process = _MP.Process(
                    target=_job_main, args=(child_conn, payload),
                    name=f"serve-{job.id}",
                )
                process.start()
            except BaseException:
                parent_conn.close()
                raise
            finally:
                child_conn.close()
            self._running[job.id] = process
        return process, parent_conn

    def shutdown(self, timeout=5.0):
        """Stop accepting work, end any running job process and all it
        started, then stop and reap the forkserver."""
        with self._lock:
            self._closed = True
            running = list(self._running.values())
        for process in running:
            try:
                os.killpg(process.pid, signal.SIGTERM)
            except ProcessLookupError:      # not yet leading its group
                process.terminate()
        for process in running:
            process.join(timeout=timeout)
        stop_forkserver()
